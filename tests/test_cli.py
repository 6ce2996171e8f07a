import json

from alcovekit import cli


def run_json(capsys, argv):
    code = cli.main(["--emit", "json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_adm(capsys):
    code, doc = run_json(capsys, ["adm", "--group", "GL3", "--mu", "1,0,0"])
    assert code == 0 and doc["schema"] == 1 and doc["status"] == "ok"
    assert doc["payload"]["size"] == 7
    words = {tuple(e["translation"]): e["word"] for e in doc["payload"]["elements"]}
    assert words[(1, 0, 0)] == [3, 2]
    assert words[(0, 0, 1)] == [2, 1]
    assert words[(0, 1, 0)] == [1, 3]


def test_hmu(capsys):
    code, doc = run_json(capsys, ["hmu", "--group", "GL3xGL3", "--mu", "1,0,0,1,0,0"])
    assert code == 0 and doc["payload"]["h_mu"] == 1


def test_census(capsys):
    code, doc = run_json(capsys, ["census", "--group", "SL2", "--p", "7", "--e", "24"])
    assert code == 0
    assert doc["payload"]["total"] == 13
    assert doc["payload"]["invariant"] == 7
    inv = [c for c in doc["payload"]["classes"] if c["invariant"]]
    assert all("witness" in c for c in inv)


def test_frobinv(capsys):
    code, doc = run_json(capsys, [
        "frobinv", "--group", "SL2", "--p", "7", "--e", "24", "--lam=-3,3"])
    assert code == 0 and doc["payload"]["invariant"] is True
    assert doc["payload"]["witness"]["weyl"] == [[0, 1], [1, 0]]


def test_generic(capsys):
    code, doc = run_json(capsys, [
        "generic", "--group", "SL2", "--p", "7", "--e", "24",
        "--eta", "1/8,-1/8", "--d", "1"])
    assert code == 0 and doc["payload"]["generic"] is True
    code, doc = run_json(capsys, [
        "generic", "--group", "SL2", "--p", "7", "--e", "24",
        "--eta", "0,0", "--d", "0"])
    assert doc["payload"]["generic"] is False


def test_pattern(capsys):
    code, doc = run_json(capsys, [
        "pattern", "--group", "GL2", "--p", "5", "--e", "4",
        "--eta", "0,-1/4", "--f", "0"])
    assert code == 0
    assert doc["payload"]["lower_bounds"] == [["0/1", "-1/4"], ["1/4", "0/1"]]


def test_compare(capsys):
    code, doc = run_json(capsys, ["compare", "--p", "3", "--a", "2", "--n", "7"])
    assert code == 0
    assert doc["payload"]["first_inclusion"] and doc["payload"]["second_inclusion"]
    assert doc["payload"]["frobenius_congruence"]


def test_straighten_ok(capsys):
    code, doc = run_json(capsys, [
        "straighten", "--p", "7", "--a", "1", "--f", "1", "--hmu", "1",
        "--seed", "5", "--window", "28"])
    assert code == 0
    assert doc["payload"]["residual_is_identity"] is True
    assert doc["payload"]["iterations"] <= 28 // 5 + 2


def test_straighten_refused(capsys):
    # (p-1)f - h_mu - 2a + 2 = -1 at (3, 2, 1, 1)
    code, doc = run_json(capsys, [
        "straighten", "--p", "3", "--a", "2", "--f", "1", "--hmu", "1", "--seed", "1"])
    assert code == 1 and doc["status"] == "refused"


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("ALCOVEKIT_PRECISION", "21")
    code, doc = run_json(capsys, [
        "straighten", "--p", "7", "--a", "1", "--f", "1", "--hmu", "1", "--seed", "5"])
    assert code == 0 and doc["payload"]["window"] == 21


def test_figure(tmp_path, capsys):
    out = tmp_path / "fig.svg"
    code, doc = run_json(capsys, [
        "figure", "--kind", "sl2", "--p", "7", "--e", "24", "--out", str(out)])
    assert code == 0 and out.exists()
    assert out.read_text().startswith("<?xml")


def test_usage_error():
    assert cli.main(["nonsense"]) == 2
    assert cli.main(["adm"]) == 2  # missing required arguments


def test_error_status(capsys):
    code, doc = run_json(capsys, ["adm", "--group", "E8", "--mu", "1,0"])
    assert code == 2
    assert doc["status"] == "error"


def test_verify_wiring(capsys, monkeypatch):
    from alcovekit import acceptance

    def fake_run_all():
        return [acceptance.CriterionResult(1, "stub", True, "ok")]

    monkeypatch.setattr(acceptance, "run_all", fake_run_all)
    code = cli.main(["verify"])
    out = capsys.readouterr().out
    assert code == 0 and "[PASS] criterion 1" in out

    def fake_fail():
        return [acceptance.CriterionResult(1, "stub", False, "boom")]

    monkeypatch.setattr(acceptance, "run_all", fake_fail)
    code = cli.main(["verify"])
    out = capsys.readouterr().out
    assert code == 1 and "[FAIL]" in out


def test_census_wild_e_is_an_error_not_a_hang(capsys):
    # 7 divides e = 14, so ord_e(7) does not exist; this input used to loop forever
    code, doc = run_json(capsys, ["census", "--group", "SL2", "--p", "7", "--e", "14"])
    assert code == 2 and doc["schema"] == 1 and doc["status"] == "error"


def test_wrong_length_vector_is_an_error(capsys):
    code, doc = run_json(capsys, [
        "generic", "--group", "GL3", "--p", "19", "--e", "36", "--eta", "1/4", "--d", "2"])
    assert code == 2 and doc["status"] == "error"
    code, doc = run_json(capsys, [
        "frobinv", "--group", "SL2", "--p", "7", "--e", "24", "--lam=1,2,3"])
    assert code == 2 and doc["status"] == "error"
