import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import alcovekit
from alcovekit import cli, weyl_affine
from alcovekit.rootdata import WeylElement
from alcovekit.loop_sim import PrecisionError


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


def test_adm_takes_each_reduced_word_once(capsys, monkeypatch):
    calls = []
    real = weyl_affine.reduced_word

    def spy(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(weyl_affine, "reduced_word", spy)
    monkeypatch.setattr(weyl_affine, "_closures", {})
    code, doc = run_json(capsys, ["adm", "--group", "GL4", "--mu", "1,1,0,0"])
    assert code == 0 and doc["payload"]["size"] == 33
    assert all(e["length"] == len(e["word"]) for e in doc["payload"]["elements"])
    # 1 for the base alcove, 6 for the distinct translations v^{w mu}, then
    # 33 sort keys in admissible_set, whose words the CLI prints
    assert len(calls) == 40


# SHA-256 of `adm --emit json`, recorded with the 2^l subword enumeration:
# the benchmark's grid, larger sets, SL/PGL, a torus, a product with GL1 and a
# mu outside the cocharacter lattice
ADM_DIGESTS = [
    ("GL3", "1,0,0", 0, "c67c1386bc957e9ac6361fd382385a1f1e944717fb6c8b5d08a8949670d6af7f"),
    ("GL3", "1,1,0", 0, "5b107e641b72597d74e27a8ca250a0742bab42b7d8177a6365271edfc39b160b"),
    ("GL3", "2,1,0", 0, "acfbf4b2d80fdd952b492ae9e578503ffc54e209c2af37d98734011767a4fbcc"),
    ("GL3", "2,0,0", 0, "1c37de81a5a197cf3404cf1e777177f6f26aaa84a5ceb10d77071569dd350c6d"),
    ("GL3", "1,0,-1", 0, "ad4dc579e69c597c0d0732ee6a53f51d9715c9bb3e34a74ba42cde2acd173e24"),
    ("GL4", "1,0,0,0", 0, "86c4dceda4d21c5090905ccd334250f439277522a408b8cdd88e63585e4a0f1f"),
    ("GL4", "1,1,0,0", 0, "768d7b2cc55b9645833382c28527d7704933571c1fdfe84a0785579320f8bf0b"),
    ("GL3xGL3", "1,0,0,1,0,0", 0, "83b0b5cbed84bf3c9217e842d1e85f141eac781f9716a98a06eabec179f5eb84"),
    ("GL2xGL2", "1,0,1,0", 0, "e7b5a2e6ee47f1b86b0cf187eb83b6a2b9d3fb8c6c22483069bd002440ad040a"),
    ("GL2", "1,0", 0, "3a1cea97b35513c87e4ef88b48d565b6104f2e12bc37fea91d55cd6b352be0d7"),
    ("GL2", "2,0", 0, "a414914e4c4b3189d4acc4531952725a502f31b34646bf19ac47591051c929fc"),
    ("GL2", "3,0", 0, "3f4108d91ba9032c657ff0b7f7d2e3a3668784936fedaef0d2128406fc069078"),
    ("GL2", "2,1", 0, "f7b8339fc768adc5667a87cbc8cc2d8e8693c280c143876d9889c7d4e4dc1111"),
    ("GL4", "3,1,0,0", 0, "13566210354e215e9757af9466a0c11fa51802411d50cb80847a2a36cd1cf92a"),
    ("GL6", "1,1,1,0,0,0", 0, "b17a8de0f0d1549a76c1b8f557517b6063bed018dc87f4fc5035907c420612cb"),
    ("GL3", "4,0,0", 0, "128adb5bcfc247d4f0e50b2f5a5af6ea59711341efcb65e5adc457569b67836a"),
    ("SL3", "1,0,-1", 0, "ad4dc579e69c597c0d0732ee6a53f51d9715c9bb3e34a74ba42cde2acd173e24"),
    ("PGL3", "1,0,-1", 0, "ad4dc579e69c597c0d0732ee6a53f51d9715c9bb3e34a74ba42cde2acd173e24"),
    ("GL1", "2", 0, "ae786e108981769ee1a68b52005920404e3bf8b813fee97124ec8d19433414d5"),
    ("GL2xGL1", "1,0,2", 0, "52141b70ca5420e3c224656f7b9412cdae498d6da96a867278604f3075c845ae"),
    ("SL3", "1,0,0", 2, "c360b673952b4c8504c760f984d37617f8e8d7ba4bfc7c961726a704e6e1f9fa"),
]


@pytest.mark.parametrize("group, mu, code, digest", ADM_DIGESTS)
def test_adm_json_digest(capsys, group, mu, code, digest):
    assert cli.main(["--emit", "json", "adm", "--group", group, "--mu", mu]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_adm_cap_on_length_times_elements(capsys):
    # 13 * 959 = 12467 elements-by-length fit under MAX_BRUHAT_WORK; 2^13
    # subwords for each of 24 translations took 13.5 s before the interval walk
    code, doc = run_json(capsys, ["adm", "--group", "GL4", "--mu", "4,2,1,0"])
    assert code == 0 and doc["payload"]["size"] == 959
    # one walk reaches 32 * 888: refused inside it, before the sort
    code, doc = run_json(capsys, ["adm", "--group", "GL3", "--mu", "16,2,0"])
    assert code == 2 and doc["status"] == "error"
    assert "capped" in doc["payload"]["error"]


@pytest.mark.parametrize("group, mu, ok", [
    ("SL3", "1,0,0", False),   # was answered with 7 elements
    ("PGL3", "1,0,0", False),
    ("SL3", "1,0,-1", True),
    ("PGL3", "1,0,-1", True),
])
def test_adm_refuses_mu_outside_the_cocharacter_lattice(capsys, group, mu, ok):
    code, doc = run_json(capsys, ["adm", "--group", group, "--mu", mu])
    assert doc["schema"] == 1
    if ok:
        assert code == 0 and doc["status"] == "ok"
    else:
        assert code == 2 and doc["status"] == "error"
        assert "cocharacter lattice" in doc["payload"]["error"]


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


def test_figure(tmp_path, capsys):
    out = tmp_path / "fig.svg"
    code, doc = run_json(capsys, [
        "figure", "--kind", "sl2", "--p", "7", "--e", "24", "--out", str(out)])
    assert code == 0 and out.exists()
    assert out.read_text().startswith("<?xml")


@pytest.mark.parametrize("out", ["missing/fig.svg", "."])
def test_figure_unwritable_out_is_an_error(tmp_path, capsys, out):
    # a missing directory escaped as a FileNotFoundError traceback
    code, doc = run_json(capsys, [
        "figure", "--kind", "sl2", "--out", str(tmp_path / out)])
    assert code == 2 and doc["status"] == "error"
    assert doc["payload"]["error"].startswith("cannot write --out")


@pytest.mark.parametrize("argv", [
    # each was accepted silently
    ["--kind", "genericity", "--p", "4"],
    ["--kind", "genericity", "--p", "7", "--depth", "-1"],
    ["--kind", "genericity", "--p", "7", "--depth", "3"],      # 3 * depth > p
    # default depth 33334: 24.7 s
    ["--kind", "genericity", "--p", "100003"],
    ["--kind", "genericity", "--p", "100003", "--depth", "8193"],  # MAX_FIGURE_DEPTH + 1
    # (e + 1) * ord_e(p) = 8193 * 1024: 52 s
    ["--kind", "sl2", "--p", "7", "--e", "8192"],
    ["--kind", "sl2", "--p", "65537", "--e", "16384"],      # r = 1, MAX_SL2_SIZE + 1
    ["--kind", "sl2", "--p", "7", "--e", str(10**15)],       # refused before ord_e(p)
    ["--kind", "sl2", "--p", "7", "--e", "0"],
])
def test_bad_figure_inputs_are_errors(tmp_path, capsys, argv):
    out = tmp_path / "fig.svg"
    code, doc = run_json(capsys, ["figure", *argv, "--out", str(out)])
    assert code == 2 and doc["schema"] == 1 and doc["status"] == "error"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--kind", "genericity", "--p", "3", "--depth", "1"],      # 3 * depth = p
    ["--kind", "genericity", "--p", "2"],
    ["--kind", "genericity", "--p", "13"],                     # default depth p // 3
    ["--kind", "genericity", "--p", "100003", "--depth", str(cli.MAX_FIGURE_DEPTH)],
    # (e + 1) * ord_e(p) = 16384 * 1
    ["--kind", "sl2", "--p", "98299", "--e", "16383"],
])
def test_figure_at_the_caps(tmp_path, capsys, argv):
    out = tmp_path / "fig.svg"
    code, doc = run_json(capsys, ["figure", *argv, "--out", str(out)])
    assert code == 0 and doc["status"] == "ok"
    assert out.read_text().endswith("</svg>\n")


def test_readme_cli_examples(tmp_path, capsys):
    # every line of the README's CLI block, with the counts its comments state
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    ran = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "alcovekit", line
        argv = argv[1:]
        if argv[0] == "verify":  # test_acceptance.py runs the criteria
            continue
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(tmp_path / "fig.svg")
        code = cli.main(argv + ["--emit", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["schema"] == 1 and doc["status"] == "ok", line
        payload = doc["payload"]
        stated = [int(n) for n in re.findall(r"\d+", comment)]
        if argv[0] == "census":
            assert stated == [payload["total"], payload["invariant"]] == [13, 7]
        elif argv[0] == "adm":
            assert stated == [payload["size"]] == [7]
        elif argv[0] == "hmu":
            assert stated == [payload["h_mu"]] == [1]
        else:
            assert stated == [], line
        ran.append(argv[0])
    assert ran == ["census", "frobinv", "generic", "adm", "hmu", "pattern", "straighten",
                   "compare", "figure"]
    assert (tmp_path / "fig.svg").read_text().startswith("<?xml")


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


@pytest.mark.parametrize("argv", [
    ["census", "--group", "SL2", "--p", "0", "--e", "1"],    # was a ZeroDivisionError
    ["census", "--group", "SL2", "--p", "6", "--e", "5"],    # p not prime
    ["census", "--group", "SL2", "--p", "-7", "--e", "24"],
    ["compare", "--p", "3", "--a", "0", "--n", "2"],         # was a TypeError
    ["compare", "--p", "4", "--a", "2", "--n", "5"],
    # p^(a-1) = 10^6 and n = 10^6 products of v+p: 11.3 s, and more than 20 s
    ["compare", "--p", "101", "--a", "4", "--n", "4"],
    ["compare", "--p", "3", "--a", "2", "--n", "1000000"],
    ["hmu", "--group", "GL3", "--mu", "5"],                  # mu of the wrong length
    # zero denominators were ZeroDivisionError tracebacks
    ["generic", "--group", "GL2", "--p", "5", "--e", "4", "--eta", "0,0", "--d", "1/0"],
    ["generic", "--group", "GL2", "--p", "5", "--e", "4", "--eta", "1/0,0", "--d", "1"],
    ["pattern", "--group", "GL2", "--p", "5", "--e", "4", "--eta", "0,-1/4", "--f", "1/0"],
    # r = 0 passed the q - 1 divisibility check and was a ZeroDivisionError
    ["census", "--group", "SL2", "--p", "7", "--e", "24", "--r", "0"],
    ["frobinv", "--group", "SL2", "--p", "7", "--e", "24", "--r", "0", "--lam=-3,3"],
    ["generic", "--group", "GL2", "--p", "5", "--e", "4", "--r", "0", "--eta", "0,0", "--d", "1"],
    ["pattern", "--group", "GL2", "--p", "5", "--e", "4", "--r", "0", "--eta", "0,-1/4"],
    # lambda outside X_*: were answered with "invariant": false
    ["frobinv", "--group", "SL2", "--p", "7", "--e", "24", "--lam=1,0"],
    ["frobinv", "--group", "PGL2", "--p", "7", "--e", "24", "--lam=1,0"],
])
def test_bad_p_a_mu_are_errors(capsys, argv):
    code, doc = run_json(capsys, argv)
    assert code == 2 and doc["schema"] == 1 and doc["status"] == "error"


@pytest.mark.parametrize("argv", [
    ["straighten", "--p", "7", "--window", "0"],    # was a PrecisionError traceback
    ["straighten", "--p", "7", "--window", "-3"],
    ["straighten", "--p", "7", "--n", "0"],         # was an AttributeError traceback
    ["straighten", "--p", "7", "--n", "9"],         # MAX_LOOP_N + 1
    # mu = (-5, 0) has height 5, not -5: the gap was computed with the wrong h_mu
    ["straighten", "--p", "7", "--hmu", "-5"],
    # each ran for more than 20 s
    ["straighten", "--p", "7", "--window", "100000"],
    ["straighten", "--p", "7", "--hmu", "100000", "--f", "100000"],
    ["straighten", "--p", "7", "--f", "4097"],      # MAX_STRAIGHTEN_SIZE + 1
    # ran for more than 25 s
    ["straighten", "--p", "7", "--a", "1000", "--f", "400", "--window", "8"],
    ["straighten", "--p", "7", "--a", "129", "--f", "400"],  # MAX_STRAIGHTEN_A + 1
    # p * window plus the poles of X^-1 B^-1 fell short of the window: each
    # ended in the internal "window slack exhausted" (exit 3)
    ["straighten", "--p", "7", "--hmu", "200", "--f", "40"],
    ["straighten", "--p", "7", "--a", "64", "--f", "400", "--window", "8"],
    ["straighten", "--p", "7", "--hmu", "4096", "--f", "700"],
])
def test_bad_straighten_inputs_are_errors(capsys, argv):
    code, doc = run_json(capsys, argv)
    assert code == 2 and doc["schema"] == 1 and doc["status"] == "error"
    assert "internal" not in doc["payload"]


def test_straighten_runs_at_the_window_it_names(capsys):
    argv = ["straighten", "--p", "7", "--hmu", "200", "--f", "40"]
    _, doc = run_json(capsys, argv)
    least = int(re.search(r"the least window that works is (\d+)", doc["payload"]["error"])[1])
    assert least == 33
    code, doc = run_json(capsys, argv + ["--window", str(least)])
    assert code == 0 and doc["status"] == "ok"
    assert doc["payload"]["residual_is_identity"] is True
    code, doc = run_json(capsys, argv + ["--window", str(least - 1)])
    assert code == 2 and doc["status"] == "error"


def test_straighten_at_the_size_cap(capsys):
    code, doc = run_json(capsys, ["straighten", "--p", "7", "--n", "8"])
    assert code == 0 and doc["status"] == "ok"
    assert doc["payload"]["residual_is_identity"] is True


def test_straighten_at_the_f_cap(capsys):
    code, doc = run_json(capsys, ["straighten", "--p", "7", "--f", str(cli.MAX_STRAIGHTEN_SIZE)])
    assert code == 0 and doc["status"] == "ok"
    assert doc["payload"]["residual_is_identity"] is True


def test_straighten_at_the_a_cap(capsys):
    argv = ["straighten", "--p", "7", "--a", str(cli.MAX_STRAIGHTEN_A), "--f", "400"]
    code, doc = run_json(capsys, argv)
    assert code == 0 and doc["status"] == "ok"
    assert doc["payload"]["residual_is_identity"] is True


@pytest.mark.parametrize("exc", [
    PrecisionError("window slack exhausted during iteration"),
    RuntimeError("boom"),
    AssertionError("broken invariant"),
])
def test_internal_errors_get_their_own_envelope(capsys, monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "straighten_right", broken)
    code, doc = run_json(capsys, ["straighten", "--p", "7"])
    assert code == 3 and doc["schema"] == 1 and doc["status"] == "error"
    assert doc["payload"]["internal"] is True
    assert type(exc).__name__ in doc["payload"]["error"]
    # text mode reports the same status
    code = cli.main(["straighten", "--p", "7"])
    assert code == 3 and "status: error" in capsys.readouterr().out


def test_straighten_with_a_huge_prime_and_a_small_window(capsys):
    # phi spreads the window over p times the exponents; only the part below
    # the window is multiplied, so this takes milliseconds (packing the whole
    # span asked for about 10^19 slots)
    code, doc = run_json(capsys, ["straighten", "--p", str(2**61 - 1), "--window", "4"])
    assert code == 0 and doc["status"] == "ok"
    assert doc["payload"]["iterations"] == 2 and doc["payload"]["update_depths"] == [1, 4]
    assert doc["payload"]["residual_is_identity"] is True


def test_closed_stdout_ends_quietly():
    # the reader stops after one byte, as `alcovekit census ... | head -c 1` does
    src = str(Path(alcovekit.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "alcovekit", "census", "--group", "GL3", "--p", "7", "--e", "24"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.read(1) == b"s"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


@pytest.mark.parametrize("argv, payload", [
    (["generic", "--group", "GL2", "--p", "5", "--e", "4", "--eta", "0,0", "--d", "1"],
     {"d": "1", "eta": ["0/1", "0/1"], "generic": False}),
    (["frobinv", "--group", "GL2", "--p", "5", "--e", "4", "--lam=1,0"],
     {"invariant": True, "lambda": [1, 0],
      "witness": {"translation": [-1, 0], "weyl": [[1, 0], [0, 1]]}}),
])
def test_psi_orbits_take_linear_work_in_r(capsys, monkeypatch, argv, payload):
    # psi^j was rebuilt from the identity for every slot j: 2 * 10^6 products at r = 2000
    calls = []
    mul = WeylElement.__mul__

    def spy(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(WeylElement, "__mul__", spy)
    for r in ("1", "2000"):
        calls.clear()
        code, doc = run_json(capsys, argv + ["--r", r])
        assert code == 0 and doc["payload"] == payload
        assert len(calls) <= 2 * 2000


def test_parser_is_built_once(capsys):
    assert cli.build_parser() is cli.build_parser()
    run_json(capsys, ["hmu", "--group", "GL3", "--mu", "1,0,0"])
    code, doc = run_json(capsys, ["hmu", "--group", "GL3", "--mu", "1,0,0"])
    assert code == 0 and doc["payload"] == {"mu": [1, 0, 0], "h_mu": 1}
    assert cli.build_parser.cache_info().misses == 1
