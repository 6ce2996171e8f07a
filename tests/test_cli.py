import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import alcovekit
from alcovekit import cli, galois, loop_sim, rootdata, weyl_affine
from alcovekit.rootdata import WeylElement
from alcovekit.loop_sim import PrecisionError
from test_galois import CENSUS_CASES


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
    words, descents = [], []
    real_word, real_descent = weyl_affine.reduced_word, weyl_affine._descent

    def word_spy(*args):
        words.append(args[0].key())
        return real_word(*args)

    def descent_spy(z, lz, base, wy=None):
        descents.append(z.key())
        return real_descent(z, lz, base, wy)

    monkeypatch.setattr(weyl_affine, "reduced_word", word_spy)
    monkeypatch.setattr(weyl_affine, "_descent", descent_spy)
    monkeypatch.setattr(weyl_affine, "_closures", {})
    code, doc = run_json(capsys, ["adm", "--group", "GL4", "--mu", "1,1,0,0"])
    elements = doc["payload"]["elements"]
    assert code == 0 and doc["payload"]["size"] == 33
    assert all(e["length"] == len(e["word"]) for e in elements)
    # reduced_word runs only for the base alcove's Omega generator v^(1,0,0,0),
    # whose walk descends 3 times; then each of the 32 elements of Adm with
    # positive length finds its first descent once, and its word is memoized
    assert words == [((1, 0, 0, 0), WeylElement.identity(4))]
    assert len(descents) == 3 + 32
    positive = sorted((tuple(e["translation"]), tuple(e["finite"]))
                      for e in elements if e["length"] > 0)
    assert sorted((t, w.perm()) for t, w in descents[3:]) == positive


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
    ["--kind", "sl2", "--p", "65537", "--e", "16384"],      # e + 1 = MAX_SL2_SIZE + 1
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
    # e + 1 = MAX_SL2_SIZE
    ["--kind", "sl2", "--p", "98299", "--e", "16383"],
    # r = ord_e(p) = 1024 no longer counts: 52 s when each node built a type
    # over r slots, refused while the cap was on (e + 1) * r, now 0.04 s
    ["--kind", "sl2", "--p", "7", "--e", "8192"],
])
def test_figure_at_the_caps(tmp_path, capsys, argv):
    out = tmp_path / "fig.svg"
    code, doc = run_json(capsys, ["figure", *argv, "--out", str(out)])
    assert code == 0 and doc["status"] == "ok"
    assert out.read_text().endswith("</svg>\n")


def test_readme_cli_examples(tmp_path, capsys):
    # every line of the README's CLI block, with the counts its comments state
    ran = []
    for line in _readme_cli_lines():
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


def _argparse_reference():
    """The argparse parser the command table replaced, as the reference for its grammar."""
    import argparse

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--emit", choices=("json", "text"), default=argparse.SUPPRESS)
    ap = argparse.ArgumentParser(
        prog="alcovekit",
        description="Exact Bruhat-Tits combinatorics: types, alcoves, loop groups.",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="command", required=True)
    _parents = {"parents": [common]}

    def common_group(sp):
        sp.add_argument("--group", required=True)
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--e", type=int, required=True)

    sp = sub.add_parser("census", help="type classes at fixed (p, e)", **_parents)
    common_group(sp)
    sp.set_defaults(func=cli._cmd_census)

    sp = sub.add_parser("frobinv", help="Frobenius invariance of one type", **_parents)
    common_group(sp)
    sp.add_argument("--lam", required=True, help="comma separated integers")
    sp.set_defaults(func=cli._cmd_frobinv)

    sp = sub.add_parser("generic", help="d-genericity of an apartment point", **_parents)
    common_group(sp)
    sp.add_argument("--eta", required=True, help="comma separated rationals")
    sp.add_argument("--d", required=True)
    sp.set_defaults(func=cli._cmd_generic)

    sp = sub.add_parser("adm", help="admissible set of a dominant cocharacter", **_parents)
    sp.add_argument("--group", required=True)
    sp.add_argument("--mu", required=True)
    sp.set_defaults(func=cli._cmd_adm)

    sp = sub.add_parser("hmu", help="height of a cocharacter", **_parents)
    sp.add_argument("--group", required=True)
    sp.add_argument("--mu", required=True)
    sp.set_defaults(func=cli._cmd_hmu)

    sp = sub.add_parser("pattern", help="parahoric valuation pattern at a point", **_parents)
    common_group(sp)
    sp.add_argument("--eta", required=True)
    sp.add_argument("--f", default="0", help="constant concave level, or 0+")
    sp.set_defaults(func=cli._cmd_pattern)

    sp = sub.add_parser("straighten", help="run the straightening solver", **_parents)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", type=int, default=1)
    sp.add_argument("--f", type=int, default=1)
    sp.add_argument("--hmu", type=int, default=1)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--window", type=int, default=None)
    sp.set_defaults(func=cli._cmd_straighten)

    sp = sub.add_parser("compare", help="v versus v+p congruence identities", **_parents)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cli._cmd_compare)

    sp = sub.add_parser("figure", help="render an apartment figure to SVG", **_parents)
    sp.add_argument("--kind", required=True,
                    choices=tuple(cli._FIGURE_KINDS) + tuple(cli._FIGURE_KINDS.values()))
    sp.add_argument("--p", type=int, default=7)
    sp.add_argument("--e", type=int, default=24)
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--mu", default="1,0,0")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cli._cmd_figure)

    sp = sub.add_parser("verify", help="run the full acceptance suite", **_parents)
    sp.set_defaults(func=cli._cmd_verify)
    return ap


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


# argv shaped as the benchmark's requests: values after "=", negative ones
# included, and every flag of straighten, compare and figure
_BENCHMARK_SHAPED = [
    "frobinv --group GL3 --p 5 --e 8 --lam=3,-2,0",
    "frobinv --group PGL3 --p 3 --e 13 --lam=-12,5,7",
    "generic --group PGL3 --p 3 --e 13 --eta=5/13,-2/13,-3/13 --d 1",
    "generic --group SL2 --p 7 --e 24 --eta=-23/24,23/24 --d 0",
    "pattern --group GL2 --p 7 --e 24 --eta=1/24,-5/24 --f 0+",
    "pattern --group GL3 --p 5 --e 24 --eta=1/24,-5/24,0/1 --f 1/2",
    "hmu --group GL2xGL2 --mu=1,-3,0,2",
    "straighten --p 5 --a 2 --f 2 --hmu 1 --n 3 --seed 271828",
    "compare --p 7 --a 2 --n 10",
    "figure --kind sl2 --p 7 --e 48 --out .perfbench_out/fig.svg",
    "figure --kind genericity --p 19 --depth 6 --out .perfbench_out/fig.svg",
    "figure --kind admissible --mu 1,1,0 --out .perfbench_out/fig.svg",
    "adm --group GL3xGL3 --mu=1,0,0,1,0,0",
]


def _parity_argvs():
    argvs = [shlex.split(row[1]) for row in CLI_DIGESTS]
    argvs += [["adm", "--group", group, "--mu", mu] for group, mu, _, _ in ADM_DIGESTS]
    argvs += [shlex.split(line.partition("#")[0])[1:] for line in _readme_cli_lines()]
    return argvs + [shlex.split(line) for line in _BENCHMARK_SHAPED]


@pytest.mark.parametrize("emit", [[], ["--emit", "json"], ["--emit=text"]])
def test_table_parses_as_argparse_did(emit):
    ref = _argparse_reference()
    for argv in _parity_argvs():
        for line in (emit + argv, argv + emit):
            expected = vars(ref.parse_args(line))
            func = expected.pop("func")
            del expected["command"]
            expected.setdefault("emit", "text")
            handler, args = cli._parse(line)
            assert handler is func and vars(args) == expected, line


_USAGE_ERRORS = [
    [],                                                  # no command
    ["--emit", "json"],
    ["nonsense"],                                        # unknown command
    ["adm", "--group", "GL3", "--mu", "1,0,0", "--bogus", "1"],   # unknown flag
    ["adm", "--group", "GL3", "--mu", "1,0,0", "extra"],
    ["hmu", "--group", "GL3", "--mu"],                   # missing value
    ["hmu", "--group", "--mu", "1,0,0"],
    ["adm", "--group", "GL3", "--mu", "1,0,0", "--emit"],
    ["adm"],                                             # missing required flags
    ["adm", "--group", "GL3"],
    ["figure", "--kind", "sl2"],
    ["compare", "--p", "x", "--a", "1", "--n", "2"],     # bad int
    ["straighten", "--p=7.0"],
    ["figure", "--kind", "hexagon", "--out", "f.svg"],   # bad choice
    ["--emit", "xml", "hmu", "--group", "GL3", "--mu", "1,0,0"],
    ["hmu", "--group", "GL3", "--mu", "1,0,0", "--emit=yaml"],
]


@pytest.mark.parametrize("argv", _USAGE_ERRORS, ids=" ".join)
def test_usage_errors_exit_2_with_empty_stdout(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _argparse_reference().parse_args(argv)
    assert exc.value.code == 2 and capsys.readouterr().out == ""
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: alcovekit")
    assert err.splitlines()[-1].startswith("alcovekit: error: ")


@pytest.mark.parametrize("spaced, joined", [
    ("frobinv --group SL2 --p 7 --e 24 --lam -3,3", "frobinv --group SL2 --p 7 --e 24 --lam=-3,3"),
    ("generic --group SL2 --p 7 --e 24 --eta -1/8,1/8 --d 1",
     "generic --group SL2 --p 7 --e 24 --eta=-1/8,1/8 --d 1"),
])
def test_values_may_begin_with_a_dash(capsys, spaced, joined):
    with pytest.raises(SystemExit):  # argparse took -3,3 for a flag
        _argparse_reference().parse_args(shlex.split(spaced))
    capsys.readouterr()
    assert cli.main(shlex.split(spaced) + ["--emit", "json"]) == 0
    out = capsys.readouterr().out
    assert cli.main(shlex.split(joined) + ["--emit", "json"]) == 0
    assert capsys.readouterr().out == out


def test_flags_are_not_abbreviated(capsys):
    argv = ["adm", "--gro", "GL3", "--mu", "1,0,0"]
    assert _argparse_reference().parse_args(argv).group == "GL3"
    assert cli.main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["adm", "--help"], ["--emit", "json", "-h"]])
def test_help_lists_every_command(capsys, argv):
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: alcovekit")
    for name, (_, text, _) in cli._COMMANDS.items():
        assert f"  {name:<11} {text}" in out


def test_cli_import_leaves_argparse_and_acceptance_out():
    src = str(Path(alcovekit.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, alcovekit.cli; "
         "print(sorted({'argparse', 'gettext', 'alcovekit.acceptance'} & set(sys.modules)))"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"


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
    # a above the bound of Ring; with p composite, the bound is named first
    ["compare", "--p", "3", "--a", "129", "--n", "200"],
    ["compare", "--p", "4", "--a", "129", "--n", "200"],
    ["hmu", "--group", "GL3", "--mu", "5"],                  # mu of the wrong length
    # zero denominators were ZeroDivisionError tracebacks
    ["generic", "--group", "GL2", "--p", "5", "--e", "4", "--eta", "0,0", "--d", "1/0"],
    ["generic", "--group", "GL2", "--p", "5", "--e", "4", "--eta", "1/0,0", "--d", "1"],
    ["pattern", "--group", "GL2", "--p", "5", "--e", "4", "--eta", "0,-1/4", "--f", "1/0"],
    # e < 1 or gcd(p, e) > 1: ord_e(p) does not exist
    ["census", "--group", "SL2", "--p", "7", "--e", "0"],
    ["frobinv", "--group", "SL2", "--p", "7", "--e", "-24", "--lam=-3,3"],
    ["generic", "--group", "GL2", "--p", "5", "--e", "10", "--eta", "0,0", "--d", "1"],
    ["pattern", "--group", "GL2", "--p", "5", "--e", "0", "--eta", "0,-1/4"],
    # lambda outside X_*: were answered with "invariant": false
    ["frobinv", "--group", "SL2", "--p", "7", "--e", "24", "--lam=1,0"],
    ["frobinv", "--group", "PGL2", "--p", "7", "--e", "24", "--lam=1,0"],
])
def test_bad_p_a_mu_are_errors(capsys, argv):
    code, doc = run_json(capsys, argv)
    assert code == 2 and doc["schema"] == 1 and doc["status"] == "error"


@pytest.mark.parametrize("argv", [
    # p^(a-1) = 10^6 and n = 10^6 products of v+p were refused; (v+p)^k
    # mod p^a has at most a terms
    ["compare", "--p", "101", "--a", "4", "--n", "4"],
    ["compare", "--p", "3", "--a", "2", "--n", "1000000"],
])
def test_compare_answers_large_powers(capsys, argv):
    code, doc = run_json(capsys, argv)
    assert code == 0 and doc["status"] == "ok"
    pay = doc["payload"]
    assert pay["first_inclusion"] and pay["second_inclusion"] and pay["frobenius_congruence"]


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
    ["straighten", "--p", "7", "--a", "129", "--f", "400"],  # MAX_A + 1
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
    argv = ["straighten", "--p", "7", "--a", str(loop_sim.MAX_A), "--f", "400"]
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


@pytest.mark.parametrize("emit, first", [("text", b"s"), ("json", b"{")], ids=["text", "json"])
def test_closed_stdout_ends_quietly(emit, first):
    # the reader stops after one byte, as `alcovekit census ... | head -c 1`
    # does; the pipe breaks in the middle of the streamed census
    src = str(Path(alcovekit.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "alcovekit", "census", "--group", "GL3", "--p", "7", "--e", "24",
         "--emit", emit],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.read(1) == first
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


@pytest.mark.parametrize("argv, payload", [
    (["frobinv", "--group", "GL2", "--p", "7", "--e", "1000000007", "--lam=0,0"],
     {"invariant": True, "lambda": [0, 0],
      "witness": {"translation": [0, 0], "weyl": [[1, 0], [0, 1]]}}),
    (["generic", "--group", "GL2", "--p", "7", "--e", "1000000007", "--eta=1/3,0", "--d", "1"],
     {"d": "1", "eta": ["1/3", "0/1"], "generic": True}),
    (["pattern", "--group", "GL2", "--p", "7", "--e", "1000000007", "--eta=1/3,0"],
     {"e": 1000000007, "n": 2, "torus_level": "0/1",
      "lower_bounds": [["0/1", "-333333335/1000000007"], ["333333336/1000000007", "0/1"]]}),
])
def test_one_psi_period_answers_at_a_large_e(capsys, argv, payload):
    # r = ord_e(7) = (e - 1) / 2 here; a point of a split Gamma is one slot
    start = time.perf_counter()
    code, doc = run_json(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 0 and doc["payload"] == payload


@pytest.mark.parametrize("argv", [
    ["census", "--group", "GL1", "--p", "7", "--e", "1000000007"],
    ["census", "--group", "GL1", "--p", "7", "--e", "1000000000039"],
    ["frobinv", "--group", "GL2", "--p", "7", "--e", "1000000000039", "--lam=0,0"],
    ["generic", "--group", "GL2", "--p", "7", "--e", "1000000000039", "--eta=1/3,0", "--d", "1"],
    ["pattern", "--group", "GL2", "--p", "7", "--e", "1000000000039", "--eta=1/3,0"],
])
def test_large_e_is_an_error_within_a_second(capsys, argv):
    # census caps e at 10^4 after ord_e(p); split_gamma refuses e above 10^12
    start = time.perf_counter()
    code, doc = run_json(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and doc["status"] == "error"


def test_repeated_requests_answer_alike(capsys):
    run_json(capsys, ["hmu", "--group", "GL3", "--mu", "1,0,0"])
    code, doc = run_json(capsys, ["hmu", "--group", "GL3", "--mu", "1,0,0"])
    assert code == 0 and doc["payload"] == {"mu": [1, 0, 0], "h_mu": 1}


# SHA-256 of CLI output recorded with json.dumps(indent=2, sort_keys=True) as
# the writer: census on the benchmark's grid and three larger groups, one
# input of every other data subcommand, an error and a refused envelope, and
# the text form of census, hmu and verify
CLI_DIGESTS = [
    ("json", "census --group GL3 --p 7 --e 24", 0,
     "1bf9d624236f2c0df5b929bfa7750aebac9bc5000771bf94ef2c8e1bd7785a26"),
    ("json", "census --group GL3 --p 3 --e 13", 0,
     "8784d47ca9cce2034e2a70de99175b7545c264f2a3ff6055a7f04b6893295bed"),
    ("json", "census --group GL3 --p 5 --e 8", 0,
     "a52066960bd39133f52a667d3bdb2b5aa18c2439338ff3d6129b7a896b9a111b"),
    ("json", "census --group SL3 --p 7 --e 24", 0,
     "bd439159c2c72f9cb3481f038bfdef7273fa4ab781f2da2590db072ae827232f"),
    ("json", "census --group SL3 --p 3 --e 13", 0,
     "d217e929db260c884649e1b4f61cd5b4eacaf2146c2f6b78be5fb18a77e39bac"),
    ("json", "census --group SL3 --p 5 --e 8", 0,
     "e1b2a1dedf1302fb31df21b924ca1c8adff39e32d1973686044ea12a90111b79"),
    ("json", "census --group PGL3 --p 7 --e 24", 0,
     "8addae8ed3a3296e26bdd991d9d9581a75e9dc714648323bf69fc68d40e6c6e6"),
    ("json", "census --group PGL3 --p 3 --e 13", 0,
     "c919118479305c5bf3e52835c85013c4e5474ce2f979b59d573be394c9d416b4"),
    ("json", "census --group PGL3 --p 5 --e 8", 0,
     "e917e72ea763a6fb9d101d45ff798c609964ca47d0c7514cf52fcad1628e275e"),
    ("json", "census --group GL2 --p 7 --e 24", 0,
     "307d4208fb304adfd5ff859336a5f2d434da89d328eae3b522c71c5f586502a2"),
    ("json", "census --group GL2 --p 5 --e 8", 0,
     "e4fd9c0f8a7e4de60b9e1de3700426b35ec0f4bc57e4c8cd0b20d7bc674de005"),
    ("json", "census --group GL2 --p 3 --e 13", 0,
     "e92fa8a45b2817e47e64ca6f19bf137a4815be6230544d5ab0ab41e69cf0879c"),
    ("json", "census --group GL2 --p 5 --e 24", 0,
     "04e39cce5f0f3e9cb47fff69af732d9ec0ca361571cf2444b865fcd510423b7b"),
    ("json", "census --group SL2 --p 7 --e 24", 0,
     "c2095139ef86a9d79091cfe8dfd3fe41bb1bac6790cae807c75dc1f2eeae81b6"),
    ("json", "census --group SL2 --p 5 --e 8", 0,
     "cfdf0d618ea60f8aa5899f89e73cd50739584267c2130636b66bb613abf73a02"),
    ("json", "census --group SL2 --p 13 --e 84", 0,
     "02d864c63511c2111df8c4bb179af03d19d308662dd9c35cb2e0266d84b3a95c"),
    ("json", "census --group PGL2 --p 7 --e 24", 0,
     "c73c0c3ee64ad3bbf5b34770ee2ec02abc171fa0292a6c63367b0dd4cc80cf9b"),
    ("json", "census --group PGL2 --p 5 --e 8", 0,
     "6eb0243a927d349a792ed6eb7f9fad0d57ef2af563e081c6d786b582407128ac"),
    ("json", "census --group SL4 --p 7 --e 24", 0,
     "1bb73ec456ddd2b4eb008e572f3d5b5f53ede3fb3334747f9a9ad17d3b7a9b10"),
    ("json", "census --group PGL4 --p 7 --e 24", 0,
     "171b86e247306e702e1776e84dbe886ce9c0b05c0cefaa6aa7f22a18e6ff3b7f"),
    ("json", "census --group GL2xGL1 --p 5 --e 8", 0,
     "50324b7b23daab3dcb31490ace52b358966284d3110f9a1dd32e4b32f60de0d4"),
    ("json", "frobinv --group SL2 --p 7 --e 24 --lam=-3,3", 0,
     "d8214c77b6a6f6bc08c2012fb776f7c49b07d86c779bb8bcb6a5a420d5bec8cd"),
    ("json", "generic --group SL2 --p 7 --e 24 --eta 1/8,-1/8 --d 1", 0,
     "5261db85a096006b9a7fd40eceec5cb897ae64527f0a62296f2d954ab454b6b8"),
    ("json", "pattern --group GL2 --p 5 --e 4 --eta 0,-1/4 --f 0", 0,
     "4daf4ca2e6f2a8c88d4a10b617270a8591076a072c1fe8e1ca2dd91736f30492"),
    ("json", "hmu --group GL3xGL3 --mu 1,0,0,1,0,0", 0,
     "76bb78f77f59590fd1772641ef78b71d255db5853af7a94216786463abb5c8a5"),
    # mixed products and GL1: block-by-block roots, walls and Weyl order
    ("json", "census --group SL2xPGL2 --p 5 --e 8", 0,
     "73dbc43145d9181c893b2bf234889712721d17d010547fb5a2d232e17d31dc90"),
    ("json", "generic --group GL2xGL2 --p 7 --e 24 --eta=1/8,-1/8,1/3,0 --d 1", 0,
     "c165116ccaa3f9c3e29dbe05b66b58416158b33ac034b7dc4a6b1e29e57dd2b0"),
    ("json", "hmu --group GL1 --mu 5", 0,
     "6fc7e2752453fe03fd57829c913158c86a5f30d011076f202d83cd133c6a83bc"),
    ("json", "hmu --group SL2xGL1xPGL3 --mu 1,-1,4,2,0,-2", 0,
     "364f20e7948b980730fa10308f28b292c32bfbb8fc2abc884f527964aee5fb7c"),
    # a common den (6, or 3 beside SL2) that differs from a block's own
    ("json", "census --group PGL2xPGL3 --p 7 --e 12", 0,
     "2ba90ef797046e37a57af2925856a47b4779b4c2639aa7acd552d42f172d1f46"),
    ("json", "frobinv --group PGL2xPGL3 --p 13 --e 12 --lam=3,-3,2,1,-3", 0,
     "ad95fe440676ed8b75bb99ca371fd68c584785e1a7a1eb0991b1707e4c9da970"),
    ("json", "adm --group SL2xPGL3 --mu 1,-1,1,0,-1", 0,
     "131cb916cc8d3d08de4689c1644aa8b05212869e8f381ccedc45e34496ab57c5"),
    ("json", "straighten --p 7 --a 1 --f 1 --hmu 1 --seed 5 --window 28", 0,
     "0a6b311c11c68d454ec732ab79e274993723432b73994e6c1e468b0fe36bbded"),
    # wide windows: every unit inverse lifts its terms by Newton's iteration
    ("json", "straighten --p 7 --n 3 --seed 1 --window 1024", 0,
     "a2a1c7257e7531c0fd042d6bc6fc921039649e3e18e07ab6302e461300af4220"),
    ("json", "straighten --p 5 --a 3 --f 2 --n 2 --seed 2 --window 2048", 0,
     "097417c8c0045936f66409a976af87ce6e30ef77653b4c1aa6a6df756cc10b63"),
    ("json", "straighten --p 11 --a 2 --f 1 --hmu 1 --n 3 --seed 7 --window 512", 0,
     "b613f0c9ac0c9c44af86cb75cbcc27e9b48ed24267cc452c4e20df9144989237"),
    ("json", "compare --p 3 --a 2 --n 7", 0,
     "d2abe2eaa8783c84fdbefd0f8aacbc770140038774f330a3e6c47e8cc736e7d7"),
    ("json", "adm --group GL4 --mu 2,1,0,0", 0,
     "cfbedff1383a34ae112bd49af84b7d4716a23c73c719bf8b74ca49330637501b"),
    ("json", "adm --group E8 --mu 1,0", 2,
     "3603b96622f5884d1f1b51df2f6bdf7220220422a0acc217c9007370595884ca"),
    ("json", "straighten --p 3 --a 2 --f 1 --hmu 1 --seed 1", 1,
     "d3a5e5d0d00de0a6e2b9d83b9a6bae65ab4372a883311f7f765cf0b3c979c64a"),
    ("text", "census --group SL2 --p 7 --e 24", 0,
     "e7a27de88f8e50e56bc77fd046ced75445b764c58c719b363329495aab6ca01e"),
    ("text", "hmu --group GL3 --mu 1,0,0", 0,
     "8808b47cbe27fc8998616ac9a6cdaf16048a7c3ac99a318685e404629878c068"),
    ("text", "verify", 0,
     "6b5a3bd19ee9d2e76143b5371ea61e9f4d451cd13b92d66d2be8630837554511"),
]


@pytest.mark.parametrize("emit, argv, code, digest", CLI_DIGESTS,
                         ids=[f"{row[0]}-{row[1]}" for row in CLI_DIGESTS])
def test_cli_output_digest(capsys, emit, argv, code, digest):
    assert cli.main(shlex.split(argv) + ["--emit", emit]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class _Tag(str):
    pass


class _Count(int):
    pass


# leaves the writer must encode as the json module does: booleans next to the
# ints they equal, huge ints, strings that need escapes, subclasses of str and
# int, and empty containers of each kind
_LEAVES = [
    True, False, 1, 0, -1, None, 2**64 + 1, -(10**30),
    "", "plain", 'say "hi"', "back\\slash", "two\nlines",
    "\t\r\b\f", "\x00\x1f\x7f", "caf\u00e9", "\u03bb \u2208 X_*", "\U0001f600", "\u2028",
    _Tag("tag"), _Count(7), {}, [], (), {"e": {}}, [[], ()],
]
# digit keys sort as strings ("10" before "2"), as compare and straighten emit them
_KEYS = ["10", "2", "1", "0", "-1", "a", "B", "", "schema", 'q"uote', "caf\u00e9", "\n"]


def _random_document(rng, depth=0):
    kind = rng.randrange(3 if depth < 4 else 1)
    if kind == 0:
        return rng.choice(_LEAVES)
    items = [_random_document(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 1:
        return items if rng.random() < 0.7 else tuple(items)
    return dict(zip(rng.sample(_KEYS, len(items)), items))


def test_writer_matches_the_json_module():
    rng = random.Random(20261019)
    docs = [_random_document(rng) for _ in range(400)]
    docs += [_LEAVES, {k: v for k, v in zip(_KEYS, _LEAVES)}]
    for doc in docs:
        assert cli._dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


def _texts(items, default=None):
    """items as the writer streams a list: a callable from the line break and
    indentation of the items' closing brackets to their texts."""
    return lambda newline: (cli._dumps(v, default, newline) for v in items)


def _lazy(doc, rng):
    """doc with some of the lists reached through dicts alone given as _texts."""
    if isinstance(doc, dict):
        return {k: _lazy(v, rng) for k, v in doc.items()}
    if isinstance(doc, list) and rng.random() < 0.5:
        return _texts(doc)
    return doc


def test_streamed_writer_matches_the_json_module():
    rng = random.Random(20261020)
    docs = [_random_document(rng) for _ in range(400)]
    streamed = 0
    for doc in docs:
        lazy = _lazy(doc, rng)
        streamed += str(lazy).count("<lambda>")
        pieces = []
        cli._write(lazy, pieces.append)
        assert "".join(pieces) == json.dumps(doc, indent=2, sort_keys=True)
    assert streamed >= 100
    for lazy, doc in [(_texts([]), []), ({"a": _texts([])}, {"a": []})]:
        pieces = []
        cli._write(lazy, pieces.append)
        assert "".join(pieces) == json.dumps(doc, indent=2, sort_keys=True)
    # an unknown leaf inside a streamed list goes through `default`, as in _dumps
    lam = [Fraction(-3, 4), 1, {"z": Fraction(1, 2)}]
    pieces = []
    cli._write({"lam": _texts(lam, str), "f": Fraction(5, 7)}, pieces.append, default=str)
    assert "".join(pieces) == json.dumps({"lam": lam, "f": Fraction(5, 7)}, indent=2,
                                         sort_keys=True, default=str)
    assert len(pieces) > len(lam) + 2  # one piece per item, not one for the list


class _Discard:
    """A stdout that counts the characters it is given and keeps none."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def test_census_output_is_streamed(monkeypatch):
    # 0.57 MB of JSON: joined whole, the document held about 5.7 times that;
    # streamed, the peak is about 1.1 times, most of it the census classes
    sink = _Discard()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = cli.main(["census", "--group", "GL3", "--p", "7", "--e", "24", "--emit", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.chars > 500_000
    assert peak < 2 * sink.chars  # the output is ASCII, so characters are bytes


def _census_entry(c) -> dict:
    """A census class's JSON entry as a dict, as the CLI built it for _dumps."""
    out = {"class": list(c.coords),
           "representative": [cli._ratio_str(n, c.den) for n in c.num],
           "invariant": c.invariant}
    if c.witness is not None:
        out["witness"] = cli._witness_json(c.witness)
    return out


@pytest.mark.parametrize("label, p, e", CENSUS_CASES)
def test_census_template_writes_the_bytes_of_dumps(label, p, e):
    # the entries sit at "\n    " in the text form and "\n      " in the json
    # form; the trivial group's entries hold only empty lists
    rd = rootdata.build_root_datum(label)
    classes = galois.census(rd, rootdata.split_gamma(rd, p, e)).classes
    for newline in ("\n    ", "\n      "):
        want = [cli._dumps(_census_entry(c), newline=newline) for c in classes]
        assert list(cli._census_texts(rd, classes, newline)) == want


def test_writer_takes_unknown_leaves_as_the_json_module_does():
    doc = {"lam": [Fraction(-3, 4), 1], "z": {"w": complex(1, 2)}}
    assert cli._dumps(doc, default=str) == json.dumps(doc, indent=2, sort_keys=True,
                                                        default=str)
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        cli._dumps(doc)
    for doc in ({2: "int key"}, [0.5]):  # no payload holds either
        with pytest.raises(TypeError):
            cli._dumps(doc)


def test_adm_walks_the_orbit_not_the_weyl_group(capsys, monkeypatch):
    # the 9! elements of W were built to find the 9 translations v^{w mu}
    def boom(*args, **kwargs):
        raise AssertionError("weyl_group called")

    monkeypatch.setattr(rootdata, "weyl_group", boom)
    monkeypatch.setattr(weyl_affine, "weyl_group", boom, raising=False)
    code, doc = run_json(capsys, ["adm", "--group", "GL9", "--mu", "1,0,0,0,0,0,0,0,0"])
    assert code == 0 and doc["payload"]["size"] == 2**9 - 1


def test_frobinv_builds_its_witness_without_the_weyl_group(capsys, monkeypatch):
    # the witness is the least-length solution, built block by block; the
    # scan over W took 22.6 s to build the 9! elements of GL9
    def boom(*args, **kwargs):
        raise AssertionError("weyl_group called")

    monkeypatch.setattr(rootdata, "weyl_group", boom)
    assert not hasattr(galois, "weyl_group")  # census lists its classes without W too
    lam = "--lam=0,1,2,0,1,2,0,1,5"
    code, doc = run_json(capsys, ["frobinv", "--group", "GL9", "--p", "7", "--e", "3", lam])
    assert code == 0 and doc["status"] == "ok"
    assert doc["payload"]["invariant"] is True
    assert doc["payload"]["witness"]["translation"] == [0, -2, -4, 0, -2, -4, 0, -2, -10]


def test_frobinv_answers_gl12(capsys):
    # |W| = 12! is past weyl_group's cap, which the parent's scan hit
    t0 = time.perf_counter()
    code, doc = run_json(capsys, ["frobinv", "--group", "GL12", "--p", "7", "--e", "3",
                                  "--lam=" + ",".join(["0"] * 12)])
    assert time.perf_counter() - t0 < 2
    assert code == 0 and doc["payload"]["invariant"] is True


def test_adm_refuses_a_large_orbit_before_walking_it(capsys):
    # the orbit alone is 12! (GL12 regular) or C(30, 15) (GL30 minuscule)
    # translations of length ell, all in Adm(mu): ell * |orbit| passes the cap
    # after a few dozen orbit steps, where the walk hung before
    for group, mu in [("GL12", range(11, -1, -1)), ("GL30", [1] * 15 + [0] * 15)]:
        t0 = time.perf_counter()
        code, doc = run_json(capsys, ["adm", "--group", group, "--mu", ",".join(map(str, mu))])
        assert time.perf_counter() - t0 < 2
        assert code == 2 and "capped" in doc["payload"]["error"]
