"""Command-line interface: every operation as a subcommand with JSON output.

Exit codes: 0 ok, 1 refused or failed, 2 usage error.  `refused` is reserved
for unmet mathematically-stated preconditions (e.g. the straightening bound),
as opposed to internal errors.  The environment variable ALCOVEKIT_PRECISION
overrides the simulator window.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import acceptance, figures
from .apartment import ApartmentPoint, ZERO_PLUS, is_d_generic, parahoric_pattern
from .galois import GaloisType, census, frobenius_invariant
from .loop_sim import (
    Ring,
    congruence_compare,
    random_bounded_x,
    random_depth_element,
    straighten_right,
)
from .rootdata import (
    CapExceeded,
    RefusedError,
    UnsupportedLabel,
    build_root_datum,
    split_gamma,
)
from .weyl_affine import admissible_set, base_alcove, h_mu, length, reduced_word


@dataclass
class CommandResult:
    status: str  # ok | refused | error
    payload: object
    trace: str | None = None


def _frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


def _parse_fracs(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(t) for t in text.split(","))


def _cmd_census(args) -> CommandResult:
    rd = build_root_datum(args.group)
    g = split_gamma(rd, args.p, args.e, r=args.r)
    res = census(rd, g)
    classes = []
    for c in res.classes:
        entry = {
            "class": list(c.coords),
            "representative": [_frac_str(x) for x in c.lam],
            "invariant": c.invariant,
        }
        if c.witness is not None:
            entry["witness"] = {
                "weyl": [list(r) for r in c.witness[0].matrix],
                "translation": list(c.witness[1]),
            }
        classes.append(entry)
    return CommandResult("ok", {
        "group": args.group, "p": args.p, "e": args.e, "r": g.r,
        "total": res.total, "invariant": res.invariant_count, "classes": classes,
    })


def _cmd_frobinv(args) -> CommandResult:
    rd = build_root_datum(args.group)
    g = split_gamma(rd, args.p, args.e, r=args.r)
    lam = _parse_ints(args.lam)
    t = GaloisType.from_lambda(rd, g, lam)
    flag, witness = frobenius_invariant(t)
    payload = {"lambda": list(lam), "invariant": flag}
    if witness is not None:
        payload["witness"] = {
            "weyl": [list(r) for r in witness[0].matrix],
            "translation": list(witness[1]),
        }
    return CommandResult("ok", payload)


def _cmd_generic(args) -> CommandResult:
    rd = build_root_datum(args.group)
    g = split_gamma(rd, args.p, args.e, r=args.r)
    eta = _parse_fracs(args.eta)
    etas = tuple(tuple(g.psi_power(j).apply(eta)) for j in range(g.r))
    x = ApartmentPoint(rd, g, etas)
    return CommandResult("ok", {
        "eta": [_frac_str(c) for c in eta],
        "d": args.d,
        "generic": is_d_generic(x, Fraction(args.d)),
    })


def _cmd_adm(args) -> CommandResult:
    rd = build_root_datum(args.group)
    base = base_alcove(rd)
    mu = _parse_ints(args.mu)
    adm = admissible_set(rd, mu, base)
    items = []
    for z in adm:
        word, om = reduced_word(z, base)
        items.append({
            "translation": list(z.translation),
            "finite": list(z.finite.perm()),
            "length": length(z, base),
            "word": word,
            "omega": {"translation": list(om.translation),
                      "finite": list(om.finite.perm())},
        })
    return CommandResult("ok", {"mu": list(mu), "size": len(adm), "elements": items})


def _cmd_hmu(args) -> CommandResult:
    rd = build_root_datum(args.group)
    mu = _parse_ints(args.mu)
    return CommandResult("ok", {"mu": list(mu), "h_mu": h_mu(rd, mu)})


def _cmd_pattern(args) -> CommandResult:
    rd = build_root_datum(args.group)
    g = split_gamma(rd, args.p, args.e, r=args.r)
    eta = _parse_fracs(args.eta)
    etas = tuple(tuple(g.psi_power(j).apply(eta)) for j in range(g.r))
    x = ApartmentPoint(rd, g, etas)
    f = ZERO_PLUS if args.f.strip() == "0+" else Fraction(args.f)
    pat = parahoric_pattern(x, f)
    return CommandResult("ok", {
        "n": pat.n,
        "lower_bounds": [[_frac_str(b) for b in row] for row in pat.lower_bounds],
        "torus_level": _frac_str(pat.torus_level),
        "e": pat.e,
    })


def _cmd_straighten(args) -> CommandResult:
    window = args.window
    env = os.environ.get("ALCOVEKIT_PRECISION")
    if env:
        window = int(env)
    if window is None:
        window = 4 * args.p
    ring = Ring(args.p, args.a, 1)
    rng = random.Random(args.seed)
    mu = tuple([args.hmu] + [0] * (args.n - 1))
    xf = random_bounded_x(rng, ring, args.n, mu, 4, use_v_plus_p=True,
                          window=window + 20)
    b = random_depth_element(rng, ring, args.n, args.f, args.f + 4)
    res = straighten_right(xf, b, args.f, args.hmu, window=window)
    payload = {
        "p": args.p, "a": args.a, "f": args.f, "h_mu": args.hmu,
        "seed": args.seed, "window": window,
        "iterations": res.iterations,
        "residual_is_identity": res.residual_is_one,
        "update_depths": list(res.trace),
    }
    if getattr(args, "emit", "text") == "json":
        payload["solution"] = [
            [{str(k): v for k, v in s.coeffs} for s in row] for row in res.a_elem.rows
        ]
    if not res.residual_is_one:
        return CommandResult("error", payload, trace="residual not identity")
    return CommandResult("ok", payload)


def _cmd_compare(args) -> CommandResult:
    r = congruence_compare(args.n, args.a, args.p)
    return CommandResult("ok", {
        "n": args.n, "a": args.a, "p": args.p,
        "first_inclusion": r["first_inclusion"],
        "second_inclusion": r["second_inclusion"],
        "frobenius_congruence": r["frobenius_congruence"],
        "first_quotient": {str(k): v for k, v in sorted(r["first_quotient"].items())},
        "second_quotient": {str(k): v for k, v in sorted(r["second_quotient"].items())},
    })


_FIGURE_KINDS = {"sl2": "rank1_line", "genericity": "rank2_A2", "admissible": "admissible_A2"}


def _cmd_figure(args) -> CommandResult:
    kind = _FIGURE_KINDS.get(args.kind, args.kind)
    spec = figures.FigureSpec(
        kind=kind, p=args.p, e=args.e,
        shading_depth=args.depth if args.depth is not None else args.p // 3,
        mu=_parse_ints(args.mu),
    )
    svg = figures.render(spec)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return CommandResult("ok", {"kind": kind, "out": args.out, "bytes": len(svg)})


def _cmd_verify(args) -> CommandResult:
    results = acceptance.run_all()
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"[{mark}] criterion {r.number}: {r.name} -- {r.detail}")
    payload = {
        "criteria": [
            {"number": r.number, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    return CommandResult("ok" if payload["all_passed"] else "error",
                         payload, trace="\n".join(lines))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--emit", choices=("json", "text"), default=argparse.SUPPRESS)
    ap = argparse.ArgumentParser(
        prog="alcovekit",
        description="Exact Bruhat-Tits combinatorics: types, alcoves, loop groups.",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="command", required=True)
    _parents = {"parents": [common]}

    def common_group(sp, with_pe=True):
        sp.add_argument("--group", required=True)
        if with_pe:
            sp.add_argument("--p", type=int, required=True)
            sp.add_argument("--e", type=int, required=True)
            sp.add_argument("--r", type=int, default=None)

    sp = sub.add_parser("census", help="type classes at fixed (p, e)", **_parents)
    common_group(sp)
    sp.set_defaults(func=_cmd_census)

    sp = sub.add_parser("frobinv", help="Frobenius invariance of one type", **_parents)
    common_group(sp)
    sp.add_argument("--lam", required=True, help="comma separated integers")
    sp.set_defaults(func=_cmd_frobinv)

    sp = sub.add_parser("generic", help="d-genericity of an apartment point", **_parents)
    common_group(sp)
    sp.add_argument("--eta", required=True, help="comma separated rationals")
    sp.add_argument("--d", required=True)
    sp.set_defaults(func=_cmd_generic)

    sp = sub.add_parser("adm", help="admissible set of a dominant cocharacter", **_parents)
    sp.add_argument("--group", required=True)
    sp.add_argument("--mu", required=True)
    sp.set_defaults(func=_cmd_adm)

    sp = sub.add_parser("hmu", help="height of a cocharacter", **_parents)
    sp.add_argument("--group", required=True)
    sp.add_argument("--mu", required=True)
    sp.set_defaults(func=_cmd_hmu)

    sp = sub.add_parser("pattern", help="parahoric valuation pattern at a point", **_parents)
    common_group(sp)
    sp.add_argument("--eta", required=True)
    sp.add_argument("--f", default="0", help="constant concave level, or 0+")
    sp.set_defaults(func=_cmd_pattern)

    sp = sub.add_parser("straighten", help="run the straightening solver", **_parents)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", type=int, default=1)
    sp.add_argument("--f", type=int, default=1)
    sp.add_argument("--hmu", type=int, default=1)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--window", type=int, default=None)
    sp.set_defaults(func=_cmd_straighten)

    sp = sub.add_parser("compare", help="v versus v+p congruence identities", **_parents)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("figure", help="render an apartment figure to SVG", **_parents)
    sp.add_argument("--kind", required=True,
                    choices=tuple(_FIGURE_KINDS) + tuple(_FIGURE_KINDS.values()))
    sp.add_argument("--p", type=int, default=7)
    sp.add_argument("--e", type=int, default=24)
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--mu", default="1,0,0")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_figure)

    sp = sub.add_parser("verify", help="run the full acceptance suite", **_parents)
    sp.set_defaults(func=_cmd_verify)
    return ap


def _emit(result: CommandResult, emit: str) -> None:
    if emit == "json":
        doc = {"schema": 1, "status": result.status, "payload": result.payload}
        if result.trace:
            doc["trace"] = result.trace
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        if result.trace:
            print(result.trace)
        if result.status != "ok" or not result.trace:
            print(f"status: {result.status}")
            print(json.dumps(result.payload, indent=2, sort_keys=True, default=str))


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    emit = getattr(args, "emit", "text")
    try:
        result = args.func(args)
    except RefusedError as exc:
        result = CommandResult("refused", {"reason": str(exc)})
    except (UnsupportedLabel, CapExceeded, ValueError) as exc:
        _emit(CommandResult("error", {"error": str(exc)}), emit)
        return 2
    _emit(result, emit)
    if result.status == "ok":
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
