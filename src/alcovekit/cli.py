"""Command-line interface: every operation as a subcommand with JSON output.

Exit codes: 0 ok, 1 refused or failed (also when stdout is closed before
the output is written), 2 usage error, 3 internal error.
Every ValueError maps to exit 2, also when its cause is mathematical rather
than a malformed argument, e.g. a zero denominator in `generic --eta` or
`--d`, or a lambda outside the cocharacter lattice in `frobinv`.
`refused` is reserved for unmet mathematically-stated preconditions (e.g. the
straightening bound), as opposed to internal errors, whose `error` envelope is
marked `"internal": true`.
"""
from __future__ import annotations

import functools
import json
import math
import os
import random
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

from . import figures
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
    check_prime,
    split_gamma,
)
from .weyl_affine import admissible_set, base_alcove, h_mu


# 4096 is the largest power of two at which `straighten --p 7 --window W` runs
# within the 1.1 s `--n 8` took when these caps were set; --hmu and --f at 4096
# take less
MAX_STRAIGHTEN_SIZE = 4096
# a genericity figure draws depth + 1 shaded triangles per alcove:
# `figure --kind genericity --p 100003` takes 0.9 s at --depth 8192, 1.7 s at 16384
MAX_FIGURE_DEPTH = 8192
# an sl2 figure colours its e + 1 nodes by one integer scan each, so e sets
# its cost and r = ord_e(p) does not.  On a 2-core VM, `figure --kind sl2
# --p 98299 --e 16383` takes 0.33 s as a CLI run, and in process `--p 7
# --e 16383` (r = 126) renders in 0.11-0.16 s and `--p 7 --e 8192`
# (r = 1024) in 0.04-0.08 s
MAX_SL2_SIZE = 16384


@dataclass
class CommandResult:
    status: str  # ok | refused | error
    payload: object
    trace: str | None = None


def _frac_str(x) -> str:
    """An int or Fraction as "numerator/denominator"."""
    return f"{x.numerator}/{x.denominator}"


def _ratio_str(n: int, d: int) -> str:
    """n / d, with d > 0, in lowest terms as "numerator/denominator"."""
    g = math.gcd(n, d)
    return f"{n // g}/{d // g}"


_quote = json.encoder.encode_basestring_ascii

# the json module's leaf encoders, by exact type
_LEAVES = {
    str: _quote,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _dumps(obj, default=None, newline: str = "\n") -> str:
    """json.dumps(obj, indent=2, sort_keys=True, default=default), by str.join.

    The json module falls back to its pure-Python encoder whenever `indent`
    is set; joining each container's parts, with the json module's own leaf
    encoders, writes the same bytes in about 0.6 of its time.  `newline` is
    the line break and indentation of obj's own closing bracket.  Payloads
    hold only str keys and no floats, so either raises TypeError here.
    """
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [_quote(k) + ": " + (leaf(v) if (leaf := _LEAVES.get(type(v)))
                                     else _dumps(v, default, inner))
                 for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [leaf(v) if (leaf := _LEAVES.get(type(v))) else _dumps(v, default, inner)
                 for v in obj]
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    for kind in (str, int):  # subclasses, as the json module takes them
        if isinstance(obj, kind):
            return _LEAVES[kind](obj)
    if default is None:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return _dumps(default(obj), default, newline)


def _write(obj, write, default=None, newline: str = "\n") -> None:
    """Write the text of _dumps(obj, default, newline) through `write`, in pieces.

    A dict is written key by key, and a callable as a JSON list: called with
    the line break and indentation of its items' closing brackets, it yields
    their texts, written one at a time, so a payload list given that way is
    never held whole, as a list or as text.  Anything else is one `_dumps`
    piece.
    """
    inner = newline + "  "
    if isinstance(obj, dict) and obj:
        sep = "{" + inner
        for k, v in sorted(obj.items()):
            write(sep + _quote(k) + ": ")
            _write(v, write, default, inner)
            sep = "," + inner
        write(newline + "}")
    elif callable(obj):
        sep = "[" + inner
        for text in obj(inner):
            write(sep + text)
            sep = "," + inner
        write("[]" if sep[0] == "[" else newline + "]")
    else:
        write(_dumps(obj, default, newline))


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


def _parse_frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


def _parse_fracs(text: str) -> tuple[Fraction, ...]:
    return tuple(_parse_frac(t) for t in text.split(","))


def _witness_json(witness) -> dict:
    return {"weyl": [list(r) for r in witness[0].matrix], "translation": list(witness[1])}


def _apartment_point(args) -> tuple[tuple[Fraction, ...], ApartmentPoint]:
    """--eta and the point (psi^j eta)_j it gives for --group, --p, --e."""
    rd = build_root_datum(args.group)
    g = split_gamma(rd, args.p, args.e)
    eta = _parse_fracs(args.eta)
    return eta, ApartmentPoint(rd, g, g.psi_orbit(eta))


# leaves of a census entry's skeleton that stand for an int and for the
# inside of a string: _quote writes them as "\u0000" and "\u0001"
_INT, _STR = "\x00", "\x01"


def _census_texts(rd, classes: Iterable, newline: str) -> Iterator[str]:
    """The JSON entry of each census class, as _dumps writes it at `newline`.

    Every entry of one census has one of two shapes, without a witness and
    with one, so _dumps writes each shape once, with marks for its leaves,
    and the marks become the slots of a str.format template: the entries
    are the templates filled in, with the bytes of _dumps.
    """
    def template(invariant: bool) -> str:
        entry = {"class": [_INT] * rd.rank, "invariant": invariant,
                 "representative": [_STR] * rd.dim}
        if invariant:
            entry["witness"] = {"translation": [_INT] * rd.dim,
                                "weyl": [[_INT] * rd.dim] * rd.dim}
        text = _dumps(entry, newline=newline).replace("{", "{{").replace("}", "}}")
        return text.replace(_quote(_INT), "{}").replace(_quote(_STR)[1:-1], "{}")

    plain, witnessed = template(False).format, template(True).format
    # few numerators and Weyl elements repeat across the classes
    ratio = functools.cache(functools.partial(_ratio_str, d=rd.den))
    entries = functools.cache(lambda w: [x for row in w.matrix for x in row])
    for c in classes:
        if c.witness is None:
            yield plain(*c.coords, *map(ratio, c.num))
        else:
            w, m = c.witness
            yield witnessed(*c.coords, *map(ratio, c.num), *m, *entries(w))


def _cmd_census(args) -> CommandResult:
    rd = build_root_datum(args.group)
    g = split_gamma(rd, args.p, args.e)
    res = census(rd, g)
    # the entries are formatted as they are written: formatting numbers
    # cannot raise, so nothing fails once the first byte is out
    return CommandResult("ok", {
        "group": args.group, "p": args.p, "e": args.e, "r": g.r,
        "total": res.total, "invariant": res.invariant_count,
        "classes": functools.partial(_census_texts, rd, res.classes),
    })


def _cmd_frobinv(args) -> CommandResult:
    rd = build_root_datum(args.group)
    g = split_gamma(rd, args.p, args.e)
    lam = _parse_ints(args.lam)
    flag, witness = frobenius_invariant(GaloisType.from_lambda(rd, g, lam))
    payload = {"lambda": list(lam), "invariant": flag}
    if witness is not None:
        payload["witness"] = _witness_json(witness)
    return CommandResult("ok", payload)


def _cmd_generic(args) -> CommandResult:
    eta, x = _apartment_point(args)
    return CommandResult("ok", {
        "eta": [_frac_str(c) for c in eta],
        "d": args.d,
        "generic": is_d_generic(x, _parse_frac(args.d)),
    })


def _cmd_adm(args) -> CommandResult:
    rd = build_root_datum(args.group)
    base = base_alcove(rd)
    mu = _parse_ints(args.mu)
    adm = admissible_set(rd, mu, base)
    items = []
    for z, word, om in adm:
        items.append({
            "translation": list(z.translation),
            "finite": list(z.finite.perm()),
            "length": len(word),
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
    _, x = _apartment_point(args)
    f = ZERO_PLUS if args.f.strip() == "0+" else _parse_frac(args.f)
    pat = parahoric_pattern(x, f)
    return CommandResult("ok", {
        "n": pat.n,
        "lower_bounds": [[_frac_str(b) for b in row] for row in pat.lower_bounds],
        "torus_level": _frac_str(pat.torus_level),
        "e": pat.e,
    })


def _cmd_straighten(args) -> CommandResult:
    window = 4 * args.p if args.window is None else args.window
    if window < 1:
        raise ValueError(f"the precision window must be at least 1, got {window}")
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    if args.hmu < 0:
        raise ValueError(f"--hmu is the height of mu = (hmu, 0, ...), at least 0, got {args.hmu}")
    if max(window, args.hmu, args.f) > MAX_STRAIGHTEN_SIZE:
        raise CapExceeded(f"the window, --hmu and --f are capped at {MAX_STRAIGHTEN_SIZE}")
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
    if args.emit == "json":
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
    depth = args.depth if args.depth is not None else args.p // 3
    if kind == "rank2_A2":
        check_prime(args.p)
        # past p/3 the "depth-generic" triangle has flipped through the barycenter
        if not 0 <= 3 * depth <= args.p:
            raise ValueError(f"--depth must lie in [0, p/3], got {depth} for p={args.p}")
        if depth > MAX_FIGURE_DEPTH:
            raise CapExceeded(f"--depth is capped at {MAX_FIGURE_DEPTH}")
    if kind == "rank1_line" and args.e + 1 > MAX_SL2_SIZE:
        raise CapExceeded(f"sl2 figures are capped at e + 1 <= {MAX_SL2_SIZE}")
    spec = figures.FigureSpec(kind=kind, p=args.p, e=args.e, shading_depth=depth,
                              mu=_parse_ints(args.mu))
    svg = figures.render(spec)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out}: {exc.strerror or exc}") from None
    return CommandResult("ok", {"kind": kind, "out": args.out, "bytes": len(svg)})


def _cmd_verify(args) -> CommandResult:
    # imported here, so that only a process that verifies compiles it
    from . import acceptance

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


# a flag is (kind, default): kind is int, a tuple of the values it takes, or
# the name its str value has in the usage text; a default of ... marks a
# required flag
_EMIT = {"emit": (("json", "text"), "text")}
_GPE = {"group": ("GROUP", ...), "p": (int, ...), "e": (int, ...)}
_GROUP_MU = {"group": ("GROUP", ...), "mu": ("INTS", ...)}

# command -> (handler, help line, flags); every command also takes --emit
_COMMANDS = {name: (handler, text, {**flags, **_EMIT}) for name, (handler, text, flags) in {
    "census": (_cmd_census, "type classes at fixed (p, e)", _GPE),
    "frobinv": (_cmd_frobinv, "Frobenius invariance of one type",
                {**_GPE, "lam": ("INTS", ...)}),
    "generic": (_cmd_generic, "d-genericity of an apartment point",
                {**_GPE, "eta": ("FRACS", ...), "d": ("FRAC", ...)}),
    "adm": (_cmd_adm, "admissible set of a dominant cocharacter", _GROUP_MU),
    "hmu": (_cmd_hmu, "height of a cocharacter", _GROUP_MU),
    "pattern": (_cmd_pattern, "parahoric valuation pattern at a point",
                {**_GPE, "eta": ("FRACS", ...), "f": ("FRAC|0+", "0")}),
    "straighten": (_cmd_straighten, "run the straightening solver",
                   {"p": (int, ...), "a": (int, 1), "f": (int, 1), "hmu": (int, 1),
                    "n": (int, 2), "seed": (int, 0), "window": (int, None)}),
    "compare": (_cmd_compare, "v versus v+p congruence identities",
                {"p": (int, ...), "a": (int, ...), "n": (int, ...)}),
    "figure": (_cmd_figure, "render an apartment figure to SVG",
               {"kind": ((*_FIGURE_KINDS, *_FIGURE_KINDS.values()), ...),
                "p": (int, 7), "e": (int, 24), "depth": (int, None),
                "mu": ("INTS", "1,0,0"), "out": ("PATH", ...)}),
    "verify": (_cmd_verify, "run the full acceptance suite", {}),
}.items()}


class _UsageError(Exception):
    """A malformed command line: (message, the command it names or None)."""


def _flag_usage(flags: dict) -> str:
    words = []
    for name, (kind, default) in flags.items():
        value = "INT" if kind is int else "|".join(kind) if type(kind) is tuple else kind
        words.append(f"--{name} {value}" if default is ... else f"[--{name} {value}]")
    return " ".join(words)


_USAGE = "usage: alcovekit [--emit json|text] <command> [--flag value | --flag=value]..."


def _usage(command: str | None) -> str:
    """The usage line of one command, or of the whole grammar."""
    if command is None:
        return _USAGE
    return f"usage: alcovekit {command} {_flag_usage(_COMMANDS[command][2])}"


def _help() -> str:
    lines = [_USAGE, "", "Exact Bruhat-Tits combinatorics: types, alcoves, loop groups.", "",
             "A value may begin with '-' but not with '--' (write that one as --flag=value);",
             "flags are not abbreviated.", "", "commands:"]
    for name, (_, text, flags) in _COMMANDS.items():
        lines += [f"  {name:<11} {text}", f"      {_flag_usage(flags)}"]
    return "\n".join(lines)


def _parse(argv) -> tuple | None:
    """(handler, args) for one command line, or None for -h / --help.

    One pass over [--emit json|text] <command> (--flag value | --flag=value)...
    against _COMMANDS.  --emit may come before or after the command, a
    repeated flag keeps its last value, and the flags' defaults fill in the
    rest.  _UsageError on anything else.
    """
    command, flags, values = None, _EMIT, {}
    tokens = iter(argv)
    for tok in tokens:
        if tok in ("-h", "--help"):
            return None
        if not tok.startswith("--"):
            if command is not None:
                raise _UsageError(f"unrecognized arguments: {tok}", command)
            if tok not in _COMMANDS:
                raise _UsageError(f"invalid command: {tok!r} (choose from "
                                  f"{', '.join(_COMMANDS)})", None)
            command, flags = tok, _COMMANDS[tok][2]
            continue
        name, eq, value = tok[2:].partition("=")
        spec = flags.get(name)
        if spec is None:
            raise _UsageError(f"unrecognized arguments: {tok}", command)
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise _UsageError(f"argument --{name}: expected one argument", command)
        kind = spec[0]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _UsageError(f"argument --{name}: invalid int value: {value!r}",
                                  command) from None
        elif type(kind) is tuple and value not in kind:
            raise _UsageError(f"argument --{name}: invalid choice: {value!r} (choose from "
                              f"{', '.join(kind)})", command)
        values[name] = value
    if command is None:
        raise _UsageError("a command is required", None)
    missing = []
    for name, (_, default) in flags.items():
        if name not in values:
            if default is ...:
                missing.append("--" + name)
            values[name] = default
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}",
                          command)
    return _COMMANDS[command][0], SimpleNamespace(**values)


def _emit(result: CommandResult, emit: str) -> None:
    if emit == "json":
        doc = {"schema": 1, "status": result.status, "payload": result.payload}
        if result.trace:
            doc["trace"] = result.trace
        _write(doc, sys.stdout.write)
        sys.stdout.write("\n")
    else:
        if result.trace:
            print(result.trace)
        if result.status != "ok" or not result.trace:
            print(f"status: {result.status}")
            _write(result.payload, sys.stdout.write, default=str)
            sys.stdout.write("\n")


def main(argv=None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        message, command = exc.args
        print(f"{_usage(command)}\nalcovekit: error: {message}", file=sys.stderr)
        return 2
    if parsed is None:
        print(_help())
        return 0
    func, args = parsed
    try:
        result = func(args)
        code = 0 if result.status == "ok" else 1
    except RefusedError as exc:
        result, code = CommandResult("refused", {"reason": str(exc)}), 1
    except (UnsupportedLabel, CapExceeded, ValueError) as exc:
        result, code = CommandResult("error", {"error": str(exc)}), 2
    except (RuntimeError, AssertionError) as exc:
        # a broken internal invariant (PrecisionError included), not bad input
        result, code = CommandResult("error", {"error": f"{type(exc).__name__}: {exc}",
                                               "internal": True}), 3
    try:
        _emit(result, args.emit)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; keep the exit-time flush silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
