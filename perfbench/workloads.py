"""Seeded request lists for the three workloads.

A request is either one CLI subcommand (run in-process through
``alcovekit.cli.main``) or one public library call that has no subcommand.
The same seed gives the same list.  Inputs that some light requests need as
objects (affine Weyl elements, base alcoves, loop elements) are built here,
so building them is part of set-up and not of any request's latency.

Library calls look their function up on the module at call time, so the
tracer's wrappers, which replace module attributes, see every call.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from alcovekit import galois, loop_sim, weyl_affine
from alcovekit.monomial import MonomialMatrix
from alcovekit.rootdata import GammaData, WeylElement, build_root_datum

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
# figure requests write their SVG here, relative to the checkout root
FIG_DIR = ".perfbench_out"


@dataclass
class Request:
    kind: str                 # subcommand or library function name
    family: str               # "light" or "heavy"
    key: str                  # canonical text of the inputs; goldens are keyed by it
    argv: list | None = None  # CLI argv without --emit
    call: object = None       # zero-argument callable for library calls
    facts: dict = field(default_factory=dict)  # what the checker needs to know


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _cli(kind: str, family: str, argv: list, **facts) -> Request:
    return Request(kind, family, " ".join(argv), argv=argv, facts=facts)


def _fracs(xs) -> str:
    return ",".join(f"{x.numerator}/{x.denominator}" for x in xs)


def _ints(xs) -> str:
    return ",".join(str(x) for x in xs)


# ---------------------------------------------------------------- types

# tame (p, e) pairs: gcd(p, e) = 1, so split_gamma terminates
TYPES_PE = ((7, 24), (5, 8), (3, 13), (5, 24), (7, 16), (3, 8))
TYPES_LIGHT_GROUPS = ("SL2", "GL2", "GL3", "PGL3")
HMU_GROUPS = ("GL2", "GL3", "SL3", "GL4", "GL3xGL3", "GL2xGL2")
CENSUS_GRID = (
    ("GL3", 7, 24), ("GL3", 3, 13), ("GL3", 5, 8),
    ("SL3", 7, 24), ("SL3", 3, 13), ("SL3", 5, 8),
    ("PGL3", 7, 24), ("PGL3", 3, 13), ("PGL3", 5, 8),
    ("GL2", 7, 24), ("GL2", 5, 8), ("GL2", 3, 13), ("GL2", 5, 24),
    ("SL2", 7, 24), ("SL2", 5, 8), ("SL2", 13, 84),
    ("PGL2", 7, 24), ("PGL2", 5, 8),
)
# (p, k, signed matrix, slots): the extension field GF(p^k) is fixed by
# mod = p^k - 1.  GF(7^4) is left out: one call takes about 46 s.
STRICTIFY_GRID = (
    (7, 2, ((0, 1), (-1, 0)), 2),
    (3, 4, ((0, 1), (-1, 0)), 2),
    (5, 3, ((0, 1), (-1, 0)), 2),
    (5, 3, ((0, 1), (1, 0)), 2),
    (7, 3, ((0, 1, 0), (0, 0, 1), (1, 0, 0)), 1),
)


def _lattice_vector(rng: random.Random, group: str, bound: int) -> list[int]:
    """An integer cocharacter: sum zero for SL/PGL, anything for GL."""
    n = int(group[-1])
    v = [rng.randint(-bound, bound) for _ in range(n)]
    if not group.startswith("GL"):
        v[-1] = -sum(v[:-1])
    return v


def _rational_point(rng: random.Random, group: str, e: int) -> list[Fraction]:
    n = int(group[-1])
    v = [Fraction(rng.randint(-e + 1, e - 1), e) for _ in range(n)]
    if not group.startswith("GL"):
        v[-1] = -sum(v[:-1])
    return v


def _types_light(rng: random.Random) -> list[Request]:
    """75 light requests in fixed proportions over a fixed grid of groups and
    (p, e); the seed draws lambda, eta, d and mu, which barely move the cost,
    so the latency distribution is the same on every seed."""
    out = []
    for i in range(20):
        group = TYPES_LIGHT_GROUPS[i % 4]
        p, e = TYPES_PE[i % 6]
        lam = _lattice_vector(rng, group, e)
        out.append(_cli("frobinv", "light",
                        ["frobinv", "--group", group, "--p", str(p), "--e", str(e),
                         f"--lam={_ints(lam)}"],
                        group=group, p=p, e=e, lam=lam))
    for i in range(20):
        group = TYPES_LIGHT_GROUPS[i % 4]
        p, e = TYPES_PE[i % 6]
        eta = _rational_point(rng, group, e)
        d = rng.randint(0, (p - 1) // 2)
        out.append(_cli("generic", "light",
                        ["generic", "--group", group, "--p", str(p), "--e", str(e),
                         f"--eta={_fracs(eta)}", "--d", str(d)],
                        group=group, p=p, eta=eta, d=d))
    for i in range(20):
        group = ("GL2", "GL3")[i % 2]
        p, e = TYPES_PE[i % 6]
        f = ("0", "0+", "1/2", "1")[i % 4]
        eta = _rational_point(rng, group, e)
        out.append(_cli("pattern", "light",
                        ["pattern", "--group", group, "--p", str(p), "--e", str(e),
                         f"--eta={_fracs(eta)}", "--f", f],
                        group=group, e=e, eta=eta, f=f))
    for i in range(15):
        group = HMU_GROUPS[i % len(HMU_GROUPS)]
        blocks = [int(b[-1]) for b in group.split("x")]
        mu = [rng.randint(-3, 3) for _ in range(sum(blocks))]
        out.append(_cli("hmu", "light", ["hmu", "--group", group, f"--mu={_ints(mu)}"],
                        blocks=blocks, mu=mu))
    return out


def _strictify_request(p: int, k: int, mat, slots: int) -> Request:
    mod = p**k - 1
    b = MonomialMatrix.from_signed_matrix(mat, mod)
    key = f"strictify p={p} k={k} b={[list(r) for r in mat]} slots={slots}"
    return Request("strictify", "heavy", key,
                   call=lambda: galois.strictify([b] * slots, p),
                   facts={"b": [b] * slots})


# criterion-4 data: GL3xGL3, p = 19, r = 4, psi swapping the two blocks
_S_CRIT4 = ((0, 0, 1, 0, 0, 0), (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
            (0, 0, 0, 0, 1, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1))


def _type_from_s_mu_request(s_mat, mu) -> Request:
    p = 19
    rd = build_root_datum("GL3xGL3")
    psi = WeylElement(tuple(tuple(1 if j == (i + 3) % 6 else 0 for j in range(6))
                            for i in range(6)))
    ident = WeylElement(tuple(tuple(int(i == j) for j in range(6)) for i in range(6)))
    g = GammaData(p=p, e=p**4 - 1, r=4, psi=psi, inertial=ident)
    s = WeylElement(s_mat)
    key = f"type_from_s_mu GL3xGL3 p={p} s={[list(r) for r in s_mat]} mu={list(mu)}"
    return Request("type_from_s_mu", "heavy", key,
                   call=lambda: galois.type_from_s_mu(rd, s, mu, g),
                   facts={"criterion4": s_mat == _S_CRIT4 and tuple(mu) == (16, 11, 7, 4, 2, 1)})


def types_requests(rng: random.Random) -> list[Request]:
    heavy = [_cli("census", "heavy", ["census", "--group", g, "--p", str(p), "--e", str(e)],
                  group=g, p=p, e=e)
             for g, p, e in CENSUS_GRID]
    heavy += [_strictify_request(*row) for row in STRICTIFY_GRID]
    ident6 = tuple(tuple(int(i == j) for j in range(6)) for i in range(6))
    heavy += [_type_from_s_mu_request(_S_CRIT4, (16, 11, 7, 4, 2, 1)),
              _type_from_s_mu_request(ident6, (16, 11, 7, 4, 2, 1))]
    light = _types_light(rng)
    return _interleave(rng, light, heavy)


# ---------------------------------------------------------------- alcoves

ADM_GRID = (
    ("GL3", (1, 0, 0)), ("GL3", (1, 1, 0)), ("GL3", (2, 1, 0)), ("GL3", (2, 0, 0)),
    ("GL3", (1, 0, -1)), ("GL4", (1, 0, 0, 0)), ("GL4", (1, 1, 0, 0)),
    ("GL3xGL3", (1, 0, 0, 1, 0, 0)), ("GL2xGL2", (1, 0, 1, 0)),
    ("GL2", (1, 0)), ("GL2", (2, 0)), ("GL2", (3, 0)), ("GL2", (2, 1)),
)
# (cli kind, extra args); the first of each kind is a committed golden SVG
FIGURE_GRID = (
    ("sl2", ("--p", "7", "--e", "24")),
    ("sl2", ("--p", "5", "--e", "8")),
    ("sl2", ("--p", "3", "--e", "13")),
    ("sl2", ("--p", "7", "--e", "48")),
    ("genericity", ("--p", "19", "--depth", "6")),
    ("genericity", ("--p", "13", "--depth", "4")),
    ("genericity", ("--p", "7", "--depth", "2")),
    ("admissible", ("--mu", "1,0,0")),
    ("admissible", ("--mu", "1,1,0")),
    ("admissible", ("--mu", "2,1,0")),
)
GOLDEN_SVGS = {
    "sl2 --p 7 --e 24": "sl2_alcove_p7_e24.svg",
    "genericity --p 19 --depth 6": "genericity_p19_d6.svg",
    "admissible --mu 1,0,0": "admissible_mu100.svg",
}
# (group, length) of the six upper elements of the Bruhat queries: each is
# drawn once per seed and then reused, as in the criterion-9 property suite
BRUHAT_UPPERS = (("GL2", 4), ("GL2", 3), ("GL2", 2), ("GL3", 4), ("GL3", 4), ("GL3", 3))


def _element(rd, key):
    nu, mat = key
    return weyl_affine.AffineWeylElement(
        rd, tuple(nu), WeylElement(tuple(tuple(r) for r in mat)))


def alcoves_requests(rng: random.Random, golden: dict) -> list[Request]:
    heavy = [_cli("adm", "heavy", ["adm", "--group", g, f"--mu={_ints(mu)}"], group=g, mu=mu)
             for g, mu in ADM_GRID]
    for kind, extra in FIGURE_GRID:
        spec = " ".join((kind,) + extra)
        out = f"{FIG_DIR}/fig-{spec.replace(' --', '-').replace(' ', '').replace(',', '')}.svg"
        heavy.append(_cli("figure", "heavy", ["figure", "--kind", kind, *extra, "--out", out],
                          out=out, golden_svg=GOLDEN_SVGS.get(spec)))
    light = []
    classes = {}
    for label, poset in golden["posets"].items():
        rd = build_root_datum(label)
        base = weyl_affine.base_alcove(rd)
        elems = [_element(rd, k) for k in poset["keys"]]
        for i, ell in enumerate(poset["lengths"]):
            classes.setdefault((label, ell), []).append((i, elems[i], base))
    # length and reduced_word run on every element of both posets, in seeded
    # order, so the middle of the latency distribution is the same set of
    # requests on every seed
    for kind in ("length", "reduced_word"):
        for (label, _), members in sorted(classes.items()):
            for i, z, base in members:
                light.append(Request(kind, "light", f"{kind} {label} {i}",
                                     call=lambda z=z, base=base, fn=kind:
                                     getattr(weyl_affine, fn)(z, base),
                                     facts={"group": label, "i": i}))
    uppers = [rng.choice(classes[(label, ell)]) + (label,) for label, ell in BRUHAT_UPPERS]
    for q in range(40):
        j, y, base, label = uppers[q % len(uppers)]
        i, x, _ = rng.choice(classes[(label, q % 5)])
        light.append(Request("bruhat_leq", "light", f"bruhat_leq {label} {i} {j}",
                             call=lambda x=x, y=y, base=base:
                             weyl_affine.bruhat_leq(x, y, base),
                             facts={"group": label, "i": i, "j": j}))
    return _interleave(rng, light, heavy)


# ---------------------------------------------------------------- loops

STRAIGHTEN_GRID = ((7, 1, 1, 1), (5, 2, 2, 1), (7, 2, 1, 1), (11, 1, 1, 1))
STRAIGHTEN_SEEDS_PER_CONFIG = 5
CONJ_WINDOW = 40
COMPARE_GRID = tuple((p, a, a + k) for p, a in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
                                               (5, 3), (7, 1), (7, 2)) for k in (0, 4, 8))
LAURENT_GRID = tuple((p, a) for p in (3, 5, 7, 11) for a in range(1, 6))
CONJ_CELLS = tuple((p, a, n) for p in (3, 5, 7) for a in (1, 2) for n in (2, 3))


def _compare_request(p: int, a: int, n: int) -> Request:
    return _cli("compare", "light", ["compare", "--p", str(p), "--a", str(a), "--n", str(n)],
                p=p, a=a, n=n)


def _conjugation_request(rng: random.Random, trial: int) -> Request:
    """One criterion-5 trial: depth(X A X^-1) against n - h_mu - 2a + 2."""
    p, a, n_size = CONJ_CELLS[trial % len(CONJ_CELLS)]
    ring = loop_sim.Ring(p, a, 1)
    mu = (2, 1, 0)[:n_size]
    h = mu[0] - mu[-1]
    xf = loop_sim.random_bounded_x(rng, ring, n_size, mu, 3,
                                   use_v_plus_p=bool(trial // len(CONJ_CELLS) % 2),
                                   window=CONJ_WINDOW)
    depth_n = 5 + rng.randrange(4)
    a_elem = loop_sim.random_depth_element(rng, ring, n_size, depth_n, depth_n + 5)
    a_elem = a_elem.with_prec(CONJ_WINDOW)
    key = f"conjugation_depth_bound p={p} a={a} n={n_size} depth={depth_n} trial={trial} " \
          f"x={_loop_digest(xf)} A={_loop_digest([a_elem])}"
    return Request("conjugation_depth_bound", "light", key,
                   call=lambda: loop_sim.conjugation_depth_bound(
                       xf, a_elem, depth_n, h, a, window=CONJ_WINDOW),
                   facts={"n": depth_n, "h": h, "a": a})


def _loop_digest(elements) -> str:
    text = repr([[[(s.coeffs, s.lo, s.prec) for s in row] for row in el.rows]
                 for el in elements])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _laurent_request(p: int, a: int) -> Request:
    ring = loop_sim.Ring(p, a, 1)
    vp = loop_sim.TruncSeries.v_plus_p(ring)
    return Request("laurent_inverse", "light", f"laurent_inverse p={p} a={a}",
                   call=lambda: vp.inverse(), facts={"p": p, "a": a})


def loops_requests(rng: random.Random) -> list[Request]:
    heavy = []
    for p, a, f, h in STRAIGHTEN_GRID:
        for n in (2, 3):
            for _ in range(STRAIGHTEN_SEEDS_PER_CONFIG):
                s = rng.randrange(10**6)
                heavy.append(_cli(
                    "straighten", "heavy",
                    ["straighten", "--p", str(p), "--a", str(a), "--f", str(f),
                     "--hmu", str(h), "--n", str(n), "--seed", str(s)]))
    # compare and Laurent inputs are a fixed grid; the conjugation trials
    # cycle over fixed (p, a, n) cells with seeded random elements
    light = [_compare_request(*pan) for pan in COMPARE_GRID]
    light += [_conjugation_request(rng, trial) for trial in range(2 * len(CONJ_CELLS))]
    light += [_laurent_request(p, a) for p, a in LAURENT_GRID]
    return _interleave(rng, light, heavy)


# ---------------------------------------------------------------- common

WORKLOADS = ("types", "alcoves", "loops")


def _interleave(rng: random.Random, light: list, heavy: list) -> list:
    out = light + heavy
    rng.shuffle(out)
    return out


def build(workload: str, seed: int, golden: dict) -> list[Request]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "types":
        return types_requests(rng)
    if workload == "alcoves":
        return alcoves_requests(rng, golden)
    if workload == "loops":
        return loops_requests(rng)
    raise ValueError(f"unknown workload {workload!r}")
