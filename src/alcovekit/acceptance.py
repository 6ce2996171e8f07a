"""The acceptance gate: nine verifiable criteria, one pass/fail line each.

Every expected value here is either a frozen fact from the worked examples
or computed by an independent elementary route inside the test itself.  All
randomized suites run from pinned seeds.  Total runtime is kept well under a
minute on one core.
"""
from __future__ import annotations

from dataclasses import dataclass
import random
from importlib import resources

from . import figures
from .apartment import frobenius, is_d_generic
from .galois import (
    GaloisType,
    census,
    check_cocycle_relations,
    cocycle_values,
    frobenius_invariant,
    type_from_s_mu,
)
from .loop_sim import (
    LoopElement,
    Ring,
    TruncSeries,
    congruence_compare,
    conjugation_depth_bound,
    inverse_of,
    product_of,
    random_bounded_x,
    random_depth_element,
    straighten_right,
    straightening_gap,
)
from .monomial import MonomialMatrix
from .rootdata import (
    GammaData,
    WeylElement,
    build_root_datum,
    pi1,
    pi1_coinvariants,
    split_gamma,
    tate_h0,
)
from .weyl_affine import (
    admissible_set,
    base_alcove,
    bruhat_leq,
    elements_of_length_at_most,
    h_mu,
    translation_element,
)

SEED = 20250810


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _c1_sl2_census() -> CriterionResult:
    rd = build_root_datum("SL2")
    g = split_gamma(rd, 7, 24)
    res = census(rd, g)
    ok = res.total == 13 and res.invariant_count == 7
    t = GaloisType.from_lambda(rd, g, (-3, 3))
    flag, witness = frobenius_invariant(t)
    w0 = WeylElement(((0, 1), (1, 0)))
    # the witness Weyl part must be the reflection: the (p+1)-congruence route
    ok = ok and flag and witness is not None and witness[0] == w0
    detail = f"13 classes={res.total}, 7 invariant={res.invariant_count}, n=-3 via w0={flag}"
    return CriterionResult(1, "SL2 census at p=7, e=24", ok, detail)


def _c2_pi1_facts() -> CriterionResult:
    checks = []
    checks.append(pi1(build_root_datum("PGL3")) == (0, [3]))
    for n in (2, 3, 4, 5):
        checks.append(pi1(build_root_datum(f"GL{n}")) == (1, []))
        checks.append(pi1(build_root_datum(f"SL{n}")) == (0, []))
    gl3 = build_root_datum("GL3")
    ident = WeylElement.identity(3)
    j_twist = WeylElement(((0, 0, -1), (0, -1, 0), (-1, 0, 0)))
    g_u3 = GammaData(p=13, e=6, r=1, psi=ident, inertial=j_twist)
    (free, torsion), flag = pi1_coinvariants(gl3, g_u3)
    checks.append((free, torsion) == (0, [2]) and not flag)
    checks.append(tate_h0(gl3, g_u3) == [3])  # order e/2 at e = 6
    ok = all(checks)
    return CriterionResult(2, "pi1/coinvariants/Tate facts", ok,
                           f"{sum(checks)}/{len(checks)} identities hold")


def _c3_admissible() -> CriterionResult:
    rd = build_root_datum("GL3")
    base = base_alcove(rd)
    adm = admissible_set(rd, (1, 0, 0), base)
    ok = len(adm) == 7
    words = {z.key(): (tuple(w), om) for z, w, om in adm}
    v = translation_element(rd, (1, 0, 0))
    ok = ok and words[v.key()][0] == (3, 2)
    v = translation_element(rd, (0, 0, 1))
    ok = ok and words[v.key()][0] == (2, 1)
    v = translation_element(rd, (0, 1, 0))
    ok = ok and words[v.key()][0] == (1, 3)
    # the seven elements: three translations, three single reflections, omega
    lengths = sorted(len(w) for _, w, _ in adm)
    ok = ok and lengths == [0, 1, 1, 1, 2, 2, 2]
    # downward closure reproduces the figure shading
    svg = figures.render(figures.FigureSpec(kind="admissible_A2", mu=(1, 0, 0)))
    ok = ok and "shaded alcoves: 7" in svg
    return CriterionResult(3, "Adm((1,0,0)) in GL3", ok,
                           f"7 elements={len(adm)}, words s3s2/s2s1/s1s3 + shading")


def _gl3x2_data(p: int):
    rd = build_root_datum("GL3xGL3")
    psi = WeylElement(tuple(tuple(1 if j == (i + 3) % 6 else 0 for j in range(6))
                            for i in range(6)))
    ident = WeylElement.identity(6)
    g = GammaData(p=p, e=p**4 - 1, r=4, psi=psi, inertial=ident)
    s = WeylElement((
        (0, 0, 1, 0, 0, 0), (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1)))
    return rd, g, s


# frozen from the worked Weil-restriction example: base-p digit vectors
_LAM_DIGITS = (
    ((18, 3, 7, 1), (12, 6, 12, 6), (7, 1, 18, 3), (6, 12, 6, 12), (3, 7, 1, 18), (1, 18, 3, 7)),
    ((1, 18, 3, 7), (6, 12, 6, 12), (3, 7, 1, 18), (12, 6, 12, 6), (18, 3, 7, 1), (7, 1, 18, 3)),
    ((7, 1, 18, 3), (12, 6, 12, 6), (18, 3, 7, 1), (6, 12, 6, 12), (1, 18, 3, 7), (3, 7, 1, 18)),
    ((3, 7, 1, 18), (6, 12, 6, 12), (1, 18, 3, 7), (12, 6, 12, 6), (7, 1, 18, 3), (18, 3, 7, 1)),
)
_W_PERMS = (
    (1, 2, 0, 4, 3, 5),   # ((123),(12))
    (2, 1, 0, 3, 5, 4),   # ((13),(23))
    (1, 0, 2, 5, 3, 4),   # ((12),(321))
    (0, 1, 2, 3, 4, 5),   # identity
)


def _c4_weil_restriction() -> CriterionResult:
    rd, g, s = _gl3x2_data(19)
    tc = type_from_s_mu(rd, s, (16, 11, 7, 4, 2, 1), g)
    ok = tc.lam_digits == _LAM_DIGITS
    ok = ok and tuple(w.perm() for w in tc.t.ws) == _W_PERMS
    # c_j = psi^j(s^{-1} v^{-mu-eta})
    mu_eta = (18, 12, 7, 6, 3, 1)
    ok = ok and tc.c_translation[0] == tuple(-x for x in mu_eta)
    ok = ok and tc.c_translation[1] == tuple(-x for x in (6, 3, 1, 18, 12, 7))
    ok = ok and tc.c_translation[2] == tc.c_translation[0]
    ok = ok and tc.c_finite[0] == s.inv()
    # c . phi(x) = x is asserted inside the constructor; re-check here
    fx = frobenius(tc.x)
    for j in range(4):
        w = tc.c_finite[j]
        nu = w.apply(tc.c_translation[j])
        img = tuple(a - b for a, b in zip(w.apply(fx.etas[j]), nu))
        ok = ok and img == tc.x.etas[j]
    ok = ok and is_d_generic(tc.x, 2)
    # tau(sigma)_j = s for every j
    vals = cocycle_values(tc.t)
    smon = MonomialMatrix.from_weyl(s, g.q - 1)
    ok = ok and all(m.entries() == smon.entries() for m in vals.tau_sigma)
    return CriterionResult(4, "Weil-restriction constructor (s, mu)", ok,
                           "digit tables, w/c recursions, c.phi(x)=x, 2-generic")


def _c5_conjugation() -> CriterionResult:
    rd2 = build_root_datum("GL3xGL3")
    ok = h_mu(rd2, (1, 0, 0, 1, 0, 0)) == 1
    detail = [f"h_mu={h_mu(rd2, (1, 0, 0, 1, 0, 0))}"]
    rng = random.Random(SEED)
    trials = 0
    violations = 0
    while trials < 200:
        p = rng.choice((3, 5, 7))
        a = rng.choice((1, 2))
        n_size = rng.choice((2, 3))
        ring = Ring(p, a, 1)
        mu = (2, 1, 0)[:n_size]
        h = h_mu(build_root_datum(f"GL{n_size}"), mu)
        xf = random_bounded_x(rng, ring, n_size, mu, 3,
                              use_v_plus_p=bool(trials % 2), window=40)
        depth_n = 5 + rng.randrange(4)
        a_elem = random_depth_element(rng, ring, n_size, depth_n, depth_n + 5)
        good, meas = conjugation_depth_bound(xf, a_elem.with_prec(40), depth_n,
                                             h, a, window=40)
        violations += not good
        trials += 1
    ok = ok and violations == 0
    detail.append(f"200 trials, {violations} violations")
    # monomial sharpness at a = 1: depth drops by exactly h_mu
    ring = Ring(7, 1, 1)
    x = LoopElement.diag_v_power(ring, (1, 0))
    one = TruncSeries.one(ring)
    a_sharp = LoopElement(ring, ((one, TruncSeries.zero(ring)),
                                 (TruncSeries.monomial(ring, 6), one)))
    good, meas = conjugation_depth_bound([x], a_sharp, 6, 1, 1)
    ok = ok and good and meas == 6 - 1
    detail.append(f"sharp depth {meas} = n-h_mu")
    return CriterionResult(5, "h_mu and conjugation depth bounds", ok, "; ".join(detail))


def _c6_straightening() -> CriterionResult:
    ok = True
    details = []
    for (p, a, f, hmu) in ((7, 1, 1, 1), (5, 2, 2, 1)):
        gap = straightening_gap(p, a, f, hmu)
        if gap <= 0:
            raise AssertionError(f"straightening gap {gap} is not positive")
        ring = Ring(p, a, 1)
        window = 4 * p
        budget = window // gap + 2
        rng = random.Random(SEED + p)
        worst = 0
        for trial in range(100):
            xf = random_bounded_x(rng, ring, 2, (1, 0), 4,
                                  use_v_plus_p=bool(trial % 2), window=window + 20)
            b = random_depth_element(rng, ring, 2, f, f + 4)
            res = straighten_right(xf, b, f, hmu, window=window)
            res2 = straighten_right(xf, b, f, hmu, window=window,
                                    start=random_depth_element(rng, ring, 2, f, f + 3)
                                    .with_prec(window))
            good = (res.residual_is_one and res2.residual_is_one
                    and res.a_elem.equals(res2.a_elem)
                    and res.iterations <= budget and res2.iterations <= budget)
            worst = max(worst, res.iterations, res2.iterations)
            if not good:
                ok = False
        details.append(f"(p,a,f,h)={(p, a, f, hmu)}: 100 ok, iters<= {worst} (cap {budget})")
    return CriterionResult(6, "Straightening fixed point", ok, "; ".join(details))


def _c7_congruences() -> CriterionResult:
    ok = True
    r = congruence_compare(3, 2, 3)
    ok = ok and r["frobenius_congruence"]  # (v+3)^3 = v^3 mod 9
    for (p, a, n) in ((3, 2, 7), (5, 3, 9)):
        r = congruence_compare(n, a, p)
        ok = ok and r["first_inclusion"] and r["second_inclusion"]
    # Laurent inverse of (v+p): v^{-1} sum (-1)^k p^k v^{-k}, truncated at p^a
    for (p, a) in ((3, 2), (5, 3)):
        ring = Ring(p, a, 1)
        inv = TruncSeries.v_plus_p(ring).inverse()
        expect = {}
        for k in range(a):
            expect[-1 - k] = ((-1) ** k * p**k) % p**a
        ok = ok and dict(inv.coeffs) == {k: v for k, v in expect.items() if v}
    return CriterionResult(7, "v vs v+p congruence identities", ok,
                           "divisions, binomial congruence, Laurent inverse")


def _read_golden(name: str) -> str:
    return resources.files("alcovekit").joinpath("golden", name).read_text()


def _c8_figures() -> CriterionResult:
    ok = True
    details = []
    pairs = (
        ("sl2_alcove_p7_e24.svg", figures.FigureSpec(kind="rank1_line", p=7, e=24)),
        ("genericity_p19_d6.svg",
         figures.FigureSpec(kind="rank2_A2", p=19, shading_depth=6)),
        ("admissible_mu100.svg", figures.FigureSpec(kind="admissible_A2", mu=(1, 0, 0))),
    )
    for name, spec in pairs:
        try:
            golden = _read_golden(name)
        except FileNotFoundError:
            ok = False
            details.append(f"{name}: missing golden")
            continue
        got = figures.render(spec)
        same = got == golden
        ok = ok and same
        details.append(f"{name}: {'byte-match' if same else 'MISMATCH'}")
    # cross-check node colors against the census predicate
    rd = build_root_datum("SL2")
    g = split_gamma(rd, 7, 24)
    for n, color in figures.sl2_node_colors(7, 24):
        if n % 2 == 1:
            ok = ok and color == figures.LAYOUT["node_white"]
            continue
        t = GaloisType.from_lambda(rd, g, (-(n // 2), n // 2))
        flag, _ = frobenius_invariant(t)
        ok = ok and color == (figures.LAYOUT["node_green"] if flag
                              else figures.LAYOUT["node_red"])
    details.append("node colors == invariance predicate")
    return CriterionResult(8, "Figure golden files", ok, "; ".join(details))


def _c9_property_suites() -> CriterionResult:
    ok = True
    details = []
    # cocycle relations on all census representatives at three (p,e) pairs
    rel_count = 0
    for label in ("SL2", "GL2", "GL3"):
        rd = build_root_datum(label)
        for (p, e) in ((7, 24), (5, 8), (3, 13)):
            g = split_gamma(rd, p, e)
            res = census(rd, g)
            for cls in res.classes:
                t = GaloisType.from_lambda(rd, g, cls.lam)
                checks = check_cocycle_relations(t)
                if not all(checks.values()):
                    ok = False
                rel_count += 1
    details.append(f"cocycle relations on {rel_count} census reps")
    # Bruhat partial-order axioms, exhaustively on length <= 4
    for label in ("GL2", "GL3"):
        rd = build_root_datum(label)
        base = base_alcove(rd)
        elems = [z for z in elements_of_length_at_most(rd, 4, base)]
        leq = {}
        for x in elems:
            for y in elems:
                leq[(x.key(), y.key())] = bruhat_leq(x, y, base)
        for x in elems:
            if not leq[(x.key(), x.key())]:
                ok = False
            for y in elems:
                if x.key() != y.key() and leq[(x.key(), y.key())] and leq[(y.key(), x.key())]:
                    ok = False
        keys = [z.key() for z in elems]
        for i, x in enumerate(keys):
            for y in keys:
                if not leq[(x, y)]:
                    continue
                for z in keys:
                    if leq[(y, z)] and not leq[(x, z)]:
                        ok = False
        details.append(f"Bruhat axioms on {len(elems)} {label} elements")
    # phi is a ring homomorphism; contraction gains at least one level
    rng = random.Random(SEED + 9)
    from .loop_sim import random_polynomial

    ring = Ring(5, 2, 1)
    for _ in range(100):
        s1 = random_polynomial(rng, ring, -2, 6)
        s2 = random_polynomial(rng, ring, -1, 6)
        if not ((s1 * s2).phi().equals(s1.phi() * s2.phi())
                and (s1 + s2).phi().equals(s1.phi() + s2.phi())):
            ok = False
    details.append("phi ring hom x100")
    ring = Ring(7, 1, 1)
    window = 28
    count = 0
    rng = random.Random(SEED + 10)
    for trial in range(100):
        xf = random_bounded_x(rng, ring, 2, (1, 0), 3, window=window + 20)
        x = product_of(xf)
        xinv = inverse_of(xf, window + 20)
        a1 = random_depth_element(rng, ring, 2, 1, 5).with_prec(window)
        diff = random_depth_element(rng, ring, 2, 1 + rng.randrange(3), 6)
        a2 = (a1 * diff).with_prec(window)
        d_before = identity_depth_pair(a1, a2, window)
        p1 = (x * a1.phi() * xinv).with_prec(window)
        p2 = (x * a2.phi() * xinv).with_prec(window)
        d_after = identity_depth_pair(p1, p2, window)
        if d_after < min(d_before + 1, window):
            ok = False
        count += 1
    details.append(f"contraction monotonicity x{count}")
    return CriterionResult(9, "Property suites", ok, "; ".join(details))


def identity_depth_pair(a: LoopElement, b: LoopElement, slack: int) -> int:
    from .loop_sim import identity_depth

    return identity_depth(a.inverse(slack + 10) * b)


CRITERIA = (
    _c1_sl2_census,
    _c2_pi1_facts,
    _c3_admissible,
    _c4_weil_restriction,
    _c5_conjugation,
    _c6_straightening,
    _c7_congruences,
    _c8_figures,
    _c9_property_suites,
)


def run_all() -> list[CriterionResult]:
    return [f() for f in CRITERIA]
