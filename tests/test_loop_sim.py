import contextlib
from functools import reduce
import io
import itertools
import math
from operator import mul
import random

import pytest

from alcovekit.apartment import point_from_type, parahoric_pattern
from alcovekit import cli, loop_sim
from alcovekit.loop_sim import (
    MAX_A,
    MAX_LOOP_N,
    LoopElement,
    PrecisionError,
    Ring,
    TruncSeries,
    congruence_compare,
    conjugation_depth_bound,
    identity_depth,
    inverse_of,
    membership,
    phi_c,
    product_of,
    random_bounded_x,
    random_depth_element,
    random_polynomial,
    straighten_right,
    straightening_gap,
)
from alcovekit.rootdata import (
    CapExceeded,
    RefusedError,
    check_prime,
    WeylElement,
    build_root_datum,
    split_gamma,
)


def ident(n):
    return WeylElement.identity(n)


def test_ring_validation():
    for p, a, e in ((4, 2, 1), (1, 1, 1), (3, 0, 1), (5, 1, 0)):
        with pytest.raises(ValueError):
            Ring(p, a, e)
    assert Ring(7, MAX_A).a == 128
    # the bound on a is checked before p, so a composite p is refused the same way
    for p in (7, 4):
        with pytest.raises(CapExceeded, match="^a is capped at 128, got a=129$"):
            Ring(p, MAX_A + 1)


def test_series_basics():
    ring = Ring(3, 2, 1)
    vp = TruncSeries.v_plus_p(ring)
    cube = vp * vp * vp
    assert cube.equals(TruncSeries.monomial(ring, 3))  # (v+3)^3 = v^3 mod 9
    inv = vp.inverse()
    assert dict(inv.coeffs) == {-1: 1, -2: 6}  # v^{-1}(1 - 3 v^{-1}), 9 = 0
    assert (vp * inv).equals(TruncSeries.one(ring))


def test_series_one_neutral():
    rng = random.Random(2)
    ring = Ring(5, 2, 1)
    one = TruncSeries.one(ring)
    for _ in range(20):
        s = random_polynomial(rng, ring, -3, 6)
        assert (one * s).equals(s)
        assert (s * one).equals(s)


def test_inverse_needs_window():
    ring = Ring(5, 1, 1)
    s = TruncSeries.make(ring, {0: 1, 1: 4})  # exact, infinite inverse
    with pytest.raises(PrecisionError):
        s.inverse()
    inv = s.inverse(12)
    assert (s * inv).equals(TruncSeries.one(ring, prec=12))


def test_non_invertible():
    ring = Ring(5, 2, 1)
    s = TruncSeries.make(ring, {0: 5, 1: 10})
    with pytest.raises(ZeroDivisionError):
        s.inverse()


def test_phi():
    ring = Ring(5, 1, 1)
    v = TruncSeries.monomial(ring, 1)
    assert dict(v.phi().coeffs) == {5: 1}
    s = TruncSeries.make(ring, {0: 1, 2: 1})
    assert dict(s.phi().coeffs) == {0: 1, 10: 1}


def test_phi_ring_homomorphism():
    rng = random.Random(31)
    ring = Ring(3, 2, 1)
    for _ in range(100):
        s1 = random_polynomial(rng, ring, -2, 7)
        s2 = random_polynomial(rng, ring, -1, 7)
        assert (s1 * s2).phi().equals(s1.phi() * s2.phi())
        assert (s1 + s2).phi().equals(s1.phi() + s2.phi())


def test_phi_c_identity_twist():
    ring = Ring(5, 1, 1)
    rng = random.Random(8)
    a = random_depth_element(rng, ring, 2, 1, 4)
    assert phi_c(a).equals(a.phi())


def _gl2_pattern_and_c(p):
    """The worked GL2 picture: e = p-1, x = u^(0,1).o and c = diag(1, v^{-1})."""
    rd = build_root_datum("GL2")
    g = split_gamma(rd, p, p - 1)
    assert g.r == 1
    x = point_from_type(rd, g, [(0, 1)], [ident(2)])
    pat = parahoric_pattern(x, 0)
    ring = Ring(p, 1, p - 1)
    # c = v^{(0,-1)}: u-powers (0, -e)
    c = LoopElement.from_monomial(ring, [0, 1], [0, -(p - 1)])
    return ring, pat, c


def _pattern_element(rng, ring, pat, level=0, plus=False, terms=3):
    """Random v-rational member of the pattern's level subgroup.

    Off-diagonal slots sit at v-level `level` above the pattern; the diagonal
    is a unit congruent to 1 mod v^(level + plus).
    """
    e = ring.e
    bounds = pat.bounds_u()
    diag_level = level + (1 if plus else 0)
    rows = []
    for i in range(pat.n):
        row = []
        for j in range(pat.n):
            if i == j:
                coeffs = {0: 1}
                for t in range(max(diag_level, 1), max(diag_level, 1) + terms):
                    coeffs[e * t] = rng.randrange(ring.modulus)
                row.append(TruncSeries.make(ring, coeffs))
                continue
            base = -((-bounds[i][j]) // e) + level  # ceil(ulb/e) + level, v-units
            coeffs = {}
            for t in range(terms):
                coeffs[e * (base + t)] = rng.randrange(ring.modulus)
            row.append(TruncSeries.make(ring, coeffs))
        rows.append(tuple(row))
    return LoopElement(ring, tuple(rows))


def test_membership_examples():
    ring, pat, _ = _gl2_pattern_and_c(5)
    ident_el = LoopElement.identity(ring, 2, prec=40)
    ok, depth = membership(ident_el, pat)
    # member at every level the window can certify
    assert ok and depth >= 40 // ring.e - 1
    # a u-unit below the diagonal violates the parahoric pattern
    bad = LoopElement(ring, (
        (TruncSeries.one(ring), TruncSeries.zero(ring)),
        (TruncSeries.one(ring), TruncSeries.one(ring))))
    ok, _ = membership(bad, pat)
    assert not ok
    # 1 + v^n E_12 has depth n at the hyperspecial point
    ring1 = Ring(5, 1, 1)
    rd = build_root_datum("GL2")
    g = split_gamma(rd, 5, 4)
    o = point_from_type(rd, g, [(0, 0)], [ident(2)])
    pat0 = parahoric_pattern(o, 0)
    for n in (1, 3):
        el = LoopElement(Ring(5, 1, 4), (
            (TruncSeries.one(Ring(5, 1, 4)), TruncSeries.monomial(Ring(5, 1, 4), 4 * n)),
            (TruncSeries.zero(Ring(5, 1, 4)), TruncSeries.one(Ring(5, 1, 4)))))
        ok, depth = membership(el, pat0)
        assert ok and depth == n


def test_phi_c_preserves_parahoric():
    # c phi(A) c^{-1} stays in the pattern of x when c . phi(x) = x
    rng = random.Random(44)
    ring, pat, c = _gl2_pattern_and_c(5)
    for _ in range(25):
        a = _pattern_element(rng, ring, pat)
        image = phi_c(a, c)
        ok, _ = membership(image, pat)
        assert ok


def test_phi_c_depth_jump():
    # level n+ goes to level pn + d for the 1-generic x of the GL2 picture
    rng = random.Random(45)
    ring, pat, c = _gl2_pattern_and_c(5)
    d = 1
    for n in (1, 2):
        for _ in range(10):
            a = _pattern_element(rng, ring, pat, level=n, plus=True)
            ok_in, depth_in = membership(a, pat)
            assert ok_in and depth_in >= n
            image = phi_c(a, c)
            ok, depth = membership(image, pat)
            assert ok and depth >= 5 * n + d


def test_conjugation_x_identity():
    ring = Ring(7, 1, 1)
    rng = random.Random(6)
    a = random_depth_element(rng, ring, 2, 3, 8)
    ok, meas = conjugation_depth_bound([LoopElement.identity(ring, 2)], a, 3, 0, 1)
    assert ok and meas >= 3


def test_conjugation_sharpness():
    ring = Ring(7, 1, 1)
    x = LoopElement.diag_v_power(ring, (1, 0))
    one = TruncSeries.one(ring)
    a = LoopElement(ring, ((one, TruncSeries.zero(ring)),
                           (TruncSeries.monomial(ring, 6), one)))
    ok, meas = conjugation_depth_bound([x], a, 6, 1, 1)
    assert ok and meas == 5


def test_straighten_trivial():
    ring = Ring(7, 1, 1)
    res = straighten_right(LoopElement.identity(ring, 2),
                           LoopElement.identity(ring, 2), 1, 0, window=28)
    assert res.residual_is_one and res.a_elem.is_identity()


def test_straighten_refuses_bad_bound():
    ring = Ring(3, 2, 1)
    rng = random.Random(1)
    xf = random_bounded_x(rng, ring, 2, (1, 0), 3)
    b = random_depth_element(rng, ring, 2, 1, 4)
    with pytest.raises(RefusedError):
        straighten_right(xf, b, 1, 1)  # (3-1)*1 - 1 - 4 + 2 = -1


def test_straighten_roundtrip_and_uniqueness():
    ring = Ring(7, 1, 1)
    rng = random.Random(1234)
    xf = random_bounded_x(rng, ring, 2, (1, 0), 4, use_v_plus_p=True)
    b = random_depth_element(rng, ring, 2, 1, 5)
    res = straighten_right(xf, b, 1, 1, window=28)
    assert res.residual_is_one
    res2 = straighten_right(xf, b, 1, 1, window=28,
                            start=random_depth_element(rng, ring, 2, 1, 4).with_prec(28))
    assert res.a_elem.equals(res2.a_elem)
    # B' = A^{-1} X phi_c(A) X^{-1} recovers B
    x = product_of(xf)
    a = res.a_elem
    bprime = a.inverse(60) * x * phi_c(a, None, 60) * inverse_of(xf, 60)
    assert bprime.equals(b)


def test_precision_soundness_windows_agree():
    # the same pipeline at a larger window agrees on the overlap
    ring = Ring(7, 1, 1)
    out = {}
    for window in (21, 42):
        rng = random.Random(777)
        xf = random_bounded_x(rng, ring, 2, (1, 0), 4, use_v_plus_p=True)
        b = random_depth_element(rng, ring, 2, 1, 5)
        out[window] = straighten_right(xf, b, 1, 1, window=window).a_elem
    small, big = out[21], out[42]
    assert small.equals(big.with_prec(21))


def test_contraction_gains_depth():
    ring = Ring(7, 1, 1)
    rng = random.Random(55)
    window = 28
    for _ in range(25):
        xf = random_bounded_x(rng, ring, 2, (1, 0), 3, window=window + 20)
        x = product_of(xf)
        xinv = inverse_of(xf, window + 20)
        a1 = random_depth_element(rng, ring, 2, 1, 5).with_prec(window)
        diff = random_depth_element(rng, ring, 2, 1 + rng.randrange(3), 6)
        a2 = (a1 * diff).with_prec(window)
        d0 = identity_depth(a1.inverse(window + 20) * a2)
        p1 = (x * a1.phi() * xinv).with_prec(window)
        p2 = (x * a2.phi() * xinv).with_prec(window)
        d1 = identity_depth(p1.inverse(window + 20) * p2)
        assert d1 >= min(d0 + 1, window)


def test_congruence_compare():
    r = congruence_compare(3, 2, 3)
    assert r["frobenius_congruence"]
    for (p, a, n) in ((3, 2, 7), (5, 3, 9)):
        r = congruence_compare(n, a, p)
        assert r["first_inclusion"] and r["second_inclusion"]
        # reconstruct: (v+p)^n = v^{n-a+1} q1 and v^n = (v+p)^{n-a+1} q2 mod p^a
        ring = Ring(p, a, 1)
        vp = TruncSeries.v_plus_p(ring)
        pow_vp = TruncSeries.one(ring)
        for _ in range(n):
            pow_vp = pow_vp * vp
        q1 = TruncSeries.make(ring, r["first_quotient"])
        assert (q1 * TruncSeries.monomial(ring, n - a + 1)).equals(pow_vp)
        div = TruncSeries.one(ring)
        for _ in range(n - a + 1):
            div = div * vp
        q2 = TruncSeries.make(ring, r["second_quotient"])
        assert (q2 * div).equals(TruncSeries.monomial(ring, n))
    # a = 1: v = v+p on the nose, inclusions at every level
    for n in (2, 5):
        r = congruence_compare(n, 1, 7)
        assert r["first_inclusion"] and r["second_inclusion"] and r["frobenius_congruence"]


def test_compare_takes_its_powers_from_one_loop(monkeypatch):
    calls = []
    real = TruncSeries.__mul__

    def spy(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(TruncSeries, "__mul__", spy)
    # each power of v+p comes from the binomial theorem: no series product
    # at all, where the product loop made max(n, p^(a-1)) of them
    for n, a, p in ((20, 3, 5), (7, 2, 3), (4, 4, 3), (4, 4, 101), (10**6, 2, 3)):
        r = congruence_compare(n, a, p)
        assert r["first_inclusion"] and r["second_inclusion"] and r["frobenius_congruence"]
    for n, a, p in ((200, MAX_A + 1, 3), (MAX_A + 1, MAX_A + 1, 101)):
        with pytest.raises(CapExceeded):
            congruence_compare(n, a, p)
    assert not calls


def test_v_plus_p_power_matches_repeated_products():
    for p in (2, 3, 5, 7, 11, 13):
        ks = set(range(61)) | {p**j + d for j in range(1, 4) for d in (-3, 3)}
        for a in range(1, 9):
            ring = Ring(p, a)
            power = TruncSeries.one(ring)
            for k in range(max(ks) + 1):
                if k in ks:
                    got = loop_sim._v_plus_p_power(ring, k)
                    assert (got.coeffs, got.prec) == (power.coeffs, None), (p, a, k)
                power = power * TruncSeries.v_plus_p(ring)


def test_compare_quotients_at_the_largest_a():
    # a = 128 with a 25-digit prime just under check_prime's bound: p^(a-1)
    # has 3,100 digits, so no power could be formed by products
    p, a, n = 3317044064679887385961783, MAX_A, 1000
    check_prime(p)
    r = congruence_compare(n, a, p)
    assert r["first_inclusion"] and r["second_inclusion"] and r["frobenius_congruence"]
    ring = Ring(p, a)
    m = ring.modulus
    # v^n = q (v+p)^(n-a+1): q_k = (-p)^(a-1-k) C(n-k-1, a-1-k), from
    # (1 + p x)^-(n-a+1) read backwards
    assert r["second_quotient"] == {
        k: c for k in range(a) if (c := (-p) ** (a - 1 - k) * math.comb(n - k - 1, a - 1 - k) % m)}
    assert r["first_quotient"] == {
        a - 1 - j: c for j in range(a) if (c := math.comb(n, j) * p**j % m)}


def test_laurent_inverse_matches_geometric_series():
    for (p, a) in ((3, 2), (5, 3), (7, 1)):
        ring = Ring(p, a, 1)
        inv = TruncSeries.v_plus_p(ring).inverse()
        expect = {}
        for k in range(a):
            val = ((-1) ** k * p**k) % p**a
            if val:
                expect[-1 - k] = val
        assert dict(inv.coeffs) == expect


def _search_contraction_failure(p, a, f, h_mu, trials, seed):
    """Look for a non-contracting instance when the straightening bound fails.

    Whether the bound is sharp in this sense is open; this only reports what
    the search saw, it asserts nothing.
    """
    gap = straightening_gap(p, a, f, h_mu)
    ring = Ring(p, a, 1)
    rng = random.Random(seed)
    window = 4 * p
    found = 0
    tried = 0
    for trial in range(trials):
        mu = (h_mu, 0)
        xf = random_bounded_x(rng, ring, 2, mu, 3, use_v_plus_p=bool(trial % 2),
                              window=window + 20)
        x = product_of(xf)
        xinv = inverse_of(xf, window + 20)
        a1 = random_depth_element(rng, ring, 2, f, f + 3).with_prec(window)
        diff = random_depth_element(rng, ring, 2, f, f + 3)
        a2 = (a1 * diff).with_prec(window)
        d0 = identity_depth(a1.inverse(window + 20) * a2)
        p1 = (x * a1.phi() * xinv).with_prec(window)
        p2 = (x * a2.phi() * xinv).with_prec(window)
        d1 = identity_depth(p1.inverse(window + 20) * p2)
        tried += 1
        if d1 < min(d0 + 1, window):
            found += 1
    return {"gap": gap, "trials": tried, "non_contracting": found}


def test_contraction_failure_search_reports():
    # bound satisfied: the search must come back empty
    rep = _search_contraction_failure(7, 1, 1, 1, trials=5, seed=3)
    assert rep["gap"] > 0 and rep["non_contracting"] == 0
    # bound violated: only a report, no assertion either way
    rep = _search_contraction_failure(3, 2, 1, 1, trials=5, seed=3)
    assert rep["gap"] <= 0 and rep["trials"] == 5


# ---------------------------------------------------------------------------
# The packed (Kronecker) product against a schoolbook reference that applies
# the window rules term by term.

def _ref_series_mul(a, b):
    m = a.ring.modulus
    cands = []
    for s, t in ((a, b), (b, a)):
        if s.prec is not None:
            off = t.coeffs[0][0] if t.coeffs else t.prec
            if off is not None:
                cands.append(s.prec + off)
    prec = min(cands) if cands else None
    out = {}
    for k1, v1 in a.coeffs:
        for k2, v2 in b.coeffs:
            if prec is None or k1 + k2 < prec:
                out[k1 + k2] = (out.get(k1 + k2, 0) + v1 * v2) % m
    return TruncSeries.make(a.ring, out, prec=prec)


def _ref_loop_mul(x, y):
    n = x.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = _ref_series_mul(x.rows[i][0], y.rows[0][j])
            for k in range(1, n):
                acc = acc + _ref_series_mul(x.rows[i][k], y.rows[k][j])
            row.append(acc)
        rows.append(tuple(row))
    return LoopElement(x.ring, tuple(rows))


def _state(s):
    return s.coeffs, s.prec


# 2: one-byte slots; 65521: eight-byte slots; 2^31 - 1: slots wider than a word
KERNEL_RINGS = (Ring(2, 1), Ring(3, 2), Ring(7, 2), Ring(5, 3), Ring(65521, 1),
                Ring(2**31 - 1, 1))
SERIES_KINDS = ("exact", "window", "pole", "sparse", "zero", "exact_zero", "one_term")


def _random_series(rng, ring, kind):
    m = ring.modulus
    if kind == "exact_zero":
        return TruncSeries.zero(ring)
    if kind == "zero":
        lo = rng.randrange(-4, 6)
        return TruncSeries(ring, (), lo + rng.randrange(0, 8))
    if kind == "one_term":
        k = rng.randrange(-5, 12)
        prec = rng.choice((None, k + 1 + rng.randrange(10)))
        return TruncSeries.monomial(ring, k, rng.randrange(1, m), prec=prec)
    lo = rng.randrange(-6, 0) if kind == "pole" else rng.randrange(0, 4)
    hi = lo + rng.randrange(1, 30)
    step = rng.randrange(2, 8) if kind == "sparse" else 1
    coeffs = {k: rng.randrange(m) for k in range(lo, hi, step)}
    prec = None
    if kind in ("window", "pole") or (kind == "sparse" and rng.randrange(2)):
        prec = rng.randrange(lo, hi + 5)
    rng.randrange(lo - 2, lo + 1)  # unused, but the pinned inputs depend on this draw
    return TruncSeries.make(ring, coeffs, prec=prec)


def test_series_product_matches_schoolbook():
    rng = random.Random(2026)
    for ring in KERNEL_RINGS:
        for ka in SERIES_KINDS:
            for kb in SERIES_KINDS:
                for _ in range(6):
                    a = _random_series(rng, ring, ka)
                    b = _random_series(rng, ring, kb)
                    assert _state(a * b) == _state(_ref_series_mul(a, b)), (ring, ka, kb)


def test_series_product_at_the_slot_width_limit():
    # every coefficient m - 1: the central slot holds terms * (m - 1)^2 exactly
    for ring in KERNEL_RINGS:
        m = ring.modulus
        for length in (1, 2, 3, 17, 64):
            full = TruncSeries.make(ring, {k: m - 1 for k in range(length)})
            assert _state(full * full) == _state(_ref_series_mul(full, full))
            # an entry of a matrix product sums n such products in one slot
            for n in (2, 3):
                el = LoopElement(ring, tuple((full,) * n for _ in range(n)))
                got, want = el * el, _ref_loop_mul(el, el)
                assert [[_state(s) for s in row] for row in got.rows] == \
                    [[_state(s) for s in row] for row in want.rows], (ring, length, n)
                # a minor sums its n Laplace terms in one slot as well
                assert _state(el.det()) == _state(_det_by_minors(el)), (ring, length, n)


def test_loop_product_matches_schoolbook():
    rng = random.Random(4242)
    for ring in KERNEL_RINGS:
        for n in (1, 2, 3):
            for _ in range(8):
                x, y = (LoopElement(ring, tuple(
                    tuple(_random_series(rng, ring, rng.choice(SERIES_KINDS)) for _ in range(n))
                    for _ in range(n))) for _ in range(2))
                got, want = x * y, _ref_loop_mul(x, y)
                assert [[_state(s) for s in row] for row in got.rows] == \
                    [[_state(s) for s in row] for row in want.rows], (ring, n)


def test_loop_product_checks_shapes():
    ring = Ring(5, 1)
    with pytest.raises(ValueError):
        LoopElement.identity(ring, 2) * LoopElement.identity(ring, 3)
    with pytest.raises(ValueError):
        LoopElement.identity(ring, 2) * LoopElement.identity(Ring(7, 1), 2)


# ---------------------------------------------------------------------------
# Sums and differences merge the sorted terms.  The dict round trip they
# replaced is the reference: the same (coeffs, prec) on every input.

def _dict_add(s, t):
    if s.ring != t.ring:
        raise ValueError("series over different rings")
    prec = t.prec if s.prec is None else s.prec if t.prec is None else min(s.prec, t.prec)
    out = dict(s.coeffs)
    for k, v in t.coeffs:
        out[k] = out.get(k, 0) + v
    return TruncSeries.make(s.ring, out, prec=prec)


def _dict_sub(s, t):
    m = t.ring.modulus
    return _dict_add(s, TruncSeries(t.ring, tuple((k, -v % m) for k, v in t.coeffs), t.prec))


def _dict_equals(s, t):
    prec = t.prec if s.prec is None else s.prec if t.prec is None else min(s.prec, t.prec)
    d = dict(s.coeffs)
    for k, v in t.coeffs:
        d[k] = d.get(k, 0) - v
    return all(v % s.ring.modulus == 0 for k, v in d.items() if prec is None or k < prec)


def test_sum_difference_and_equality_match_the_dict_round_trip():
    rng = random.Random(1066)
    seen = set()
    for ring in KERNEL_RINGS:
        for ka in SERIES_KINDS:
            for kb in SERIES_KINDS:
                for _ in range(4):
                    a = _random_series(rng, ring, ka)
                    # b agrees with a on a shorter window, or is a series of its own
                    b = (a + _random_series(rng, ring, kb)).with_prec(rng.randrange(-6, 20)) \
                        if rng.randrange(3) == 0 else _random_series(rng, ring, kb)
                    for x, y in ((a, b), (b, a), (a, a)):
                        assert _state(x + y) == _state(_dict_add(x, y)), (ring, ka, kb)
                        assert _state(x - y) == _state(_dict_sub(x, y)), (ring, ka, kb)
                        assert x.equals(y) == _dict_equals(x, y), (ring, ka, kb)
                        seen.add(x.equals(y))
    assert seen == {True, False}
    # across rings the sum raised, and now so does equality (it compared
    # the terms modulo the first ring's modulus)
    a, b = TruncSeries.one(Ring(3, 2)), TruncSeries.one(Ring(3, 1))
    assert _dict_equals(a, b)
    for op in (TruncSeries.__add__, TruncSeries.__sub__, TruncSeries.equals):
        with pytest.raises(ValueError):
            op(a, b)


def _packed_slots(monkeypatch):
    """Record the number of slots of every packed factor."""
    seen = []
    real = loop_sim._pack

    def spy(slots, nb):
        seen.append(len(slots))
        return real(slots, nb)

    monkeypatch.setattr(loop_sim, "_pack", spy)
    return seen


def test_wide_factor_is_packed_only_up_to_the_product_window(monkeypatch):
    # phi spreads a window of 6 over 6p exponents; a product with a factor of
    # window 12 needs only the exponents below 12 plus that factor's pole
    seen = _packed_slots(monkeypatch)
    rng = random.Random(77)
    ring = Ring(1000003, 2)
    m = ring.modulus
    fa = TruncSeries.make(ring, {k: rng.randrange(1, m) for k in range(6)}, prec=6).phi()
    b = TruncSeries.make(ring, {k: rng.randrange(1, m) for k in range(-2, 12)}, prec=12)
    for x, y in ((fa, b), (b, fa), (fa, fa.with_prec(9))):
        assert _state(x * y) == _state(_ref_series_mul(x, y))
    fa_el = random_depth_element(rng, ring, 2, 1, 5).with_prec(6).phi()
    b_el = random_depth_element(rng, ring, 2, 1, 5).with_prec(12)
    x_el = LoopElement(ring, tuple(
        tuple(random_polynomial(rng, ring, 0, 4) for _ in range(2)) for _ in range(2)))
    for x, y in ((fa_el, b_el), (b_el, fa_el), (x_el, fa_el * b_el)):
        got, want = x * y, _ref_loop_mul(x, y)
        assert [[_state(s) for s in row] for row in got.rows] == \
            [[_state(s) for s in row] for row in want.rows]
    assert seen and max(seen) <= 32


def test_straightening_cost_does_not_grow_with_p(monkeypatch):
    # at window 4 every product stays within the internal slack, whatever p
    seen = _packed_slots(monkeypatch)
    for p in (1000003, 2**61 - 1):
        ring = Ring(p, 1, 1)
        rng = random.Random(5)
        xf = random_bounded_x(rng, ring, 2, (1, 0), 4, use_v_plus_p=True, window=24)
        b = random_depth_element(rng, ring, 2, 1, 5)
        res = straighten_right(xf, b, 1, 1, window=4)
        assert res.residual_is_one and res.trace == (1, 4)
    assert max(seen) <= 64


def test_windowed_straightening_matches_a_wider_window():
    # the result at window w is the result at window 3w, truncated to w
    for p, a, n, seed in ((7, 1, 2, 3), (7, 2, 2, 8), (5, 2, 3, 11), (11, 1, 3, 19)):
        ring = Ring(p, a, 1)
        out = {}
        w = 2 * p
        for window in (w, 3 * w):
            rng = random.Random(seed)
            xf = random_bounded_x(rng, ring, n, (1,) + (0,) * (n - 1), 4,
                                  use_v_plus_p=True, window=window + 20)
            b = random_depth_element(rng, ring, n, 1, 5)
            res = straighten_right(xf, b, 1, 1, window=window)
            assert res.residual_is_one
            out[window] = res.a_elem
        narrow, wide = out[w], out[3 * w].with_prec(w)
        assert [[(s.coeffs, s.prec) for s in row] for row in narrow.rows] == \
            [[(s.coeffs, s.prec) for s in row] for row in wide.rows]


def _trace_by_inverse(xf, b, f, h_mu, window):
    """The update depths as depth(a_cur^{-1} a_next), each with its own inverse."""
    x = product_of(xf)
    ring = x.ring
    slack = window + ring.e * (abs(h_mu) * x.n + 4 * ring.a + 8)
    xinv, binv = inverse_of(xf, slack), b.inverse(slack)
    a_cur = LoopElement.identity(ring, x.n).with_prec(window)
    trace = []
    while True:
        a_next = (x * a_cur.phi() * xinv * binv).with_prec(window)
        trace.append(identity_depth(a_cur.inverse(slack) * a_next))
        if a_next.equals(a_cur):
            return a_next, trace
        a_cur = a_next


def test_update_depths_match_the_inverse_based_trace():
    for p, a, n, seed in ((7, 1, 2, 5), (7, 2, 2, 6), (5, 2, 3, 7), (11, 1, 2, 9),
                          (7, 1, 3, 10), (13, 1, 2, 12)):
        ring = Ring(p, a, 1)
        window = 4 * p
        rng = random.Random(seed)
        xf = random_bounded_x(rng, ring, n, (1,) + (0,) * (n - 1), 4,
                              use_v_plus_p=True, window=window + 20)
        b = random_depth_element(rng, ring, n, 1, 5)
        res = straighten_right(xf, b, 1, 1, window=window)
        a_ref, trace = _trace_by_inverse(xf, b, 1, 1, window)
        assert list(res.trace) == trace
        assert res.a_elem.equals(a_ref)


# ---------------------------------------------------------------------------
# inverse_of inverts each run of exact unit-determinant factors as one product,
# and the fixed-point loop reads each update depth off the terms of the two
# iterates.  The reference inverts factor by factor, inverts B once more, and
# takes the depth from the difference of the iterates.

def _inverse_factorwise(factors, window=None):
    return reduce(mul, [f.inverse(window) for f in reversed(factors)])


def _straighten_by_difference(xf, b, f, h_mu, window):
    x = product_of(xf)
    ring = x.ring
    gap = straightening_gap(ring.p, ring.a, f, h_mu)
    if gap <= 0:
        raise RefusedError(
            f"straightening bound violated: (p-1)f - h_mu - 2a + 2 = {gap} <= 0")
    slack = window + ring.e * (abs(h_mu) * x.n + 4 * ring.a + 8)
    xb = _inverse_factorwise(xf, slack) * b.inverse(slack)
    low = sum(min(loop_sim._vanishing_below(s) for row in el.rows for s in row)
              for el in (xb, x))
    if ring.p * window + low < window:
        raise ValueError(f"the iterates are known to u^(p*window{low:+d}) only, short of the "
                         f"window {window}: the least window that works is {-(low // (ring.p - 1))}")
    a_cur = LoopElement.identity(ring, x.n).with_prec(window)
    trace = []
    for _ in range((window // ring.e) // gap + 4):
        a_next = (x * (a_cur.phi() * xb)).with_prec(window)
        if a_next.min_prec() < window:
            raise PrecisionError("window slack exhausted during iteration")
        diff = a_next - a_cur
        trace.append(loop_sim._zero_depth(diff))
        if all(s.is_zero() for row in diff.rows for s in row):
            break
        a_cur = a_next
    else:
        raise PrecisionError("straightening did not converge within the window")
    return a_cur, len(trace), tuple(trace), loop_sim._is_integral_unit(a_cur)


def _result_or_error(fn):
    try:
        return fn()
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        return type(exc), str(exc)


def _loop_state(el):
    return [[_state(s) for s in row] for row in el.rows]


# (p, a, n, mu).  Inverting the whole product, windowed core included, at once
# turns six inputs of the first three cells (a windowed v+p core at a = 3) into
# PrecisionError: (5, .., window 4, f 2), (7, .., 8, 2) and (11, .., 4 or 8, 1 or 2)
DIFFERENTIAL_CELLS = ((5, 3, 4, (1, 1, 1, -1)), (7, 3, 4, (1, 1, 1, -1)),
                      (11, 3, 4, (1, 1, 1, -1)), (7, 1, 3, (1, 0, 0)), (5, 2, 2, (1, 0)),
                      (3, 1, 1, (1,)), (7, 2, 3, (1, 1, -1)), (3, 2, 2, (2, 0)))


def test_run_inverses_match_the_factorwise_reference():
    kinds = set()
    for (p, a, n, mu), vp, window, f in itertools.product(DIFFERENTIAL_CELLS, (False, True),
                                                          (4, 8), (1, 2)):
        ring = Ring(p, a, 1)
        rng = random.Random(f"{p}{a}{n}{mu}{vp}{window}{f}")
        xf = random_bounded_x(rng, ring, n, mu, 3, use_v_plus_p=vp, window=window + 20)
        b = random_depth_element(rng, ring, n, f, f + 4)
        h_mu = max(mu) - min(mu)

        def solve():
            res = straighten_right(xf, b, f, h_mu, window=window)
            return (_loop_state(res.a_elem), res.iterations, res.trace, res.residual_is_one)

        def solve_by_difference():
            a_elem, iterations, trace, one = _straighten_by_difference(xf, b, f, h_mu, window)
            return _loop_state(a_elem), iterations, trace, one

        got = _result_or_error(solve)
        assert got == _result_or_error(solve_by_difference), (p, a, n, mu, vp, window, f)
        kinds.add(got[0] if isinstance(got[0], type) else "ok")
        depth = 1 + rng.randrange(3)
        a_elem = random_depth_element(rng, ring, n, depth, depth + 5).with_prec(window)
        conj = product_of(list(xf) + [a_elem]) * _inverse_factorwise(xf, window + 20)
        want = identity_depth(conj)
        assert conjugation_depth_bound(xf, a_elem, depth, h_mu, a, window=window + 20) == \
            (want >= depth - h_mu - 2 * a + 2, want)
    assert kinds == {"ok", RefusedError}


def test_straighten_makes_one_inverse_per_run(monkeypatch):
    # B U t^nu V is one run at a = 1; at a = 2 the core's determinant
    # (v+p)^h has the nilpotent p^h below its unit term, so it is inverted alone
    calls = []
    real = LoopElement.inverse

    def spy(self, window=None, laplace=None):
        calls.append(self.n)
        return real(self, window, laplace)

    monkeypatch.setattr(LoopElement, "inverse", spy)
    for extra, want in (([], 1), (["--a", "2"], 3)):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["straighten", "--p", "7", "--n", "3"] + extra) == 0
        assert calls == [3] * want


# ---------------------------------------------------------------------------
# straighten_right certifies its answer from the last iterate.  The residual
# A^{-1} X phi(A) X^{-1} B^{-1}, with A^{-1} a windowed inverse, is the reference.

def _residual_by_inverse(xf, b, h_mu, a, window):
    x = product_of(xf)
    ring = x.ring
    slack = window + ring.e * (abs(h_mu) * x.n + 4 * ring.a + 8)
    return a.inverse(slack) * x * a.phi() * inverse_of(xf, slack) * b.inverse(slack)


def _straightening_input(p, a, n, h_mu, f, use_v_plus_p, window, seed):
    ring = Ring(p, a, 1)
    rng = random.Random(seed)
    xf = random_bounded_x(rng, ring, n, (h_mu,) + (0,) * (n - 1), 4,
                          use_v_plus_p=use_v_plus_p, window=window + 20)
    b = random_depth_element(rng, ring, n, f, f + 4)
    start = random_depth_element(rng, ring, n, f, f + 3).with_prec(window)
    return xf, b, start


# (p, a, n, h_mu, f): each with a positive contraction gap
CERTIFICATE_GRID = ((3, 1, 1, 1, 1), (7, 1, 2, 1, 1), (5, 2, 2, 1, 1), (7, 2, 3, 2, 1),
                    (3, 2, 3, 1, 2), (5, 1, 4, 1, 1), (3, 1, 4, 1, 1))


def test_certificate_matches_the_residual_by_inverse():
    for k, (p, a, n, h_mu, f) in enumerate(CERTIFICATE_GRID):
        for use_v_plus_p in (False, True):
            for window in (3, 2 * p):
                xf, b, start = _straightening_input(p, a, n, h_mu, f, use_v_plus_p, window, k)
                for st in (None, start):
                    res = straighten_right(xf, b, f, h_mu, start=st, window=window)
                    residual = _residual_by_inverse(xf, b, h_mu, res.a_elem, window)
                    assert res.residual_is_one == residual.is_identity()
                    # the residual never knew more than the window the certificate covers
                    assert residual.min_prec() <= window


def test_a_perturbed_answer_fails_both_checks():
    p, a, n, h_mu, f, window = 7, 1, 2, 1, 1, 14
    for use_v_plus_p in (False, True):
        xf, b, _ = _straightening_input(p, a, n, h_mu, f, use_v_plus_p, window, 3)
        ring = xf[0].ring
        ans = straighten_right(xf, b, f, h_mu, window=window).a_elem
        # the residual may know less than the window: change the last
        # coefficient it knows
        top = _residual_by_inverse(xf, b, h_mu, ans, window).min_prec() - 1
        rows = [list(row) for row in ans.rows]
        rows[0][1] = rows[0][1] + TruncSeries.monomial(ring, top, 1, prec=window)
        bad = LoopElement(ring, tuple(tuple(row) for row in rows))
        assert loop_sim._is_integral_unit(bad)
        assert not _residual_by_inverse(xf, b, h_mu, bad, window).is_identity()
        slack = window + h_mu * n + 4 * a + 8
        y = product_of(xf) * (bad.phi() * (inverse_of(xf, slack) * b.inverse(slack)))
        assert not y.with_prec(window).equals(bad)


def test_integral_unit_check():
    ring = Ring(5, 2)
    one, zero = TruncSeries.one(ring), TruncSeries.zero(ring)
    v, p = TruncSeries.monomial(ring, 1), TruncSeries.make(ring, {0: 5})
    assert loop_sim._is_integral_unit(LoopElement(ring, ((one, v), (zero, one))))
    assert loop_sim._is_integral_unit(loop_sim.random_positive_unit(random.Random(2), ring, 3, 4))
    # a v^-1 term, with determinant 1
    assert not loop_sim._is_integral_unit(
        LoopElement(ring, ((one, TruncSeries.monomial(ring, -1)), (zero, one))))
    # determinant p + v: its constant term is 0 mod p
    assert not loop_sim._is_integral_unit(LoopElement(ring, ((one, zero), (zero, p + v))))
    assert not loop_sim._is_integral_unit(LoopElement(ring, ((one, one), (one, one + v))))


def test_a_start_short_of_the_window_is_refused():
    xf, b, start = _straightening_input(7, 1, 2, 1, 1, True, 14, 4)
    with pytest.raises(ValueError):
        straighten_right(xf, b, 1, 1, start=start.with_prec(13), window=14)
    exact = random_depth_element(random.Random(4), xf[0].ring, 2, 1, 4)
    assert straighten_right(xf, b, 1, 1, start=exact, window=14).residual_is_one


def test_determinant_size_is_capped():
    ring = Ring(5, 1)
    big = LoopElement.identity(ring, MAX_LOOP_N + 1)
    with pytest.raises(CapExceeded):
        big.det()
    with pytest.raises(CapExceeded):
        big.inverse(10)
    assert LoopElement.identity(ring, 3).inverse(10).is_identity()


# ---------------------------------------------------------------------------
# det and inverse expand each minor once.  The recursive expansion below,
# which built a new element per minor and expanded shared minors again, is
# the reference: the same operations in the same order, so every result and
# every exception must be the same.

def _det_by_minors(x):
    n = x.n
    if n == 1:
        return x.rows[0][0]
    acc = None
    for j in range(n):
        minor = LoopElement(x.ring, tuple(
            tuple(x.rows[i][k] for k in range(n) if k != j) for i in range(1, n)))
        term = x.rows[0][j] * _det_by_minors(minor)
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _inverse_by_minors(x, window=None):
    n = x.n
    dinv = _det_by_minors(x).inverse(window)
    if n == 1:
        return LoopElement(x.ring, ((dinv,),))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = LoopElement(x.ring, tuple(
                tuple(x.rows[r][c] for c in range(n) if c != i) for r in range(n) if r != j))
            cof = _det_by_minors(minor)
            if (i + j) % 2 == 1:
                cof = -cof
            row.append(cof * dinv)
        rows.append(tuple(row))
    return LoopElement(x.ring, tuple(rows))


def _outcome(f, *args):
    try:
        got = f(*args)
    except Exception as exc:
        return type(exc)
    if isinstance(got, TruncSeries):
        return _state(got)
    return tuple(tuple(_state(s) for s in row) for row in got.rows)


def _random_loop_element(rng, n, kind):
    """exact entries, exact entries cut to one window, entries of mixed
    kinds and windows, or entries with poles."""
    ring = rng.choice(KERNEL_RINGS[:4])
    kinds = {"exact": ("exact",), "window": ("exact",), "mixed": SERIES_KINDS,
             "pole": ("pole",)}[kind]
    x = LoopElement(ring, tuple(tuple(_random_series(rng, ring, rng.choice(kinds))
                                      for _ in range(n)) for _ in range(n)))
    return x.with_prec(rng.randrange(1, 20)) if kind == "window" else x


def test_det_and_inverse_match_the_recursive_expansion():
    rng = random.Random(1812)
    outcomes = set()
    for n in range(1, 7):
        for kind in ("exact", "window", "mixed", "pole"):
            for _ in range({4: 30, 5: 2, 6: 1}.get(n, 8)):
                x = _random_loop_element(rng, n, kind)
                assert _outcome(LoopElement.det, x) == _outcome(_det_by_minors, x)
                window = rng.choice((None, rng.randrange(1, 30)))
                want = _outcome(_inverse_by_minors, x, window)
                assert _outcome(LoopElement.inverse, x, window) == want, (n, kind, window)
                outcomes.add(want if isinstance(want, type) else tuple)
    assert outcomes == {tuple, ZeroDivisionError, PrecisionError}


def test_det_expands_each_minor_once(monkeypatch):
    rng = random.Random(6)
    ring = Ring(7, 2)
    x = LoopElement(ring, tuple(tuple(random_polynomial(rng, ring, 0, 3) for _ in range(6))
                                for _ in range(6)))
    assert all(not s.is_zero() for row in x.rows for s in row)
    pairs = []
    real = loop_sim._dot

    def spy(ring, packed, nb, prec):
        packed = list(packed)
        pairs.append(len(packed))
        return real(ring, packed, nb, prec)

    monkeypatch.setattr(loop_sim, "_dot", spy)
    x.det()
    # one packed dot product per minor of size 2 to 6, and at most n 2^(n-1) =
    # 192 series products in all; expanding every minor anew made 1236
    assert len(pairs) == 2**6 - 1 - 6
    assert sum(pairs) <= 6 * 2**5


# ---------------------------------------------------------------------------
# det and inverse share packed operands: each signed entry and each minor is
# packed once at one slot width, no minor is formed under an exact-zero entry,
# and the n^2 cofactor products share one packed det^-1.  The memoized
# expansion that formed every term and multiplied each cofactor by det^-1 on
# its own is the reference: the same coeffs and prec on every input.

def _laplace_minor(x, rows, cols, memo):
    """The minor on sorted index tuples by Laplace along rows[0], kept in memo."""
    if len(rows) == 1:
        return x.rows[rows[0]][cols[0]]
    if (rows, cols) not in memo:
        row, rest = x.rows[rows[0]], rows[1:]
        acc = None
        for j, c in enumerate(cols):
            term = (-row[c] if j % 2 else row[c]) * _laplace_minor(
                x, rest, cols[:j] + cols[j + 1:], memo)
            acc = term if acc is None else acc + term
        memo[rows, cols] = acc
    return memo[rows, cols]


def _laplace_det(x):
    full = tuple(range(x.n))
    return _laplace_minor(x, full, full, {})


def _adjugate_inverse(x, window=None):
    full, memo = tuple(range(x.n)), {}
    dinv = _laplace_minor(x, full, full, memo).inverse(window)
    if x.n == 1:
        return LoopElement(x.ring, ((dinv,),))
    others = [full[:k] + full[k + 1:] for k in full]

    def cofactor(i, j):
        cof = _laplace_minor(x, others[j], others[i], memo)
        return -cof if (i + j) % 2 == 1 else cof

    return LoopElement(x.ring, tuple(tuple(cofactor(i, j) * dinv for j in full) for i in full))


LAPLACE_RINGS = (Ring(7, 1), Ring(5, 2), Ring(3, 3), Ring(2, 4), Ring(7, 2, 2))
LAPLACE_ENTRIES = ("exact", "window", "pole", "phi", "phi_exact", "exact_zero", "window_zero")


def _laplace_entry(rng, ring, kind):
    m = ring.modulus
    if kind == "exact_zero":
        return TruncSeries.zero(ring)
    if kind == "window_zero":
        return TruncSeries(ring, (), rng.randrange(-2, 12))
    lo = rng.randrange(-3, 0) if kind == "pole" else rng.randrange(0, 3)
    coeffs = {k: rng.randrange(m) for k in range(lo, lo + rng.randrange(1, 7))}
    prec = None if kind in ("exact", "phi_exact") else rng.randrange(max(lo, 0) + 1, lo + 12)
    s = TruncSeries.make(ring, coeffs, prec=prec)
    return s.phi() if kind.startswith("phi") else s


def _laplace_element(rng, ring, n, pattern):
    """dense, diagonal, upper triangular or sparse entries of mixed kinds,
    the diagonal shifted by 1 half the time so that many are invertible."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if {"diagonal": i != j, "triangular": j < i,
                    "sparse": rng.randrange(3) == 0}.get(pattern, False):
                row.append(_laplace_entry(rng, ring, rng.choice(("exact_zero", "window_zero"))))
                continue
            s = _laplace_entry(rng, ring, rng.choice(LAPLACE_ENTRIES))
            row.append(s + TruncSeries.one(ring) if i == j and rng.randrange(2) else s)
        rows.append(tuple(row))
    return LoopElement(ring, tuple(rows))


def test_shared_packing_matches_the_memoized_expansion():
    rng = random.Random(1919)
    outcomes = set()
    for ring in LAPLACE_RINGS:
        for n in range(1, 6):
            for window in (None, 5, 20, 40):
                for pattern in ("dense", "diagonal", "triangular", "sparse"):
                    x = _laplace_element(rng, ring, n, pattern)
                    assert _outcome(LoopElement.det, x) == _outcome(_laplace_det, x)
                    want = _outcome(_adjugate_inverse, x, window)
                    assert _outcome(LoopElement.inverse, x, window) == want, \
                        (ring, n, window, pattern)
                    outcomes.add(want if isinstance(want, type) else tuple)
                    y = _laplace_element(rng, ring, n, rng.choice(("dense", "sparse")))
                    for a, b in ((x, y), (y.phi(), x)):
                        assert _outcome(LoopElement.__mul__, a, b) == \
                            _outcome(_ref_loop_mul, a, b), (ring, n, pattern)
    assert outcomes == {tuple, ZeroDivisionError, PrecisionError}


def test_minor_slots_hold_every_laplace_term():
    # a 9-byte slot holds 1024 (m - 1)^2 < 2^72 but not twice that; both
    # terms of this 2x2 minor put 1024 such products in its central slot
    ring = Ring(2**31 - 1, 1)
    m = ring.modulus
    full = TruncSeries.make(ring, {k: m - 1 for k in range(1024)})
    ones = TruncSeries.make(ring, {k: 1 for k in range(1024)})  # -ones packs m - 1
    x = LoopElement(ring, ((full, ones), (full, full)))
    assert _state(x.det()) == _state(_laplace_det(x))


def test_diagonal_det_forms_no_minor_under_a_zero(monkeypatch):
    rng = random.Random(8)
    ring = Ring(7, 2)
    diag = [random_polynomial(rng, ring, 0, 3) + TruncSeries.one(ring) for _ in range(8)]
    x = LoopElement(ring, tuple(tuple(diag[i] if i == j else TruncSeries.zero(ring)
                                      for j in range(8)) for i in range(8)))
    want = _laplace_det(x)
    calls = []
    real = loop_sim._dot

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(loop_sim, "_dot", spy)
    assert _state(x.det()) == _state(want)
    # one dot for each trailing diagonal minor of size 8 down to 2; the
    # minors under the 56 exact zeros are never formed
    assert len(calls) == 7


def test_inverse_packs_the_inverse_determinant_once_per_sign(monkeypatch):
    rng = random.Random(9)
    ring = Ring(5, 2)
    x = LoopElement(ring, tuple(tuple(random_polynomial(rng, ring, 0, 4) for _ in range(3))
                                for _ in range(3)))
    want = _adjugate_inverse(x, 20)
    dinv = x.det().inverse(20)
    packed = []
    real = loop_sim._pack_series

    def spy(s, nb, stop):
        packed.append(_state(s))
        return real(s, nb, stop)

    monkeypatch.setattr(loop_sim, "_pack_series", spy)
    got = x.inverse(20)
    assert [[_state(s) for s in row] for row in got.rows] == \
        [[_state(s) for s in row] for row in want.rows]
    # each cofactor product used to pack det^-1 anew: 9 times here
    assert packed.count(_state(dinv)) == 1 and packed.count(_state(-dinv)) == 1


# ---------------------------------------------------------------------------
# The inverse lifts a unit lowest term by Newton's iteration and sums the
# geometric series by doubling where nilpotent terms sit below the unit term.
# The term-by-term loop is the reference where it shares their window rules,
# and the true inverse, summed without windows, is the reference everywhere.

def _inverse_term_by_term(s, window=None):
    """The geometric series summed one power at a time, on the same rules."""
    p, m, a = s.ring.p, s.ring.modulus, s.ring.a
    unit_terms = [(k, v) for k, v in s.coeffs if v % p]
    if not unit_terms:
        raise ZeroDivisionError("no unit coefficient")
    kstar, cstar = unit_terms[0]
    lead_inv = TruncSeries.monomial(s.ring, -kstar, pow(cstar, -1, m))
    shifted = None if s.prec is None else s.prec - kstar
    t = s * lead_inv - TruncSeries.one(s.ring, prec=shifted)
    if t.prec is None and any(k > 0 for k, _ in t.coeffs):
        if window is None:
            raise PrecisionError("exact series has an infinite inverse")
        t = t.with_prec(window + abs(kstar) + a * (abs(kstar) + abs(s.lo)) + 2)
    width = len(t.coeffs) + 1 if t.prec is None else max(1, t.prec - t.lo)
    geom = power = TruncSeries.one(s.ring, prec=t.prec)
    for _ in range(width + a * (abs(t.lo) + 2) + 4):
        power = (-t) * power
        if t.prec is not None and (power.prec is None or power.prec > t.prec):
            power = power.with_prec(t.prec)
        if power.is_zero():
            break
        geom = geom + power
    else:
        raise PrecisionError("inverse iteration failed to terminate")
    inv = lead_inv * geom
    low = inv.val() if inv.coeffs else -kstar
    if s.prec is not None:
        cap = s.prec + 2 * low
        return inv.with_prec(cap if inv.prec is None else min(inv.prec, cap))
    if window is not None and (inv.prec is None or inv.prec > window):
        return inv.with_prec(window)
    return inv


def _true_inverse(s, stop):
    """The coefficients of 1/s below `stop` for an exact s, with no window
    rules: 1/s = c^-1 u^-k (1 - t + t^2 - ...), where the terms of t at
    exponents <= 0 are nilpotent, so a nonzero product has fewer than a."""
    p, m, a = s.ring.p, s.ring.modulus, s.ring.a
    kstar, cstar = next((k, v) for k, v in s.coeffs if v % p)
    cinv = pow(cstar, -1, m)
    t = {k - kstar: v * cinv % m for k, v in s.coeffs}
    t[0] = (t.get(0, 0) - 1) % m
    drop = (a - 1) * -min(0, *t)  # the most that later factors lower an exponent
    need = stop + kstar
    power, total = {0: 1}, {0: 1}
    for _ in range(need + drop + a):
        nxt = {}
        for k1, v1 in power.items():
            for k2, v2 in t.items():
                if v2 and k1 + k2 < need + drop:
                    nxt[k1 + k2] = (nxt.get(k1 + k2, 0) - v1 * v2) % m
        power = {k: v for k, v in nxt.items() if v}
        for k, v in power.items():
            total[k] = (total.get(k, 0) + v) % m
    return {k - kstar: v * cinv % m for k, v in total.items() if v * cinv % m and k < need}


def _is_sound(s, state, rng):
    """state agrees with the true inverse of s, or of three completions of a
    windowed s, below its prec."""
    coeffs, prec = state
    if prec is None:  # an exact inverse ends at its last term
        prec = coeffs[-1][0] + 20
    for _ in range(1 if s.prec is None else 3):
        full = dict(s.coeffs)
        if s.prec is not None:
            full.update({k: rng.randrange(s.ring.modulus) for k in range(s.prec, s.prec + 8)})
        if _true_inverse(TruncSeries.make(s.ring, full), prec) != dict(coeffs):
            return False
    return True


def _inverse_outcome(f, s, window):
    try:
        return _state(f(s, window))
    except (ZeroDivisionError, PrecisionError) as exc:
        return type(exc)


def _inverse_inputs(rng):
    """(series, window) pairs: the kernel kinds, exact series with a window,
    (v+p)^k, windowed units, units with nilpotent terms below them, and unit
    lowest terms off u^0 and at wide windows."""
    for ring in KERNEL_RINGS + (Ring(2, 6), Ring(3, 4), Ring(5, 2, 3)):
        m, p = ring.modulus, ring.p
        for kind in SERIES_KINDS:
            for _ in range(6):
                yield _random_series(rng, ring, kind), rng.choice((None, rng.randrange(1, 40)))
        for _ in range(12):
            lo = rng.randrange(-3, 3)
            coeffs = {k: rng.randrange(m) for k in range(lo, lo + rng.randrange(1, 12))}
            yield TruncSeries.make(ring, coeffs), rng.randrange(1, 60)
        vp = TruncSeries.v_plus_p(ring)
        power = TruncSeries.one(ring)
        for k in range(1, 6):
            power = power * vp
            yield power, rng.choice((None, rng.randrange(1, 30)))
        for _ in range(12):
            prec = rng.randrange(1, 40)
            coeffs = {k: rng.randrange(m) for k in range(1, prec + 3)}
            coeffs[0] = rng.randrange(1, p) + p * rng.randrange(m)
            yield TruncSeries.make(ring, coeffs, prec=prec), None
        for _ in range(12):
            coeffs = {k: p * rng.randrange(m) for k in range(rng.randrange(-4, 0), 0)}
            coeffs.update({k: rng.randrange(m) for k in range(1, rng.randrange(2, 16))})
            coeffs[0] = rng.randrange(1, p) + p * rng.randrange(m)
            yield (TruncSeries.make(ring, coeffs, prec=rng.choice((None, rng.randrange(1, 20)))),
                   rng.randrange(1, 40))
    # a unit lowest term at k* < 0, k* = 0 and k* > 0, over rings with e > 1 and
    # slots wider than a word; the windows of exact series reach below |k*|
    for ring in (Ring(5, 2), Ring(7, 1, 2), Ring(3, 3, 4), Ring(2**31 - 1, 1)):
        m, p = ring.modulus, ring.p
        for kstar in (-7, 0, 7):
            coeffs = {k: rng.randrange(m) for k in range(kstar + 1, kstar + rng.randrange(2, 14))}
            coeffs[kstar] = rng.randrange(1, p) + p * rng.randrange(m)
            yield TruncSeries.make(ring, coeffs, prec=kstar + rng.randrange(1, 20)), None
            for window in (1, rng.randrange(1, 7), abs(kstar) + rng.randrange(1, 30)):
                yield TruncSeries.make(ring, coeffs), window
    # a unit lowest term at wide windows; terms spaced w/8 apart keep the
    # references to a few powers of t
    for ring in (Ring(7, 2), Ring(2**31 - 1, 1), Ring(3, 2, 3)):
        m, p = ring.modulus, ring.p
        for w in (256, 1024, 4096):
            coeffs = {k: rng.randrange(m) for k in range(w // 8, w + w // 4, w // 8)}
            coeffs[0] = rng.randrange(1, p) + p * rng.randrange(m)
            yield TruncSeries.make(ring, coeffs, prec=w), None
            yield TruncSeries.make(ring, coeffs), w


def _shares_window_rules(s):
    """No nilpotent term sits below the unit term, or s is exact and ends
    there, as (v+p)^k does: then t has no term below 0 or no window."""
    kstar = next((k for k, v in s.coeffs if v % s.ring.p), None)
    return kstar is None or s.coeffs[0][0] == kstar or (s.prec is None and s.coeffs[-1][0] == kstar)


def test_inverse_matches_the_term_by_term_loop():
    rng = random.Random(1974)
    outcomes = []
    for s, window in _inverse_inputs(rng):
        if _shares_window_rules(s):
            want = _inverse_outcome(_inverse_term_by_term, s, window)
            assert _inverse_outcome(TruncSeries.inverse, s, window) == want, (s, window)
            outcomes.append(want if isinstance(want, type) else tuple)
    assert len(outcomes) > 500  # 617 of 747 inputs
    assert set(outcomes) == {tuple, ZeroDivisionError, PrecisionError}


def test_inverse_is_sound_below_the_window():
    # where a nilpotent term sits below the unit term, the terms the sum leaves
    # out reach below the window of the last power; the term-by-term loop did
    # not account for them
    rng = random.Random(1975)
    checked = wrong_before = 0
    for s, window in _inverse_inputs(rng):
        got = _inverse_outcome(TruncSeries.inverse, s, window)
        if isinstance(got, type):
            continue
        assert _is_sound(s, got, rng), (s, window)
        checked += 1
        if not _shares_window_rules(s):
            old = _inverse_outcome(_inverse_term_by_term, s, window)
            wrong_before += not _is_sound(s, old, rng)
    assert checked > 500 and wrong_before > 0  # 570 and 42


def test_inverse_bounds_the_powers_it_leaves_out():
    # t has nilpotent terms below 0, so the powers of t left out of the sum
    # reach below the window of the last power summed
    ring = Ring(2, 3)
    exact = TruncSeries.make(ring, {-2: 2, -1: 4, 0: 1, 1: 3})
    assert _true_inverse(exact, 1) == {-4: 4, -3: 4, -2: 6, 0: 7}
    assert _inverse_term_by_term(exact, 1).coeff(0) == 3  # claimed known, and wrong
    # widened by the shortfall, the sum reaches the window asked for (it came
    # back with prec -1 before)
    assert _state(exact.inverse(1)) == (((-4, 4), (-3, 4), (-2, 6), (0, 7)), 1)
    windowed = TruncSeries.make(ring, {-2: 4, -1: 6, 0: 1, 1: 5}, prec=8)
    got = _state(windowed.inverse())
    assert got == (((-1, 6),), 0) and _is_sound(windowed, got, random.Random(3))


def test_exact_inverse_reaches_its_window():
    # products of the nilpotent terms below the unit term cost the sum window
    # that its first working window does not foresee
    rng = random.Random(1976)
    checked = nilpotent_below = 0
    for s, window in _inverse_inputs(rng):
        if s.prec is not None or window is None:
            continue
        got = _inverse_outcome(TruncSeries.inverse, s, window)
        if isinstance(got, type):
            continue
        assert got[1] == window and _is_sound(s, got, rng), (s, window)
        checked += 1
        nilpotent_below += not _shares_window_rules(s)
    assert checked > 200 and nilpotent_below > 50


def test_inverse_makes_logarithmically_many_products(monkeypatch):
    ring = Ring(5, 1)
    window = 1024
    calls = []
    real = TruncSeries.__mul__

    def spy(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(TruncSeries, "__mul__", spy)
    inv = TruncSeries.make(ring, {0: 1, 1: 1}).inverse(window)
    assert inv.prec == window
    assert dict(inv.coeffs) == {k: (-1) ** k % 5 for k in range(window)}
    # a unit lowest term takes Newton's iteration, which makes no series product
    assert not calls
    # a nilpotent term below the unit term takes the doubling sum: two products
    # per doubling; the term-by-term loop made about `window`
    s = TruncSeries.make(Ring(5, 2), {-1: 5, 0: 1, 1: 1})
    inv = s.inverse(window)
    assert inv.prec == window and dict(inv.coeffs) == _true_inverse(s, window)
    assert 0 < len(calls) <= 3 * window.bit_length()


def test_newton_lifts_in_ceil_log2_target_steps(monkeypatch):
    # from the one term known at the start to target = prec - k* (window + k*
    # for an exact series), each step doubling, with two unpacked products a
    # step and no series product
    unpacked, dots = [], []
    real_unpack, real_dot = loop_sim._unpack, loop_sim._dot

    def spy_unpack(*args):
        unpacked.append(1)
        return real_unpack(*args)

    def spy_dot(*args):
        dots.append(1)
        return real_dot(*args)

    monkeypatch.setattr(loop_sim, "_unpack", spy_unpack)
    monkeypatch.setattr(loop_sim, "_dot", spy_dot)
    rng = random.Random(18)
    ring = Ring(7, 2)
    checked = 0
    for target in (1, 2, 3, 4, 5, 43, 1024, 1025, 4096):
        for kstar in (-3, 0, 5):
            coeffs = {k: rng.randrange(1, 49) for k in range(kstar + 1, kstar + target + 3)}
            coeffs[kstar] = rng.randrange(1, 7)
            cases = [(TruncSeries.make(ring, coeffs, prec=kstar + target), None)]
            if target > kstar:
                cases.append((TruncSeries.make(ring, coeffs), target - kstar))
            for s, window in cases:
                unpacked.clear()
                inv = s.inverse(window)
                assert inv.prec == target - kstar
                assert len(unpacked) == 2 * math.ceil(math.log2(target)), (target, kstar)
                checked += 1
    assert not dots and checked == 49


def _inverse_by_doubling(s, window=None):
    """The inverse of a series with a unit lowest term as the doubling sum
    computes it: lead_inv times the geometric series in -t, on the same
    window rules."""
    p, m, a = s.ring.p, s.ring.modulus, s.ring.a
    kstar, cstar = s.coeffs[0]
    assert cstar % p
    lead_inv = TruncSeries.monomial(s.ring, -kstar, pow(cstar, -1, m))
    shifted = None if s.prec is None else s.prec - kstar
    t = s * lead_inv - TruncSeries.one(s.ring, prec=shifted)
    if s.prec is None:
        t = t.with_prec(window + abs(kstar) + a * (abs(kstar) + abs(s.lo)) + 2)
    inv = lead_inv * loop_sim._geometric_sum(t)
    cap = window if s.prec is None else s.prec + 2 * inv.val()
    return inv.with_prec(min(inv.prec, cap))


def test_newton_matches_the_doubling_sum_on_wide_dense_units():
    # every coefficient random below the window, as the determinants that
    # straighten inverts are
    rng = random.Random(4096)
    checked = 0
    for ring, windows in ((Ring(7, 2), (256, 1024, 4096)), (Ring(101, 3), (1024,)),
                          (Ring(2**31 - 1, 1), (256,)), (Ring(2, 5, 2), (1024,))):
        m, p = ring.modulus, ring.p
        for w in windows:
            for kstar in (-3, 0, 5):
                coeffs = {k: rng.randrange(m) for k in range(kstar + 1, kstar + w + 2)}
                coeffs[kstar] = rng.randrange(1, p) + p * rng.randrange(m)
                for s, window in ((TruncSeries.make(ring, coeffs, prec=kstar + w), None),
                                  (TruncSeries.make(ring, coeffs), w)):
                    inv = s.inverse(window)
                    assert _state(inv) == _state(_inverse_by_doubling(s, window)), (ring, w)
                    assert (s * inv).equals(TruncSeries.one(ring))
                    checked += 1
    assert checked == 36


def test_series_has_no_stored_pole_bound():
    from dataclasses import fields

    assert [f.name for f in fields(TruncSeries)] == ["ring", "coeffs", "prec"]
    ring = Ring(5, 3)
    for s, lo in ((TruncSeries.zero(ring), 0), (TruncSeries.zero(ring, prec=-4), -4),
                  (TruncSeries.zero(ring, prec=7), 0),
                  (TruncSeries.make(ring, {-2: 1, 3: 4}), -2),
                  (TruncSeries.make(ring, {2: 1, 3: 4}, prec=9), 0)):
        assert s.lo == lo
    for p, a in ((3, 2), (5, 3), (7, 1), (2, 6)):
        assert TruncSeries.v_plus_p(Ring(p, a)).inverse().lo == -a
