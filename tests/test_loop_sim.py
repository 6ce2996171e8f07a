import random

import pytest

from alcovekit.apartment import point_from_type, parahoric_pattern
from alcovekit.loop_sim import (
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
)
from alcovekit.rootdata import (
    RefusedError,
    WeylElement,
    build_root_datum,
    split_gamma,
)


def ident(n):
    return WeylElement.identity(n)


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
                row.append(TruncSeries.make(ring, coeffs, lo=0, prec=None))
                continue
            base = -((-bounds[i][j]) // e) + level  # ceil(ulb/e) + level, v-units
            coeffs = {}
            for t in range(terms):
                coeffs[e * (base + t)] = rng.randrange(ring.modulus)
            s = TruncSeries.make(ring, coeffs, lo=min(0, e * base), prec=None)
            row.append(s)
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


def test_contraction_failure_search_reports():
    from alcovekit.loop_sim import search_contraction_failure

    # bound satisfied: the search must come back empty
    rep = search_contraction_failure(7, 1, 1, 1, trials=5, seed=3)
    assert rep["gap"] > 0 and rep["non_contracting"] == 0
    # bound violated: only a report, no assertion either way
    rep = search_contraction_failure(3, 2, 1, 1, trials=5, seed=3)
    assert rep["gap"] <= 0 and rep["trials"] == 5
