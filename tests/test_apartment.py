from fractions import Fraction
import random

import pytest

from alcovekit.apartment import (
    ApartmentPoint,
    ZERO_PLUS,
    ValuationPattern,
    frobenius,
    is_d_generic,
    parahoric_pattern,
    point_from_type,
)
from alcovekit.rootdata import (
    GammaData,
    WeylElement,
    build_root_datum,
    split_gamma,
)

F = Fraction


def ident(n):
    return WeylElement.identity(n)


def sl2_point(n, p=7, e=24):
    rd = build_root_datum("SL2")
    g = split_gamma(rd, p, e)
    return point_from_type(rd, g, [(n, -n)] * g.r, [ident(2)] * g.r)


def test_point_from_type_sl2():
    x = sl2_point(-3)
    assert x.etas[0] == (F(1, 8), F(-1, 8))
    assert x.is_gamma_fixed()
    zero = sl2_point(0)
    assert zero.etas[0] == (0, 0)


def test_frobenius_scaling_on_fixed_points():
    x = sl2_point(-3)
    fx = frobenius(x)
    assert fx.etas[0] == (F(7, 8), F(-7, 8))
    # for a Gamma-fixed point with trivial psi: phi(x) - o = p (x - o)
    for j in range(x.gamma.r):
        assert fx.etas[j] == tuple(7 * c for c in x.etas[j])
    zero = sl2_point(0)
    assert frobenius(zero).etas == zero.etas


def test_frobenius_slot_shift():
    # non-fixed point: phi reads slot j-1 into slot j, scaled by p
    rd = build_root_datum("SL2")
    g = split_gamma(rd, 7, 24)
    x = ApartmentPoint(rd, g, ((F(1), F(-1)), (F(0), F(0))))
    fx = frobenius(x)
    assert fx.etas[0] == (0, 0)
    assert fx.etas[1] == (7, -7)


def test_a_period_reads_as_its_r_slots():
    # psi of order 2 and r = 4: a point stored as 2 slots is slot j mod 2
    rng = random.Random(3)
    rd = build_root_datum("GL2")
    g = GammaData(p=5, e=4, r=4, psi=WeylElement(((0, 1), (1, 0))), inertial=ident(2))
    for _ in range(20):
        v = (F(rng.randrange(-8, 8), 4), F(rng.randrange(-8, 8), 4))
        w = g.psi.apply(v) if rng.random() < 0.5 else v
        x = ApartmentPoint(rd, g, (v, w))
        full = ApartmentPoint(rd, g, (v, w) * 2)
        assert [x.eta(j) for j in range(8)] == [full.eta(j) for j in range(8)]
        assert x.is_gamma_fixed() == full.is_gamma_fixed() == (w == g.psi.apply(v))
        assert frobenius(x).etas * 2 == frobenius(full).etas
    with pytest.raises(ValueError):
        ApartmentPoint(rd, g, ((F(0), F(0)),) * 3)  # 3 does not divide r = 4


def sigma_action(x):
    """(sigma x)_j = psi(x_{j-1}): cyclic shift with the pinned twist."""
    r = x.gamma.r
    etas = tuple(tuple(x.gamma.psi.apply(x.etas[(j - 1) % r])) for j in range(r))
    return ApartmentPoint(x.rd, x.gamma, etas)


def inertia_action(x):
    etas = tuple(tuple(x.gamma.inertial.apply(eta)) for eta in x.etas)
    return ApartmentPoint(x.rd, x.gamma, etas)


def test_frobenius_commutes_with_gamma_action():
    rng = random.Random(7)
    rd = build_root_datum("GL3")
    psi = ident(3)
    g = GammaData(p=5, e=8, r=2, psi=psi, inertial=ident(3))
    for _ in range(50):
        etas = tuple(
            tuple(F(rng.randrange(-20, 20), rng.choice((1, 2, 4, 8)))
                  for _ in range(3))
            for _ in range(2)
        )
        x = ApartmentPoint(rd, g, etas)
        assert frobenius(sigma_action(x)).etas == sigma_action(frobenius(x)).etas
        assert frobenius(inertia_action(x)).etas == inertia_action(frobenius(x)).etas


def test_is_d_generic():
    x = sl2_point(-3)  # pairing 1/4, p = 7
    # d/p < 1/4 < 1 - d/p requires d < 7/4
    assert is_d_generic(x, 1)
    assert is_d_generic(x, F(7, 4)) is False
    assert is_d_generic(x, 2) is False
    assert is_d_generic(sl2_point(0), 0) is False  # on a wall
    assert is_d_generic(x, F(7, 2)) is False  # d >= p/2 never generic
    assert is_d_generic(x, -1) is True  # vacuous


def test_genericity_antitone():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(-12, 13)
        x = sl2_point(n)
        d = F(rng.randrange(0, 14), rng.choice((1, 2, 4)))
        dsmall = d - F(rng.randrange(0, 8), 4)
        if is_d_generic(x, d):
            assert is_d_generic(x, dsmall)


def test_parahoric_pattern_gl3():
    rd = build_root_datum("GL3")
    e = 6
    g = split_gamma(rd, 7, e)
    eta = (F(1, 3 * e), F(0), F(-1, 3 * e))
    x = ApartmentPoint(rd, g, (eta,) * g.r)
    pat = parahoric_pattern(x, 0)
    assert pat.lower_bounds == ((0, 0, 0), (F(1, 6), 0, 0), (F(1, 6), F(1, 6), 0))
    assert pat.torus_level == 0


def test_parahoric_pattern_gl2_and_hyperspecial():
    rd = build_root_datum("GL2")
    g = split_gamma(rd, 5, 4)  # e = p - 1
    x = point_from_type(rd, g, [(0, 1)] * g.r, [ident(2)] * g.r)
    pat = parahoric_pattern(x, 0)
    assert pat.lower_bounds == ((0, F(-1, 4)), (F(1, 4), 0))
    o = point_from_type(rd, g, [(0, 0)] * g.r, [ident(2)] * g.r)
    pat0 = parahoric_pattern(o, 0)
    assert pat0.lower_bounds == ((0, 0), (0, 0))


def test_pattern_zero_plus_and_level():
    rd = build_root_datum("GL2")
    g = split_gamma(rd, 5, 4)
    x = point_from_type(rd, g, [(0, 1)] * g.r, [ident(2)] * g.r)
    pat = parahoric_pattern(x, ZERO_PLUS)
    # ceil becomes floor + 1 at the jump
    assert pat.lower_bounds == ((0, 0), (F(1, 2), 0))
    assert pat.torus_level == F(1, 4)
    # the congruence subgroup two levels deeper: off-diagonal bounds + 2
    pat0 = parahoric_pattern(x, 0)
    lb = tuple(tuple(b + 2 if i != k else F(0) for k, b in enumerate(row))
               for i, row in enumerate(pat0.lower_bounds))
    lvl = ValuationPattern(pat0.n, lb, pat0.torus_level + 2, pat0.e)
    assert lvl.lower_bounds == ((0, F(7, 4)), (F(9, 4), 0))


def test_pattern_pair_sums():
    rng = random.Random(23)
    rd = build_root_datum("GL3")
    e = 12
    g = split_gamma(rd, 7, e)
    for _ in range(40):
        eta = tuple(F(rng.randrange(-30, 30), e) for _ in range(3))
        x = ApartmentPoint(rd, g, (eta,) * g.r)
        pat = parahoric_pattern(x, 0)
        for i in range(3):
            for k in range(3):
                if i != k:
                    s = pat.lower_bounds[i][k] + pat.lower_bounds[k][i]
                    assert s in (0, F(1, e))


def test_pattern_refuses_non_gl():
    rd = build_root_datum("SL2")
    g = split_gamma(rd, 7, 24)
    x = sl2_point(1)
    with pytest.raises(ValueError):
        parahoric_pattern(x, 0)
