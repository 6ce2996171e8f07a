from fractions import Fraction
import itertools
import math

import pytest

from alcovekit.rootdata import (
    CapExceeded,
    GammaData,
    RootDatum,
    UnsupportedLabel,
    WeylElement,
    build_root_datum,
    dominance_leq,
    pi1,
    pi1_coinvariants,
    split_gamma,
    tate_h0,
    weyl_group,
)
from alcovekit.weyl_affine import h_mu

U3_TWIST = WeylElement(((0, 0, -1), (0, -1, 0), (-1, 0, 0)))


def ident(n):
    return WeylElement.identity(n)


def test_build_examples():
    gl3 = build_root_datum("GL3")
    assert len(gl3.roots) == 6 and gl3.rank == 3
    assert gl3.simple_roots == ((1, -1, 0), (0, 1, -1))
    sl2 = build_root_datum("SL2")
    assert len(sl2.roots) == 2 and sl2.rank == 1
    prod = build_root_datum("GL3xGL3")
    assert len(prod.roots) == 12 and prod.rank == 6
    with pytest.raises(UnsupportedLabel):
        build_root_datum("E8")


def test_datum_invariants():
    for label in ("GL3", "SL3", "PGL3", "GL2xGL3"):
        rd = build_root_datum(label)
        # <alpha_i, alpha_i^vee> = 2 and Cartan integrality
        for a, av in zip(rd.roots, rd.coroots):
            assert rd.pairing(a, av) == 2
        for a in rd.roots:
            for bv in rd.coroots:
                assert rd.pairing(a, bv).denominator == 1
        # negation is an involution of the root list
        root_set = set(rd.roots)
        for a in rd.roots:
            assert tuple(-x for x in a) in root_set
        # reflections permute the roots and coroots
        for i in range(len(rd.roots)):
            s = rd.reflection(i)
            for av in rd.coroots:
                assert tuple(s.apply(av)) in set(rd.coroots)


def test_weyl_group_orders():
    for n in range(2, 7):
        assert len(weyl_group(build_root_datum(f"GL{n}"))) == math.factorial(n)
    assert len(weyl_group(build_root_datum("SL2"))) == 2
    assert len(weyl_group(build_root_datum("GL3xGL3"))) == 36
    with pytest.raises(CapExceeded):
        weyl_group(build_root_datum("GL5"), cap=10)


def test_weyl_closure_on_coroots():
    rd = build_root_datum("GL3")
    coroots = set(rd.coroots)
    ws = weyl_group(rd)
    assert ws[0].is_identity()
    for w in ws:
        for av in rd.coroots:
            assert tuple(w.apply(av)) in coroots


def test_pi1():
    assert pi1(build_root_datum("PGL3")) == (0, [3])
    for n in (2, 3, 5):
        assert pi1(build_root_datum(f"GL{n}")) == (1, [])
        assert pi1(build_root_datum(f"SL{n}")) == (0, [])
    assert pi1(build_root_datum("trivial")) == (0, [])


def test_pi1_coinvariants():
    gl3 = build_root_datum("GL3")
    g_u3 = GammaData(p=13, e=6, r=1, psi=ident(3), inertial=U3_TWIST)
    (free, tor), flag = pi1_coinvariants(gl3, g_u3)
    assert (free, tor) == (0, [2]) and flag is False
    g_triv = split_gamma(gl3, 13, 6)
    (free, tor), flag = pi1_coinvariants(gl3, g_triv)
    assert (free, tor) == (1, []) and flag is True
    sl2 = build_root_datum("SL2")
    (free, tor), flag = pi1_coinvariants(sl2, split_gamma(sl2, 7, 24))
    assert (free, tor) == (0, []) and flag is True


def test_tate_h0():
    sl2 = build_root_datum("SL2")
    assert tate_h0(sl2, split_gamma(sl2, 7, 24)) == [24]
    gl1 = build_root_datum("GL1")
    assert tate_h0(gl1, split_gamma(gl1, 11, 5)) == [5]
    gl3 = build_root_datum("GL3")
    g_u3 = GammaData(p=13, e=6, r=1, psi=ident(3), inertial=U3_TWIST)
    assert tate_h0(gl3, g_u3) == [3]  # order e/2


def test_tate_trivial_action_order():
    # |H^0_Tate| = e^rank for the trivial inertial action
    for label, e, p in (("GL2", 4, 5), ("GL3", 2, 7), ("SL3", 8, 3)):
        rd = build_root_datum(label)
        g = split_gamma(rd, p, e)
        factors = tate_h0(rd, g)
        order = 1
        for f in factors:
            order *= f
        assert order == e**rd.rank


def _relabel(rd: RootDatum) -> RootDatum:
    """Reverse the ambient coordinates (a diagram flip for GL-type data)."""
    n = rd.dim
    rev = lambda v: tuple(v[n - 1 - i] for i in range(n))
    return RootDatum(
        label=rd.label + "-rev",
        dim=n,
        rank=rd.rank,
        roots=tuple(rev(a) for a in rd.roots),
        coroots=tuple(rev(a) for a in rd.coroots),
        simple_indices=rd.simple_indices,
        cochar_basis=tuple(rev(b) for b in rd.cochar_basis),
        block_sizes=rd.block_sizes,
    )


def test_relabel_invariance():
    for label in ("GL3", "SL3", "PGL3"):
        rd = build_root_datum(label)
        rd2 = _relabel(rd)
        assert pi1(rd) == pi1(rd2)
        for (p, e) in ((7, 3), (5, 2)):
            assert tate_h0(rd, split_gamma(rd, p, e)) == tate_h0(rd2, split_gamma(rd2, p, e))


def test_gamma_validation():
    sl2 = build_root_datum("SL2")
    with pytest.raises(ValueError):
        GammaData(p=7, e=5, r=1, psi=ident(2), inertial=ident(2))  # 5 does not divide 6
    with pytest.raises(ValueError):
        GammaData(p=3, e=6, r=2, psi=ident(2), inertial=ident(2))  # p | e
    g = split_gamma(sl2, 7, 24)
    assert g.r == 2 and g.q == 49 and g.split()


def test_dominance_and_height():
    rd = build_root_datum("GL3")
    assert dominance_leq(rd, (1, 1, 0), (2, 0, 0))
    assert not dominance_leq(rd, (2, 0, 0), (1, 1, 0))
    assert not dominance_leq(rd, (1, 0, 0), (2, 0, 0))  # different totals
    assert h_mu(rd, (2, 1, 0)) == 2
    assert h_mu(rd, (0, 0, 0)) == 0
    assert h_mu(build_root_datum("GL3xGL3"), (1, 0, 0, 1, 0, 0)) == 1


def test_datum_json_roundtrip():
    for label in ("GL3", "SL2", "PGL3", "GL3xGL3"):
        rd = build_root_datum(label)
        data = rd.to_json()
        rd2 = RootDatum.from_json(data)
        assert rd2 == rd


# dense reference for the signed-permutation representation of WeylElement

def _dense_mul(a, b):
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0])))
                 for i in range(len(a)))


def _dense_vec(a, v):
    return tuple(sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a)))


def _signed_permutations(n):
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            yield WeylElement(tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(n))
                                    for i in range(n)))


def _weyl_samples():
    for label in ("GL2", "GL3", "GL4", "SL3", "PGL3", "GL2xGL3", "GL3xGL3"):
        yield label, weyl_group(build_root_datum(label))
    yield "U3", [w * U3_TWIST for w in weyl_group(build_root_datum("GL3"))] + [U3_TWIST]
    for n in (1, 2, 3):
        yield f"signed{n}", list(_signed_permutations(n))


def test_weyl_element_matches_dense_reference():
    for label, ws in _weyl_samples():
        n = len(ws[0].matrix)
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        ints = tuple(3 * i - 4 for i in range(n))
        fracs = tuple(Fraction(2 * i - 3, i + 2) for i in range(n))
        for a in ws:
            assert WeylElement(a.matrix) == a
            assert _dense_mul(a.matrix, a.inv().matrix) == ident, label
            for v in (ints, fracs):
                got = a.apply(v)
                assert got == _dense_vec(a.matrix, v), label
                assert [type(x) for x in got] == [type(x) for x in v], label
            for b in ws:
                assert (a * b).matrix == _dense_mul(a.matrix, b.matrix), label
        assert sorted(ws) == sorted(ws, key=lambda w: w.matrix), label


def test_weyl_element_rejects_non_signed_permutations():
    for bad in (((2, 0), (0, 1)), ((1, 1), (0, 1)), ((1, 0, 0), (0, 1, 0)),
                ((1, 0), (1, 0))):
        with pytest.raises(ValueError):
            WeylElement(bad)
    for v in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError):
            WeylElement.identity(2).apply(v)
    assert WeylElement.identity(3) == WeylElement(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert WeylElement(((0, 1, 0), (0, 0, 1), (1, 0, 0))).perm() == (2, 0, 1)
