import dataclasses
from fractions import Fraction
import itertools
import math
import operator
import random
import time

import pytest

from alcovekit.lattices import identity_matrix, mat_mul, quotient_invariants
from alcovekit.rootdata import (
    CapExceeded,
    GammaData,
    RootDatum,
    UnsupportedLabel,
    WeylElement,
    _action_in_basis,
    build_root_datum,
    check_prime,
    norm_image,
    pi1,
    pi1_coinvariants,
    split_gamma,
    tate_h0,
    weyl_group,
)
from alcovekit.weyl_affine import base_alcove, h_mu

U3_TWIST = WeylElement(((0, 0, -1), (0, -1, 0), (-1, 0, 0)))


def ident(n):
    return WeylElement.identity(n)


def test_build_examples():
    gl3 = build_root_datum("GL3")
    assert gl3.positive_roots == ((0, 1), (0, 2), (1, 2)) and gl3.simple_roots == ((0, 1), (1, 2))
    assert gl3.dim == 3 and gl3.rank == 3
    sl2 = build_root_datum("SL2")
    assert sl2.positive_roots == ((0, 1),) and sl2.dim == 2 and sl2.rank == 1
    prod = build_root_datum("GL3xGL3")
    assert len(prod.positive_roots) == 6 and prod.rank == 6
    assert prod.simple_roots == ((0, 1), (1, 2), (3, 4), (4, 5))
    assert [f.name for f in dataclasses.fields(RootDatum)] == [
        "label", "cochar_basis", "den", "block_sizes"]
    # one den for the datum: the lcm of the PGL block sizes
    assert [build_root_datum(label).den for label in (
        "GL3", "SL2xGL1", "PGL3", "SL2xPGL3", "PGL2xPGL3", "PGL4xPGL2", "trivial")] == [
        1, 1, 3, 3, 6, 4, 1]
    with pytest.raises(UnsupportedLabel):
        build_root_datum("E8")


def _root_vector(rd, a):
    """e_i - e_j in the ambient coordinates, for the pair a = (i, j)."""
    v = [0] * rd.dim
    v[a[0]], v[a[1]] = 1, -1
    return tuple(v)


def _all_roots(rd):
    return rd.positive_roots + tuple((j, i) for i, j in rd.positive_roots)


def test_datum_invariants():
    for label in ("GL3", "SL3", "PGL3", "GL2xGL3"):
        rd = build_root_datum(label)
        vecs = {_root_vector(rd, a) for a in _all_roots(rd)}
        for a in _all_roots(rd):
            av = _root_vector(rd, a)
            # every coroot is a cocharacter, and <a, a^vee> = 2
            assert rd.in_cochar_lattice(av)
            assert av[a[0]] - av[a[1]] == 2
            # s_a(a^vee) = -a^vee, and s_a permutes the coroots
            s = rd.reflection(a)
            assert s.apply(av) == tuple(-x for x in av)
            assert {s.apply(v) for v in vecs} == vecs


def test_weyl_group_orders():
    for n in range(2, 7):
        assert len(weyl_group(build_root_datum(f"GL{n}"))) == math.factorial(n)
    assert len(weyl_group(build_root_datum("SL2"))) == 2
    assert len(weyl_group(build_root_datum("GL3xGL3"))) == 36
    # 10! > 10^6: refused before any element is built (the BFS it replaced
    # took 56.7 s to reach the cap)
    t0 = time.perf_counter()
    with pytest.raises(CapExceeded):
        weyl_group(build_root_datum("GL10"))
    assert time.perf_counter() - t0 < 0.1


def test_weyl_closure_on_coroots():
    rd = build_root_datum("GL3")
    coroots = {_root_vector(rd, a) for a in _all_roots(rd)}
    ws = weyl_group(rd)
    assert ws[0].is_identity()
    for w in ws:
        assert {w.apply(av) for av in coroots} == coroots


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


def _norm_by_steps(rd, g):
    """norm_image as the loop it replaced: e products, sum_{i<e} theta^i."""
    theta = _action_in_basis(rd, g.inertial)
    n = rd.rank
    acc = identity_matrix(n)
    total = [[0] * n for _ in range(n)]
    for _ in range(g.e):
        total = [[a + b for a, b in zip(r, s)] for r, s in zip(total, acc)]
        acc = mat_mul(theta, acc)
    return [[total[i][j] for i in range(n)] for j in range(n)]


# inertial actions of order 2, 3 and 4; (p, r) = (13, 2) admits e | 168
_INERTIAL = [
    ("GL2", WeylElement(((0, 1), (1, 0)))),
    ("GL2", WeylElement(((0, -1), (-1, 0)))),
    ("GL2", WeylElement(((-1, 0), (0, -1)))),
    ("GL2", WeylElement(((0, -1), (1, 0)))),
    ("GL3", U3_TWIST),
    ("GL3", WeylElement(((0, 1, 0), (0, 0, 1), (1, 0, 0)))),
    ("SL3", U3_TWIST),
    ("SL3", WeylElement(((0, 1, 0), (0, 0, 1), (1, 0, 0)))),
]


@pytest.mark.parametrize("label, theta", _INERTIAL)
@pytest.mark.parametrize("e", [1, 2, 3, 4, 6, 7, 8, 12, 14])
def test_norm_image_matches_the_e_step_sum(label, theta, e):
    # an inertial action whose order does not divide e is refused
    rd = build_root_datum(label)
    order, power = 1, theta
    while not power.is_identity():
        order, power = order + 1, power * theta
    if e % order:
        with pytest.raises(ValueError, match="^the inertial action must have order dividing e$"):
            GammaData(p=13, e=e, r=2, psi=ident(rd.dim), inertial=theta)
        return
    g = GammaData(p=13, e=e, r=2, psi=ident(rd.dim), inertial=theta)
    assert norm_image(rd, g) == _norm_by_steps(rd, g)


def test_tate_h0_answers_at_a_large_e():
    # e products took about 1.1 s at e = 10^5 for GL3; the order of the
    # inertial action bounds them now
    gl3 = build_root_datum("GL3")
    e = 10**6
    g = GammaData(p=7, e=e, r=split_gamma(gl3, 7, e).r, psi=ident(3), inertial=U3_TWIST)
    start = time.perf_counter()
    assert tate_h0(gl3, g) == [e // 2]  # order e/2, as at e = 6
    assert time.perf_counter() - start < 1.0


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
        cochar_basis=tuple(rev(b) for b in rd.cochar_basis),
        den=rd.den,
        block_sizes=rd.block_sizes[::-1],
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
    with pytest.raises(ValueError):
        GammaData(p=7, e=3, r=0, psi=ident(2), inertial=ident(2))  # r = 0: q - 1 = 0
    with pytest.raises(ValueError):  # an inertial action of order 4 at e = 6
        GammaData(p=13, e=6, r=2, psi=ident(2), inertial=WeylElement(((0, -1), (1, 0))))
    g = split_gamma(sl2, 7, 24)
    assert g.r == 2 and g.q == 49 and g.split()
    for p in (0, 1, 6, -7):
        with pytest.raises(ValueError):
            GammaData(p=p, e=1, r=1, psi=ident(2), inertial=ident(2))


def test_split_gamma_finds_the_order_of_p_mod_e():
    gl1 = build_root_datum("GL1")

    def order(p, e):
        r, acc = 1, p % e
        while acc != 1 % e:
            r, acc = r + 1, acc * p % e
        return r

    for p in (2, 3, 5, 7, 101):
        for e in range(1, 3001):
            if math.gcd(p, e) == 1:
                assert split_gamma(gl1, p, e).r == order(p, e), (p, e)
    # lcm of ord 2^9 mod 2^12 and 4 * 5^10 mod 5^12
    assert split_gamma(gl1, 7, 10**12).r == 5 * 10**9
    with pytest.raises(CapExceeded):
        split_gamma(gl1, 7, 10**12 + 1)


def test_gamma_psi_order_must_divide_r():
    swap = WeylElement(((0, 1), (1, 0)))
    # psi^2 = 1 but psi^3 = psi: order 2 does not divide r = 3
    with pytest.raises(ValueError):
        GammaData(p=5, e=4, r=3, psi=swap, inertial=ident(2))
    for r in (2, 4):
        assert GammaData(p=5, e=4, r=r, psi=swap, inertial=ident(2)).psi == swap


def test_check_prime_matches_trial_division():
    def is_prime(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    def passes(n):
        try:
            check_prime(n)
            return True
        except ValueError:
            return False

    assert all(passes(n) == is_prime(n) for n in range(-5, 20000))
    # strong pseudoprimes to the bases up to 7 and up to 23, then two primes near 2^60
    assert not passes(3215031751) and not passes(3825123056546413051)
    assert passes(10**18 + 9) and passes(2**61 - 1)
    with pytest.raises(CapExceeded):
        check_prime(10**30)


def test_dominance_and_height():
    rd = build_root_datum("GL3")
    assert h_mu(rd, (2, 1, 0)) == 2
    assert h_mu(rd, (0, 0, 0)) == 0
    assert h_mu(build_root_datum("GL3xGL3"), (1, 0, 0, 1, 0, 0)) == 1


# vector reference for the root data: roots and coroots as dense ambient
# vectors, simple roots by index, and reflections as dense matrices

def _reference_block(kind, n):
    """(roots, coroots, simple indices, cochar basis) of one GL/SL/PGL block."""
    roots = []
    for i in range(n):
        for j in range(n):
            if i != j:
                a = [0] * n
                a[i], a[j] = 1, -1
                roots.append(tuple(a))
    simple = []
    for i in range(n - 1):
        a = [0] * n
        a[i], a[i + 1] = 1, -1
        simple.append(roots.index(tuple(a)))
    if kind == "GL":
        basis = [tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)]
    elif kind == "SL":
        basis = [tuple(Fraction(1 if j == i else (-1 if j == i + 1 else 0)) for j in range(n))
                 for i in range(n - 1)]
    else:
        basis = [tuple(Fraction(1 if j == i else 0) - Fraction(1, n) for j in range(n))
                 for i in range(n - 1)]
    return roots, list(roots), simple, basis


def _reference_datum(label):
    """(dim, roots, coroots, simple indices, cochar basis) of a product label."""
    if label == "trivial":
        return 0, [], [], [], []
    sizes = [int(part.lstrip("GLSP")) for part in label.split("x")]
    dim = sum(sizes)
    roots, coroots, simple, basis = [], [], [], []
    off = 0
    for part, n in zip(label.split("x"), sizes):
        r, c, si, b = _reference_block(part.rstrip("0123456789"), n)

        def pad(v, z=0):
            return tuple([z] * off + list(v) + [z] * (dim - off - n))

        simple += [len(roots) + i for i in si]
        roots += [pad(a) for a in r]
        coroots += [pad(a) for a in c]
        basis += [pad(v, Fraction(0)) for v in b]
        off += n
    return dim, roots, coroots, simple, basis


def _reference_reflection(a, av):
    n = len(a)
    return tuple(tuple((1 if i == j else 0) - av[i] * a[j] for j in range(n)) for i in range(n))


def _reference_weyl_group(dim, roots, coroots, simple):
    gens = [WeylElement(_reference_reflection(roots[i], coroots[i])) for i in simple]
    ident = WeylElement.identity(dim)
    seen, order, frontier = {ident}, [ident], [ident]
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                x = g * w
                if x not in seen:
                    seen.add(x)
                    new.append(x)
        new.sort()
        order.extend(new)
        frontier = new
    return order


def _pair(a):
    return a.index(1), a.index(-1)


@pytest.mark.parametrize("label", [
    "GL1", "GL2", "GL3", "GL4", "SL2", "SL3", "SL4", "PGL2", "PGL3", "PGL4", "trivial",
    "GL2xGL1", "GL1xGL2", "SL2xPGL3", "GL3xGL3", "SL2xGL1xPGL3"])
def test_pair_roots_match_the_vector_reference(label):
    rd = build_root_datum(label)
    dim, roots, coroots, simple, basis = _reference_datum(label)
    assert (rd.dim, rd.rank) == (dim, len(basis))
    # the basis is stored as int numerators over the least common denominator
    assert all(type(x) is int for b in rd.cochar_basis for x in b) and type(rd.den) is int
    assert tuple(tuple(Fraction(x, rd.den) for x in b) for b in rd.cochar_basis) == tuple(basis)
    assert rd.den == math.lcm(*(x.denominator for b in basis for x in b))
    denom, y, walls = base_alcove(rd).walls
    assert all(type(x) is int for x in (denom, *y, *(c for w in walls for c in w)))
    positive = [a for a in roots if a[next(k for k, x in enumerate(a) if x)] > 0]
    assert rd.positive_roots == tuple(map(_pair, positive))
    assert rd.simple_roots == tuple(_pair(roots[i]) for i in simple)
    for a, av in zip(roots, coroots):
        assert rd.reflection(_pair(a)).matrix == _reference_reflection(a, av)
    rng = random.Random(label)
    for _ in range(20):
        mu = tuple(rng.randint(-6, 6) for _ in range(dim))
        assert h_mu(rd, mu) == max((sum(map(operator.mul, a, mu)) for a in roots), default=0)
    rows = [list(rd.basis_coords(av)) for av in coroots]
    assert pi1(rd) == ((0, []) if dim == 0 else quotient_invariants(len(basis), rows))
    assert weyl_group(rd) == _reference_weyl_group(dim, roots, coroots, simple)


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
