import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest

from alcovekit import galois
from alcovekit.galois import (
    CocycleValues,
    GaloisType,
    RefusedError,
    census,
    check_cocycle_relations,
    cocycle_values,
    frobenius_invariant,
    shapiro,
    shapiro_inverse,
    strictify,
    type_from_s_mu,
)
from alcovekit.lattices import smith_normal_form
from alcovekit.monomial import MonomialMatrix
from alcovekit.rootdata import (
    CapExceeded,
    GammaData,
    WeylElement,
    _action_in_basis,
    build_root_datum,
    split_gamma,
    weyl_group,
)


def ident(n):
    return WeylElement.identity(n)


SL2 = build_root_datum("SL2")
G24 = split_gamma(SL2, 7, 24)


def _r_slots(t):
    """t with slot j mod L written out for every j < r."""
    r = t.gamma.r
    return GaloisType(t.rd, t.gamma, tuple(t.lams[j % len(t.lams)] for j in range(r)),
                      tuple(t.ws[j % len(t.ws)] for j in range(r)))


def test_cocycle_values_sl2():
    # from_lambda stores one psi-period, here one slot; both forms read as r slots
    for lam, exps in (((-3, 3), (21, 3)), ((0, 0), (0, 0))):  # lambda mod 24
        t = GaloisType.from_lambda(SL2, G24, lam)
        assert len(t.lams) == 1 and len(_r_slots(t).lams) == G24.r == 2
        for typ in (t, _r_slots(t)):
            vals = cocycle_values(typ)
            slots = len(vals.tau_gamma_exps)
            assert all(m.is_identity() for m in vals.tau_sigma)
            assert [vals.tau_gamma_exps[j % slots] for j in range(G24.r)] == [exps] * 2


def _rational_frobenius_invariant(t):
    """frobenius_invariant as first written: the Fraction scan over W, with
    a lattice solve for every integral difference."""
    x = t.point()
    eta = x.eta(0)
    g = t.gamma
    shifted = tuple(g.p * c for c in g.psi.inv().apply(eta))
    for w in weyl_group(t.rd):
        diff = tuple(a - b for a, b in zip(w.apply(shifted), eta))
        if all(d.denominator == 1 for d in diff) and t.rd.in_cochar_lattice(diff):
            return True, (w, tuple(int(d) for d in diff))
    return False, None


def test_frobenius_invariant_sl2():
    flag, witness = frobenius_invariant(GaloisType.from_lambda(SL2, G24, (-3, 3)))
    assert flag and witness[0].matrix == ((0, 1), (1, 0))  # the (p+1) route
    flag, witness = frobenius_invariant(GaloisType.from_lambda(SL2, G24, (2, -2)))
    assert not flag and witness is None
    flag, witness = frobenius_invariant(GaloisType.from_lambda(SL2, G24, (0, 0)))
    assert flag and witness[0].is_identity() and witness[1] == (0, 0)


def test_frobenius_invariant_congruences():
    # invariance is exactly (p-1)n = 0 or (p+1)n = 0 mod e in rank one
    for n in range(-12, 13):
        flag, _ = frobenius_invariant(GaloisType.from_lambda(SL2, G24, (n, -n)))
        assert flag == ((6 * n) % 24 == 0 or (8 * n) % 24 == 0)


def test_refused_for_ramified():
    gl3 = build_root_datum("GL3")
    twist = WeylElement(((0, 0, -1), (0, -1, 0), (-1, 0, 0)))
    g = GammaData(p=13, e=6, r=1, psi=ident(3), inertial=twist)
    t = GaloisType.from_lambda(gl3, g, (1, 0, -1))
    with pytest.raises(RefusedError):
        frobenius_invariant(t)
    with pytest.raises(RefusedError):
        census(gl3, g)


def test_census_sl2():
    res = census(SL2, G24)
    assert res.total == 13 and res.invariant_count == 7
    invariant_classes = {c.coords[0] for c in res.classes if c.invariant}
    assert invariant_classes == {0, 3, 4, 6, 8, 9, 12}


def test_census_gl1():
    import math

    gl1 = build_root_datum("GL1")
    for (p, e) in ((7, 12), (5, 8), (3, 10)):
        res = census(gl1, split_gamma(gl1, p, e))
        assert res.total == e
        assert res.invariant_count == math.gcd(p - 1, e)


def test_census_trivial_group():
    rd = build_root_datum("trivial")
    g = split_gamma(rd, 7, 3)
    res = census(rd, g)
    assert res.total == 1 and res.invariant_count == 1


def test_census_bounded_by_tate():
    from alcovekit.rootdata import tate_h0

    for label, p, e in (("SL2", 7, 24), ("GL2", 5, 8), ("GL3", 3, 13)):
        rd = build_root_datum(label)
        g = split_gamma(rd, p, e)
        res = census(rd, g)
        order = 1
        for f in tate_h0(rd, g):
            order *= f
        assert res.total <= order


def test_census_caps():
    gl3 = build_root_datum("GL3")
    # 101^3 > 10^6 points of (Z/e)^rank
    with pytest.raises(CapExceeded):
        census(gl3, split_gamma(gl3, 7, 101))


def _least_image(actions, coords, e):
    """Least W-image mod e of basis coordinates; actions[w][j] = w(b_j)."""
    rank = len(coords)
    return min(tuple(sum(cols[j][i] * coords[j] for j in range(rank)) % e
                     for i in range(rank))
               for cols in actions)


def _basis(rd):
    """The stored basis as ambient vectors of Fractions: numerators over den."""
    return [tuple(Fraction(x, rd.den) for x in b) for b in rd.cochar_basis]


def _basis_actions(rd):
    return [[rd.basis_coords(w.apply(b)) for b in _basis(rd)] for w in weyl_group(rd)]


def _from_basis_coords(rd, coords):
    """The ambient vector sum_i coords[i] b_i over the stored basis, in Fractions."""
    return tuple(sum((c * b[k] for c, b in zip(coords, _basis(rd))), Fraction(0))
                 for k in range(rd.dim))


def _census_reference(rd, g):
    """census as first written: the least W-image of every point of
    (Z/e)^rank, then the exact Frobenius scan on every class."""
    actions = _basis_actions(rd)
    reps = {_least_image(actions, coords, g.e)
            for coords in itertools.product(range(g.e), repeat=rd.rank)}
    out = []
    for coords in sorted(reps):
        lam = _from_basis_coords(rd, coords)
        flag, witness = _rational_frobenius_invariant(GaloisType.from_lambda(rd, g, lam))
        out.append((coords, lam, flag, witness))
    return out


def _lookup_passes(rd, g, actions, coords):
    """p psi^{-1} lambda mod e lies in the W-orbit of lambda mod e."""
    lam = _from_basis_coords(rd, coords)
    image = rd.basis_coords(g.psi.inv().apply(lam))
    return _least_image(actions, tuple(g.p * c for c in image), g.e) == coords


CENSUS_CASES = [
    ("GL1", 7, 12), ("GL1", 5, 8), ("trivial", 7, 3),
    ("SL2", 7, 24), ("SL2", 13, 84), ("GL2", 5, 8), ("GL2", 3, 13),
    ("PGL2", 7, 24), ("PGL2", 5, 12), ("SL3", 5, 8), ("SL3", 3, 13),
    ("GL3", 5, 8), ("GL3", 3, 13), ("PGL3", 7, 12), ("PGL3", 5, 8),
    ("SL4", 5, 8), ("SL4", 3, 8), ("PGL4", 5, 8), ("PGL4", 3, 8),
    ("GL2xGL1", 5, 8), ("GL2xGL1", 7, 6), ("PGL2xSL2", 5, 8), ("PGL2xSL2", 7, 12),
    # p = 1 mod e: every class passes the orbit lookup, so the scan decides all
    ("GL3", 13, 12), ("PGL3", 13, 12), ("GL2xGL1", 13, 12), ("PGL2", 13, 12),
]


def _burnside_count(rd, e):
    """The number of W-orbits on (Z/e)^rank, by Burnside: the mean over w of
    |Fix(A_w mod e)|, which is the product of gcd(d_i, e) over the Smith
    invariants d_i of A_w - 1, a missing (zero) invariant counting as e."""
    fixed = []
    for cols in _basis_actions(rd):
        invariants = smith_normal_form([[x - (i == j) for j, x in enumerate(col)]
                                        for i, col in enumerate(cols)])
        fixed.append(math.prod(math.gcd(d, e) for d in invariants)
                     * e ** (rd.rank - len(invariants)))
    count, rest = divmod(sum(fixed), len(fixed))
    assert rest == 0
    return count


# census inputs of the pinned CLI digests that CENSUS_CASES lacks
_PINNED_CENSUS = [
    ("GL2", 5, 24), ("GL2", 7, 24), ("GL3", 7, 24), ("SL3", 7, 24), ("PGL3", 7, 24),
    ("PGL3", 3, 13), ("PGL4", 7, 24), ("SL4", 7, 24), ("PGL2xPGL3", 7, 12),
    ("SL2xPGL2", 5, 8), ("SL2", 5, 8), ("PGL2", 5, 8),
]


@pytest.mark.parametrize("label, p, e",
                         CENSUS_CASES + _PINNED_CENSUS + [("GL3", 7, 60), ("GL4", 7, 24)])
def test_census_total_matches_the_burnside_count(label, p, e):
    rd = build_root_datum(label)
    if rd.rank > 3:  # census's rank cap: the counts alone
        assert _burnside_count(rd, e) == math.comb(rd.dim + e - 1, rd.dim) == 17550
        return
    res = census(rd, split_gamma(rd, p, e))
    assert res.total == len(res.classes) == _burnside_count(rd, e)
    if re.fullmatch(r"GL\d+", label):
        # a class of GL_n is a multiset of n residues mod e
        assert res.total == math.comb(rd.dim + e - 1, rd.dim)


def _twisted_gammas():
    swap = WeylElement(((0, 1), (1, 0)))
    twist = WeylElement(((0, 0, -1), (0, -1, 0), (-1, 0, 0)))
    yield build_root_datum("GL2"), GammaData(p=5, e=8, r=2, psi=swap, inertial=ident(2))
    yield build_root_datum("GL3"), GammaData(p=5, e=8, r=2, psi=twist, inertial=ident(3))
    yield build_root_datum("PGL3"), GammaData(p=7, e=12, r=2, psi=twist, inertial=ident(3))


def _check_census_against_reference(rd, g):
    res = census(rd, g)
    ref = _census_reference(rd, g)
    assert [(c.coords, c.lam, c.invariant, c.witness) for c in res.classes] == ref
    assert all(type(x) is Fraction for c in res.classes for x in c.lam)
    assert res.total == len(ref)
    assert res.invariant_count == sum(flag for _, _, flag, _ in ref)
    return res


@pytest.mark.parametrize("label, p, e", CENSUS_CASES)
def test_census_matches_the_reference_class_by_class(label, p, e):
    rd = build_root_datum(label)
    _check_census_against_reference(rd, split_gamma(rd, p, e))


def test_census_decides_without_the_general_scan(monkeypatch):
    # census works on integer numerators: no GaloisType, Fraction scan or
    # lattice solve per class
    import alcovekit.galois as galois
    from alcovekit.rootdata import RootDatum

    cases = [(build_root_datum(label), p, e)
             for label, p, e in (("PGL3", 13, 12), ("GL3", 7, 12), ("PGL2xSL2", 5, 8))]
    refs = [_census_reference(rd, split_gamma(rd, p, e)) for rd, p, e in cases]

    def boom(*args, **kwargs):
        raise AssertionError("census called the general Frobenius scan")

    monkeypatch.setattr(galois, "frobenius_invariant", boom)
    monkeypatch.setattr(GaloisType, "from_lambda", boom)
    monkeypatch.setattr(RootDatum, "in_cochar_lattice", boom)
    for (rd, p, e), ref in zip(cases, refs):
        res = census(rd, split_gamma(rd, p, e))
        assert [(c.coords, c.lam, c.invariant, c.witness) for c in res.classes] == ref


def _swept_census(rd, g):
    """census as the marking sweep it replaced: one integer pass over
    (Z/e)^rank in lexicographic order, one mark per point in a bytearray
    indexed by the point's base-e number.  The first unmarked point is the
    least of its W-orbit, hence a new class, and its |W| images are marked.
    F c mod e outside the images just marked is not invariant; the rest take
    _frobenius_witness.  (coords, num, invariant, witness) per class."""
    e, rank = g.e, rd.rank
    place = [e ** (rank - 1 - i) for i in range(rank)]
    actions = [_action_in_basis(rd, w) for w in weyl_group(rd)]
    frob = [[g.p * a for a in row] for row in _action_in_basis(rd, g.psi.inv())]
    columns = list(zip(*rd.cochar_basis))

    def index(rows, coords):
        i = 0
        for row in rows:
            i = i * e + sum(a * c for a, c in zip(row, coords)) % e
        return i

    marked = bytearray(e**rank)
    out = []
    i = marked.find(0)
    while i >= 0:
        coords = tuple(i // pl % e for pl in place)
        orbit = {index(rows, coords) for rows in actions}
        for j in orbit:
            marked[j] = 1
        num = tuple(sum(a * c for a, c in zip(coords, col)) for col in columns)
        wit = galois._frobenius_witness(rd, g, num) if index(frob, coords) in orbit else None
        out.append((coords, num, wit is not None, wit))
        i = marked.find(0, i + 1)
    return out


def _sweep_cases():
    for label, p, e in CENSUS_CASES + _PINNED_CENSUS:
        rd = build_root_datum(label)
        yield pytest.param(rd, split_gamma(rd, p, e), id=f"{label}-{p}-{e}")
    for rd, g in _twisted_gammas():
        yield pytest.param(rd, g, id=f"{rd.label}-{g.p}-{g.e}-twisted")
    # psi swaps two blocks, so p psi^{-1} mixes their coordinates
    for label, p, e in (("GL1xGL1", 5, 8), ("SL2xSL2", 7, 12), ("PGL2xPGL2", 7, 12)):
        rd = build_root_datum(label)
        half = rd.dim // 2
        swap = WeylElement(tuple(tuple(int(j == (i + half) % rd.dim) for j in range(rd.dim))
                                 for i in range(rd.dim)))
        g = GammaData(p=p, e=e, r=2, psi=swap, inertial=ident(rd.dim))
        yield pytest.param(rd, g, id=f"{label}-{p}-{e}-swapped")


@pytest.mark.parametrize("rd, g", list(_sweep_cases()))
def test_census_matches_the_marking_sweep_class_by_class(rd, g):
    res = census(rd, g)
    want = _swept_census(rd, g)
    assert [(c.coords, c.num, c.invariant, c.witness) for c in res.classes] == want
    assert all(c.den == rd.den for c in res.classes)
    assert (res.total, res.invariant_count) == (len(want), sum(f for _, _, f, _ in want))


@pytest.mark.parametrize("label", ["GL1", "GL2", "GL3", "SL2", "SL3", "SL4",
                                   "PGL2", "PGL3", "PGL4"])
@pytest.mark.parametrize("e", [7, 12])
def test_block_canonical_forms_are_the_least_images(label, e):
    # the block's class list is the sorted set of the least W-images of
    # every point of (Z/e)^rank
    rd = build_root_datum(label)
    actions = _basis_actions(rd)
    least = {_least_image(actions, coords, e)
             for coords in itertools.product(range(e), repeat=rd.rank)}
    assert galois._BLOCKS[rd.block_kinds[0]](rd.dim, e) == sorted(least)


@pytest.mark.parametrize("rd, g", list(_twisted_gammas()))
def test_census_with_a_twisted_frobenius_matches_the_reference(rd, g):
    res = _check_census_against_reference(rd, g)
    assert 0 < res.invariant_count < res.total


def _invariance_cases():
    for label, p, e in CENSUS_CASES:
        rd = build_root_datum(label)
        yield pytest.param(rd, split_gamma(rd, p, e), id=f"{label}-{p}-{e}")
    for rd, g in _twisted_gammas():
        yield pytest.param(rd, g, id=f"{rd.label}-{g.p}-{g.e}-twisted")


@pytest.mark.parametrize("rd, g", list(_invariance_cases()))
def test_frobenius_invariant_matches_the_rational_scan(rd, g):
    # seeded lattice vectors (Fractions for PGL), then census representatives
    rng = random.Random(f"{rd.label}-{g.p}-{g.e}-{g.r}")
    lams = [_from_basis_coords(rd, tuple(rng.randrange(-2 * g.e, 2 * g.e)
                                         for _ in range(rd.rank)))
            for _ in range(25)]
    lams += [cls.lam for cls in census(rd, g).classes[:25]]
    seen = set()
    for lam in lams:
        t = GaloisType.from_lambda(rd, g, lam)
        want = _rational_frobenius_invariant(t)
        assert frobenius_invariant(t) == want
        seen.add(want[0])
    if rd.rank:
        assert seen == {True, False} or g.p % g.e == 1


@pytest.mark.parametrize("p, mu", [(19, (16, 11, 7, 4, 2, 1)), (7, (4, 3, 2, 1, 0, 0))])
def test_frobenius_invariant_matches_the_rational_scan_with_a_weyl_part(p, mu):
    # a type_from_s_mu type (at p = 19, that of the Weil-restriction
    # criterion) has w_0 != 1; then the same w_0 over lambda moved by e X_*,
    # or over random lambda
    rd, g, _ = _gl3x2(p)
    t = type_from_s_mu(rd, _WEIL_S, mu, g).t
    w = t.ws[0]
    assert not w.is_identity()
    lam = w.inv().apply(t.lams[0])
    rng = random.Random(p)
    types = [t]
    for k in range(20):
        if k % 2:
            lam2 = tuple(c + g.e * rng.randrange(-3, 4) for c in lam)
        else:
            lam2 = tuple(rng.randrange(-3 * g.e, 3 * g.e) for _ in lam)
        lams, ws = [w.apply(lam2)], [w]
        for _ in range(g.r - 1):
            lams.append(g.psi.apply(lams[-1]))
            ws.append(g.psi * ws[-1] * g.psi.inv())
        types.append(GaloisType(rd, g, tuple(lams), tuple(ws)))
    verdicts = [_rational_frobenius_invariant(t2) for t2 in types]
    assert [frobenius_invariant(t2) for t2 in types] == verdicts
    assert verdicts[0][0] and {flag for flag, _ in verdicts} == {True, False}


def _scanned_witness(rd, g, num):
    """_frobenius_witness as the scan over W it replaced: the first w in
    weyl_group's order (length, then matrix order) that solves the congruence."""
    image = [g.p * c for c in g.psi.inv().apply(num)]
    mod = g.e * rd.den
    for w in weyl_group(rd):
        diff = [a - b for a, b in zip(num, w.apply(image))]
        if not any(d % mod for d in diff):
            return w, tuple(d // mod for d in diff)
    return None


@pytest.mark.parametrize("label", [
    "trivial", "GL1", "GL2", "GL3", "GL4", "GL5", "SL2", "SL3", "PGL2", "PGL3", "PGL4",
    "GL2xGL1", "SL2xPGL3", "GL3xGL3"])
def test_witness_is_the_first_solution_in_weyl_order(label):
    # the closed form pairs indices class by class; the scan walks all of W
    rd = build_root_datum(label)
    rng = random.Random(label)
    # p = 1 mod e, p = -1 mod e (F pairs x with -x) and neither
    gammas = [split_gamma(rd, p, e)
              for p, e in ((7, 3), (13, 12), (3, 2), (7, 8), (5, 6), (5, 8), (7, 24))]
    if label == "GL3":
        gammas.append(GammaData(p=5, e=8, r=2, psi=WeylElement(((0, 0, -1), (0, -1, 0),
                                                                (-1, 0, 0))), inertial=ident(3)))
    seen = set()
    for g in gammas:
        for _ in range(60):
            # few distinct residues, so that solutions with ties are common
            num = [rd.den * rng.randrange(-2, 3) * rng.choice((1, g.e)) + rng.choice((0, rd.den))
                   for _ in range(rd.dim)]
            want = _scanned_witness(rd, g, num)
            assert galois._frobenius_witness(rd, g, num) == want, (g, num)
            seen.add("none" if want is None else want[0].is_identity())
    # no solution, the identity, and (with two indices in a block) a longer w
    assert seen == ({True} if rd.dim == 0 else
                    {"none", True} if max(rd.block_sizes) < 2 else {"none", True, False})


def test_gamma_fixedness_at_large_r_matches_the_point_check():
    # Gamma-fixedness is decided on the integer vectors w_j^{-1}(lambda_j);
    # on a type written out to r slots, the point-based check builds all r
    # Fraction slots of the point
    gl2 = build_root_datum("GL2")
    swap = WeylElement(((0, 1), (1, 0)))
    for psi in (ident(2), swap):
        g = GammaData(p=5, e=4, r=20000, psi=psi, inertial=ident(2))
        period = GaloisType.from_lambda(gl2, g, (1, 0))
        assert period.point().is_gamma_fixed()
        assert frobenius_invariant(period) == _rational_frobenius_invariant(period)
        fixed = _r_slots(period)
        moved = GaloisType(gl2, g, fixed.lams[:-1] + ((2, -1),), fixed.ws)
        rewound = GaloisType(gl2, g, fixed.lams, fixed.ws[:-1] + (swap,))
        verdicts = [t.point().is_gamma_fixed() for t in (fixed, moved, rewound)]
        assert verdicts == [True, False, False]
        assert frobenius_invariant(fixed) == _rational_frobenius_invariant(fixed)
        for t in (moved, rewound):
            with pytest.raises(ValueError, match="^type's point must be Gamma-fixed$"):
                frobenius_invariant(t)


def test_frobenius_invariant_refuses_lambda_outside_the_lattice():
    t = GaloisType.from_lambda(SL2, G24, (1, 0))
    with pytest.raises(ValueError,
                       match=r"^lambda=\(1, 0\) is not in the cocharacter lattice of SL2$"):
        frobenius_invariant(t)


@pytest.mark.parametrize("label, p, e, misses", [
    ("PGL2", 7, 24, 3), ("PGL3", 7, 12, 8), ("PGL4", 5, 8, 10), ("PGL2xSL2", 5, 8, 3),
])
def test_census_class_lookup_alone_would_overcount_for_pgl(label, p, e, misses):
    # p psi^{-1} lambda can lie in lambda's orbit modulo e X_* without the
    # difference lying in e Q^vee, so the exact scan must decide
    rd = build_root_datum(label)
    g = split_gamma(rd, p, e)
    actions = _basis_actions(rd)
    classes = census(rd, g).classes
    assert all(_lookup_passes(rd, g, actions, c.coords) for c in classes if c.invariant)
    assert sum(not c.invariant and _lookup_passes(rd, g, actions, c.coords)
               for c in classes) == misses


def _in_cochar_count(rd, g, classes):
    """The classes with some w in W for which m = (lambda - w(p psi^{-1} lambda)) / e
    lies in X_*, by a scan over W with a lattice test: the condition without
    the witness's integrality."""
    psi_inv = g.psi.inv()
    count = 0
    for c in classes:
        image = tuple(g.p * x for x in psi_inv.apply(c.lam))
        count += any(rd.in_cochar_lattice([(a - b) / g.e for a, b in zip(c.lam, w.apply(image))])
                     for w in weyl_group(rd))
    return count


@pytest.mark.parametrize("label, p, e, invariant, x_star", [
    ("GL3", 7, 24, 110, 110), ("SL3", 7, 24, 19, 19), ("PGL2", 7, 24, 4, 7),
    ("PGL3", 7, 24, 7, 19), ("PGL2xPGL3", 7, 12, 20, 65), ("SL2xPGL2", 5, 8, 6, 9),
])
def test_invariance_requires_an_integral_translation(label, p, e, invariant, x_star):
    # census asks m to be integral: in X_* on GL and SL blocks, in Q^vee,
    # smaller than X_*, on PGL blocks.  With any m in X_* the count is that of
    # the orbit lookup in basis coordinates, and larger on the PGL inputs
    rd = build_root_datum(label)
    g = split_gamma(rd, p, e)
    classes = census(rd, g).classes
    assert sum(c.invariant for c in classes) == invariant
    assert _in_cochar_count(rd, g, classes) == x_star
    actions = _basis_actions(rd)
    assert sum(_lookup_passes(rd, g, actions, c.coords) for c in classes) == x_star


def test_census_takes_no_basis_coordinate_action(monkeypatch):
    # the witness is the one invariance decision: no p psi^{-1} matrix in
    # basis coordinates
    import alcovekit.rootdata as rootdata

    def boom(*args, **kwargs):
        raise AssertionError("census called _action_in_basis")

    cases = list(_twisted_gammas())
    for label, p, e in (("PGL3", 13, 12), ("GL2xGL1", 5, 8), ("SL2", 7, 24)):
        rd = build_root_datum(label)
        cases.append((rd, split_gamma(rd, p, e)))
    want = [_swept_census(rd, g) for rd, g in cases]
    monkeypatch.setattr(rootdata, "_action_in_basis", boom)
    monkeypatch.setattr(galois, "_action_in_basis", boom, raising=False)
    for (rd, g), ref in zip(cases, want):
        res = census(rd, g)
        assert [(c.coords, c.num, c.invariant, c.witness) for c in res.classes] == ref


def test_invariance_constant_on_classes():
    # replacing lambda by w(lambda) + e m does not change the verdict
    rng = random.Random(5)
    res = census(SL2, G24)
    W = weyl_group(SL2)
    for cls in res.classes:
        for _ in range(3):
            w = rng.choice(W)
            m = rng.randrange(-2, 3)
            lam2 = tuple(c + 24 * m * b for c, b in zip(w.apply(cls.lam), (1, -1)))
            flag, _ = _rational_frobenius_invariant(GaloisType.from_lambda(SL2, G24, lam2))
            assert flag == cls.invariant


def test_strictify_sl2_worked_case():
    beta = MonomialMatrix.from_signed_matrix(((0, 1), (-1, 0)), 48)
    chain = strictify([beta, beta], 7)
    assert chain.s_extension == 2 and chain.slots == 4
    expect = [((1, 0), (0, 1)),      # identity
              ((0, -1), (1, 0)),
              ((-1, 0), (0, -1)),
              ((0, 1), (-1, 0))]

    def signed(m):
        rows = []
        for i in range(m.n):
            row = [0] * m.n
            row[m.cols[i]] = 1 if m.exps[i] == 0 else -1
            rows.append(tuple(row))
        return tuple(rows)

    assert [signed(c) for c in chain.c] == expect


def test_strictify_identity_and_order3():
    mod = 48
    one = MonomialMatrix.identity(2, mod)
    chain = strictify([one, one], 7)
    assert chain.s_extension == 1 and all(c.is_identity() for c in chain.c)
    p12 = MonomialMatrix.from_signed_matrix(((0, 1, 0), (1, 0, 0), (0, 0, 1)), mod)
    p23 = MonomialMatrix.from_signed_matrix(((1, 0, 0), (0, 0, 1), (0, 1, 0)), mod)
    chain3 = strictify([p12, p23], 7)
    assert chain3.s_extension == 3 and chain3.slots == 6
    # wrap: c_0 = b_0^{-1} c_last
    last = chain3.c[-1]
    assert (p12.inv() * last).is_identity()


def _twist_by_chain(tau_sigma, tau_gamma_global, chain):
    """tau'(theta) = c tau(theta) (^theta c)^{-1} over the extended slots.

    tau_gamma_global[j] are global diagonal exponents; constants only.
    Returns (tau'(sigma) slots, tau'(gamma) slots).
    """
    r = len(tau_sigma)
    c = chain.c
    out_sigma = []
    out_gamma = []
    for j in range(chain.slots):
        out_sigma.append(c[j] * tau_sigma[j % r] * c[(j - 1) % chain.slots].inv())
        # conjugating a diagonal: entry i moves to row cols[i]
        d = tau_gamma_global[j % r]
        out_gamma.append(tuple(d[c[j].cols[i]] % c[j].mod for i in range(c[j].n)))
    return tuple(out_sigma), tuple(out_gamma)


def _is_strictly_invariant(tau_sigma, tau_gamma_global):
    """phi tau = tau for constant slot families: slot shift leaves them fixed."""
    slots = len(tau_sigma)
    return all(tau_sigma[j].entries() == tau_sigma[j - 1].entries()
               and tuple(tau_gamma_global[j]) == tuple(tau_gamma_global[j - 1])
               for j in range(slots))


def test_strictified_cocycle_is_strict():
    # the worked SL2 flow: after degree-2 extension the twisted cocycle is
    # strictly Frobenius invariant on both generators
    mod = 7**4 - 1
    beta = MonomialMatrix.from_signed_matrix(((0, 1), (-1, 0)), mod)
    chain = strictify([beta] * 4, 7)
    assert chain.s_extension == 1 and chain.slots == 4
    tau_sigma = tuple(MonomialMatrix.identity(2, mod) for _ in range(4))
    # global exponents of tau'(gamma): iota_j(omega)^{(-3,3)}
    unit = mod // 24
    tau_gamma = []
    for j in range(4):
        t = (unit * pow(7, (4 - j) % 4, 24)) % mod
        tau_gamma.append(((-3 * t) % mod, (3 * t) % mod))
    assert not _is_strictly_invariant(tau_sigma, tau_gamma)
    new_sigma, new_gamma = _twist_by_chain(tau_sigma, tau_gamma, chain)
    assert _is_strictly_invariant(new_sigma, new_gamma)


def _strictify_fields(monkeypatch, b, p):
    """Run strictify and return the (p, k) of every field its check builds."""
    import alcovekit.galois as galois

    built = []
    real = galois.GF

    def spy(p, k):
        built.append((p, k))
        return real(p, k)

    monkeypatch.setattr(galois, "GF", spy)
    strictify(b, p)
    return built


def test_strictify_checks_over_the_least_field(monkeypatch):
    beta = MonomialMatrix.from_signed_matrix(((0, 1), (-1, 0)), 3**12 - 1)
    assert _strictify_fields(monkeypatch, [beta] * 4, 3) == [(3, 12)]
    beta48 = MonomialMatrix.from_signed_matrix(((0, 1), (-1, 0)), 48)
    assert _strictify_fields(monkeypatch, [beta48] * 2, 7) == [(7, 2)]
    # 48 divides 7^2 - 1 but not 7 - 1; mod 6 divides 7 - 1
    assert _strictify_fields(monkeypatch, [MonomialMatrix.identity(2, 6)], 7) == [(7, 1)]


def test_strictify_skips_the_check_without_a_small_field(monkeypatch):
    # gcd(p, mod) > 1: no power of p is 1 mod `mod`
    assert _strictify_fields(monkeypatch, [MonomialMatrix.identity(2, 6)], 3) == []
    # the order of 2 mod the prime 10^6 + 3 is far beyond any field of <= 10^6 elements
    assert _strictify_fields(monkeypatch, [MonomialMatrix.identity(2, 10**6 + 3)], 2) == []


def test_shapiro():
    rd = build_root_datum("GL2")
    g = split_gamma(rd, 5, 8)  # r = 2
    mod = g.q - 1
    ones = [MonomialMatrix.identity(2, mod)] * g.r
    assert all(m.is_identity() for m in shapiro(g, ones))
    A = MonomialMatrix.from_signed_matrix(((0, 1), (1, 0)), mod)
    B = MonomialMatrix.from_signed_matrix(((0, -1), (1, 0)), mod)
    out = shapiro(g, [A, B])
    assert out[0].entries() == A.entries()
    # psi is trivial for GL2 and the entries are signs, so g_1 = B
    assert out[1].entries() == B.entries()
    back = shapiro_inverse(g, out)
    assert [m.entries() for m in back] == [A.entries(), B.entries()]


def test_shapiro_roundtrip_random():
    rng = random.Random(17)
    rd = build_root_datum("GL3")
    g = split_gamma(rd, 7, 4)  # r = 2
    assert g.r == 2
    mod = g.q - 1
    for _ in range(50):
        vals = []
        for _ in range(g.r):
            perm = list(range(3))
            rng.shuffle(perm)
            exps = [rng.randrange(mod) for _ in range(3)]
            vals.append(MonomialMatrix(3, mod, tuple(perm), tuple(exps), (0, 0, 0)))
        out = shapiro(g, vals)
        back = shapiro_inverse(g, out)
        assert [m.entries() for m in back] == [m.entries() for m in vals]


def _gl3x2(p):
    rd = build_root_datum("GL3xGL3")
    psi = WeylElement(tuple(tuple(1 if j == (i + 3) % 6 else 0 for j in range(6))
                            for i in range(6)))
    g = GammaData(p=p, e=p**4 - 1, r=4, psi=psi, inertial=ident(6))
    return rd, g, psi


# s of the Weil-restriction criterion: a 3-cycle on the first block, a
# transposition on the second
_WEIL_S = WeylElement((
    (0, 0, 1, 0, 0, 0), (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1)))


def test_type_from_s_mu_trivial_s():
    # s = 1, mu = 0: lambda_j = (1 + p + ... + p^{r-1}) eta, w_j = 1
    rd = build_root_datum("GL2xGL2")
    psi = WeylElement(tuple(tuple(1 if j == (i + 2) % 4 else 0 for j in range(4))
                            for i in range(4)))
    p = 3
    g = GammaData(p=p, e=p**2 - 1, r=2, psi=psi, inertial=ident(4))
    s = ident(4)
    tc = type_from_s_mu(rd, s, (0, 0, 0, 0), g)
    scale = 1 + p
    assert tc.t.lams[0] == (scale, 0, scale, 0)
    assert all(w.is_identity() for w in tc.t.ws)


def test_type_from_s_mu_range_check():
    rd, g, _ = _gl3x2(19)
    s = ident(6)
    with pytest.raises(ValueError):
        type_from_s_mu(rd, s, (19, 0, 0, 0, 0, 0), g)  # mu+eta exceeds p-1


def test_type_from_s_mu_weil_restriction():
    rd, g, _ = _gl3x2(19)
    tc = type_from_s_mu(rd, _WEIL_S, (16, 11, 7, 4, 2, 1), g)
    # first rows of the digit table (coefficients of 1, p, p^2, p^3)
    assert tc.lam_digits[0][0] == (18, 3, 7, 1)
    assert tc.lam_digits[0][3] == (6, 12, 6, 12)
    # x = o - (1/e) w^{-1} lambda, printed leading component
    e = 19**4 - 1
    w0inv_lam0 = tuple(-c * e for c in tc.x.etas[0])
    assert w0inv_lam0[0] == 12 + 6 * 19 + 12 * 19**2 + 6 * 19**3
    # the slot-2 values repeat slot 0 (psi has order 2)
    assert tc.x.etas[2] == tc.x.etas[0]
    assert tc.x.etas[3] == tc.x.etas[1]
    # strict Frobenius invariance of the represented cocycle: phi tau = tau
    vals = cocycle_values(tc.t)
    for j in range(4):
        prev = vals.tau_gamma_exps[(j - 1) % 4]
        cur = vals.tau_gamma_exps[j]
        assert tuple((19 * x) % g.e for x in prev) == tuple(x % g.e for x in cur)


def test_cocycle_relations_on_census():
    for label, p, e in (("SL2", 7, 24), ("GL2", 5, 8)):
        rd = build_root_datum(label)
        g = split_gamma(rd, p, e)
        for cls in census(rd, g).classes:
            t = GaloisType.from_lambda(rd, g, cls.lam)
            assert all(check_cocycle_relations(t).values())
            # cls.lam holds integral Fractions; the cocycle is built from ints
            vals = cocycle_values(t)
            assert all(type(x) is int for m in vals.tau_sigma for x in m.upows)
            assert all(type(x) is int for lam in vals.tau_gamma_exps for x in lam)


def _psi_powers(g):
    powers = [tuple(range(len(g.psi.cols)))]
    for _ in range(g.r - 1):
        powers.append(tuple(g.psi.perm()[i] for i in powers[-1]))
    return powers


def _sigma_wrap_per_slot(g, tau_sigma):
    """sigma_wrap as first written: the product of r factors for every slot,
    slot j read from entry j mod L."""
    powers = _psi_powers(g)
    for j in range(g.r):
        acc = MonomialMatrix.identity(tau_sigma[0].n, tau_sigma[0].mod)
        for i in range(g.r):
            acc = acc * tau_sigma[(j - i) % len(tau_sigma)].conjugate_by_permutation(powers[i])
        if not acc.is_identity():
            return False
    return True


def test_sigma_wrap_from_one_period_matches_the_per_slot_products(monkeypatch):
    import alcovekit.galois as galois

    rng = random.Random(11)
    swap = WeylElement(((0, 1), (1, 0)))
    cycle3 = WeylElement(((0, 0, 1), (1, 0, 0), (0, 1, 0)))
    cycle4 = WeylElement(((0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))
    # (label, Gamma, L slots of tau(sigma)); the period T = lcm(L, ord psi)
    cases = [
        ("GL2", GammaData(p=5, e=4, r=1, psi=ident(2), inertial=ident(2)), 1),
        ("GL2", GammaData(p=5, e=8, r=2, psi=swap, inertial=ident(2)), 2),
        ("GL3", GammaData(p=5, e=8, r=6, psi=cycle3, inertial=ident(3)), 6),
        ("GL4", GammaData(p=3, e=8, r=8, psi=cycle4, inertial=ident(4)), 8),
        # L < r: T = 2 and r/T = 4; T = 1 and r/T = 4; T = 6 = r; T = 4, r/T = 2
        ("GL2", GammaData(p=5, e=8, r=8, psi=swap, inertial=ident(2)), 2),
        ("GL2", GammaData(p=5, e=4, r=4, psi=ident(2), inertial=ident(2)), 1),
        ("GL3", GammaData(p=5, e=8, r=6, psi=cycle3, inertial=ident(3)), 2),
        ("GL4", GammaData(p=3, e=8, r=8, psi=cycle4, inertial=ident(4)), 2),
    ]
    for label, g, slots in cases:
        seen = set()
        rd = build_root_datum(label)
        n, mod = rd.dim, g.q - 1
        t = GaloisType(rd, g, ((0,) * n,) * slots, (ident(n),) * slots)
        vals = cocycle_values(t)
        psi = _psi_powers(g)[1 % g.r]
        assert mod % (2 * g.r // slots) == 0

        def monomial(exps, cols=tuple(range(n))):
            return MonomialMatrix(n, mod, tuple(cols), tuple(exps), (0,) * n)

        for trial in range(40):
            c = []
            for _ in range(slots):
                cols = list(range(n))
                rng.shuffle(cols)
                c.append(monomial([rng.randrange(mod) if rng.random() < 0.5 else 0
                                   for _ in range(n)], cols))
            if trial % 2 == 0:
                tau = c
            else:
                # tau_j = c_j psi(c_{j-1})^{-1}, times a scalar y at j = 0: one
                # period of factors telescopes to y^(T/L), and P_0 to y^(r/L),
                # which is 1 for trial = 1 mod 4 and may not be for 3 mod 4
                step = mod // ((1 if trial % 4 == 1 else 2) * g.r // slots)
                y = monomial([step * rng.randrange(2 * g.r) % mod] * n)
                tau = [c[j] * c[j - 1].conjugate_by_permutation(psi).inv()
                       for j in range(slots)]
                tau[0] = y * tau[0]
            want = _sigma_wrap_per_slot(g, tau)
            seen.add(want)
            monkeypatch.setattr(galois, "cocycle_values", lambda _, tau=tau: CocycleValues(
                vals.tau_gamma_exps, tuple(tau)))
            assert check_cocycle_relations(t)["sigma_wrap"] == want, (label, g.r, slots)
        assert seen == {True, False}, (label, g.r, slots)


def test_sigma_wrap_refuses_slots_that_do_not_divide_r():
    rd = build_root_datum("GL2")
    g = GammaData(p=5, e=8, r=2, psi=ident(2), inertial=ident(2))
    t = GaloisType(rd, g, ((0, 0),) * 3, (ident(2),) * 3)
    with pytest.raises(ValueError, match="3 slots for r=2"):
        check_cocycle_relations(t)


def test_cocycle_relations_at_a_large_r():
    # r = ord_e(7) = 1000002 at e = 1000003: sigma_wrap takes one period, and
    # p^r (about 845,000 digits) is formed once
    rd = build_root_datum("GL2")
    t = GaloisType.from_lambda(rd, split_gamma(rd, 7, 1000003), (0, 0))
    start = time.perf_counter()
    assert check_cocycle_relations(t) == {
        "gamma_order": True, "sigma_braid": True, "sigma_wrap": True}
    assert time.perf_counter() - start < 2


def test_gamma_q_is_computed_once():
    g = split_gamma(build_root_datum("GL2"), 7, 1000003)
    before = repr(g), hash(g)
    assert g.q is g.q
    assert (repr(g), hash(g)) == before
    assert g == split_gamma(build_root_datum("GL2"), 7, 1000003)


@pytest.mark.parametrize("bad", [24, -1, Fraction(1, 2)])
def test_gamma_order_fails_on_a_bad_exponent(monkeypatch, bad):
    import alcovekit.galois as galois

    t = GaloisType.from_lambda(SL2, G24, (-3, 3))
    vals = cocycle_values(t)
    assert check_cocycle_relations(t)["gamma_order"]
    broken = CocycleValues(((bad, 3),) + vals.tau_gamma_exps[1:], vals.tau_sigma)
    monkeypatch.setattr(galois, "cocycle_values", lambda _: broken)
    assert not check_cocycle_relations(t)["gamma_order"]


def test_cocycle_values_refuse_a_fractional_lambda():
    # PGL2 census representatives include (1/2, -1/2): no diagonal of e-th
    # roots of unity has these exponents
    rd = build_root_datum("PGL2")
    g = split_gamma(rd, 7, 24)
    t = GaloisType.from_lambda(rd, g, (Fraction(1, 2), Fraction(-1, 2)))
    with pytest.raises(ValueError, match="not integral"):
        cocycle_values(t)


def test_signed_psi_is_refused_as_a_permutation():
    gl3 = build_root_datum("GL3")
    twist = WeylElement(((0, 0, -1), (0, -1, 0), (-1, 0, 0)))
    g = GammaData(p=5, e=24, r=2, psi=twist, inertial=ident(3))
    with pytest.raises(RefusedError):
        shapiro(g, [MonomialMatrix.identity(3, 24)] * 2)
    with pytest.raises(ValueError):
        type_from_s_mu(gl3, ident(3), (0, 0, 0), g)


def test_monomial_checks_survive_optimized_mode():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import alcovekit

    code = (
        "from alcovekit.ff import GF\n"
        "from alcovekit.monomial import MonomialMatrix\n"
        "if __debug__:\n"
        "    raise SystemExit(3)\n"
        "for bad in (lambda: MonomialMatrix(2, 4, (0, 0), (0, 0), (0, 0)),\n"
        "            lambda: GF(7, 2).monomial_to_matrix(MonomialMatrix.diag_upow((1, 0), 48)),\n"
        "            lambda: GF(7, 2).monomial_to_matrix(MonomialMatrix.identity(2, 24))):\n"
        "    try:\n"
        "        bad()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(1)\n"
    )
    src = str(Path(alcovekit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_stats_count_census_classes():
    galois.stats()
    gl3 = build_root_datum("GL3")
    res = census(gl3, split_gamma(gl3, 7, 24))
    assert (res.total, res.invariant_count) == (2600, 110)
    census(SL2, G24)
    assert galois.stats() == {"census_calls": 2, "classes_listed": 2600 + 13,
                              "invariant_classes": 110 + 7}
    assert set(galois.stats().values()) == {0}
