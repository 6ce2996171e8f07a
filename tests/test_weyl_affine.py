from fractions import Fraction
import itertools
import math
import random

import pytest

from alcovekit import weyl_affine
from alcovekit.rootdata import CapExceeded, WeylElement, build_root_datum, weyl_group
from alcovekit.weyl_affine import (
    AffineWeylElement,
    _descent,
    _interval,
    _is_descent,
    admissible_set,
    affine_identity,
    base_alcove,
    bruhat_leq,
    elements_of_length_at_most,
    h_mu,
    length,
    reduced_word,
    translation_element,
)

GL3 = build_root_datum("GL3")
BASE3 = base_alcove(GL3)
GL2 = build_root_datum("GL2")
BASE2 = base_alcove(GL2)


def test_base_alcove_data():
    assert len(BASE3.simple_affine_reflections) == 3
    for s in BASE3.simple_affine_reflections:
        assert (s * s).key() == affine_identity(GL3).key()
        assert length(s, BASE3) == 1
    # the omega generator is the alcove rotation v^(1,0,0) s_(123)
    om = BASE3.omega_generators[0]
    assert om.translation == (1, 0, 0)
    assert length(om, BASE3) == 0


@pytest.mark.parametrize("label", ["GL1", "GL2", "GL3", "GL4", "GL5", "SL3", "PGL3",
                                   "GL2xGL3", "GL1xGL2xSL3", "SL2xPGL3"])
def test_omega_generators_are_the_omega_parts_of_the_block_translations(label):
    # each block's closed-form rotation is what the gallery walk of
    # v^{e_first} leaves once its reduced word is taken off
    rd = build_root_datum(label)
    base = base_alcove(rd)
    firsts = list(itertools.accumulate(rd.block_sizes, initial=0))[:-1]
    assert len(base.omega_generators) == len(firsts)
    for first, om in zip(firsts, base.omega_generators):
        nu = [0] * rd.dim
        nu[first] = 1
        _, want = reduced_word(translation_element(rd, nu), base)
        assert om.key() == want.key()
        assert length(om, base) == 0


def test_lengths():
    assert length(affine_identity(GL3), BASE3) == 0
    assert length(translation_element(GL3, (1, 0, 0)), BASE3) == 2
    assert length(translation_element(GL3, (1, 1, 0)), BASE3) == 2
    assert length(translation_element(GL3, (1, 1, 1)), BASE3) == 0  # central


def test_reduced_words_gl3():
    w, om = reduced_word(translation_element(GL3, (1, 0, 0)), BASE3)
    assert w == [3, 2] and om.translation == (1, 0, 0)
    w, _ = reduced_word(translation_element(GL3, (0, 0, 1)), BASE3)
    assert w == [2, 1]
    w, _ = reduced_word(translation_element(GL3, (0, 1, 0)), BASE3)
    assert w == [1, 3]
    w, om = reduced_word(BASE3.omega_generators[0], BASE3)
    assert w == [] and om.key() == BASE3.omega_generators[0].key()


def test_recomposition_roundtrip():
    rng = random.Random(99)
    refl = BASE3.simple_affine_reflections
    om = BASE3.omega_generators[0]
    for _ in range(1000):
        z = affine_identity(GL3)
        for _ in range(rng.randrange(0, 7)):
            z = rng.choice(refl) * z
        for _ in range(rng.randrange(0, 3)):
            z = z * om
        word, omega = reduced_word(z, BASE3)
        out = omega
        for i in reversed(word):
            out = BASE3.simple_affine_reflections[i - 1] * out
        assert out.key() == z.key()
        assert len(word) == length(z, BASE3)


def test_length_properties():
    rng = random.Random(5)
    refl = BASE3.simple_affine_reflections
    om = BASE3.omega_generators[0]
    for _ in range(60):
        z1 = affine_identity(GL3)
        z2 = affine_identity(GL3)
        for _ in range(rng.randrange(0, 5)):
            z1 = rng.choice(refl) * z1
        for _ in range(rng.randrange(0, 5)):
            z2 = rng.choice(refl) * z2
        assert length(z1 * z2, BASE3) <= length(z1, BASE3) + length(z2, BASE3)
        assert length(z1 * om, BASE3) == length(z1, BASE3)


def test_bruhat_examples():
    s1, s2, s3 = BASE3.simple_affine_reflections
    t = BASE3.omega_generators[0]
    v_mu = translation_element(GL3, (1, 0, 0))
    assert bruhat_leq(s2 * t, v_mu, BASE3)          # s2 t <= s3 s2 t
    assert bruhat_leq(t, v_mu, BASE3)               # omega part below anything
    assert not bruhat_leq(s1 * t, v_mu, BASE3)      # no subword of [3, 2]
    # different omega cosets are incomparable
    assert not bruhat_leq(affine_identity(GL3), v_mu, BASE3)
    assert not bruhat_leq(v_mu, affine_identity(GL3), BASE3)


def test_admissible_gl3():
    adm = admissible_set(GL3, (1, 0, 0), BASE3)
    assert len(adm) == 7
    s1, s2, s3 = BASE3.simple_affine_reflections
    t = BASE3.omega_generators[0]
    expected = {
        translation_element(GL3, (1, 0, 0)).key(),
        translation_element(GL3, (0, 1, 0)).key(),
        translation_element(GL3, (0, 0, 1)).key(),
        (s1 * t).key(), (s2 * t).key(), (s3 * t).key(), t.key(),
    }
    assert {z.key() for z, _, _ in adm} == expected
    for z, word, om in adm:
        w, o = reduced_word(z, BASE3)
        assert word == w and om.key() == o.key()


def test_admissible_gl2_and_trivial():
    adm = admissible_set(GL2, (1, 0), BASE2)
    assert len(adm) == 3
    t2 = BASE2.omega_generators[0]
    expected = {
        translation_element(GL2, (1, 0)).key(),
        translation_element(GL2, (0, 1)).key(),
        t2.key(),
    }
    assert {z.key() for z, _, _ in adm} == expected
    # t~ = v^(1,0) s_(12)
    assert t2.translation == (1, 0) and not t2.finite.is_identity()
    adm0 = admissible_set(GL3, (0, 0, 0), BASE3)
    assert len(adm0) == 1 and adm0[0][0].key() == affine_identity(GL3).key()


def test_admissible_downward_closed():
    adm = [z for z, _, _ in admissible_set(GL3, (1, 0, 0), BASE3)]
    keys = {z.key() for z in adm}
    # closure is a fixed point: everything below an element is in the set
    for z in adm:
        for y in adm:
            if bruhat_leq(y, z, BASE3):
                assert y.key() in keys
    # and it contains every v^{w mu}
    for w in weyl_group(GL3):
        assert translation_element(GL3, w.apply((1, 0, 0))).key() in keys


def test_h_mu():
    assert h_mu(build_root_datum("GL3xGL3"), (1, 0, 0, 1, 0, 0)) == 1
    assert h_mu(GL3, (0, 0, 0)) == 0
    assert h_mu(GL3, (2, 1, 0)) == 2


def test_composition_law_associative():
    rng = random.Random(12)
    refl = BASE3.simple_affine_reflections
    els = []
    for _ in range(9):
        z = affine_identity(GL3)
        for _ in range(rng.randrange(0, 4)):
            z = rng.choice(refl) * z
        els.append(z)
    for a in els[:3]:
        for b in els[3:6]:
            for c in els[6:]:
                assert ((a * b) * c).key() == (a * (b * c)).key()


LENGTH_LABELS = ["GL1xGL2", "GL2", "GL3", "GL4", "SL2", "SL3", "PGL3", "GL2xGL3", "GL3xGL3"]


def _barycenter(rd):
    """The base alcove's barycenter in Fractions: -(n - 1 - k) / n at slot k
    of a block of size n."""
    return tuple(Fraction(-(n - 1 - k), n) for n in rd.block_sizes for k in range(n))


def _fraction_length(z):
    """Reference: count the walls <a, y> = k strictly between the base
    alcove's barycenter and its image with exact rational pairings."""
    y0 = _barycenter(z.rd)
    y1 = z.act(y0)
    total = 0
    for i, j in z.rd.positive_roots:
        s, t = sorted((y0[i] - y0[j], y1[i] - y1[j]))
        lo = s.numerator // s.denominator + 1  # smallest integer > s
        hi = -((-t.numerator) // t.denominator) - 1  # largest integer < t
        total += max(0, hi - lo + 1)
    return total


@pytest.mark.parametrize("label", LENGTH_LABELS)
def test_integer_length_matches_the_fraction_count(label):
    rd = build_root_datum(label)
    base = base_alcove(rd)
    denom, y, _ = base.walls
    assert all(isinstance(c, int) for c in base.walls[1])
    # Y / L is the barycenter, and L its least common denominator
    assert tuple(Fraction(c, denom) for c in y) == _barycenter(rd)
    assert denom == math.lcm(*(c.denominator for c in _barycenter(rd)))
    rng = random.Random(2024)
    shifts = [(0,) * rd.dim, tuple(range(rd.dim)),
              tuple(rng.randint(-7, 7) for _ in range(rd.dim))]
    poset = elements_of_length_at_most(rd, 4 if rd.dim < 5 else 3, base)
    om = base.omega_generators[0]
    for z in poset + [z * om for z in poset]:
        for nu in shifts:
            x = translation_element(rd, nu) * z
            ell = length(x, base)
            assert ell == _fraction_length(x), (label, x)
            assert len(reduced_word(x, base)[0]) == ell


def _product_descent(z, lz, base):
    """Reference: the least i with l(s~_i z) < lz, by a product and a full length."""
    for i, s in enumerate(base.simple_affine_reflections, 1):
        cand = s * z
        if length(cand, base) < lz:
            return i, cand
    return None


@pytest.mark.parametrize("label", LENGTH_LABELS)
def test_descent_from_one_wall_pairing_matches_the_length_test(label):
    rd = build_root_datum(label)
    base = base_alcove(rd)
    assert len(base.simple_walls) == len(base.simple_affine_reflections)
    for s, (i, j, k) in zip(base.simple_affine_reflections, base.simple_walls):
        # s~ fixes its wall <e_i - e_j, y> = k pointwise
        y = [Fraction(c) for c in range(rd.dim)]
        y[j] = y[i] - k
        assert s.act(y) == tuple(y)
    poset = elements_of_length_at_most(rd, 4 if rd.dim < 5 else 3, base)
    elems = poset + [z * om for z in poset for om in base.omega_generators]
    for z in elems:
        lz = length(z, base)
        flags = list(_is_descent(z, base))
        assert flags == [length(s * z, base) < lz for s in base.simple_affine_reflections]
        if lz == 0:
            assert not any(flags)
            continue
        i, below = _descent(z, lz, base)
        ref_i, ref_below = _product_descent(z, lz, base)
        assert i == ref_i and below.key() == ref_below.key(), (label, z)


def test_word_pass_applies_each_element_to_the_barycenter_once(monkeypatch):
    # the pass after the closure applied each element to the barycenter in
    # length and again in _is_descent: 65 of its 97 applies for GL4 (1,1,0,0)
    rd = build_root_datum("GL4")
    base = base_alcove(rd)
    counts = {"apply": 0, "barycenter": 0}
    real_apply, real_closure = WeylElement.apply, weyl_affine._lower_closure

    def apply_spy(self, v):
        counts["apply"] += 1
        counts["barycenter"] += v is base.walls[1]
        return real_apply(self, v)

    def closure_spy(*args):
        found = real_closure(*args)
        counts.update(apply=0, barycenter=0)  # count the word pass alone
        return found

    monkeypatch.setattr(WeylElement, "apply", apply_spy)
    monkeypatch.setattr(weyl_affine, "_lower_closure", closure_spy)
    adm = admissible_set(rd, (1, 1, 0, 0), base)
    # one image per element, and one product s~_i z per element of positive length
    assert len(adm) == 33
    assert counts == {"apply": 65, "barycenter": 33}


def _product_bfs(rd, bound, base):
    """Reference: the breadth-first walk that multiplies by every s~_i."""
    ident = affine_identity(rd)
    seen = {ident.key(): ident}
    frontier = [ident]
    for _ in range(bound):
        new = []
        for z in frontier:
            for s in base.simple_affine_reflections:
                x = s * z
                if x.key() not in seen:
                    seen[x.key()] = x
                    new.append(x)
        frontier = new
    return list(seen.values())


@pytest.mark.parametrize("label", ["GL2", "GL3", "GL1xGL2", "GL2xGL3", "SL3", "PGL3"])
def test_elements_of_length_at_most_walks_only_ascents(label):
    rd = build_root_datum(label)
    base = base_alcove(rd)
    for bound in range(5):
        got = elements_of_length_at_most(rd, bound, base)
        assert [z.key() for z in got] == [z.key() for z in _product_bfs(rd, bound, base)]
        assert all(length(z, base) <= bound for z in got)


def _bruhat_leq_with_omega_check(a, b, base):
    _, oma = reduced_word(a, base)
    _, omb = reduced_word(b, base)
    return oma.key() == omb.key() and a.key() in _interval(b, base)


@pytest.mark.parametrize("rd, base", [(GL2, BASE2), (GL3, BASE3)])
def test_bruhat_needs_no_separate_omega_check(rd, base):
    om = base.omega_generators[0]
    poset = elements_of_length_at_most(rd, 4, base)
    elems = poset + [z * om for z in poset]
    for a in elems:
        for b in elems:
            assert bruhat_leq(a, b, base) == _bruhat_leq_with_omega_check(a, b, base)
    # z and z * omega lie in different Omega-cosets
    for z in poset:
        assert not bruhat_leq(z, z * om, base)
        assert not bruhat_leq(z * om, z, base)


def _permissible(mu):
    """Perm(mu) for GL_n as (translation, cols) pairs, decided vertex by vertex.

    x = v^nu w acts by x(y)_i = y[cols[i]] - nu_i.  x is mu-permissible when
    a - x(a) lies in Conv(W mu) for every vertex a = -(e_1 + ... + e_k) of the
    base alcove (Kottwitz-Rapoport); a = o forces nu into Conv(W mu), so nu
    ranges over [min mu, max mu]^n.  Conv(S_n mu) membership is majorization.
    """
    n = len(mu)
    top = sorted(mu, reverse=True)

    def in_hull(d):
        d = sorted(d, reverse=True)
        return sum(d) == sum(mu) and all(sum(d[:i]) <= sum(top[:i]) for i in range(1, n))

    vertices = [tuple(-1 if i < k else 0 for i in range(n)) for k in range(n)]
    out = set()
    for cols in itertools.permutations(range(n)):
        for nu in itertools.product(range(min(mu), max(mu) + 1), repeat=n):
            if all(in_hull([a[i] - a[c] + nu[i] for i, c in enumerate(cols)])
                   for a in vertices):
                out.add((nu, cols))
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_admissible_equals_permissible_for_minuscule_mu(n):
    # Adm(mu) = Perm(mu) for minuscule mu of GL_n (Kottwitz-Rapoport,
    # Haines-Ngo): an independent check of the Bruhat closure
    rd = build_root_datum(f"GL{n}")
    base = base_alcove(rd)
    sizes = {}
    for k in range(n + 1):
        for shift in (0, -1):
            mu = tuple((1 if i < k else 0) + shift for i in range(n))
            adm = [z for z, _, _ in admissible_set(rd, mu, base)]
            assert all(z.finite.signs == (1,) * n for z in adm)
            got = {(z.translation, z.finite.cols) for z in adm}
            assert len(got) == len(adm)
            assert got == _permissible(mu), mu
            sizes[k] = len(adm)
    assert sizes[0] == sizes[n] == 1
    assert sizes[1] == sizes[n - 1] == 2 ** n - 1
    if n >= 4:
        assert sizes[2] == {4: 33, 5: 131}[n]


@pytest.mark.parametrize("mu", [
    (2, 0), (3, 0), (5, 0),
    (2, 0, 0), (2, 1, 0), (3, 0, 0), (3, 1, 0), (3, 2, 0), (4, 0, 0), (4, 2, 0),
    (2, 1, 1, 0), (2, 2, 0, 0), (2, 0, 0, 0), (3, 1, 0, 0), (2, 1, 0, 0), (3, 0, 0, 0),
    (2, 1, 0, 0, 0)])
def test_admissible_equals_permissible_for_non_minuscule_mu(mu):
    # checked here for each mu, not assumed: the vertexwise Perm(mu) needs no
    # Bruhat code, so it is an independent oracle for the reflection closure
    rd = build_root_datum(f"GL{len(mu)}")
    adm = [z for z, _, _ in admissible_set(rd, mu, base_alcove(rd))]
    got = {(z.translation, z.finite.cols) for z in adm}
    assert len(got) == len(adm)
    assert got == _permissible(mu), mu


def _subword_products(b, base):
    """Reference: the keys of all 2^l subword products of b's reduced word."""
    word, om = reduced_word(b, base)
    out = set()
    for mask in range(1 << len(word)):
        z = om
        for k in reversed(range(len(word))):
            if mask >> k & 1:
                z = base.simple_affine_reflections[word[k] - 1] * z
        out.add(z.key())
    return out


@pytest.mark.parametrize("label, bound", [
    ("GL2", 5), ("GL3", 5), ("GL4", 4), ("GL2xGL2", 4)])
def test_interval_walk_matches_the_subword_enumeration(label, bound):
    rd = build_root_datum(label)
    base = base_alcove(rd)
    om = base.omega_generators[0]
    poset = elements_of_length_at_most(rd, bound, base)
    for b in poset + [z * om for z in poset]:
        interval = _interval(b, base)
        assert set(interval) == _subword_products(b, base), b
        assert all(z.key() == k for k, z in interval.items())


def test_interval_walk_makes_at_most_l_products_per_element(monkeypatch):
    # the 2^l subword loop made 16 * 2^15 = 524288 products here
    calls = []
    real = AffineWeylElement.__mul__

    def spy(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(weyl_affine, "_closures", {})
    b = translation_element(GL3, (8, 0, 0))
    monkeypatch.setattr(AffineWeylElement, "__mul__", spy)
    interval = _interval(b, BASE3)
    monkeypatch.undo()
    ell = length(b, BASE3)
    assert ell == 16 and len(interval) == 200
    assert len(calls) <= ell * len(interval)


def test_work_cap_is_on_length_times_elements(monkeypatch):
    # GL3 (1, 0, 0): each of the three intervals has 4 elements, Adm has 7,
    # and every translation has length 2
    monkeypatch.setattr(weyl_affine, "_closures", {})
    monkeypatch.setattr(weyl_affine, "MAX_BRUHAT_WORK", 2 * 7)
    assert len(admissible_set(GL3, (1, 0, 0), BASE3)) == 7
    monkeypatch.setattr(weyl_affine, "MAX_BRUHAT_WORK", 2 * 7 - 1)
    with pytest.raises(CapExceeded):
        admissible_set(GL3, (1, 0, 0), BASE3)
    monkeypatch.setattr(weyl_affine, "_closures", {})
    monkeypatch.setattr(weyl_affine, "MAX_BRUHAT_WORK", 2 * 4)
    assert bruhat_leq(BASE3.omega_generators[0], translation_element(GL3, (1, 0, 0)), BASE3)
    monkeypatch.setattr(weyl_affine, "_closures", {})
    monkeypatch.setattr(weyl_affine, "MAX_BRUHAT_WORK", 2 * 4 - 1)
    with pytest.raises(CapExceeded):
        bruhat_leq(affine_identity(GL3), translation_element(GL3, (1, 0, 0)), BASE3)


def test_bruhat_leq_refuses_a_long_upper_element():
    # length 40: the subword property alone means 2^40 subwords
    b = translation_element(GL3, (10, 0, -10))
    assert length(b, BASE3) == 40
    with pytest.raises(CapExceeded):
        bruhat_leq(affine_identity(GL3), b, BASE3)
    with pytest.raises(CapExceeded):
        bruhat_leq(affine_identity(GL2), translation_element(GL2, (10**6, 0)), BASE2)


@pytest.mark.parametrize("label, mu", [
    ("GL2xGL2", (1, 0, 1, 0)), ("GL3xGL3", (1, 0, 0, 1, 0, 0)),
    ("SL3", (1, 0, -1)), ("SL3", (2, -1, -1)), ("PGL3", (1, 0, -1)), ("PGL3", (1, 1, -2))])
def test_admissible_set_is_the_union_of_the_subword_intervals(label, mu):
    # one closure from all the tops v^{w mu} at once, against each top's 2^l
    # subword products; the memoized words are the greedy reduced words
    rd = build_root_datum(label)
    base = base_alcove(rd)
    union = set()
    for w in weyl_group(rd):
        union |= _subword_products(translation_element(rd, w.apply(mu)), base)
    adm = admissible_set(rd, mu, base)
    assert len(adm) == len(union) and {z.key() for z, _, _ in adm} == union
    for z, word, om in adm:
        w, o = reduced_word(z, base)
        assert word == w and om.key() == o.key()


def test_stats_count_the_closure_work(monkeypatch):
    # Adm(1,0,0) of GL3 is one closure from the three v^{w mu}
    weyl_affine.stats()
    assert len(admissible_set(GL3, (1, 0, 0), BASE3)) == 7
    assert weyl_affine.stats() == {"lower_closure_calls": 1, "elements_found": 7,
                                   "reflection_products": 9}
    # the products are the closure's calls of AffineWeylElement.__mul__
    calls = []
    mul = AffineWeylElement.__mul__
    monkeypatch.setattr(AffineWeylElement, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    for rd, base, mu in [(GL3, BASE3, (2, 1, 0)), (GL2, BASE2, (3, 0))]:
        top = translation_element(rd, mu)
        ell = length(top, base)
        calls.clear()
        found = weyl_affine._lower_closure([top], base, ell)
        assert weyl_affine.stats() == {"lower_closure_calls": 1, "elements_found": len(found),
                                       "reflection_products": len(calls)}
    # bruhat_leq forms the interval below an upper element once
    monkeypatch.setattr(weyl_affine, "_closures", {})
    b = translation_element(GL3, (1, 0, 0))
    for a in (affine_identity(GL3), b):
        bruhat_leq(a, b, BASE3)
    assert weyl_affine.stats()["lower_closure_calls"] == 1
