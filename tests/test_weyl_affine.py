import random

from alcovekit.rootdata import build_root_datum, weyl_group
from alcovekit.weyl_affine import (
    admissible_set,
    affine_identity,
    base_alcove,
    bruhat_leq,
    h_mu,
    length,
    recompose,
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
        assert recompose(GL3, word, omega, BASE3).key() == z.key()
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
    assert {z.key() for z in adm} == expected


def test_admissible_gl2_and_trivial():
    adm = admissible_set(GL2, (1, 0), BASE2)
    assert len(adm) == 3
    t2 = BASE2.omega_generators[0]
    expected = {
        translation_element(GL2, (1, 0)).key(),
        translation_element(GL2, (0, 1)).key(),
        t2.key(),
    }
    assert {z.key() for z in adm} == expected
    # t~ = v^(1,0) s_(12)
    assert t2.translation == (1, 0) and not t2.finite.is_identity()
    adm0 = admissible_set(GL3, (0, 0, 0), BASE3)
    assert len(adm0) == 1 and adm0[0].key() == affine_identity(GL3).key()


def test_admissible_downward_closed():
    adm = admissible_set(GL3, (1, 0, 0), BASE3)
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
