from fractions import Fraction
import hashlib
from importlib import resources
import re

import pytest

from alcovekit import figures, galois
from alcovekit.galois import GaloisType

SPECS = {
    "sl2_alcove_p7_e24.svg": figures.FigureSpec(kind="rank1_line", p=7, e=24),
    "genericity_p19_d6.svg": figures.FigureSpec(kind="rank2_A2", p=19, shading_depth=6),
    "admissible_mu100.svg": figures.FigureSpec(kind="admissible_A2", mu=(1, 0, 0)),
}


def _golden(name):
    return resources.files("alcovekit").joinpath("golden", name).read_text()


def test_golden_byte_match():
    for name, spec in SPECS.items():
        assert figures.render(spec) == _golden(name)


F = figures.FigureSpec
# SHA-256 of the rendered SVG, recorded when the A2 geometry still ran on
# Fraction: the benchmark's figure grid, larger admissible sets, a deep
# genericity shading and rational marks
DIGESTS = [
    (F(kind="rank1_line", p=7, e=24),
     "6ff538b665d8c68c267ebd641a8da4ab7fa3b1bcebb4695a50b67890561d6318"),
    (F(kind="rank1_line", p=5, e=8),
     "15576c7aaf84ba8ffa4b16378c1d326c79f458d90fda36888074d40638da5b4d"),
    (F(kind="rank1_line", p=3, e=13),
     "cc05c181495e4917daf8bd6041cf028de707e22fbba7a60610fa7f1b94e1b517"),
    (F(kind="rank1_line", p=7, e=48),
     "fe31d9817d06fe5ffc500c9251f7b1e5928f2f5031be4e821cbb20a6cad14dee"),
    (F(kind="rank2_A2", p=19, shading_depth=6),
     "be820dc8500d3579fde1b780e6b40b90f0d84af830d0f9738844bfd481315d13"),
    (F(kind="rank2_A2", p=13, shading_depth=4),
     "7f93395ffd254e899f9848a54a97003e69c183357a97ccd7f6f9a474af7bfc4d"),
    (F(kind="rank2_A2", p=7, shading_depth=2),
     "9b577748aebfb82fa5117218d1c3bbe4c36569b24b35bf0895c44eb664319cc8"),
    (F(kind="admissible_A2", mu=(1, 0, 0)),
     "0df4a283bc8daa802f98ced37099bb4a8fd4c4603e5806fd13e6d1e448bb1466"),
    (F(kind="admissible_A2", mu=(1, 1, 0)),
     "484c0dad15e797b4e90101b57a8360bc725bdd1032f758e1b0fdfa4c46f26e0b"),
    (F(kind="admissible_A2", mu=(2, 1, 0)),
     "ac0a83ae574cfe495be09ae0390e016d414dbb4848e22edb3d8f59ed7a52a8a7"),
    (F(kind="admissible_A2", mu=(2, 0, 0)),
     "7e6674c00d7ebdf62789106e178a9fab64f9a41e45b16185a7c2bf5564485abd"),
    (F(kind="admissible_A2", mu=(3, 0, 0)),
     "931c1e442a672276b72717f665190782a6d83118771de37d36be587f2c86e6ab"),
    (F(kind="admissible_A2", mu=(4, 2, 0)),
     "f1e14b1060812b55241796ab2d921997049f65cad3790a4bcf5fc67d7d0b2468"),
    (F(kind="rank2_A2", p=101, shading_depth=33),
     "75e806c7bc8d6e1d036f662d0a16705f889ad7ac192d6a5d834a6b2717263092"),
    (F(kind="rank2_A2", p=19, shading_depth=6,
       marks=(((Fraction(1, 4), Fraction(1, 9), Fraction(0)), "x"),
              ((Fraction(-1, 3), Fraction(-2, 3), Fraction(0)), "y"))),
     "1252de8f6c3fb666c5a123cc00344cb125b584efe62a6328ce20b503f6db9c37"),
    # recorded with the 2^l subword enumeration; Adm((8, 0, 0))
    # covers the same drawn alcoves as Adm((4, 2, 0))
    (F(kind="admissible_A2", mu=(8, 0, 0)),
     "f1e14b1060812b55241796ab2d921997049f65cad3790a4bcf5fc67d7d0b2468"),
]


@pytest.mark.parametrize("spec,digest", DIGESTS)
def test_render_digest(spec, digest):
    assert hashlib.sha256(figures.render(spec).encode()).hexdigest() == digest


def test_render_is_deterministic():
    for spec in SPECS.values():
        assert figures.render(spec) == figures.render(spec)


def test_sl2_color_counts():
    colors = [c for _, c in figures.sl2_node_colors(7, 24)]
    assert colors.count(figures.LAYOUT["node_white"]) == 12
    assert colors.count(figures.LAYOUT["node_green"]) == 7
    assert colors.count(figures.LAYOUT["node_red"]) == 6


def test_sl2_colors_match_predicates():
    # r = ord_e(p) is 2, 2, 2, 4 and 2
    for p, e in ((7, 24), (5, 8), (7, 48), (3, 80), (13, 84)):
        for n, color in figures.sl2_node_colors(p, e):
            # orbit predicate: e (x - o) in the cocharacter lattice iff n is even
            in_orbit = n % 2 == 0
            assert (color == figures.LAYOUT["node_white"]) == (not in_orbit)
            if in_orbit:
                # the rank-one rule of test_frobenius_invariant_congruences
                k = n // 2
                flag = (p - 1) * k % e == 0 or (p + 1) * k % e == 0
                assert (color == figures.LAYOUT["node_green"]) == flag


def test_sl2_colors_build_no_galois_type(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("sl2_node_colors went through a GaloisType")

    monkeypatch.setattr(GaloisType, "from_lambda", boom)
    monkeypatch.setattr(galois, "frobenius_invariant", boom)
    colors = [c for _, c in figures.sl2_node_colors(7, 24)]
    assert colors.count(figures.LAYOUT["node_green"]) == 7


def test_genericity_structure():
    svg = figures.render(SPECS["genericity_p19_d6.svg"])
    outlines = svg.count('fill="none" stroke="#000000"')
    shades = svg.count(f'fill="{figures.LAYOUT["shade_fill"]}"')
    # depth+1 nested shade layers per drawn alcove
    assert shades == outlines * 7
    # the 36-fold subdivision grid: 3 * 35 lines per alcove
    grid = svg.count(f'stroke="{figures.LAYOUT["grid_stroke"]}"')
    assert grid == outlines * 3 * 35


def test_admissible_shading_count():
    svg = figures.render(SPECS["admissible_mu100.svg"])
    m = re.search(r"shaded alcoves: (\d+)", svg)
    assert m and m.group(1) == "7"
    # all three wall colors appear
    for color in figures.LAYOUT["wall_colors"].values():
        assert color in svg


def test_unknown_kind():
    with pytest.raises(ValueError):
        figures.render(figures.FigureSpec(kind="rank9"))


def test_alcove_neighbourhood_is_built_once_per_window(monkeypatch):
    builds = []
    real = figures.elements_of_length_at_most

    def spy(rd, bound, base=None):
        builds.append(bound)
        return real(rd, bound, base)

    figures._alcove_patches.cache_clear()
    monkeypatch.setattr(figures, "elements_of_length_at_most", spy)
    try:
        gen = [figures.render(SPECS["genericity_p19_d6.svg"]) for _ in range(2)]
        adm = [figures.render(SPECS["admissible_mu100.svg"]) for _ in range(2)]
        assert gen[0] == gen[1] == _golden("genericity_p19_d6.svg")
        assert adm[0] == adm[1] == _golden("admissible_mu100.svg")
        # one build for the genericity window, one for the admissible window
        assert builds == [4, 8]
        patches = figures._alcove_patches(4, 1.6, 1.5)
        assert len(builds) == 2
        assert isinstance(patches, tuple) and patches
        assert all(isinstance(patch, tuple) for patch in patches)
        for pts, xy in patches:
            assert isinstance(pts, tuple) and all(isinstance(q, tuple) for q in pts)
            assert isinstance(xy, tuple) and all(isinstance(c, tuple) for c in xy)
    finally:
        figures._alcove_patches.cache_clear()
