"""Deterministic SVG pictures of rank-1/rank-2 apartments.

Three kinds are supported:

  * rank1_line:     the SL2 base alcove with type-classification coloring,
  * rank2_A2:       an A2 alcove neighborhood with genericity shading,
  * admissible_A2:  the affine A2 alcove grid with Adm(mu') highlighted.

Output is plain SVG text, byte-identical across runs for identical specs.
All layout constants live in LAYOUT below for visual diffability.

A2 geometry runs on integers.  The base triangle's vertices are lattice
points and affine Weyl elements map lattice points to lattice points, so every
alcove vertex is an int tuple, acted on and projected once.  The k-th shaded
triangle has vertices (p q + k (s - 3 q)) / p, s the vertex sum, so each of its
plane coordinates is one int/int true division; Python rounds that correctly,
as float() rounds the exact rational, so the bytes equal those of exact
rational arithmetic.  The alcove neighbourhood of each figure kind is built
once per process and shared, read-only, by every later figure of that kind.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import functools
import math
from typing import Sequence

from .galois import _frobenius_map, _frobenius_witness
from .rootdata import build_root_datum, split_gamma
from .weyl_affine import admissible_set, base_alcove, elements_of_length_at_most

LAYOUT = {
    "scale": 360.0,              # SVG pixels per apartment unit
    "margin": 40.0,
    "rank1_small_radius": 3.0,
    "rank1_big_radius": 6.0,
    "grid_stroke": "#b0b0b0",
    "grid_width": 0.4,
    "outline_width": 2.0,
    "shade_fill": "#ff0000",
    "shade_opacity": 0.15,
    "adm_fill": "#000000",
    "adm_opacity": 0.09,
    "wall_colors": {1: "#0000f0", 2: "#f000f0", 3: "#f00000"},
    "node_green": "#00c000",
    "node_red": "#e00000",
    "node_white": "#ffffff",
    "sqrt3": math.sqrt(3.0),
}


@dataclass(frozen=True)
class FigureSpec:
    kind: str  # rank1_line | rank2_A2 | admissible_A2
    p: int = 7
    e: int = 24
    shading_depth: int = 0
    subdivisions: int = 36
    mu: tuple[int, ...] = (1, 0, 0)
    marks: tuple[tuple[tuple[Fraction, ...], str], ...] = ()


def _fmt(x: float) -> str:
    s = f"{x:.4f}"
    return "0.0000" if s == "-0.0000" else s


def sl2_node_colors(p: int, e: int) -> list[tuple[int, str]]:
    """Color of the u-vertex at parameter n/e for n = 0..e.

    White: not in the orbit of o (odd n).  Green: the classified type,
    lambda = (-n/2, n/2), is Frobenius invariant.  Red: classified but not
    invariant.
    """
    rd = build_root_datum("SL2")
    g = split_gamma(rd, p, e)
    frob = _frobenius_map(g)
    out = []
    for n in range(e + 1):
        if n % 2 == 1:
            out.append((n, LAYOUT["node_white"]))
        elif _frobenius_witness(rd, g, (-(n // 2), n // 2), frob) is None:
            out.append((n, LAYOUT["node_red"]))
        else:
            out.append((n, LAYOUT["node_green"]))
    return out


def _svg_header(width: float, height: float) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
    ]


def _render_rank1(spec: FigureSpec) -> str:
    S = LAYOUT["scale"]
    M = LAYOUT["margin"]
    width = S + 2 * M
    height = 2 * M
    y = M
    lines = _svg_header(width, height)
    lines.append(
        f'<line x1="{_fmt(M)}" y1="{_fmt(y)}" x2="{_fmt(M + S)}" y2="{_fmt(y)}" '
        f'stroke="#000000" stroke-width="1.5"/>'
    )
    colors = sl2_node_colors(spec.p, spec.e)
    small_r = LAYOUT["rank1_small_radius"]
    big_r = LAYOUT["rank1_big_radius"]
    for n, color in colors:
        x = M + S * n / spec.e
        r = big_r if n in (0, spec.e) else small_r
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{color}" '
            f'stroke="#000000" stroke-width="0.6"/>'
        )
    lines.append(
        f'<text x="{_fmt(M)}" y="{_fmt(y - 12)}" font-size="12" '
        f'text-anchor="middle">o</text>'
    )
    lines.append(
        f'<text x="{_fmt(M + S)}" y="{_fmt(y - 12)}" font-size="12" '
        f'text-anchor="middle">o+(1/2,-1/2)</text>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _a2_xy(eta: Sequence, den: int = 1) -> tuple[float, float]:
    """Plane coordinates of the reduced-apartment point eta / den for a GL3 block.

    o maps to the origin, o-(1,0,0) to (-1,-sqrt3), o-(1,1,0) to (1,-sqrt3).
    """
    x = float((eta[0] - 2 * eta[1] + eta[2]) / den)
    y = LAYOUT["sqrt3"] * float((eta[0] - eta[2]) / den)
    return x, y


def _to_screen(x: float, y: float, width: float, height: float,
               scale: float) -> tuple[float, float]:
    return width / 2 + scale * x, height / 2 - scale * y


_BASE_TRIANGLE = ((0, 0, 0), (-1, 0, 0), (-1, -1, 0))


def _reduced_center(pts) -> tuple[int, ...]:
    """3 * barycenter with the center direction removed: 3 s - sum(s), s the vertex sum."""
    s = [sum(c) for c in zip(*pts)]
    t = sum(s)
    return tuple(3 * c - t for c in s)


@functools.cache
def _alcove_patches(gallery_bound: int, bx_max: float, by_max: float):
    """(vertices, projected vertices) of the alcoves in a window around o, sorted.

    Built once per process for each window, as tuples: every figure that
    draws the window shares the value, so nothing may change it.
    """
    rd = build_root_datum("GL3")
    alc = base_alcove(rd)
    out = []
    for z in elements_of_length_at_most(rd, gallery_bound, alc):
        pts = tuple(z.act(v) for v in _BASE_TRIANGLE)
        xy = tuple(_a2_xy(q) for q in pts)
        if (abs(sum(x for x, _ in xy) / 3) <= bx_max
                and abs(sum(y for _, y in xy) / 3) <= by_max):
            out.append((pts, xy))
    out.sort(key=lambda patch: tuple(sorted(str(c) for q in patch[0] for c in q)))
    return tuple(out)


def _canvas(patches, scale: float, margin: float):
    xs = [x for _, xy in patches for x, _ in xy]
    ys = [y for _, xy in patches for _, y in xy]
    half_w = max(abs(min(xs)), abs(max(xs)))
    half_h = max(abs(min(ys)), abs(max(ys)))
    return 2 * half_w * scale + 2 * margin, 2 * half_h * scale + 2 * margin


def _render_genericity(spec: FigureSpec) -> str:
    """Nested d-generic triangles inside each drawn A2 alcove."""
    S = LAYOUT["scale"] * 0.6
    M = LAYOUT["margin"]
    p = spec.p
    patches = _alcove_patches(4, 1.6, 1.5)
    width, height = _canvas(patches, S, M)
    scale = S
    lines = _svg_header(width, height)
    for pts, xy in patches:
        # nested genericity shading: layer k covers the k-generic sub-triangle,
        # whose vertices q + (k/p)(s - 3q) are (p q + k (s - 3q)) / p
        s = [sum(c) for c in zip(*pts)]
        for k in range(0, spec.shading_depth + 1):
            path = []
            for q in pts:
                inner = [p * c + k * (t - 3 * c) for c, t in zip(q, s)]
                xx, yy = _to_screen(*_a2_xy(inner, p), width, height, scale)
                path.append(f"{_fmt(xx)},{_fmt(yy)}")
            lines.append(
                f'<polygon points="{" ".join(path)}" fill="{LAYOUT["shade_fill"]}" '
                f'fill-opacity="{LAYOUT["shade_opacity"]}" stroke="none"/>'
            )
        # subdivision grid
        n = spec.subdivisions
        corners = [_to_screen(x, y, width, height, scale) for x, y in xy]
        for i in range(3):
            a, b, c = corners[i], corners[(i + 1) % 3], corners[(i + 2) % 3]
            for t in range(1, n):
                f1 = t / n
                p1 = (a[0] + f1 * (b[0] - a[0]), a[1] + f1 * (b[1] - a[1]))
                p2 = (a[0] + f1 * (c[0] - a[0]), a[1] + f1 * (c[1] - a[1]))
                lines.append(
                    f'<line x1="{_fmt(p1[0])}" y1="{_fmt(p1[1])}" '
                    f'x2="{_fmt(p2[0])}" y2="{_fmt(p2[1])}" '
                    f'stroke="{LAYOUT["grid_stroke"]}" stroke-width="{LAYOUT["grid_width"]}"/>'
                )
        path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in corners)
        lines.append(
            f'<polygon points="{path}" fill="none" stroke="#000000" '
            f'stroke-width="{LAYOUT["outline_width"]}"/>'
        )
    for eta, label in spec.marks:
        xx, yy = _to_screen(*_a2_xy(eta), width, height, scale)
        lines.append(
            f'<circle cx="{_fmt(xx)}" cy="{_fmt(yy)}" r="3.0000" fill="#000000"/>'
        )
        lines.append(
            f'<text x="{_fmt(xx + 5)}" y="{_fmt(yy - 5)}" font-size="11">{label}</text>'
        )
    ox, oy = _to_screen(0, 0, width, height, scale)
    lines.append(f'<circle cx="{_fmt(ox)}" cy="{_fmt(oy)}" r="4.0000" fill="#000000"/>')
    lines.append(f'<text x="{_fmt(ox + 6)}" y="{_fmt(oy - 6)}" font-size="12">o</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# the three wall segments of the base alcove, as edges of _BASE_TRIANGLE (see
# the walls fixed by each simple affine reflection)
_WALL_VERTICES = {1: (0, 2), 2: (0, 1), 3: (1, 2)}


def _render_admissible(spec: FigureSpec) -> str:
    S = LAYOUT["scale"] * 0.4
    M = LAYOUT["margin"]
    rd = build_root_datum("GL3")
    adm = admissible_set(rd, spec.mu, base_alcove(rd))
    # an element is drawn as its alcove in the reduced apartment; match by
    # center-normalized barycenter
    adm_centers = {_reduced_center([z.act(v) for v in _BASE_TRIANGLE]) for z, _, _ in adm}
    elems = _alcove_patches(8, 3.2, 2.9)
    width, height = _canvas(elems, S, M)
    scale = S
    lines = _svg_header(width, height)
    shaded = 0
    edges: dict[tuple, str] = {}
    for pts, xy in elems:
        corners = [(_fmt(xx), _fmt(yy)) for xx, yy in
                   (_to_screen(x, y, width, height, scale) for x, y in xy)]
        if _reduced_center(pts) in adm_centers:
            shaded += 1
            path = " ".join(f"{x},{y}" for x, y in corners)
            lines.append(
                f'<polygon points="{path}" fill="{LAYOUT["adm_fill"]}" '
                f'fill-opacity="{LAYOUT["adm_opacity"]}" stroke="none"/>'
            )
        for i, (a, b) in _WALL_VERTICES.items():
            key = tuple(sorted([corners[a], corners[b]]))
            edges.setdefault(key, LAYOUT["wall_colors"][i])
    for key in sorted(edges):
        (x1, y1), (x2, y2) = key
        lines.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{edges[key]}" stroke-width="1.8"/>'
        )
    for eta, label in zip(_BASE_TRIANGLE, ("o", "o-(1,0,0)", "o-(1,1,0)")):
        xx, yy = _to_screen(*_a2_xy(eta), width, height, scale)
        lines.append(f'<circle cx="{_fmt(xx)}" cy="{_fmt(yy)}" r="3.0000" fill="#000000"/>')
        lines.append(
            f'<text x="{_fmt(xx + 5)}" y="{_fmt(yy - 5)}" font-size="11">{label}</text>'
        )
    lines.append(f"<!-- shaded alcoves: {shaded} -->")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render(spec: FigureSpec) -> str:
    if spec.kind == "rank1_line":
        return _render_rank1(spec)
    if spec.kind == "rank2_A2":
        return _render_genericity(spec)
    if spec.kind == "admissible_A2":
        return _render_admissible(spec)
    raise ValueError(f"unsupported figure kind {spec.kind!r}")
