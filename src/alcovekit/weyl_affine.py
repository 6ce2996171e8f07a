"""Extended affine Weyl group combinatorics: length, words, Bruhat order, Adm.

Elements are pairs (nu, w): the affine transformation y -> w(y) - nu of the
apartment, i.e. the group element v^nu w.  The base alcove is the one whose
closure contains the region 0 < <a, y> < 1 for the lower-triangular positive
system, with vertices o, o-(1,0,...,0), o-(1,1,0,...,0), ...; its walls give
the simple affine reflections s~_1, ..., s~_n of each GL_n block.

Lengths are computed geometrically: l(w) is the number of affine root
hyperplanes <a, y> = k separating the base alcove from its image, counted in
integers by the Iwahori-Matsumoto formula from walls precomputed once per
base alcove.  Reduced words come from a greedy gallery walk, and Bruhat
intervals (so Bruhat order and Adm) from the subword property, letter by letter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .rootdata import CapExceeded, RootDatum, WeylElement

RatVec = tuple[Fraction, ...]
# (L, Y, walls): L the common denominator of the base alcove's interior,
# Y = L * interior in integers, and one (i, j, floor(<a, interior>)) per
# positive root a = e_i - e_j
Walls = tuple[int, tuple[int, ...], tuple[tuple[int, int, int], ...]]


@dataclass(frozen=True)
class AffineWeylElement:
    rd: RootDatum
    translation: tuple[int, ...]
    finite: WeylElement

    def __mul__(self, other: "AffineWeylElement") -> "AffineWeylElement":
        nu = tuple(a + b for a, b in zip(self.translation, self.finite.apply(other.translation)))
        return AffineWeylElement(self.rd, nu, self.finite * other.finite)

    def inv(self) -> "AffineWeylElement":
        winv = self.finite.inv()
        nu = tuple(-c for c in winv.apply(self.translation))
        return AffineWeylElement(self.rd, nu, winv)

    def act(self, y: Sequence[Fraction]) -> RatVec:
        img = self.finite.apply(y)
        return tuple(a - b for a, b in zip(img, self.translation))

    def key(self):
        return (self.translation, self.finite)

    def __repr__(self) -> str:
        return f"v^{list(self.translation)}*w{self.finite.matrix}"


def affine_identity(rd: RootDatum) -> AffineWeylElement:
    return translation_element(rd, (0,) * rd.dim)


def translation_element(rd: RootDatum, nu: Sequence[int]) -> AffineWeylElement:
    return AffineWeylElement(rd, tuple(nu), WeylElement.identity(rd.dim))


@dataclass(frozen=True)
class BaseAlcove:
    rd: RootDatum
    simple_affine_reflections: tuple[AffineWeylElement, ...]
    omega_generators: tuple[AffineWeylElement, ...]
    interior: RatVec  # barycenter, guaranteed off every affine wall
    walls: Walls


def _walls(rd: RootDatum, bary: RatVec) -> Walls:
    denom = math.lcm(*(c.denominator for c in bary))
    y = tuple(int(c * denom) for c in bary)
    walls = []
    for a in rd.positive_roots():
        i, j = a.index(1), a.index(-1)
        walls.append((i, j, (y[i] - y[j]) // denom))
    return denom, y, tuple(walls)


def base_alcove(rd: RootDatum) -> BaseAlcove:
    """The base alcove for block GL-type data (vertices o, o-(1,0,..), ...)."""
    refl: list[AffineWeylElement] = []
    bary = [Fraction(0)] * rd.dim
    off = 0
    for size in rd.block_sizes:
        for i in range(size - 1):
            a = [0] * rd.dim
            a[off + i], a[off + i + 1] = 1, -1
            idx = rd.roots.index(tuple(a))
            refl.append(AffineWeylElement(rd, (0,) * rd.dim, rd.reflection(idx)))
        if size >= 2:
            a = [0] * rd.dim
            a[off], a[off + size - 1] = 1, -1
            idx = rd.roots.index(tuple(a))
            nu = [0] * rd.dim
            nu[off], nu[off + size - 1] = 1, -1
            refl.append(AffineWeylElement(rd, tuple(nu), rd.reflection(idx)))
        for k in range(size):
            bary[off + k] = Fraction(-(size - 1 - k), size)
        off += size
    bary = tuple(bary)
    walls = _walls(rd, bary)
    alc = BaseAlcove(rd, tuple(refl), (), bary, walls)
    omegas = []
    off = 0
    for size in rd.block_sizes:
        nu = [0] * rd.dim
        nu[off] = 1
        _, om = reduced_word(translation_element(rd, nu), alc)
        omegas.append(om)
        off += size
    return BaseAlcove(rd, tuple(refl), tuple(omegas), bary, walls)


def length(w: AffineWeylElement, base: BaseAlcove | None = None) -> int:
    """Number of affine hyperplanes separating the base alcove from w(base).

    Iwahori-Matsumoto count in integers: for each positive root a = e_i - e_j
    the walls <a, y> = k between the interior y0 and its image w(y0) =
    w y0 - nu number |floor(<a, w(y0)>) - floor(<a, y0>)|, because neither
    pairing is an integer (w permutes the walls and y0 lies on none).
    """
    if base is None:
        base = base_alcove(w.rd)
    denom, y, walls = base.walls
    wy = w.finite.apply(y)
    nu = w.translation
    return sum(abs((wy[i] - wy[j]) // denom - nu[i] + nu[j] - floor0)
               for i, j, floor0 in walls)


def reduced_word(
    w: AffineWeylElement, base: BaseAlcove | None = None
) -> tuple[list[int], AffineWeylElement]:
    """Greedy gallery walk: w = s~_{i_1} ... s~_{i_l} * omega, indices 1-based.

    At each step the smallest-index descent is taken, which reproduces the
    worked GL_3 factorizations exactly.
    """
    if base is None:
        base = base_alcove(w.rd)
    word: list[int] = []
    z = w
    lz = length(z, base)
    while lz > 0:
        for i, s in enumerate(base.simple_affine_reflections):
            cand = s * z
            lc = length(cand, base)
            if lc < lz:
                word.append(i + 1)
                z, lz = cand, lc
                break
        else:
            raise AssertionError("positive length but no descent; broken alcove data")
    return word, z


# l * (elements found), l = length(b), bounds the walk's products and the sort's
# descent steps; elements alone do not (GL2 (511, 0): 1,023 elements, 8.5 s).
# On a 2-vCPU VM, Adm of GL4 (4,2,1,0) (13 * 959) takes 0.6 s and of GL7
# (1,1,0^5) (10 * 1,611) 1.07 s, near `straighten --n 8`: 16384 admits both
MAX_BRUHAT_WORK = 16384

# (b.key(), base.interior) -> the interval below b, as {key: element}
_closures: dict = {}


def _check_work(ell: int, size: int) -> None:
    if ell * size > MAX_BRUHAT_WORK:
        raise CapExceeded(f"Bruhat intervals are capped at length * elements <= {MAX_BRUHAT_WORK}")


def _interval(b: AffineWeylElement, base: BaseAlcove) -> dict:
    """The Bruhat interval below b as {key: element}; CapExceeded past MAX_BRUHAT_WORK.

    Its elements are the subword products of a reduced word s_1 ... s_l * omega
    of b, grown from the right: S_0 = {omega}, S_j = S_{j-1} u s_{l+1-j} S_{j-1},
    deduplicated, in sum_j |S_{j-1}| <= l * |S_l| products, not l * 2^(l-1).
    """
    k = (b.key(), base.interior)
    if k not in _closures:
        ell = length(b, base)
        _check_work(ell, 1)
        word, om = reduced_word(b, base)
        found = {om.key(): om}
        for i in reversed(word):
            s = base.simple_affine_reflections[i - 1]
            for z in list(found.values()):
                x = s * z
                found.setdefault(x.key(), x)
            _check_work(ell, len(found))
        _closures[k] = found
    return _closures[k]


def bruhat_leq(a: AffineWeylElement, b: AffineWeylElement,
               base: BaseAlcove | None = None) -> bool:
    """a <= b by membership in the interval below b (CapExceeded past MAX_BRUHAT_WORK).

    Every element of the interval is a subword product times b's Omega part, so
    it lies in b's Omega-coset: membership alone decides incomparability too.
    """
    if base is None:
        base = base_alcove(a.rd)
    return a.key() in _interval(b, base)


def _orbit(rd: RootDatum, mu: tuple[int, ...], ell: int) -> list[tuple[int, ...]]:
    """The orbit W mu, by a walk over the simple reflections: |W mu| steps, not |W|.

    Every v^{w mu} lies in Adm(mu) and has length ell, so the walk stops with
    CapExceeded as soon as ell * |orbit| alone passes MAX_BRUHAT_WORK.
    """
    gens = [rd.reflection(i) for i in rd.simple_indices]
    orbit, seen = [mu], {mu}
    for nu in orbit:  # the list grows while it is walked
        for s in gens:
            x = s.apply(nu)
            if x not in seen:
                seen.add(x)
                orbit.append(x)
                _check_work(ell, len(orbit))
    return orbit


def admissible_set(
    rd: RootDatum, mu: Sequence[int], base: BaseAlcove | None = None,
) -> list[tuple[AffineWeylElement, list[int], AffineWeylElement]]:
    """Adm(mu): the union of the Bruhat intervals below v^{w mu}, w in W.

    (element, reduced word, Omega part) triples by (length, reduced word);
    CapExceeded once an interval or the union passes MAX_BRUHAT_WORK.
    """
    if len(mu) != rd.dim:
        raise ValueError(f"mu has {len(mu)} entries, the group needs {rd.dim}")
    if not rd.in_cochar_lattice(mu):
        raise ValueError(f"mu={tuple(mu)} is not in the cocharacter lattice of {rd.label}")
    if base is None:
        base = base_alcove(rd)
    ell = length(translation_element(rd, mu), base)
    found: dict = {}
    for nu in _orbit(rd, tuple(mu), ell):
        found.update(_interval(translation_element(rd, nu), base))
        _check_work(ell, len(found))
    out = [(z, *reduced_word(z, base)) for z in found.values()]
    out.sort(key=lambda t: (len(t[1]), t[1], t[0].key()))
    return out


def h_mu(rd: RootDatum, mu: Sequence[int]) -> int:
    """The height of mu: max over roots a of <a, mu>."""
    if len(mu) != rd.dim:
        raise ValueError(f"mu has {len(mu)} entries, the group needs {rd.dim}")
    if not rd.roots:
        return 0
    return max(int(rd.pairing(a, mu)) for a in rd.roots)


def elements_of_length_at_most(rd: RootDatum, bound: int,
                               base: BaseAlcove | None = None) -> list[AffineWeylElement]:
    """All affine-Weyl-group elements (trivial Omega part) of length <= bound."""
    if base is None:
        base = base_alcove(rd)
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
