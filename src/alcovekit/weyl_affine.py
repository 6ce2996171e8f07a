"""Extended affine Weyl group combinatorics: length, words, Bruhat order, Adm.

Elements are pairs (nu, w): the affine transformation y -> w(y) - nu of the
apartment, i.e. the group element v^nu w.  The base alcove is the one whose
closure contains the region 0 < <a, y> < 1 for the lower-triangular positive
system, with vertices o, o-(1,0,...,0), o-(1,1,0,...,0), ...; its walls give
the simple affine reflections s~_1, ..., s~_n of each GL_n block.

Lengths are computed geometrically: l(w) is the number of affine root
hyperplanes <a, y> = k separating the base alcove from its image, counted
with exact rational arithmetic.  Reduced words come from a greedy gallery
walk and Bruhat order from the subword property.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .rootdata import CapExceeded, RootDatum, WeylElement, weyl_group

RatVec = tuple[Fraction, ...]


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
    alc = BaseAlcove(rd, tuple(refl), (), tuple(bary))
    omegas = []
    off = 0
    for size in rd.block_sizes:
        nu = [0] * rd.dim
        nu[off] = 1
        _, om = reduced_word(translation_element(rd, nu), alc)
        omegas.append(om)
        off += size
    return BaseAlcove(rd, tuple(refl), tuple(omegas), tuple(bary))


def _integers_strictly_between(s: Fraction, t: Fraction) -> int:
    if s > t:
        s, t = t, s
    lo = s.numerator // s.denominator + 1  # smallest integer > s
    hi = -((-t.numerator) // t.denominator) - 1  # largest integer < t
    return max(0, hi - lo + 1)


def length(w: AffineWeylElement, base: BaseAlcove | None = None) -> int:
    """Number of affine hyperplanes separating the base alcove from w(base)."""
    if base is None:
        base = base_alcove(w.rd)
    y0 = base.interior
    y1 = w.act(y0)
    total = 0
    for a in w.rd.positive_roots():
        total += _integers_strictly_between(w.rd.pairing(a, y0), w.rd.pairing(a, y1))
    return total


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


def recompose(rd: RootDatum, word: Sequence[int], omega: AffineWeylElement,
              base: BaseAlcove) -> AffineWeylElement:
    out = omega
    for i in reversed(word):
        out = base.simple_affine_reflections[i - 1] * out
    return out


def _subword_closure(b: AffineWeylElement, base: BaseAlcove) -> frozenset:
    word, om = reduced_word(b, base)
    seen: set = set()
    elems = {(): om}
    # products of all subwords of the fixed reduced word, times the omega part
    n = len(word)
    for mask in range(1 << n):
        letters = tuple(word[i] for i in range(n) if mask & (1 << i))
        out = om
        for i in reversed(letters):
            out = base.simple_affine_reflections[i - 1] * out
        seen.add(out.key())
    return frozenset(seen)


class _ClosureCache:
    def __init__(self):
        self.cache: dict = {}

    def get(self, b: AffineWeylElement, base: BaseAlcove) -> frozenset:
        k = (b.key(), base.interior)
        if k not in self.cache:
            self.cache[k] = _subword_closure(b, base)
        return self.cache[k]


_closures = _ClosureCache()


def bruhat_leq(a: AffineWeylElement, b: AffineWeylElement,
               base: BaseAlcove | None = None) -> bool:
    """Subword criterion; elements in different Omega-cosets are incomparable."""
    if base is None:
        base = base_alcove(a.rd)
    _, oma = reduced_word(a, base)
    _, omb = reduced_word(b, base)
    if oma.key() != omb.key():
        return False
    return a.key() in _closures.get(b, base)


def admissible_set(
    rd: RootDatum, mu: Sequence[int], base: BaseAlcove | None = None,
    cap: int = 10**6,
) -> list[AffineWeylElement]:
    """Adm(mu): downward Bruhat closure of {v^{w mu} : w in W}.

    Returned in deterministic order: by (length, reduced word).
    """
    if base is None:
        base = base_alcove(rd)
    W = weyl_group(rd)
    found: dict = {}
    for w in W:
        target = translation_element(rd, w.apply(mu))
        word, _ = reduced_word(target, base)
        if len(W) * (1 << len(word)) > cap:
            raise CapExceeded("admissible set search space exceeds cap")
        for key in _closures.get(target, base):
            if key not in found:
                found[key] = AffineWeylElement(rd, *key)
    out = list(found.values())
    out.sort(key=lambda z: (length(z, base), reduced_word(z, base)[0], z.key()))
    return out


def h_mu(rd: RootDatum, mu: Sequence[int]) -> int:
    """The height of mu: max over roots a of <a, mu>."""
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
