"""Extended affine Weyl group combinatorics: length, words, Bruhat order, Adm.

Elements are pairs (nu, w): the affine transformation y -> w(y) - nu of the
apartment, i.e. the group element v^nu w.  The base alcove is the one whose
closure contains the region 0 < <a, y> < 1 for the lower-triangular positive
system, with vertices o, o-(1,0,...,0), o-(1,1,0,...,0), ...; its walls give
the simple affine reflections s~_1, ..., s~_n of each GL_n block.

Lengths are computed geometrically: l(w) is the number of affine root
hyperplanes <a, y> = k separating the base alcove from its image, counted in
integers by the Iwahori-Matsumoto formula from walls precomputed once per
base alcove.  A descent of z is read from one wall pairing: l(s~_i z) < l(z)
exactly when the wall of s~_i separates the base alcove from z(base), so one
image of the barycenter decides every simple reflection at once.  Reduced
words come from a greedy gallery walk, one least-index descent per step.
Bruhat intervals (so Bruhat order and Adm) are lower sets closed under the
reflections in the hyperplanes that separate an element's alcove from the
base alcove, one product per separating hyperplane.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .rootdata import CapExceeded, RootDatum, WeylElement

# (L, Y, walls): the base alcove's barycenter Y / L, off every affine wall, in
# integers Y over L = lcm(block sizes), and one (i, j, floor(<a, Y / L>)) per
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

    def act(self, y: Sequence) -> tuple:
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
    """The base alcove: its simple affine reflections s~_1, ..., s~_n, the
    Omega generators, the walls of length (see Walls) and, in simple_walls,
    the wall <e_i - e_j, y> = k fixed by each s~_i as (i, j, k), in the order
    of simple_affine_reflections."""
    rd: RootDatum
    simple_affine_reflections: tuple[AffineWeylElement, ...]
    omega_generators: tuple[AffineWeylElement, ...]
    walls: Walls
    simple_walls: tuple[tuple[int, int, int], ...]


def base_alcove(rd: RootDatum) -> BaseAlcove:
    """The base alcove for block GL-type data (vertices o, o-(1,0,..), ...)."""
    refl: list[AffineWeylElement] = []
    simple_walls: list[tuple[int, int, int]] = []
    denom = math.lcm(*rd.block_sizes)
    y = [0] * rd.dim
    off = 0
    for size in rd.block_sizes:
        for i in range(off, off + size - 1):
            refl.append(AffineWeylElement(rd, (0,) * rd.dim, rd.reflection((i, i + 1))))
            simple_walls.append((i, i + 1, 0))
        if size >= 2:
            # y -> s(y) - e_first + e_last fixes <e_first - e_last, y> = -1
            nu = [0] * rd.dim
            nu[off], nu[off + size - 1] = 1, -1
            refl.append(AffineWeylElement(rd, tuple(nu), rd.reflection((off, off + size - 1))))
            simple_walls.append((off, off + size - 1, -1))
        for k in range(size):
            y[off + k] = -(size - 1 - k) * (denom // size)  # -(size - 1 - k) / size
        off += size
    walls = (denom, tuple(y),
             tuple((i, j, (y[i] - y[j]) // denom) for i, j in rd.positive_roots))
    alc = BaseAlcove(rd, tuple(refl), (), walls, tuple(simple_walls))
    omegas = []
    off = 0
    for size in rd.block_sizes:
        nu = [0] * rd.dim
        nu[off] = 1
        _, om = reduced_word(translation_element(rd, nu), alc)
        omegas.append(om)
        off += size
    return BaseAlcove(rd, tuple(refl), tuple(omegas), walls, tuple(simple_walls))


def length(w: AffineWeylElement, base: BaseAlcove | None = None) -> int:
    """Number of affine hyperplanes separating the base alcove from w(base).

    Iwahori-Matsumoto count in integers: for each positive root a = e_i - e_j
    the walls <a, y> = k between the barycenter y0 and its image w(y0) =
    w y0 - nu number |floor(<a, w(y0)>) - floor(<a, y0>)|, because neither
    pairing is an integer (w permutes the walls and y0 lies on none).
    """
    if base is None:
        base = base_alcove(w.rd)
    return _length_at(w, w.finite.apply(base.walls[1]), base)


def _length_at(w: AffineWeylElement, wy: tuple[int, ...], base: BaseAlcove) -> int:
    """length(w), given wy = w.finite.apply(y0) in numerators over denom."""
    denom, _, walls = base.walls
    nu = w.translation
    return sum(abs((wy[i] - wy[j]) // denom - nu[i] + nu[j] - floor0)
               for i, j, floor0 in walls)


def _is_descent(z: AffineWeylElement, base: BaseAlcove,
                wy: tuple[int, ...] | None = None) -> Iterator[bool]:
    """Whether l(s~_i z) < l(z), for each s~_i in turn, from one image of y0:
    wy = z.finite.apply(y0), in numerators over denom, if not given.

    s~_i z < z exactly when the wall <e_i - e_j, y> = k of s~_i separates the
    base alcove from z(base), i.e. when k lies in (min, max] of floor0 and
    f1 = floor(<e_i - e_j, z(y0)>), the pairings that length counts between.
    """
    denom, y, _ = base.walls
    if wy is None:
        wy = z.finite.apply(y)
    nu = z.translation
    for i, j, k in base.simple_walls:
        floor0 = (y[i] - y[j]) // denom
        f1 = (wy[i] - wy[j]) // denom - nu[i] + nu[j]
        yield min(f1, floor0) < k <= max(f1, floor0)


def _descent(z: AffineWeylElement, lz: int, base: BaseAlcove,
             wy: tuple[int, ...] | None = None) -> tuple[int, AffineWeylElement]:
    """The least index i (1-based) with l(s~_i z) < l(z) = lz > 0, and s~_i z.

    Read from one wall pairing per simple reflection (_is_descent, with wy if
    given); the only product is s~_i z for the descent found.
    """
    for i, (s, down) in enumerate(zip(base.simple_affine_reflections,
                                      _is_descent(z, base, wy)), 1):
        if down:
            return i, s * z
    raise AssertionError("positive length but no descent; broken alcove data")


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
        i, z = _descent(z, lz, base)
        word.append(i)
        lz -= 1  # l(s z) = l(z) +- 1
    return word, z


# l * (elements found), l the length of the upper elements, bounds the products
# of _lower_closure, one per hyperplane separating each element's alcove from the
# base alcove; elements alone do not (GL2 (511, 0): 1,023 elements, 2.2 s in
# process).  On a 2-vCPU VM shared with other tenants, Adm of GL4 (4,2,1,0)
# (13 * 959) takes 0.07-0.08 s in process (0.13 s in a slow phase) and
# 0.24-0.42 s as an `adm` run, and of GL7 (1,1,0^5) (10 * 1,611) 0.13-0.15 s
# (0.23 s) and 0.32-0.54 s: 16384 admits both
MAX_BRUHAT_WORK = 16384

# (b.key(), base.walls) -> the interval below b, as {key: element}
_closures: dict = {}
# work counters, read and reset by stats(): _lower_closure calls, the elements
# they found and the reflection products they formed
_closure_calls = _found = _products = 0


def stats() -> dict[str, int]:
    """The work counters since the last call; resets them."""
    global _closure_calls, _found, _products
    out = {"lower_closure_calls": _closure_calls, "elements_found": _found,
           "reflection_products": _products}
    _closure_calls = _found = _products = 0
    return out


def _check_work(ell: int, size: int) -> None:
    if ell * size > MAX_BRUHAT_WORK:
        raise CapExceeded(f"Bruhat intervals are capped at length * elements <= {MAX_BRUHAT_WORK}")


def _lower_closure(tops: Sequence[AffineWeylElement], base: BaseAlcove,
                   ell: int) -> dict:
    """The union of the Bruhat intervals below tops, as {key: element}.

    The Bruhat order is generated by reflections (Bjorner-Brenti, Combinatorics
    of Coxeter Groups, 2.1): r z < z for the reflection r in a hyperplane
    <e_i - e_j, y> = k that separates the base alcove from z(base), and every
    element below z is reached by a chain of such steps.  Each element z is
    taken once and multiplied by the reflections in its l(z) separating
    hyperplanes, counted as in length: at most ell * |found| products for tops
    of length <= ell.  CapExceeded once that passes MAX_BRUHAT_WORK, checked as
    the set grows.
    """
    rd = base.rd
    denom, y, walls = base.walls
    found = {z.key(): z for z in tops}
    _check_work(ell, len(found))
    # the reflection in <a, y> = k is y -> s_a(y) + k a, i.e. v^{-k a} s_a; the
    # walls follow rd.positive_roots
    finite = [rd.reflection(a) for a in rd.positive_roots]
    refl: dict[tuple[int, int], AffineWeylElement] = {}  # (wall, k) -> reflection
    todo = list(found.values())
    products = 0
    while todo:
        z = todo.pop()
        wy = z.finite.apply(y)
        nu = z.translation
        for m, (i, j, floor0) in enumerate(walls):
            f1 = (wy[i] - wy[j]) // denom - nu[i] + nu[j]
            products += abs(f1 - floor0)
            for k in range(min(f1, floor0) + 1, max(f1, floor0) + 1):
                r = refl.get((m, k))
                if r is None:
                    t = [0] * rd.dim
                    t[i], t[j] = -k, k
                    r = refl[m, k] = AffineWeylElement(rd, tuple(t), finite[m])
                x = r * z
                if x.key() not in found:
                    found[x.key()] = x
                    todo.append(x)
                    _check_work(ell, len(found))
    global _closure_calls, _found, _products
    _closure_calls += 1
    _found += len(found)
    _products += products
    return found


def _interval(b: AffineWeylElement, base: BaseAlcove) -> dict:
    """The Bruhat interval below b as {key: element}: _lower_closure of b, cached."""
    k = (b.key(), base.walls)
    if k not in _closures:
        _closures[k] = _lower_closure([b], base, length(b, base))
    return _closures[k]


def bruhat_leq(a: AffineWeylElement, b: AffineWeylElement,
               base: BaseAlcove | None = None) -> bool:
    """a <= b by membership in the interval below b (CapExceeded past MAX_BRUHAT_WORK).

    The interval is the closure of b under length-lowering affine reflections,
    which lie in the affine Weyl group, so every element of it lies in b's
    Omega-coset: membership alone decides incomparability too.
    """
    if base is None:
        base = base_alcove(a.rd)
    return a.key() in _interval(b, base)


def _orbit(rd: RootDatum, mu: tuple[int, ...], ell: int) -> list[tuple[int, ...]]:
    """The orbit W mu, by a walk over the simple reflections: |W mu| steps, not |W|.

    Every v^{w mu} lies in Adm(mu) and has length ell, so the walk stops with
    CapExceeded as soon as ell * |orbit| alone passes MAX_BRUHAT_WORK.
    """
    gens = [rd.reflection(a) for a in rd.simple_roots]
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

    One _lower_closure from all the v^{w mu} at once.  (element, reduced word,
    Omega part) triples by (length, reduced word): in order of length, each
    element's word is its first descent i, as in reduced_word, followed by the
    word already found for s~_i z, so it equals reduced_word(z).  CapExceeded
    once length * |Adm(mu)| passes MAX_BRUHAT_WORK, checked as the set grows.
    """
    if len(mu) != rd.dim:
        raise ValueError(f"mu has {len(mu)} entries, the group needs {rd.dim}")
    if not rd.in_cochar_lattice(mu):
        raise ValueError(f"mu={tuple(mu)} is not in the cocharacter lattice of {rd.label}")
    if base is None:
        base = base_alcove(rd)
    ell = length(translation_element(rd, mu), base)
    tops = [translation_element(rd, nu) for nu in _orbit(rd, tuple(mu), ell)]
    found = _lower_closure(tops, base, ell)
    # word(z) = (i,) + word(s~_i z) for z's first descent i, in order of
    # length; one image of the barycenter per z gives both
    ranked = []
    for z in found.values():
        wy = z.finite.apply(base.walls[1])
        ranked.append((_length_at(z, wy, base), z, wy))
    ranked.sort(key=lambda t: t[0])
    words: dict = {}
    out = []
    for lz, z, wy in ranked:
        if lz == 0:
            word, om = (), z
        else:
            i, below = _descent(z, lz, base, wy)
            word, om = words[below.key()]
            word = (i,) + word
        words[z.key()] = word, om
        out.append((z, list(word), om))
    out.sort(key=lambda t: (len(t[1]), t[1], t[0].key()))
    return out


def h_mu(rd: RootDatum, mu: Sequence[int]) -> int:
    """The height of mu: max over roots a of <a, mu>, i.e. of |mu_i - mu_j|."""
    if len(mu) != rd.dim:
        raise ValueError(f"mu has {len(mu)} entries, the group needs {rd.dim}")
    return max((abs(mu[i] - mu[j]) for i, j in rd.positive_roots), default=0)


def elements_of_length_at_most(rd: RootDatum, bound: int,
                               base: BaseAlcove | None = None) -> list[AffineWeylElement]:
    """All affine-Weyl-group elements (trivial Omega part) of length <= bound.

    Breadth first from the identity, level by level.  Each element is
    multiplied only by its ascents: a descent s~_i z lies one level down,
    already seen.
    """
    if base is None:
        base = base_alcove(rd)
    ident = affine_identity(rd)
    seen = {ident.key(): ident}
    frontier = [ident]
    for _ in range(bound):
        new = []
        for z in frontier:
            for s, down in zip(base.simple_affine_reflections, _is_descent(z, base)):
                if down:
                    continue
                x = s * z
                if x.key() not in seen:
                    seen[x.key()] = x
                    new.append(x)
        frontier = new
    return list(seen.values())
