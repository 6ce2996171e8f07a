"""Based root data for GL/SL/PGL and products, Weyl groups, and Galois actions.

Coordinates: every datum lives in an ambient Z^dim (one block of size n per
GL_n-type factor).  Every datum is of type A, so a root is an index pair
(i, j) inside one block, standing for e_i - e_j; it is its own coroot, and it
pairs with an ambient vector v as <e_i - e_j, v> = v_i - v_j.  The
cocharacter lattice is stored as an explicit basis of ambient vectors, each
held as integer numerators over one common denominator `den` (the lcm of the
PGL block sizes, 1 without a PGL block):

  * GL_n: the full Z^n,
  * SL_n: the sum-zero sublattice,
  * PGL_n: the projection of Z^n to the sum-zero hyperplane (coweights).

Weyl elements act on the ambient space as signed permutations, which keeps one
representation for permutation actions and for pinned automorphisms such as
the unitary-group involution (a,b,c) -> (-c,-b,-a).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, permutations, product
from math import factorial, gcd, lcm, prod
import re
from typing import Sequence

from .ff import _prime_factors
from .lattices import (
    kernel_basis,
    mat_mul,
    identity_matrix,
    quotient_invariants,
    solve_in_lattice,
)


class UnsupportedLabel(ValueError):
    pass


class CapExceeded(RuntimeError):
    pass


class RefusedError(RuntimeError):
    """A mathematically stated precondition is not met; distinct from internal errors."""


def check_prime(p: int) -> None:
    """Raise ValueError unless p is prime: Miller-Rabin with the primes up to
    41 as bases, which decides every p < 3.3 * 10^24 (CapExceeded above)."""
    if p >= 3317044064679887385961981:
        raise CapExceeded("primality is only decided below 3.3 * 10^24")
    if p < 2:
        raise ValueError(f"p={p} is not prime")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if b < p and pow(b, d, p) != 1 and all(pow(b, d << i, p) != p - 1 for i in range(s)):
            raise ValueError(f"p={p} is not prime")


@dataclass(frozen=True, slots=True, init=False)
class WeylElement:
    """A signed permutation of the ambient cocharacter coordinates.

    Row form: (w v)_i = signs[i] * v[cols[i]], so the matrix of w has the
    single nonzero entry signs[i] in row i, column cols[i].  Elements compare
    and sort exactly as their matrices do.  The constructor takes the matrix
    and refuses anything that is not a signed permutation.
    """

    cols: tuple[int, ...]
    signs: tuple[int, ...]

    def __init__(self, matrix: Sequence[Sequence[int]]):
        n = len(matrix)
        cols = []
        signs = []
        for row in matrix:
            nz = [(j, x) for j, x in enumerate(row) if x != 0]
            if len(row) != n or len(nz) != 1 or nz[0][1] not in (1, -1):
                raise ValueError(f"{matrix} is not a signed permutation matrix")
            cols.append(nz[0][0])
            signs.append(int(nz[0][1]))
        if len(set(cols)) != n:
            raise ValueError(f"{matrix} is not a signed permutation matrix")
        object.__setattr__(self, "cols", tuple(cols))
        object.__setattr__(self, "signs", tuple(signs))

    @staticmethod
    def _make(cols: tuple[int, ...], signs: tuple[int, ...]) -> "WeylElement":
        w = object.__new__(WeylElement)
        object.__setattr__(w, "cols", cols)
        object.__setattr__(w, "signs", signs)
        return w

    @staticmethod
    def identity(n: int) -> "WeylElement":
        return WeylElement._make(tuple(range(n)), (1,) * n)

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        n = len(self.cols)
        return tuple(tuple(s if j == c else 0 for j in range(n))
                     for c, s in zip(self.cols, self.signs))

    def perm(self) -> tuple[int, ...]:
        """One-line form: w(e_j) = e_{perm[j]}; refused if w carries a sign."""
        if -1 in self.signs:
            raise RefusedError(f"{self} is not a coordinate permutation")
        out = [0] * len(self.cols)
        for i, c in enumerate(self.cols):
            out[c] = i
        return tuple(out)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        oc, os_ = other.cols, other.signs
        return WeylElement._make(tuple(oc[c] for c in self.cols),
                                 tuple(s * os_[c] for c, s in zip(self.cols, self.signs)))

    def inv(self) -> "WeylElement":
        n = len(self.cols)
        cols = [0] * n
        signs = [0] * n
        for i, (c, s) in enumerate(zip(self.cols, self.signs)):
            cols[c] = i
            signs[c] = s
        return WeylElement._make(tuple(cols), tuple(signs))

    def apply(self, v: Sequence) -> tuple:
        if len(v) != len(self.cols):
            raise ValueError(f"vector of length {len(v)} in dimension {len(self.cols)}")
        return tuple(v[c] if s == 1 else -v[c] for c, s in zip(self.cols, self.signs))

    def is_identity(self) -> bool:
        return self.cols == tuple(range(len(self.cols))) and -1 not in self.signs

    def __lt__(self, other: "WeylElement") -> bool:
        # row i of the matrix orders as signs[i] * (n - cols[i])
        n = len(self.cols)
        return (tuple(s * (n - c) for c, s in zip(self.cols, self.signs))
                < tuple(s * (n - c) for c, s in zip(other.cols, other.signs)))

    def __repr__(self) -> str:
        return f"WeylElement({self.matrix})"


@dataclass(frozen=True)
class RootDatum:
    """GL/SL/PGL blocks of the given sizes; all but the cocharacter basis
    follows from the sizes.  Roots are index pairs, as in the module docstring.
    The basis vectors are cochar_basis[k][i] / den."""

    label: str
    cochar_basis: tuple[tuple[int, ...], ...]
    den: int
    block_sizes: tuple[int, ...]

    @cached_property
    def dim(self) -> int:
        return sum(self.block_sizes)

    @cached_property
    def rank(self) -> int:
        return len(self.cochar_basis)

    @cached_property
    def block_kinds(self) -> tuple[str, ...]:
        """"GL", "SL" or "PGL" for each block, read from the label."""
        if not self.block_sizes:
            return ()
        return tuple(_LABEL_RE.match(part).group(1) for part in self.label.split("x"))

    @cached_property
    def positive_roots(self) -> tuple[tuple[int, int], ...]:
        """The pairs i < j inside each block, block by block, lexicographically."""
        out, off = [], 0
        for n in self.block_sizes:
            out += [(i, j) for i in range(off, off + n) for j in range(i + 1, off + n)]
            off += n
        return tuple(out)

    @cached_property
    def simple_roots(self) -> tuple[tuple[int, int], ...]:
        """The pairs (k, k + 1) inside each block, block by block."""
        return tuple((i, j) for i, j in self.positive_roots if j == i + 1)

    def reflection(self, root: tuple[int, int]) -> WeylElement:
        """s_a for a = e_i - e_j: the transposition of coordinates i and j."""
        i, j = root
        cols = list(range(self.dim))
        cols[i], cols[j] = j, i
        return WeylElement._make(tuple(cols), (1,) * self.dim)

    def _solve(self, v: Sequence) -> list[int] | None:
        """Basis coordinates of v (ints or Fractions), or None off the lattice."""
        scaled = [c * self.den for c in v]
        if any(x.denominator != 1 for x in scaled):
            return None
        return solve_in_lattice(self.cochar_basis, [x.numerator for x in scaled])

    def basis_coords(self, v: Sequence) -> tuple[int, ...]:
        """Coordinates of a cocharacter-lattice vector in the stored basis."""
        coeffs = self._solve(v)
        if coeffs is None:
            raise ValueError(f"{v} is not in the cocharacter lattice of {self.label}")
        return tuple(coeffs)

    def in_cochar_lattice(self, v: Sequence) -> bool:
        return self._solve(v) is not None


_LABEL_RE = re.compile(r"^(GL|SL|PGL)(\d+)$")


def _block_basis(kind: str, n: int, den: int) -> list[tuple[int, ...]]:
    """One GL_n, SL_n or PGL_n block's cocharacter basis times den (n | den for PGL)."""
    if kind == "GL":
        return [tuple(den * (i == j) for j in range(n)) for i in range(n)]
    if kind == "SL":
        return [tuple(den * ((j == i) - (j == i + 1)) for j in range(n))
                for i in range(n - 1)]
    return [tuple(den * (j == i) - den // n for j in range(n)) for i in range(n - 1)]


def build_root_datum(label: str) -> RootDatum:
    """Standard based root datum for "GLn", "SLn", "PGLn" or "AxB" products."""
    label = label.strip()
    if label.lower() in ("trivial", "t0"):
        return RootDatum("trivial", (), 1, ())
    blocks = []
    for part in label.split("x"):
        m = _LABEL_RE.match(part.strip())
        if not m:
            raise UnsupportedLabel(f"cannot parse group label {part!r}")
        kind, n = m.group(1), int(m.group(2))
        if n < 2 and not (kind == "GL" and n == 1):
            raise UnsupportedLabel(f"{kind}{n}: need n >= 2 (or GL1)")
        blocks.append((kind, n))
    dim = sum(n for _, n in blocks)
    den = lcm(*(n for kind, n in blocks if kind == "PGL"))
    basis, off = [], 0
    for kind, n in blocks:
        basis += [(0,) * off + b + (0,) * (dim - off - n) for b in _block_basis(kind, n, den)]
        off += n
    return RootDatum("x".join(f"{kind}{n}" for kind, n in blocks), tuple(basis), den,
                     tuple(n for _, n in blocks))


_WEYL_CACHE: dict = {}


def weyl_group(rd: RootDatum) -> list[WeylElement]:
    """W, the permutations inside each block, identity first: by length (the
    number of inversions), then by matrix order.  CapExceeded, before any
    element is built, when |W| = prod n_i! exceeds 10^6."""
    if rd not in _WEYL_CACHE:
        if prod(map(factorial, rd.block_sizes)) > 10**6:
            raise CapExceeded(f"the Weyl group of {rd.label} has more than 10^6 elements")
        blocks = [permutations(range(s, s + n))
                  for s, n in zip(accumulate(rd.block_sizes, initial=0), rd.block_sizes)]
        ws = [WeylElement._make(sum(parts, ()), (1,) * rd.dim) for parts in product(*blocks)]
        _WEYL_CACHE[rd] = sorted(ws, key=lambda w: (
            sum(a > b for i, a in enumerate(w.cols) for b in w.cols[i + 1:]), w))
    return _WEYL_CACHE[rd]


def _order(w: WeylElement) -> int:
    """The least k >= 1 with w^k = 1; a signed permutation has finite order."""
    x, k = w, 1
    while not x.is_identity():
        x, k = x * w, k + 1
    return k


@dataclass(frozen=True)
class GammaData:
    """Arithmetic of the tame Galois group {gamma, sigma : gamma^e=1, sigma^r=1}.

    `psi` is the pinned lattice automorphism attached to sigma (order dividing
    r); `inertial` is the lattice action of a generator of inertia (identity
    in the split case, order dividing e).  The index set J is {0,...,r-1} and
    sigma shifts it by +1, so Frobenius reads slot j-1 into slot j.
    """

    p: int
    e: int
    r: int
    psi: WeylElement
    inertial: WeylElement

    def __post_init__(self):
        check_prime(self.p)
        if self.r < 1:
            raise ValueError(f"need r >= 1, got r={self.r}")
        if self.e % self.p == 0:
            raise ValueError("tameness requires p not dividing e")
        if pow(self.p, self.r, self.e) != 1 % self.e:
            raise ValueError(f"e={self.e} must divide p^r - 1 for r={self.r}")
        if self.r % _order(self.psi):
            raise ValueError("psi must have order dividing r")
        if self.e % _order(self.inertial):
            raise ValueError("the inertial action must have order dividing e")

    @cached_property  # kept in the instance __dict__; no field, so ==, hash and repr ignore it
    def q(self) -> int:
        return self.p**self.r

    def split(self) -> bool:
        return self.inertial.is_identity()

    def psi_orbit(self, v: Sequence) -> tuple[tuple, ...]:
        """(psi^j v) for j = 0, ..., k-1, with k least such that psi^k v = v.

        This is one period of the slot family (psi^j v)_j: k divides the order
        of psi, which divides r.
        """
        orbit = [tuple(v)]
        while (w := self.psi.apply(orbit[-1])) != orbit[0]:
            orbit.append(w)
        return tuple(orbit)


def split_gamma(rd: RootDatum, p: int, e: int) -> GammaData:
    """GammaData with trivial inertial action and r = ord_e(p).

    r divides phi(e): each prime l of phi(e) is stripped from r while
    p^(r/l) = 1 mod e.  e and phi(e) are factored by trial division, so an e
    above 10^12 is refused.
    """
    if e < 1 or gcd(p, e) != 1:
        raise ValueError(f"ord_e(p) needs e >= 1 and gcd(p, e) = 1, got p={p}, e={e}")
    if e > 10**12:
        raise CapExceeded(f"ord_e(p) is computed for e <= 10^12 only, got e={e}")
    r = e
    for l in _prime_factors(e):
        r = r // l * (l - 1)
    for l in _prime_factors(r):
        while r % l == 0 and pow(p, r // l, e) == 1 % e:
            r //= l
    ident = WeylElement.identity(rd.dim)
    return GammaData(p=p, e=e, r=r, psi=ident, inertial=ident)


def _coroot_coord_rows(rd: RootDatum) -> list[list[int]]:
    """Basis coordinates of e_i - e_j for the positive roots (i, j): they span
    the coroot lattice."""
    rows = []
    for i, j in rd.positive_roots:
        v = [0] * rd.dim
        v[i], v[j] = 1, -1
        rows.append(list(rd.basis_coords(v)))
    return rows


def pi1(rd: RootDatum) -> tuple[int, list[int]]:
    """pi_1 = X_*(T) / (coroot lattice) as (free rank, invariant factors)."""
    if rd.dim == 0:
        return 0, []
    return quotient_invariants(rd.rank, _coroot_coord_rows(rd))


def _action_in_basis(rd: RootDatum, w: WeylElement) -> list[list[int]]:
    # w(b) for a row b of numerators is the row of numerators of w(b / den)
    cols = [solve_in_lattice(rd.cochar_basis, w.apply(b)) for b in rd.cochar_basis]
    return [[cols[j][i] for j in range(rd.rank)] for i in range(rd.rank)]


def pi1_coinvariants(rd: RootDatum, g: GammaData) -> tuple[tuple[int, list[int]], bool]:
    """Inertial coinvariants of pi_1, plus a torsion-free flag."""
    if rd.dim == 0:
        return (0, []), True
    theta = _action_in_basis(rd, g.inertial)
    rows = _coroot_coord_rows(rd)
    for i in range(rd.rank):
        # (theta - 1) applied to basis vector i, in basis coords
        rows.append([theta[k][i] - (1 if k == i else 0) for k in range(rd.rank)])
    free, torsion = quotient_invariants(rd.rank, rows)
    return (free, torsion), not torsion


def fixed_sublattice_u(rd: RootDatum, g: GammaData) -> list[list[int]]:
    """Basis (basis coords) of the inertia-fixed sublattice X_*^I."""
    theta = _action_in_basis(rd, g.inertial)
    n = rd.rank
    delta = [[theta[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    return kernel_basis(delta)


def norm_image(rd: RootDatum, g: GammaData) -> list[list[int]]:
    """Generators (basis coords) of the image of the inertia norm map.

    N = sum_{i<e} theta^i for the inertial action theta.  Its order o on the
    lattice divides its order on the ambient space, which GammaData makes
    divide e, so N = (e / o) * sum_{i<o} theta^i: o powers, not e.
    """
    theta = _action_in_basis(rd, g.inertial)
    n = rd.rank
    ident = identity_matrix(n)
    powers = [ident]
    while (nxt := mat_mul(theta, powers[-1])) != ident:
        powers.append(nxt)
    q = g.e // len(powers)
    # columns of the sum are N(basis vectors)
    return [[q * sum(m[i][j] for m in powers) for i in range(n)] for j in range(n)]


def tate_h0(rd: RootDatum, g: GammaData) -> list[int]:
    """Invariant factors of H^0_Tate(I, X_*) = X_*^I / N(X_*).

    Equals (Z/e)^rank when the inertial action is trivial.
    """
    if rd.dim == 0:
        return []
    fixed = fixed_sublattice_u(rd, g)
    norms = norm_image(rd, g)
    # express norm generators in the fixed-lattice basis
    rows = []
    for nv in norms:
        coeffs = solve_in_lattice(fixed, nv)
        if coeffs is None:
            raise AssertionError("norm image not contained in fixed sublattice")
        rows.append(coeffs)
    free, torsion = quotient_invariants(len(fixed), rows)
    if free:
        raise AssertionError("Tate H^0 should be finite")
    return torsion
