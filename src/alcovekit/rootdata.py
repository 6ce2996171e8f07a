"""Based root data for GL/SL/PGL and products, Weyl groups, and Galois actions.

Coordinates: every datum lives in an ambient Z^dim (one block of size n per
GL_n-type factor).  Roots are functionals via the dot product, coroots are
ambient vectors, and the cocharacter lattice is stored as an explicit basis
of (possibly fractional) ambient vectors:

  * GL_n: the full Z^n,
  * SL_n: the sum-zero sublattice,
  * PGL_n: the projection of Z^n to the sum-zero hyperplane (coweights).

Weyl elements act on the ambient space as signed permutations, which keeps one
representation for permutation actions and for pinned automorphisms such as
the unitary-group involution (a,b,c) -> (-c,-b,-a).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
import re
from typing import Sequence

from .lattices import (
    in_lattice,
    kernel_basis,
    mat_mul,
    identity_matrix,
    quotient_invariants,
    solve_in_lattice,
)

Vec = tuple[int, ...]


class UnsupportedLabel(ValueError):
    pass


class CapExceeded(RuntimeError):
    pass


class RefusedError(RuntimeError):
    """A mathematically stated precondition is not met; distinct from internal errors."""


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
    label: str
    dim: int
    rank: int
    roots: tuple[Vec, ...]
    coroots: tuple[Vec, ...]
    simple_indices: tuple[int, ...]
    cochar_basis: tuple[tuple[Fraction, ...], ...]
    block_sizes: tuple[int, ...]

    def pairing(self, root: Sequence, v: Sequence) -> Fraction:
        return sum(Fraction(a) * Fraction(b) for a, b in zip(root, v))

    @property
    def simple_roots(self) -> tuple[Vec, ...]:
        return tuple(self.roots[i] for i in self.simple_indices)

    @property
    def simple_coroots(self) -> tuple[Vec, ...]:
        return tuple(self.coroots[i] for i in self.simple_indices)

    def positive_roots(self) -> tuple[Vec, ...]:
        # positive = expressible with nonnegative simple-root coefficients;
        # for the block GL-coordinates this is just e_i - e_j with i < j.
        pos = []
        for a in self.roots:
            first = next(k for k, x in enumerate(a) if x != 0)
            if a[first] > 0:
                pos.append(a)
        return tuple(pos)

    def reflection(self, root_index: int) -> WeylElement:
        a = self.roots[root_index]
        av = self.coroots[root_index]
        n = self.dim
        m = tuple(
            tuple((1 if i == j else 0) - av[i] * a[j] for j in range(n)) for i in range(n)
        )
        return WeylElement(m)

    def basis_coords(self, v: Sequence) -> tuple[int, ...]:
        """Coordinates of a cocharacter-lattice vector in the stored basis."""
        coeffs = solve_in_lattice(self.cochar_basis, v)
        if coeffs is None:
            raise ValueError(f"{v} is not in the cocharacter lattice of {self.label}")
        return tuple(coeffs)

    def from_basis_coords(self, coords: Sequence[int]) -> tuple[Fraction, ...]:
        n = self.dim
        out = [Fraction(0)] * n
        for c, b in zip(coords, self.cochar_basis):
            for i in range(n):
                out[i] += c * b[i]
        return tuple(out)

    def in_cochar_lattice(self, v: Sequence) -> bool:
        return in_lattice(self.cochar_basis, v)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "label": self.label,
            "dim": self.dim,
            "rank": self.rank,
            "roots": [list(r) for r in self.roots],
            "coroots": [list(r) for r in self.coroots],
            "simple_indices": list(self.simple_indices),
            "block_sizes": list(self.block_sizes),
        }

    @staticmethod
    def from_json(data: dict) -> "RootDatum":
        rd = build_root_datum(data["label"])
        if rd.to_json() != data:
            raise ValueError("serialized datum does not match its label")
        return rd


_LABEL_RE = re.compile(r"^(GL|SL|PGL)(\d+)$")


def _single_datum(kind: str, n: int) -> RootDatum:
    if n < 2 and not (kind == "GL" and n == 1):
        raise UnsupportedLabel(f"{kind}{n}: need n >= 2 (or GL1)")
    roots = []
    coroots = []
    for i in range(n):
        for j in range(n):
            if i != j:
                a = [0] * n
                a[i], a[j] = 1, -1
                roots.append(tuple(a))
                coroots.append(tuple(a))
    simple = []
    for i in range(n - 1):
        a = [0] * n
        a[i], a[i + 1] = 1, -1
        simple.append(roots.index(tuple(a)))
    if kind == "GL":
        basis = tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))
        rank = n
    elif kind == "SL":
        basis = tuple(
            tuple(Fraction(1 if j == i else (-1 if j == i + 1 else 0)) for j in range(n))
            for i in range(n - 1)
        )
        rank = n - 1
    else:  # PGL: coweight lattice inside the sum-zero hyperplane
        basis = tuple(
            tuple(Fraction(1 if j == i else 0) - Fraction(1, n) for j in range(n))
            for i in range(n - 1)
        )
        rank = n - 1
    return RootDatum(
        label=f"{kind}{n}",
        dim=n,
        rank=rank,
        roots=tuple(roots),
        coroots=tuple(coroots),
        simple_indices=tuple(simple),
        cochar_basis=basis,
        block_sizes=(n,),
    )


def _product(data: Sequence[RootDatum]) -> RootDatum:
    dim = sum(d.dim for d in data)
    roots = []
    coroots = []
    simple = []
    basis = []
    off = 0
    for d in data:
        for a in d.roots:
            roots.append(tuple([0] * off + list(a) + [0] * (dim - off - d.dim)))
        for a in d.coroots:
            coroots.append(tuple([0] * off + list(a) + [0] * (dim - off - d.dim)))
        off += d.dim
    off = 0
    count = 0
    for d in data:
        for i in d.simple_indices:
            simple.append(count + i)
        count += len(d.roots)
        for b in d.cochar_basis:
            basis.append(tuple([Fraction(0)] * off + list(b) + [Fraction(0)] * (dim - off - d.dim)))
        off += d.dim
    return RootDatum(
        label="x".join(d.label for d in data),
        dim=dim,
        rank=sum(d.rank for d in data),
        roots=tuple(roots),
        coroots=tuple(coroots),
        simple_indices=tuple(simple),
        cochar_basis=tuple(basis),
        block_sizes=tuple(s for d in data for s in d.block_sizes),
    )


def build_root_datum(label: str) -> RootDatum:
    """Standard based root datum for "GLn", "SLn", "PGLn" or "AxB" products."""
    label = label.strip()
    if label.lower() in ("trivial", "t0"):
        return RootDatum("trivial", 0, 0, (), (), (), (), ())
    parts = label.split("x")
    data = []
    for part in parts:
        m = _LABEL_RE.match(part.strip())
        if not m:
            raise UnsupportedLabel(f"cannot parse group label {part!r}")
        data.append(_single_datum(m.group(1), int(m.group(2))))
    if len(data) == 1:
        return data[0]
    return _product(data)


_WEYL_CACHE: dict = {}


def weyl_group(rd: RootDatum, cap: int = 10**6) -> list[WeylElement]:
    """Full Weyl group, closed under composition, identity first.

    BFS over products of simple reflections; deterministic ordering.
    """
    cached = _WEYL_CACHE.get(rd)
    if cached is not None:
        if len(cached) > cap:
            raise CapExceeded(f"Weyl group larger than cap {cap}")
        return cached
    gens = [rd.reflection(i) for i in rd.simple_indices]
    ident = WeylElement.identity(rd.dim)
    seen = {ident}
    order: list[WeylElement] = [ident]
    frontier = [ident]
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                x = g * w
                if x not in seen:
                    seen.add(x)
                    new.append(x)
                    if len(seen) > cap:
                        raise CapExceeded(f"Weyl group larger than cap {cap}")
        new.sort()
        order.extend(new)
        frontier = new
    _WEYL_CACHE[rd] = order
    return order


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
    validate: bool = True

    def __post_init__(self):
        if not self.validate:
            return
        q = self.p**self.r
        if self.e % self.p == 0:
            raise ValueError("tameness requires p not dividing e")
        if (q - 1) % self.e != 0:
            raise ValueError(f"e={self.e} must divide q-1={q - 1}")
        w = self.psi
        for _ in range(self.r):
            if w.is_identity():
                break
            w = w * self.psi
        else:
            if not self.psi.is_identity():
                raise ValueError("psi must have order dividing r")

    @property
    def q(self) -> int:
        return self.p**self.r

    def split(self) -> bool:
        return self.inertial.is_identity()

    def psi_power(self, k: int) -> WeylElement:
        k %= self.r if self.r else 1
        w = WeylElement.identity(len(self.psi.cols))
        for _ in range(k):
            w = self.psi * w
        return w


def split_gamma(rd: RootDatum, p: int, e: int, r: int | None = None,
                psi: WeylElement | None = None) -> GammaData:
    """GammaData with trivial inertial action; r defaults to ord_e(p)."""
    if r is None:
        if e < 1 or gcd(p, e) != 1:
            raise ValueError(f"ord_e(p) needs e >= 1 and gcd(p, e) = 1, got p={p}, e={e}")
        r = 1
        acc = p % e if e > 1 else 0
        while e > 1 and acc != 1 % e:
            acc = (acc * p) % e
            r += 1
    ident = WeylElement.identity(rd.dim)
    return GammaData(p=p, e=e, r=r, psi=psi if psi is not None else ident, inertial=ident)


def _coroot_coord_rows(rd: RootDatum) -> list[list[int]]:
    return [list(rd.basis_coords(cv)) for cv in rd.coroots]


def pi1(rd: RootDatum) -> tuple[int, list[int]]:
    """pi_1 = X_*(T) / (coroot lattice) as (free rank, invariant factors)."""
    if rd.dim == 0:
        return 0, []
    return quotient_invariants(rd.rank, _coroot_coord_rows(rd))


def _action_in_basis(rd: RootDatum, w: WeylElement) -> list[list[int]]:
    cols = [rd.basis_coords(w.apply(b)) for b in rd.cochar_basis]
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
    """Generators (basis coords) of the image of the inertia norm map."""
    theta = _action_in_basis(rd, g.inertial)
    n = rd.rank
    acc = identity_matrix(n)
    total = [[0] * n for _ in range(n)]
    for _ in range(g.e):
        for i in range(n):
            for j in range(n):
                total[i][j] += acc[i][j]
        acc = mat_mul(theta, acc)
    # columns of `total` are N(basis vectors)
    return [[total[i][j] for i in range(n)] for j in range(n)]


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


def dominance_leq(rd: RootDatum, nu: Sequence[int], mu: Sequence[int]) -> bool:
    """nu <= mu in dominance order: mu - nu is a nonnegative sum of positive coroots."""
    diff = [m - n for m, n in zip(mu, nu)]
    off = 0
    for size in rd.block_sizes:
        block = diff[off:off + size]
        if sum(block) != 0:
            return False
        acc = 0
        for x in block[:-1]:
            acc += x
            if acc < 0:
                return False
        off += size
    return True
