"""Monomial (generalized permutation) matrices with omega-power coefficients.

Entries have the shape omega^k * u^m, where omega is a fixed generator of the
multiplicative group of the coefficient field and exponents k live modulo its
order.  Every cocycle computation in this package stays inside this class;
nothing here ever touches a general field element.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .rootdata import WeylElement


@dataclass(frozen=True)
class MonomialMatrix:
    """rows[i] = (column, coef_exponent, u_power); exponents modulo `mod`."""

    n: int
    mod: int  # order of the coefficient group, e.g. q - 1
    cols: tuple[int, ...]
    exps: tuple[int, ...]
    upows: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.cols) != list(range(self.n)):
            raise ValueError(f"cols {self.cols} are not a permutation of range({self.n})")

    @staticmethod
    def identity(n: int, mod: int) -> "MonomialMatrix":
        return MonomialMatrix(n, mod, tuple(range(n)), (0,) * n, (0,) * n)

    @staticmethod
    def diag_upow(lam: Sequence[int], mod: int) -> "MonomialMatrix":
        n = len(lam)
        return MonomialMatrix(n, mod, tuple(range(n)), (0,) * n, tuple(lam))

    @staticmethod
    def from_signed_matrix(mat: Sequence[Sequence[int]], mod: int) -> "MonomialMatrix":
        """Lift a matrix with entries in {0, 1, -1}; -1 becomes omega^(mod/2)."""
        return MonomialMatrix.from_weyl(WeylElement(mat), mod)

    @staticmethod
    def from_weyl(w: WeylElement, mod: int) -> "MonomialMatrix":
        """Lift a signed permutation; the sign -1 becomes omega^(mod/2)."""
        n = len(w.cols)
        if -1 in w.signs and mod % 2 != 0:
            raise ValueError("sign -1 needs an even coefficient-group order")
        exps = tuple(0 if s == 1 else mod // 2 for s in w.signs)
        return MonomialMatrix(n, mod, w.cols, exps, (0,) * n)

    def __mul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        if self.n != other.n or self.mod != other.mod:
            raise ValueError("product of monomial matrices of different size or modulus")
        cols = []
        exps = []
        upows = []
        for i in range(self.n):
            k = self.cols[i]
            cols.append(other.cols[k])
            exps.append((self.exps[i] + other.exps[k]) % self.mod)
            upows.append(self.upows[i] + other.upows[k])
        return MonomialMatrix(self.n, self.mod, tuple(cols), tuple(exps), tuple(upows))

    def inv(self) -> "MonomialMatrix":
        cols = [0] * self.n
        exps = [0] * self.n
        upows = [0] * self.n
        for i in range(self.n):
            j = self.cols[i]
            cols[j] = i
            exps[j] = (-self.exps[i]) % self.mod
            upows[j] = -self.upows[i]
        return MonomialMatrix(self.n, self.mod, tuple(cols), tuple(exps), tuple(upows))

    def coef_frobenius(self, p: int) -> "MonomialMatrix":
        return MonomialMatrix(
            self.n, self.mod, self.cols,
            tuple((e * p) % self.mod for e in self.exps), self.upows,
        )

    def conjugate_by_permutation(self, perm: Sequence[int]) -> "MonomialMatrix":
        """P M P^{-1} for the permutation matrix P: e_j -> e_{perm[j]}."""
        inv = [0] * self.n
        for j, pj in enumerate(perm):
            inv[pj] = j
        cols = [0] * self.n
        exps = [0] * self.n
        upows = [0] * self.n
        for i in range(self.n):
            src = inv[i]
            cols[i] = perm[self.cols[src]]
            exps[i] = self.exps[src]
            upows[i] = self.upows[src]
        return MonomialMatrix(self.n, self.mod, tuple(cols), tuple(exps), tuple(upows))

    def is_identity(self) -> bool:
        return (
            self.cols == tuple(range(self.n))
            and all(e == 0 for e in self.exps)
            and all(m == 0 for m in self.upows)
        )

    def is_constant(self) -> bool:
        return all(m == 0 for m in self.upows)

    def order(self, cap: int = 10**6) -> int:
        acc = self
        for k in range(1, cap + 1):
            if acc.is_identity():
                return k
            acc = acc * self
        raise RuntimeError("order exceeds cap")

    def rescale_mod(self, new_mod: int) -> "MonomialMatrix":
        """Push exponents into a larger coefficient group of order new_mod."""
        if new_mod % self.mod != 0:
            raise ValueError(f"{new_mod} is not a multiple of the modulus {self.mod}")
        f = new_mod // self.mod
        return MonomialMatrix(
            self.n, new_mod, self.cols, tuple(e * f for e in self.exps), self.upows
        )

    def entries(self) -> list[list[tuple[int, int] | None]]:
        out: list[list[tuple[int, int] | None]] = [[None] * self.n for _ in range(self.n)]
        for i in range(self.n):
            out[i][self.cols[i]] = (self.exps[i], self.upows[i])
        return out
