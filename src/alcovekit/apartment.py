"""Exact rational points of the enlarged apartment and their predicates.

A point is stored relative to the Chevalley origin o: one rational vector
eta[j] = x_j - o_j per embedding j in {0,...,r-1}.  All wall and genericity
predicates compare differences eta_i - eta_j, the pairings with the roots
e_i - e_j, as Fractions; strictness is literal, there is no epsilon anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .rootdata import GammaData, RootDatum, WeylElement

RatVec = tuple[Fraction, ...]


class _ZeroPlus:
    """Concave-function tag 0+ (the jump just above the parahoric level)."""

    def __repr__(self) -> str:
        return "0+"


ZERO_PLUS = _ZeroPlus()


@dataclass(frozen=True)
class ApartmentPoint:
    """A point as its slot vectors eta_j, j in {0, ..., r-1}.

    `etas` may hold any number L of vectors with L dividing r: slot j is
    etas[j mod L], so a Gamma-fixed point of a split Gamma is one vector.
    """

    rd: RootDatum
    gamma: GammaData
    etas: tuple[RatVec, ...]

    def __post_init__(self):
        if (not self.etas or self.gamma.r % len(self.etas)
                or any(len(eta) != self.rd.dim for eta in self.etas)):
            raise ValueError(f"need a number of vectors dividing r={self.gamma.r}, "
                             f"each of length {self.rd.dim}")

    def eta(self, j: int = 0) -> RatVec:
        return self.etas[j % len(self.etas)]

    def is_gamma_fixed(self) -> bool:
        """theta(x)_j = theta(x_{theta^-1 j}) equals x_j for both generators."""
        g = self.gamma
        return all(g.psi.apply(self.etas[j - 1]) == eta and g.inertial.apply(eta) == eta
                   for j, eta in enumerate(self.etas))


def point_from_type(
    rd: RootDatum,
    g: GammaData,
    lambdas: Sequence[Sequence[int]],
    ws: Sequence[WeylElement],
) -> ApartmentPoint:
    """x = n.o with n = w^{-1} u^lambda, i.e. eta[j] = -(1/e) w_j^{-1}(lambda_j)."""
    e = g.e
    etas = []
    for lam, w in zip(lambdas, ws):
        v = w.inv().apply(lam)
        etas.append(tuple(Fraction(-c, e) for c in v))
    return ApartmentPoint(rd, g, tuple(etas))


def frobenius(x: ApartmentPoint) -> ApartmentPoint:
    """phi(x)_j = o_j + p(x_{j phi} - o_{j phi}); the index j phi is j - 1."""
    p = x.gamma.p
    etas = x.etas[-1:] + x.etas[:-1]
    return ApartmentPoint(x.rd, x.gamma, tuple(tuple(p * c for c in eta) for eta in etas))


def is_d_generic(x: ApartmentPoint, d) -> bool:
    """For every positive root a: n_a + d/p < <a, x-o> < n_a + 1 - d/p.

    x must be Gamma-fixed; the test runs on the slot-0 value (the pinned
    automorphism permutes the roots, so the verdict is slot independent).
    """
    d = Fraction(d)
    if d < 0:
        return True
    p = x.gamma.p
    eta = x.eta(0)
    lo = d / p
    hi = 1 - d / p
    if lo >= hi:
        return False
    for i, j in x.rd.positive_roots:
        t = eta[i] - eta[j]
        frac = t - (t.numerator // t.denominator)
        if not (lo < frac < hi):
            return False
    return True


def is_lowest_alcove(x: ApartmentPoint) -> bool:
    """0 <= <a, x-o> < 1 for every positive root a (slot 0)."""
    eta = x.eta(0)
    for i, j in x.rd.positive_roots:
        t = eta[i] - eta[j]
        if not (0 <= t < 1):
            return False
    return True


def is_deep_lowest_alcove(rd: RootDatum, mu_eta: Sequence[int], d, p: int) -> bool:
    """d < <a, mu+eta> < p - d for every positive root a (the n_a = 0 case)."""
    d = Fraction(d)
    for i, j in rd.positive_roots:
        t = mu_eta[i] - mu_eta[j]
        if not (d < t < p - d):
            return False
    return True


@dataclass(frozen=True)
class ValuationPattern:
    """Entrywise valuation bounds of the parahoric-type subgroup at a point.

    lower_bounds[i][k] is the minimal allowed valuation of matrix slot (i,k)
    in v-units (a rational with denominator dividing e); torus_level is the
    congruence depth imposed on the diagonal units.
    """

    n: int
    lower_bounds: tuple[tuple[Fraction, ...], ...]
    torus_level: Fraction
    e: int

    def bounds_u(self) -> tuple[tuple[int, ...], ...]:
        """The same bounds as integers in u-units (u^e = v)."""
        return tuple(tuple(int(b * self.e) for b in row) for row in self.lower_bounds)


def parahoric_pattern(x: ApartmentPoint, f, j: int = 0) -> ValuationPattern:
    """GL_n valuation pattern at x with constant concave function f.

    Off-diagonal bound: ceil(-e<a_ik, eta> + e f)/e, where f = ZERO_PLUS means
    the next filtration jump: ceil becomes floor + 1.
    """
    if len(x.rd.block_sizes) != 1 or x.rd.label.startswith(("SL", "PGL")):
        raise ValueError("valuation patterns are defined entrywise only for GL_n")
    n = x.rd.dim
    e = x.gamma.e
    eta = x.eta(j)
    rows = []
    for i in range(n):
        row = []
        for k in range(n):
            if i == k:
                row.append(Fraction(0))
                continue
            pair = eta[i] - eta[k]  # <e_i - e_k, eta>
            base = -e * pair
            if f is ZERO_PLUS:
                val = base.numerator // base.denominator + 1
            else:
                shifted = base + e * Fraction(f)
                val = -((-shifted.numerator) // shifted.denominator)  # ceil
            row.append(Fraction(val, e))
        rows.append(tuple(row))
    if f is ZERO_PLUS:
        torus = Fraction(1, e)
    else:
        ef = e * Fraction(f)
        torus = Fraction(-((-ef.numerator) // ef.denominator), e)
    return ValuationPattern(n, tuple(rows), torus, e)
