"""Truncated loop-group simulator over Z/p^a: Frobenius twists and straightening.

Series are Laurent polynomials in u (with u^e = v; the default simulator runs
at e = 1 so u is v itself) with coefficients in Z/p^a, tracked exactly on a
window [-pole, precision).  Everything downstream of the window is unknown and
the arithmetic propagates windows with the usual ultrametric rules, so a
printed zero really is a zero of the mathematical object.
"""
from __future__ import annotations

from dataclasses import dataclass
import random
from typing import Sequence

from .apartment import ValuationPattern
from .rootdata import RefusedError


class PrecisionError(RuntimeError):
    pass


@dataclass(frozen=True)
class Ring:
    p: int
    a: int
    e: int = 1

    @property
    def modulus(self) -> int:
        return self.p**self.a


@dataclass(frozen=True)
class TruncSeries:
    ring: Ring
    coeffs: tuple[tuple[int, int], ...]  # sorted (exponent, value mod p^a), value != 0
    lo: int  # all coefficients below lo vanish
    prec: int | None  # coefficients at >= prec are unknown; None = exact

    @staticmethod
    def make(ring: Ring, coeffs: dict[int, int], lo: int | None = None,
             prec: int | None = None) -> "TruncSeries":
        m = ring.modulus
        clean = {}
        for k, v in coeffs.items():
            v %= m
            if v:
                if prec is not None and k >= prec:
                    continue
                clean[k] = v
        if lo is None:
            lo = min(clean) if clean else 0
        if any(k < lo for k in clean):
            raise ValueError("coefficient below the declared pole bound")
        if prec is not None and lo > prec:
            raise ValueError("pole bound above precision")
        return TruncSeries(ring, tuple(sorted(clean.items())), lo, prec)

    @staticmethod
    def zero(ring: Ring, prec: int | None = None) -> "TruncSeries":
        return TruncSeries(ring, (), 0, prec)

    @staticmethod
    def one(ring: Ring, prec: int | None = None) -> "TruncSeries":
        return TruncSeries.make(ring, {0: 1}, lo=0, prec=prec)

    @staticmethod
    def monomial(ring: Ring, k: int, c: int = 1, prec: int | None = None) -> "TruncSeries":
        return TruncSeries.make(ring, {k: c}, lo=min(k, 0), prec=prec)

    @staticmethod
    def v_plus_p(ring: Ring, prec: int | None = None) -> "TruncSeries":
        return TruncSeries.make(ring, {ring.e: 1, 0: ring.p}, lo=0, prec=prec)

    def coeff(self, k: int) -> int:
        if self.prec is not None and k >= self.prec:
            raise PrecisionError(f"coefficient at {k} is beyond the window")
        for kk, v in self.coeffs:
            if kk == k:
                return v
        return 0

    @property
    def pole_bound(self) -> int:
        return max(0, -self.lo)

    def with_prec(self, prec: int | None) -> "TruncSeries":
        if prec is not None and prec <= self.lo:
            return TruncSeries(self.ring, (), prec, prec)
        return TruncSeries.make(self.ring, dict(self.coeffs), lo=self.lo, prec=prec)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        assert self.ring == other.ring
        prec = _min_prec(self.prec, other.prec)
        out = dict(self.coeffs)
        for k, v in other.coeffs:
            out[k] = out.get(k, 0) + v
        return TruncSeries.make(self.ring, out, lo=min(self.lo, other.lo), prec=prec)

    def __neg__(self) -> "TruncSeries":
        m = self.ring.modulus
        return TruncSeries(self.ring, tuple((k, (-v) % m) for k, v in self.coeffs),
                           self.lo, self.prec)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def _support_lo(self) -> int | None:
        """Lowest exponent that can carry a nonzero coefficient; None = zero."""
        if self.coeffs:
            return self.coeffs[0][0]
        return self.prec  # all known coefficients vanish

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        assert self.ring == other.ring
        m = self.ring.modulus
        cands = []
        if self.prec is not None:
            off = other._support_lo()
            if off is not None:
                cands.append(self.prec + off)
        if other.prec is not None:
            off = self._support_lo()
            if off is not None:
                cands.append(other.prec + off)
        prec = min(cands) if cands else None
        out: dict[int, int] = {}
        for k1, v1 in self.coeffs:
            for k2, v2 in other.coeffs:
                k = k1 + k2
                if prec is not None and k >= prec:
                    continue
                out[k] = (out.get(k, 0) + v1 * v2) % m
        lo = self.lo + other.lo
        if prec is not None and prec < lo:
            lo = prec
        return TruncSeries.make(self.ring, out, lo=lo, prec=prec)

    def scalar(self, c: int) -> "TruncSeries":
        m = self.ring.modulus
        return TruncSeries.make(self.ring, {k: (v * c) % m for k, v in self.coeffs},
                                lo=self.lo, prec=self.prec)

    def is_zero(self) -> bool:
        """Zero on the whole known window."""
        return not self.coeffs

    def val(self) -> int | None:
        """Lowest exponent with a nonzero known coefficient; None if none known."""
        return self.coeffs[0][0] if self.coeffs else None

    def val_at_least(self, bound: int) -> bool:
        """Certified statement val >= bound; needs the window to reach `bound`."""
        if any(k < bound for k, _ in self.coeffs):
            return False
        if self.prec is not None and self.prec < bound:
            raise PrecisionError("window too small to certify the valuation bound")
        return True

    def equals(self, other: "TruncSeries") -> bool:
        """Agreement on the overlap of the two known windows."""
        prec = _min_prec(self.prec, other.prec)
        d = dict(self.coeffs)
        for k, v in other.coeffs:
            d[k] = d.get(k, 0) - v
        return all(v % self.ring.modulus == 0 for k, v in d.items()
                   if prec is None or k < prec)

    def inverse(self, window: int | None = None) -> "TruncSeries":
        """Invert a series whose lowest unit-coefficient term exists.

        Handles the pure pole/unit case and the (v+p)-style case where
        nilpotent coefficients sit below the unit term.  An exact input with
        an infinite inverse needs an explicit `window`; a finite-precision
        input propagates its window soundly (prec + 2 val of the inverse).
        """
        p = self.ring.p
        m = self.ring.modulus
        unit_terms = [(k, v) for k, v in self.coeffs if v % p != 0]
        if not unit_terms:
            raise ZeroDivisionError("no unit coefficient: series is not invertible")
        kstar, cstar = unit_terms[0]
        cinv = pow(cstar, -1, m)
        # s = c* u^k* (1 + t); t = s * (c*^-1 u^-k*) - 1
        lead_inv = TruncSeries.make(self.ring, {-kstar: cinv}, prec=None)
        t = self * lead_inv - TruncSeries.one(self.ring, prec=_shift_prec(self.prec, -kstar))
        if t.prec is None and any(k > 0 for k, _ in t.coeffs):
            if window is None:
                raise PrecisionError("exact series has an infinite inverse; set a window")
            a = self.ring.a
            work = window + abs(kstar) + a * (abs(kstar) + abs(min(0, self.lo))) + 2
            t = t.with_prec(work)
        geom = TruncSeries.one(self.ring, prec=t.prec)
        power = TruncSeries.one(self.ring, prec=t.prec)
        max_iter = _window_width(t) + self.ring.a * (abs(t.lo) + 2) + 4
        for _ in range(max_iter):
            power = (-t) * power
            power = power.with_prec(_min_prec(power.prec, t.prec))
            if power.is_zero():
                break
            geom = geom + power
        else:
            raise PrecisionError("inverse iteration failed to terminate")
        inv = lead_inv * geom
        low = inv.val()
        low = low if low is not None else -kstar
        if self.prec is not None:
            inv = inv.with_prec(min(inv.prec, self.prec + 2 * low)
                                if inv.prec is not None else self.prec + 2 * low)
        elif window is not None and (inv.prec is None or inv.prec > window):
            inv = inv.with_prec(window)
        return inv

    def phi(self) -> "TruncSeries":
        """u -> u^p on exponents; coefficients are Frobenius-fixed in Z/p^a."""
        p = self.ring.p
        prec = None if self.prec is None else p * self.prec
        return TruncSeries.make(self.ring, {p * k: v for k, v in self.coeffs},
                                lo=p * self.lo, prec=prec)


def _min_prec(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _shift_prec(prec: int | None, k: int) -> int | None:
    return None if prec is None else prec + k


def _window_width(s: TruncSeries) -> int:
    if s.prec is None:
        return len(s.coeffs) + 1
    return max(1, s.prec - s.lo)


@dataclass(frozen=True)
class LoopElement:
    ring: Ring
    rows: tuple[tuple[TruncSeries, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    @staticmethod
    def identity(ring: Ring, n: int, prec: int | None = None) -> "LoopElement":
        return LoopElement(ring, tuple(
            tuple(TruncSeries.one(ring, prec) if i == j else TruncSeries.zero(ring, prec)
                  for j in range(n)) for i in range(n)))

    @staticmethod
    def from_monomial(ring: Ring, cols: Sequence[int], upows: Sequence[int],
                      signs: Sequence[int] | None = None) -> "LoopElement":
        n = len(cols)
        signs = signs or [1] * n
        rows = []
        for i in range(n):
            row = [TruncSeries.zero(ring) for _ in range(n)]
            row[cols[i]] = TruncSeries.monomial(ring, upows[i], signs[i] % ring.modulus)
            rows.append(tuple(row))
        return LoopElement(ring, tuple(rows))

    @staticmethod
    def diag_v_power(ring: Ring, nu: Sequence[int]) -> "LoopElement":
        """diag(v^{nu_1}, ..., v^{nu_n}) with v = u^e."""
        return LoopElement.from_monomial(ring, list(range(len(nu))),
                                         [ring.e * k for k in nu])

    def __mul__(self, other: "LoopElement") -> "LoopElement":
        n = self.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = self.rows[i][0] * other.rows[0][j]
                for k in range(1, n):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            rows.append(tuple(row))
        return LoopElement(self.ring, tuple(rows))

    def det(self) -> TruncSeries:
        n = self.n
        if n == 1:
            return self.rows[0][0]
        acc = None
        for j in range(n):
            minor = LoopElement(self.ring, tuple(
                tuple(self.rows[i][k] for k in range(n) if k != j)
                for i in range(1, n)))
            term = self.rows[0][j] * minor.det()
            if j % 2 == 1:
                term = -term
            acc = term if acc is None else acc + term
        return acc

    def inverse(self, window: int | None = None) -> "LoopElement":
        n = self.n
        dinv = self.det().inverse(window)
        if n == 1:
            return LoopElement(self.ring, ((dinv,),))
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                minor = LoopElement(self.ring, tuple(
                    tuple(self.rows[r][c] for c in range(n) if c != i)
                    for r in range(n) if r != j))
                cof = minor.det()
                if (i + j) % 2 == 1:
                    cof = -cof
                row.append(cof * dinv)
            rows.append(tuple(row))
        return LoopElement(self.ring, tuple(rows))

    def phi(self) -> "LoopElement":
        return LoopElement(self.ring, tuple(tuple(s.phi() for s in row) for row in self.rows))

    def sub_identity(self) -> "LoopElement":
        n = self.n
        rows = []
        for i in range(n):
            row = list(self.rows[i])
            row[i] = row[i] - TruncSeries.one(self.ring, prec=row[i].prec)
            rows.append(tuple(row))
        return LoopElement(self.ring, tuple(rows))

    def equals(self, other: "LoopElement") -> bool:
        return all(self.rows[i][j].equals(other.rows[i][j])
                   for i in range(self.n) for j in range(self.n))

    def is_identity(self) -> bool:
        return self.equals(LoopElement.identity(self.ring, self.n))

    def min_prec(self) -> int | None:
        prec = None
        for row in self.rows:
            for s in row:
                prec = _min_prec(prec, s.prec)
        return prec

    def with_prec(self, prec: int | None) -> "LoopElement":
        return LoopElement(self.ring, tuple(
            tuple(s.with_prec(_min_prec(s.prec, prec)) for s in row) for row in self.rows))


def phi_c(a: LoopElement, c: LoopElement | None = None,
          window: int | None = None) -> LoopElement:
    """The twisted Frobenius A -> c phi(A) c^{-1}."""
    fa = a.phi()
    if c is None:
        return fa
    return c * fa * c.inverse(window)


def identity_depth(a: LoopElement) -> int:
    """Largest certified n with a = 1 mod v^n entrywise (v-units)."""
    e = a.ring.e
    best = None
    diff = a.sub_identity()
    for row in diff.rows:
        for s in row:
            v = s.val()
            if v is None:
                v = s.prec if s.prec is not None else e * 10**9
            d = v // e
            best = d if best is None else min(best, d)
    return best if best is not None else 0


def membership(a: LoopElement, pattern: ValuationPattern) -> tuple[bool, int]:
    """Entrywise check against the pattern, plus the measured congruence depth.

    The depth is the largest n with a in the pattern's level-n congruence
    subgroup: off-diagonal slots gain n, diagonal entries are 1 mod v^n.
    """
    e = pattern.e
    assert a.ring.e == e
    bounds = pattern.bounds_u()
    n = pattern.n
    ok = True
    depth = None
    for i in range(n):
        for j in range(n):
            s = a.rows[i][j]
            if i == j:
                d = s - TruncSeries.one(a.ring, prec=s.prec)
                v = d.val()
                if v is None:
                    v = d.prec if d.prec is not None else e * 10**9
                lead = s.coeff(0) if (s.prec is None or s.prec > 0) else 0
                if lead % a.ring.p == 0:
                    ok = False
                if pattern.torus_level > 0 and v < pattern.torus_level * e:
                    ok = False
                slot_depth = v // e
            else:
                v = s.val()
                if v is None:
                    v = s.prec if s.prec is not None else e * 10**9
                if s.val() is not None and s.val() < bounds[i][j]:
                    ok = False
                slot_depth = (v - bounds[i][j]) // e
            depth = slot_depth if depth is None else min(depth, slot_depth)
    return ok, int(depth if depth is not None else 0)


def product_of(factors: Sequence[LoopElement]) -> LoopElement:
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


def inverse_of(factors: Sequence[LoopElement], window: int | None = None) -> LoopElement:
    """Invert a product through its factors; unit factors invert without erosion."""
    out = None
    for f in reversed(factors):
        fi = f.inverse(window)
        out = fi if out is None else out * fi
    return out


def conjugation_depth_bound(x_factors: Sequence[LoopElement], a_elem: LoopElement,
                            n: int, h_mu: int, a_exp: int,
                            window: int | None = None) -> tuple[bool, int]:
    """Check depth(X A X^{-1}) >= n - h_mu - 2a + 2 and report the measured depth."""
    conj = product_of(list(x_factors) + [a_elem]) * inverse_of(x_factors, window)
    measured = identity_depth(conj)
    bound = n - h_mu - 2 * a_exp + 2
    return measured >= bound, measured


@dataclass(frozen=True)
class StraighteningResult:
    a_elem: LoopElement
    iterations: int
    residual_is_one: bool
    trace: tuple[int, ...]  # depth of successive updates


def straightening_gap(p: int, a: int, f: int, h_mu: int, d: int | None = None) -> int:
    """The contraction margin; positive means the fixed-point iteration applies."""
    if d is not None:
        return (p - 1) * f + d - h_mu - 2 * a + 2
    return (p - 1) * f - h_mu - 2 * a + 2


def straighten_right(x, b: LoopElement, f: int, h_mu: int,
                     c: LoopElement | None = None, d: int | None = None,
                     start: LoopElement | None = None,
                     max_iter: int | None = None,
                     window: int | None = None) -> StraighteningResult:
    """Solve A^{-1} X phi_c(A) = B X by Banach iteration of Psi_B(A) = X phi_c(A) X^{-1} B^{-1}.

    `x` may be a LoopElement or a sequence of factors (U, t^nu, V); passing
    the factors keeps the inverse free of precision erosion.  Refuses when
    the contraction bound (p-1)f - h_mu - 2a + 2 (generic variant: + d) is
    not positive.
    """
    x_factors = [x] if isinstance(x, LoopElement) else list(x)
    x_prod = product_of(x_factors)
    ring = x_prod.ring
    gap = straightening_gap(ring.p, ring.a, f, h_mu, d)
    if gap <= 0:
        raise RefusedError(
            f"straightening bound violated: (p-1)f{'+d' if d is not None else ''}"
            f" - h_mu - 2a + 2 = {gap} <= 0")
    if window is None:
        window = x_prod.min_prec()
    if window is None:
        window = b.min_prec()
    if window is None:
        window = 4 * ring.p * ring.e
    if max_iter is None:
        max_iter = (window // ring.e) // gap + 4
    # generous internal windows so every iterate stays known down to `window`
    slack = window + ring.e * (abs(h_mu) * x_prod.n + 4 * ring.a + 8)
    binv = b.inverse(slack)
    xinv = inverse_of(x_factors, slack)
    cinv = c.inverse(slack) if c is not None else None
    a_cur = start if start is not None else LoopElement.identity(ring, x_prod.n)
    a_cur = a_cur.with_prec(window)
    trace = []
    iterations = 0
    for _ in range(max_iter):
        fa = a_cur.phi()
        if c is not None:
            fa = c * fa * cinv
        a_next = (x_prod * fa * xinv * binv).with_prec(window)
        iterations += 1
        got = a_next.min_prec()
        if got is not None and got < window:
            raise PrecisionError("window slack exhausted during iteration")
        step = a_cur.inverse(slack) * a_next
        trace.append(identity_depth(step))
        if a_next.equals(a_cur):
            a_cur = a_next
            break
        a_cur = a_next
    else:
        raise PrecisionError("straightening did not converge within the window")
    # residual of the defining relation: A^{-1} X phi_c(A) (B X)^{-1}
    residual = a_cur.inverse(slack) * x_prod * phi_c(a_cur, c, slack) * xinv * binv
    return StraighteningResult(a_cur, iterations, residual.is_identity(), tuple(trace))


def congruence_compare(n: int, a: int, p: int) -> dict:
    """Verify the v-versus-(v+p) congruence facts by explicit division.

    Checks (v+p)^n in v^{n-a+1} R[v], v^n in (v+p)^{n-a+1} R[v], and
    (v+p)^{p^{a-1}} = v^{p^{a-1}} mod p^a; quotients are returned.
    """
    if n < a:
        raise ValueError("first inclusion needs n >= a")
    m = p**a
    ring = Ring(p, a, 1)
    vp = TruncSeries.v_plus_p(ring)
    pow_vp = TruncSeries.one(ring)
    for _ in range(n):
        pow_vp = pow_vp * vp
    # (v+p)^n / v^{n-a+1}: every coefficient below n-a+1 must vanish mod p^a
    low_ok = all(k >= n - a + 1 for k, _ in pow_vp.coeffs)
    quotient1 = {k - (n - a + 1): v for k, v in pow_vp.coeffs if k >= n - a + 1}
    # v^n divided by the monic (v+p)^{n-a+1}
    divisor = TruncSeries.one(ring)
    for _ in range(n - a + 1):
        divisor = divisor * vp
    rem = dict([(n, 1)])
    quotient2: dict[int, int] = {}
    div = dict(divisor.coeffs)
    deg_d = n - a + 1
    while rem and max(rem) >= deg_d:
        k = max(rem)
        c = rem[k]
        quotient2[k - deg_d] = c
        for kk, vv in div.items():
            rem[kk + k - deg_d] = (rem.get(kk + k - deg_d, 0) - c * vv) % m
        rem = {kk: vv for kk, vv in rem.items() if vv % m}
    division_ok = not rem
    # (v+p)^{p^{a-1}} = v^{p^{a-1}} mod p^a
    t = p**(a - 1)
    pow_t = TruncSeries.one(ring)
    for _ in range(t):
        pow_t = pow_t * vp
    binomial_ok = pow_t.equals(TruncSeries.monomial(ring, t))
    return {
        "first_inclusion": low_ok,
        "first_quotient": quotient1,
        "second_inclusion": division_ok,
        "second_quotient": quotient2,
        "frobenius_congruence": binomial_ok,
    }


def search_contraction_failure(p: int, a: int, f: int, h_mu: int,
                               trials: int = 20, seed: int = 0,
                               window: int | None = None) -> dict:
    """Look for a non-contracting instance when the straightening bound fails.

    Whether the bound is sharp in this sense is open; this only reports what
    the search saw, it asserts nothing.
    """
    gap = straightening_gap(p, a, f, h_mu)
    ring = Ring(p, a, 1)
    rng = random.Random(seed)
    if window is None:
        window = 4 * p
    found = 0
    tried = 0
    for trial in range(trials):
        mu = (h_mu, 0)
        xf = random_bounded_x(rng, ring, 2, mu, 3, use_v_plus_p=bool(trial % 2),
                              window=window + 20)
        x = product_of(xf)
        xinv = inverse_of(xf, window + 20)
        a1 = random_depth_element(rng, ring, 2, f, f + 3).with_prec(window)
        diff = random_depth_element(rng, ring, 2, f, f + 3)
        a2 = (a1 * diff).with_prec(window)
        d0 = identity_depth(a1.inverse(window + 20) * a2)
        p1 = (x * a1.phi() * xinv).with_prec(window)
        p2 = (x * a2.phi() * xinv).with_prec(window)
        d1 = identity_depth(p1.inverse(window + 20) * p2)
        tried += 1
        if d1 < min(d0 + 1, window):
            found += 1
    return {"gap": gap, "trials": tried, "non_contracting": found}


def random_polynomial(rng: random.Random, ring: Ring, lo: int, deg: int) -> TruncSeries:
    """An exact random polynomial supported on [lo, deg)."""
    coeffs = {k: rng.randrange(ring.modulus) for k in range(lo, deg)}
    return TruncSeries.make(ring, coeffs, lo=min(lo, 0), prec=None)


def random_depth_element(rng: random.Random, ring: Ring, n: int, depth: int,
                         deg: int) -> LoopElement:
    """A random exact element of the principal congruence subgroup 1 + v^depth M."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            s = random_polynomial(rng, ring, ring.e * depth, deg)
            if i == j:
                s = s + TruncSeries.one(ring)
            row.append(s)
        rows.append(tuple(row))
    return LoopElement(ring, tuple(rows))


def random_positive_unit(rng: random.Random, ring: Ring, n: int, deg: int) -> LoopElement:
    """A random exact polynomial element of GL_n(R[[v]])."""
    while True:
        rows = []
        for i in range(n):
            row = [random_polynomial(rng, ring, 0, deg) for _ in range(n)]
            rows.append(tuple(row))
        cand = LoopElement(ring, tuple(rows))
        if cand.det().coeff(0) % ring.p != 0:
            return cand


def random_bounded_x(rng: random.Random, ring: Ring, n: int, mu: Sequence[int],
                     deg: int, use_v_plus_p: bool = False,
                     window: int | None = None) -> tuple[LoopElement, ...]:
    """Factors (U, t^nu, V) with nu <= mu dominant, U, V positive units, t = v or v+p."""
    # random dominant nu <= mu with the same total
    nu = list(mu)
    for _ in range(rng.randrange(3)):
        i = rng.randrange(n - 1) if n > 1 else 0
        if n > 1 and nu[i] > nu[i + 1] + 1:
            nu[i] -= 1
            nu[i + 1] += 1
    nu.sort(reverse=True)
    if use_v_plus_p:
        vp = TruncSeries.v_plus_p(ring)
        core_rows = []
        for i in range(n):
            row = [TruncSeries.zero(ring) for _ in range(n)]
            s = TruncSeries.one(ring)
            k = nu[i]
            base = vp if k >= 0 else vp.inverse(window or 4 * ring.p * ring.e)
            for _ in range(abs(k)):
                s = s * base
            row[i] = s
            core_rows.append(tuple(row))
        core = LoopElement(ring, tuple(core_rows))
    else:
        core = LoopElement.diag_v_power(ring, nu)
    u = random_positive_unit(rng, ring, n, deg)
    v = random_positive_unit(rng, ring, n, deg)
    return (u, core, v)
