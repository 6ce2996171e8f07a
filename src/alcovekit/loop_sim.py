"""Truncated loop-group simulator over Z/p^a: Frobenius twists and straightening.

Series are Laurent polynomials in u (with u^e = v; the default simulator runs
at e = 1 so u is v itself) with coefficients in Z/p^a, tracked exactly below a
precision.  Everything from the precision on is unknown and the arithmetic
propagates precisions with the usual ultrametric rules, so a printed zero
really is a zero of the mathematical object.  A series stores only its known
nonzero terms and its precision; the pole bound is derived from those terms.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import mul
import random
import struct
from typing import Sequence

from .apartment import ValuationPattern
from .rootdata import CapExceeded, RefusedError, check_prime

# det expands each minor once, in at most n*2^(n-1) series products.  As CLI runs on
# a 2-core VM, `straighten --p 7` takes 0.13 s at --n 6, 0.19 s at --n 8 and 0.29 s
# at --n 9 with one inverse of B X (0.15, 0.26 and 0.46 s with B, U, t^nu and V
# inverted one at a time); the cap stays 8 until one cap on predicted cost replaces
# the separate size caps
MAX_LOOP_N = 8
# a of Z/p^a.  As CLI runs on a 2-core VM, `straighten --p 7 --a A --f 400 --window 8`
# takes 0.6 s at A = 128, 1.5 s at 192 and 38 s at 512; `compare` (a^2 products
# below p^a) at a = 128, p = 3317044064679887385961783 takes 1.5 s at n = 10^6 and
# 2.7 s at a 4,000-digit n
MAX_A = 128


class PrecisionError(RuntimeError):
    pass


@dataclass(frozen=True)
class Ring:
    """Coefficients Z/p^a and u with u^e = v; CapExceeded when a > MAX_A."""

    p: int
    a: int
    e: int = 1

    def __post_init__(self):
        if self.a > MAX_A:
            raise CapExceeded(f"a is capped at {MAX_A}, got a={self.a}")
        check_prime(self.p)
        if self.a < 1 or self.e < 1:
            raise ValueError(f"need a >= 1 and e >= 1, got a={self.a}, e={self.e}")

    @cached_property  # kept in the instance __dict__; no field, so ==, hash and repr ignore it
    def modulus(self) -> int:
        return self.p**self.a


@dataclass(frozen=True)
class TruncSeries:
    ring: Ring
    # sorted (exponent, value mod p^a), value != 0: every known nonzero term,
    # so the pole bound `lo` is derived from them, not stored
    coeffs: tuple[tuple[int, int], ...]
    prec: int | None  # coefficients at >= prec are unknown; None = exact

    @staticmethod
    def make(ring: Ring, coeffs: dict[int, int], prec: int | None = None) -> "TruncSeries":
        m = ring.modulus
        clean = {}
        for k, v in coeffs.items():
            v %= m
            if v and (prec is None or k < prec):
                clean[k] = v
        return TruncSeries(ring, tuple(sorted(clean.items())), prec)

    @staticmethod
    def zero(ring: Ring, prec: int | None = None) -> "TruncSeries":
        return TruncSeries(ring, (), prec)

    @staticmethod
    def one(ring: Ring, prec: int | None = None) -> "TruncSeries":
        return TruncSeries.make(ring, {0: 1}, prec=prec)

    @staticmethod
    def monomial(ring: Ring, k: int, c: int = 1, prec: int | None = None) -> "TruncSeries":
        return TruncSeries.make(ring, {k: c}, prec=prec)

    @staticmethod
    def v_plus_p(ring: Ring, prec: int | None = None) -> "TruncSeries":
        return TruncSeries.make(ring, {ring.e: 1, 0: ring.p}, prec=prec)

    @property
    def lo(self) -> int:
        """Pole bound: all coefficients below lo vanish.  Derived from the
        support, never stored: min(0, lowest known exponent), 0 for an exact
        zero."""
        low = _ends(self)[1]
        return 0 if low is None else min(0, low)

    def coeff(self, k: int) -> int:
        if self.prec is not None and k >= self.prec:
            raise PrecisionError(f"coefficient at {k} is beyond the window")
        i = bisect_left(self.coeffs, (k,))
        return self.coeffs[i][1] if i < len(self.coeffs) and self.coeffs[i][0] == k else 0

    def with_prec(self, prec: int | None) -> "TruncSeries":
        cut = len(self.coeffs) if prec is None else bisect_left(self.coeffs, (prec,))
        return TruncSeries(self.ring, self.coeffs[:cut], prec)

    def _combine(self, other: "TruncSeries", sign: int) -> "TruncSeries":
        """self + sign * other, known below the least prec, by one merge of
        the sorted terms."""
        if self.ring != other.ring:
            raise ValueError("series over different rings")
        prec, m = _min_prec(self.prec, other.prec), self.ring.modulus
        a, b = self.coeffs, other.coeffs
        if prec is not None:
            a, b = a[:bisect_left(a, (prec,))], b[:bisect_left(b, (prec,))]
        out, i = [], 0
        for k, v in a:
            while i < len(b) and b[i][0] < k:
                out.append((b[i][0], sign * b[i][1] % m))
                i += 1
            if i < len(b) and b[i][0] == k:
                v += sign * b[i][1]
                i += 1
            if v % m:
                out.append((k, v % m))
        out += [(k, sign * v % m) for k, v in b[i:]]
        return TruncSeries(self.ring, tuple(out), prec)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self._combine(other, -1)

    def __neg__(self) -> "TruncSeries":
        m = self.ring.modulus
        return TruncSeries(self.ring, tuple((k, (-v) % m) for k, v in self.coeffs), self.prec)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if self.ring != other.ring:
            raise ValueError("series over different rings")
        ea, eb = _ends(self), _ends(other)
        prec = _mul_window(ea, eb)
        nb = _slot_bytes(min(len(self.coeffs), len(other.coeffs)), self.ring.modulus)
        return _dot(self.ring, [(_pack_series(self, nb, _reach(self, [prec], [eb[2]])),
                                 _pack_series(other, nb, _reach(other, [prec], [ea[2]])))],
                    nb, prec)

    def is_zero(self) -> bool:
        """Zero on the whole known window."""
        return not self.coeffs

    def val(self) -> int | None:
        """Lowest exponent with a nonzero known coefficient; None if none known."""
        return self.coeffs[0][0] if self.coeffs else None

    def equals(self, other: "TruncSeries") -> bool:
        """Agreement on the overlap of the two known windows."""
        return (self - other).is_zero()

    def inverse(self, window: int | None = None) -> "TruncSeries":
        """Invert a series whose lowest unit-coefficient term c* u^k* exists.

        Write s = c* u^k* (1 + t).  An exact input with an infinite inverse
        needs an explicit `window` and comes back known up to it; a
        finite-precision input propagates its window soundly (prec + 2 val of
        the inverse).  Two cases:

        - the unit term is the lowest term, so t has no term below u^1: 1/(1+t)
          is lifted by Newton's iteration on dense residue lists, doubling the
          number of known terms with two packed products a step, to t's prec
          (window + k* for an exact input);
        - nilpotent terms sit below the unit term, as in (v+p)^-1: the
          geometric series in -t is summed by doubling (`_geometric_sum`),
          in O(log window) products.
        """
        p, m = self.ring.p, self.ring.modulus
        unit = next(((k, v) for k, v in self.coeffs if v % p), None)
        if unit is None:
            raise ZeroDivisionError("no unit coefficient: series is not invertible")
        kstar, cstar = unit
        cinv = pow(cstar, -1, m)
        lead_inv = TruncSeries.monomial(self.ring, -kstar, cinv)
        if self.coeffs[0][0] == kstar:
            if self.prec is not None:
                target = self.prec - kstar
            elif len(self.coeffs) == 1:
                return lead_inv if window is None else lead_inv.with_prec(window)
            elif window is None:
                raise PrecisionError("exact series has an infinite inverse; set a window")
            else:
                target = window + kstar
            # s u^-k* on its first `target` terms
            g = [0] * max(target, 0)
            for k, v in self.coeffs[:bisect_left(self.coeffs, (target + kstar,))]:
                g[k - kstar] = v
            return TruncSeries(self.ring, tuple([
                (j - kstar, c) for j, c in enumerate(_newton_inverse(g, m)) if c]), target - kstar)
        # t = s * (c*^-1 u^-k*) - 1
        shifted = None if self.prec is None else self.prec - kstar
        t = self * lead_inv - TruncSeries.one(self.ring, prec=shifted)
        if t.prec is None and any(k > 0 for k, _ in t.coeffs):
            if window is None:
                raise PrecisionError("exact series has an infinite inverse; set a window")
            work = window + abs(kstar) + self.ring.a * (abs(kstar) + abs(self.lo)) + 2
            # the products of the nilpotent terms of t below 0 cost window that
            # `work` does not foresee; that cost is bounded by a and val(t), so
            # widening by the shortfall reaches `window`
            while (inv := lead_inv * _geometric_sum(t.with_prec(work))).prec < window:
                work += window - inv.prec
        else:
            inv = lead_inv * _geometric_sum(t)
        low = inv.val() if inv.coeffs else -kstar
        if self.prec is not None:
            return inv.with_prec(_min_prec(inv.prec, self.prec + 2 * low))
        return inv if window is None else inv.with_prec(_min_prec(inv.prec, window))

    def phi(self) -> "TruncSeries":
        """u -> u^p on exponents; coefficients are Frobenius-fixed in Z/p^a."""
        p = self.ring.p
        prec = None if self.prec is None else p * self.prec
        return TruncSeries(self.ring, tuple((p * k, v) for k, v in self.coeffs), prec)


def _newton_inverse(g: list[int], m: int) -> list[int]:
    """The first len(g) coefficients of 1/g mod m, for a unit g[0].

    Newton's step y <- y + y (1 - g y) takes y from q known terms to
    q2 = min(2q, len(g)): g y = 1 below u^q, so its terms q..q2-1 give the
    correction r, and y r below u^(q2-q) gives the new terms.  Each is one
    Kronecker product whose slots sum at most q < len(g) products; g and y
    stay packed, so a step packs and unpacks only the q2 - q new terms twice.
    """
    target = len(g)
    if target < 2:
        return [pow(c, -1, m) for c in g]
    nb = _slot_bytes(1 << ((target - 1).bit_length() - 1), m)  # the last step's q
    width = 8 * nb
    packed_g = _pack(g, nb)
    y = [pow(g[0], -1, m)]
    packed_y, q = y[0], 1
    while q < target:
        q2 = min(2 * q, target)
        gy = (packed_g & ((1 << width * q2) - 1)) * packed_y
        r = _pack([-c % m for c in _unpack(gy, nb, q, q2)], nb)
        new = [c % m for c in _unpack((packed_y & ((1 << width * (q2 - q)) - 1)) * r,
                                      nb, 0, q2 - q)]
        new += [0] * (q2 - q - len(new))
        packed_y |= _pack(new, nb) << width * q
        y += new
        q = q2
    return y


def _geometric_sum(t: TruncSeries) -> TruncSeries:
    """1/(1+t) = (1+x)(1+x^2)(1+x^4)... with x = -t: each step doubles the
    number of terms summed, until x vanishes on its window.

    Serves only the series with nilpotent terms below their unit term, where
    t has terms below u^1; a unit lowest term goes to `_newton_inverse`."""
    geom = TruncSeries.one(t.ring, prec=t.prec)
    x = -t
    doublings = (_window_width(t) + t.ring.a * (abs(t.lo) + 2) + 4).bit_length() + 1
    for _ in range(doublings):
        if x.is_zero():
            break
        geom = geom + geom * x
        x = x * x
        x = x.with_prec(_min_prec(x.prec, t.prec))
    else:
        raise PrecisionError("inverse iteration failed to terminate")
    # the terms left out, x^(2^j) (1 + x + x^2 + ...), vanish below x.prec
    # lowered by at most a - 1 terms of t below 0, which are nilpotent
    t_low = t.val()
    if x.prec is not None and t_low is not None and t_low < 0:
        geom = geom.with_prec(min(geom.prec, x.prec + (t.ring.a - 1) * t_low))
    return geom


def _min_prec(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _window_width(s: TruncSeries) -> int:
    if s.prec is None:
        return len(s.coeffs) + 1
    return max(1, s.prec - s.lo)


def _ends(s: TruncSeries) -> tuple[int | None, int | None, int | None]:
    """(prec, support lo, val) of s: all that the window and packing rules
    read of a factor.  The support lo is the lowest exponent that can carry
    a nonzero coefficient: the val, else the prec (None for an exact zero)."""
    if s.coeffs:
        low = s.coeffs[0][0]
        return s.prec, low, low
    return s.prec, s.prec, None


def _mul_window(a: tuple, b: tuple) -> int | None:
    """The prec of a product whose factors have the `_ends` a and b.

    Each factor's window ends at its prec; shifted by the lowest exponent the
    other factor can carry, that bounds what the product knows.
    """
    (a_prec, a_lo, _), (b_prec, b_lo, _) = a, b
    if a_prec is None or b_lo is None:
        return None if b_prec is None or a_lo is None else b_prec + a_lo
    if b_prec is None or a_lo is None:
        return a_prec + b_lo
    return min(a_prec + b_lo, b_prec + a_lo)


# Kronecker substitution: a series with coefficients c_k becomes the integer
# sum c_k 2^(8 nb (k - k0)), so a product of series is one big-int product.
# A slot of nb bytes holds any sum of `terms` products of residues mod m, so
# no carry crosses into the next slot.  Slots of 1, 2, 4 or 8 bytes convert
# through struct's little-endian words; wider slots through bytes.
_WORD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _slot_bytes(terms: int, m: int) -> int:
    nb = -(-(max(terms, 1) * (m - 1) ** 2).bit_length() // 8)
    return nb if nb > 8 else 1 << (nb - 1).bit_length()  # 1, 2, 4 or 8


def _reach(s: TruncSeries, precs, partner_vals) -> int | None:
    """Exponent from which the terms of s reach no known coefficient of the
    products s enters: each product's prec less the lowest exponent of the
    factor s meets there.  None when one of those products is exact."""
    if not s.coeffs:
        return None
    stop = s.coeffs[0][0]  # no term is needed unless some product wants it
    for prec, low in zip(precs, partner_vals):
        if low is not None:
            if prec is None:
                return None
            stop = max(stop, prec - low)
    return stop


def _pack(slots: Sequence[int], nb: int) -> int:
    """The integer with the residues `slots` in nb-byte slots, slot 0 lowest."""
    code = _WORD_CODES.get(nb)
    if code is None:
        raw = b"".join(v.to_bytes(nb, "little") for v in slots)
    else:
        raw = struct.pack(f"<{len(slots)}{code}", *slots)
    return int.from_bytes(raw, "little")


def _pack_series(s: TruncSeries, nb: int, stop: int | None) -> tuple[int, int] | None:
    """(lowest exponent k0, packed coefficients) of the terms of s below
    `stop`; None when there are none.  Packing costs the exponent span, so
    the cut keeps a wide series (phi spreads exponents by p) as cheap as the
    window of the product it enters."""
    cs = s.coeffs if stop is None else s.coeffs[:bisect_left(s.coeffs, (stop,))]
    if not cs:
        return None
    base = cs[0][0]
    slots = [0] * (cs[-1][0] - base + 1)
    for k, v in cs:
        slots[k - base] = v
    return base, _pack(slots, nb)


def _unpack(x: int, nb: int, start: int, stop: int | None) -> Sequence[int]:
    """The values of x's slots start..stop-1, not reduced mod m; stop None
    means through x's highest nonzero slot, and no slot past that one is
    returned."""
    raw = x.to_bytes(-(-x.bit_length() // (8 * nb)) * nb, "little")
    raw = raw[start * nb:None if stop is None else stop * nb]
    code = _WORD_CODES.get(nb)
    if code is None:
        return [int.from_bytes(raw[i:i + nb], "little") for i in range(0, len(raw), nb)]
    return struct.unpack(f"<{len(raw) // nb}{code}", raw)


def _dot(ring: Ring, pairs, nb: int, prec: int | None) -> TruncSeries:
    """The series sum of a * b over packed pairs (a, b), known below prec.

    The products are summed as integers, each shifted to the least base, and
    unpacked once: below prec every term is known, so the sum is exact there.
    """
    parts = [(a[0] + b[0], a[1] * b[1]) for a, b in pairs if a and b]
    if not parts:
        return TruncSeries(ring, (), prec)
    base = min([k for k, _ in parts])
    width, m = 8 * nb, ring.modulus
    total = sum([x << (width * (k - base)) for k, x in parts])
    slots = _unpack(total, nb, 0, None if prec is None else max(0, prec - base))
    return TruncSeries(ring, tuple([(base + t, r) for t, c in enumerate(slots) if (r := c % m)]),
                       prec)


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
    def from_monomial(ring: Ring, cols: Sequence[int], upows: Sequence[int]) -> "LoopElement":
        n = len(cols)
        rows = []
        for i in range(n):
            row = [TruncSeries.zero(ring) for _ in range(n)]
            row[cols[i]] = TruncSeries.monomial(ring, upows[i])
            rows.append(tuple(row))
        return LoopElement(ring, tuple(rows))

    @staticmethod
    def diag_v_power(ring: Ring, nu: Sequence[int]) -> "LoopElement":
        """diag(v^{nu_1}, ..., v^{nu_n}) with v = u^e."""
        return LoopElement.from_monomial(ring, list(range(len(nu))),
                                         [ring.e * k for k in nu])

    def __mul__(self, other: "LoopElement") -> "LoopElement":
        """Entry (i, j) is the sum over k of the series products, known below
        the least prec of the terms."""
        n = self.n
        ring = self.ring
        if other.ring != ring or other.n != n:
            raise ValueError("loop elements over different rings or sizes")
        terms = max((len(s.coeffs) for el in (self, other) for row in el.rows for s in row),
                    default=0)
        nb = _slot_bytes(n * terms, ring.modulus)
        ea = [[_ends(s) for s in row] for row in self.rows]
        eb = [[_ends(s) for s in row] for row in other.rows]
        precs = [[reduce(_min_prec, [_mul_window(a, b) for a, b in zip(row, col)])
                  for col in zip(*eb)] for row in ea]
        # entry (i, k) of self enters the products of row i, entry (k, j) of
        # other those of column j
        prec_cols = list(zip(*precs))
        b_vals = [[e[2] for e in row] for row in eb]
        a_col_vals = [[e[2] for e in col] for col in zip(*ea)]
        pa = [[_pack_series(s, nb, _reach(s, precs[i], b_vals[k])) for k, s in enumerate(row)]
              for i, row in enumerate(self.rows)]
        pb_cols = list(zip(*(
            [_pack_series(s, nb, _reach(s, prec_cols[j], a_col_vals[k]))
             for j, s in enumerate(row)] for k, row in enumerate(other.rows))))
        return LoopElement(ring, tuple(
            tuple(_dot(ring, zip(pa[i], pb_cols[j]), nb, precs[i][j]) for j in range(n))
            for i in range(n)))

    def det(self) -> TruncSeries:
        """Laplace expansion along the first row, each minor once; CapExceeded above MAX_LOOP_N."""
        full = tuple(range(self.n))
        return _Laplace(self).minor(full, full)[0]

    def inverse(self, window: int | None = None,
                laplace: "_Laplace | None" = None) -> "LoopElement":
        """adj(self) * det(self)^-1, the determinant inverted with `window`.

        The determinant and the n^2 cofactors come from one Laplace
        expansion (`_Laplace`), or from `laplace`, an expansion of self that
        the caller has already begun.  Entry (i, j) is (-1)^(i+j) M_ji det^-1,
        M_ji the minor without row j and column i: det^-1 and -det^-1 are
        packed once, up to the furthest exponent any cofactor product needs,
        and each product is one `_dot` known below its own `_mul_window`.
        """
        full, ring = tuple(range(self.n)), self.ring
        if laplace is None:
            laplace = _Laplace(self)
        dinv = laplace.minor(full, full)[0].inverse(window)
        if self.n == 1:
            return LoopElement(ring, ((dinv,),))
        others = [full[:k] + full[k + 1:] for k in full]
        cofs = [[laplace.minor(others[j], others[i]) for j in full] for i in full]
        ed = _ends(dinv)
        precs = [[_mul_window(ec, ed) for _, ec in row] for row in cofs]
        terms = max(min(len(c.coeffs), len(dinv.coeffs)) for row in cofs for c, _ in row)
        nb = _slot_bytes(terms, ring.modulus)
        stop = _reach(dinv, [q for row in precs for q in row],
                      [ec[2] for row in cofs for _, ec in row])
        signed = (_pack_series(dinv, nb, stop), _pack_series(-dinv, nb, stop))
        return LoopElement(ring, tuple(
            tuple(_dot(ring, [(_pack_series(c, nb, _reach(c, (q,), (ed[2],))),
                               signed[(i + j) % 2])], nb, q)
                  for j, ((c, _), q) in enumerate(zip(cofs[i], precs[i])))
            for i in full))

    def phi(self) -> "LoopElement":
        return LoopElement(self.ring, tuple(tuple(s.phi() for s in row) for row in self.rows))

    def __sub__(self, other: "LoopElement") -> "LoopElement":
        return LoopElement(self.ring, tuple(
            tuple(x - y for x, y in zip(r, s)) for r, s in zip(self.rows, other.rows)))

    def equals(self, other: "LoopElement") -> bool:
        return all(self.rows[i][j].equals(other.rows[i][j])
                   for i in range(self.n) for j in range(self.n))

    def is_identity(self) -> bool:
        return self.equals(LoopElement.identity(self.ring, self.n))

    def min_prec(self) -> int | None:
        return reduce(_min_prec, [s.prec for row in self.rows for s in row], None)

    def with_prec(self, prec: int | None) -> "LoopElement":
        return LoopElement(self.ring, tuple(
            tuple(s.with_prec(_min_prec(s.prec, prec)) for s in row) for row in self.rows))


class _Laplace:
    """The minors of one loop element, each expanded along its first row once.

    An exact-zero entry adds no term and no window to a minor, so the minor
    under it is never formed.  Signed entries and minors are packed at one
    slot width, `_slot_bytes(n T)` with T the most terms of an entry: a
    k-minor's `_dot` sums k products, each of which puts at most T products
    of terms in a slot.  Each operand is packed once per cut (`_reach`): one
    whose products are exact is cut nowhere, so it is packed once in the
    whole expansion, and a cut keeps a phi-spread entry beside narrower
    windows as cheap as the window of the minor it enters.
    """

    def __init__(self, el: LoopElement):
        if el.n > MAX_LOOP_N:
            raise CapExceeded(f"determinant of a {el.n}x{el.n} loop element: "
                              f"the limit is {MAX_LOOP_N}")
        self.el = el
        terms = max(len(s.coeffs) for row in el.rows for s in row)
        self.nb = _slot_bytes(el.n * terms, el.ring.modulus)
        # (rows, cols) -> the minor on those sorted indices and its `_ends`
        self.minors: dict = {((r,), (c,)): (s, _ends(s))
                             for r, row in enumerate(el.rows) for c, s in enumerate(row)}
        self.packed: dict = {}  # ((rows, cols, negated), stop) -> the packed (negated) minor

    def minor(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> tuple[TruncSeries, tuple]:
        """The minor on rows and cols and its `_ends`."""
        if (rows, cols) not in self.minors:
            top, rest = rows[:1], rows[1:]
            prec, factors = None, []
            for j, c in enumerate(cols):
                s, es = self.minors[top, (c,)]
                if es[0] is None and es[2] is None:  # an exact zero
                    continue
                sub = cols[:j] + cols[j + 1:]
                m, em = self.minor(rest, sub)
                prec = _min_prec(prec, _mul_window(es, em))
                factors.append((j, c, s, sub, m, es[2], em[2]))
            d = _dot(self.el.ring, [
                (self._packed((top, (c,), j % 2 == 1), s, _reach(s, (prec,), (m_val,))),
                 self._packed((rest, sub, False), m, _reach(m, (prec,), (s_val,))))
                for j, c, s, sub, m, s_val, m_val in factors], self.nb, prec)
            self.minors[rows, cols] = d, _ends(d)
        return self.minors[rows, cols]

    def _packed(self, key: tuple, s: TruncSeries, stop: int | None) -> tuple[int, int] | None:
        """s, the minor on key = (rows, cols, negated), negated if so, packed
        below stop."""
        if (key, stop) not in self.packed:
            self.packed[key, stop] = _pack_series(-s if key[2] else s, self.nb, stop)
        return self.packed[key, stop]


def phi_c(a: LoopElement, c: LoopElement | None = None,
          window: int | None = None) -> LoopElement:
    """The twisted Frobenius A -> c phi(A) c^{-1}."""
    fa = a.phi()
    if c is None:
        return fa
    return c * (fa * c.inverse(window))


def identity_depth(a: LoopElement) -> int:
    """Largest certified n with a = 1 mod v^n entrywise (v-units)."""
    return _zero_depth(a - LoopElement.identity(a.ring, a.n))


def _zero_depth(a: LoopElement) -> int:
    """Largest certified n with a = 0 mod v^n entrywise (v-units)."""
    return min((_vanishing_below(s) // a.ring.e for row in a.rows for s in row), default=0)


def _vanishing_below(s: TruncSeries) -> int:
    """An exponent below which s is known to vanish: its val, else its prec;
    an exact zero vanishes everywhere and stands in as u^(e 10^9)."""
    low = _ends(s)[1]
    return low if low is not None else s.ring.e * 10**9


def membership(a: LoopElement, pattern: ValuationPattern) -> tuple[bool, int]:
    """Entrywise check against the pattern, plus the measured congruence depth.

    The depth is the largest n with a in the pattern's level-n congruence
    subgroup: off-diagonal slots gain n, diagonal entries are 1 mod v^n.
    """
    e = pattern.e
    if a.ring.e != e:
        raise ValueError(f"ring has e={a.ring.e}, the pattern needs e={e}")
    bounds = pattern.bounds_u()
    n = pattern.n
    ok = True
    depth = None
    for i in range(n):
        for j in range(n):
            s = a.rows[i][j]
            if i == j:
                v = _vanishing_below(s - TruncSeries.one(a.ring))
                lead = s.coeff(0) if (s.prec is None or s.prec > 0) else 0
                if lead % a.ring.p == 0:
                    ok = False
                if pattern.torus_level > 0 and v < pattern.torus_level * e:
                    ok = False
                slot_depth = v // e
            else:
                v = _vanishing_below(s)
                if s.val() is not None and s.val() < bounds[i][j]:
                    ok = False
                slot_depth = (v - bounds[i][j]) // e
            depth = slot_depth if depth is None else min(depth, slot_depth)
    return ok, int(depth if depth is not None else 0)


def product_of(factors: Sequence[LoopElement]) -> LoopElement:
    return reduce(mul, factors)


def inverse_of(factors: Sequence[LoopElement], window: int | None = None,
               tail: LoopElement | None = None) -> LoopElement:
    """The inverse of the product of `factors`, one Laplace inverse per run.

    A run is a maximal stretch of exact factors whose determinants have a
    unit lowest term; it is multiplied out exactly and inverted once.  Every
    other factor is inverted on its own: a windowed factor, and an exact one
    whose determinant has nilpotent terms below its unit term, such as the
    (v+p)^h of a v+p core at a >= 2.  So every determinant inverted is one of
    two kinds:
    - a run's: exact, with a unit lowest term, like each of its factors'.
      Newton's iteration lifts its inverse, known to `window` as each
      factor's would be, so merging the run loses no window;
    - a lone factor's: the window a windowed factor's inverse loses, and the
      geometric sum of a nilpotent term below the unit term, stay that
      factor's own and are never spread over a merged product, where the
      sum would run on a dense series.
    At a = 1 every exact factor qualifies, since its coefficients lie in
    F_p, so no determinant is tested.  At a >= 2 the test begins the
    factor's Laplace expansion, which its inverse reuses when it stands
    alone.

    `tail`, when the caller holds it, is the product of factors[1:]; a run
    that takes in all of them starts from it.
    """
    runs, joins = [], False  # [first, end, laplace of a lone factor]
    for i, f in enumerate(factors):
        laplace, unit = None, False
        if f.min_prec() is None:
            if f.ring.a == 1:
                unit = True
            else:
                full = tuple(range(f.n))
                laplace = _Laplace(f)
                d = laplace.minor(full, full)[0]
                unit = bool(d.coeffs) and d.coeffs[0][1] % f.ring.p != 0
        if unit and joins:
            runs[-1] = [runs[-1][0], i + 1, None]
        else:
            runs.append([i, i + 1, laplace])
        joins = unit

    def invert(first: int, end: int, laplace: _Laplace | None) -> LoopElement:
        if end - first == 1:
            return factors[first].inverse(window, laplace)
        if tail is not None and first <= 1 and end == len(factors):
            return (tail if first else factors[0] * tail).inverse(window)
        return product_of(factors[first:end]).inverse(window)

    return reduce(mul, [invert(*run) for run in reversed(runs)])


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


def straightening_gap(p: int, a: int, f: int, h_mu: int) -> int:
    """The contraction margin; positive means the fixed-point iteration applies."""
    return (p - 1) * f - h_mu - 2 * a + 2


def _is_integral_unit(a: LoopElement) -> bool:
    """a is in GL_n(R[[u]]): no term below u^0, and det(a) is a unit mod (p, u)."""
    return (all(s.lo == 0 for row in a.rows for s in row)
            and a.with_prec(1).det().coeff(0) % a.ring.p != 0)


def straighten_right(x, b: LoopElement, f: int, h_mu: int,
                     start: LoopElement | None = None,
                     window: int | None = None) -> StraighteningResult:
    """Solve A^{-1} X phi(A) = B X by Banach iteration of Psi_B(A) = X phi(A) X^{-1} B^{-1}.

    `x` may be a LoopElement or a sequence of factors (U, t^nu, V).  The
    iteration needs only Y = X^{-1} B^{-1} = (B X)^{-1}, formed as
    `inverse_of([B, U, t^nu, V])`: one inverse of B X at a = 1, and at
    a >= 2, where a v+p core's determinant (v+p)^h has p^h below its unit
    term, three (B U, the core and V).  Each factor that is windowed, or
    has such a determinant, is inverted alone, so the window and the work
    its inverse costs stay its own.  Refuses when the contraction bound
    (p-1)f - h_mu - 2a + 2 is not positive.  Raises ValueError for a `start`
    known to less than `window`, and for a window the iterates cannot keep:
    X phi(A) Y is known to p * window plus the least exponents of X and Y.

    The answer satisfies A = Psi_B(A) below the window, and the residual
    A^{-1} X phi(A) (B X)^{-1} is A^{-1} Psi_B(A), so `residual_is_one`
    holds when A is an integral unit.
    """
    x_factors = [x] if isinstance(x, LoopElement) else list(x)
    x_prod = product_of(x_factors)
    ring = x_prod.ring
    gap = straightening_gap(ring.p, ring.a, f, h_mu)
    if gap <= 0:
        raise RefusedError(
            f"straightening bound violated: (p-1)f - h_mu - 2a + 2 = {gap} <= 0")
    if window is None:
        window = x_prod.min_prec()
    if window is None:
        window = b.min_prec()
    if window is None:
        window = 4 * ring.p * ring.e
    if start is not None and _min_prec(start.min_prec(), window) < window:
        raise ValueError(f"the start is known to u^{start.min_prec()}, short of window {window}")
    # generous internal windows so every iterate stays known down to `window`
    slack = window + ring.e * (abs(h_mu) * x_prod.n + 4 * ring.a + 8)
    xb = inverse_of([b] + x_factors, slack, tail=x_prod)
    low = sum(min(_vanishing_below(s) for row in el.rows for s in row) for el in (xb, x_prod))
    if ring.p * window + low < window:
        raise ValueError(f"the iterates are known to u^(p*window{low:+d}) only, short of the "
                         f"window {window}: the least window that works is {-(low // (ring.p - 1))}")
    a_cur = start if start is not None else LoopElement.identity(ring, x_prod.n)
    a_cur = a_cur.with_prec(window)
    trace = []
    for _ in range((window // ring.e) // gap + 4):
        # phi spreads the window over p times the exponents; each product
        # that takes it meets a finite-window factor, so only the part below
        # that window is multiplied
        a_next = (x_prod * (a_cur.phi() * xb)).with_prec(window)
        if a_next.min_prec() < window:
            raise PrecisionError("window slack exhausted during iteration")
        # depth of the update a_cur^{-1} a_next: a_cur is an integral unit, so
        # a_cur^{-1} a_next - 1 = a_cur^{-1} (a_next - a_cur) has the valuation
        # of a_next - a_cur.  Both are cut to the window, so that is the least
        # exponent at which an entry's terms differ, or the window
        differ = min([_first_difference(s.coeffs, t.coeffs, window)
                      for r_next, r_cur in zip(a_next.rows, a_cur.rows)
                      for s, t in zip(r_next, r_cur)])
        trace.append(differ // ring.e)
        if differ == window:
            break
        a_cur = a_next
    else:
        raise PrecisionError("straightening did not converge within the window")
    # both are known to the window, so a_cur is a_next: Psi_B(A) = A there
    return StraighteningResult(a_cur, len(trace), _is_integral_unit(a_cur), tuple(trace))


def _first_difference(a: tuple, b: tuple, window: int) -> int:
    """The least exponent at which the sorted terms a and b differ, or
    `window` when they agree."""
    for (ka, va), (kb, vb) in zip(a, b):
        if ka != kb or va != vb:
            return min(ka, kb)
    longer = a[len(b):] or b[len(a):]
    return longer[0][0] if longer else window


def _v_plus_p_power(ring: Ring, k: int) -> TruncSeries:
    """(v+p)^k by the binomial theorem: sum over j < a of C(k, j) p^j v^(k-j),
    since p^j = 0 mod p^a from j = a on.  C(k, j) is carried exactly as
    p^t times a unit mod p^a, so k may have thousands of digits."""
    p, a, m = ring.p, ring.a, ring.modulus
    coeffs, t, unit = {k: 1}, 0, 1
    for j in range(1, min(k, a - 1) + 1):
        # C(k, j) = C(k, j-1) (k - j + 1) / j
        for x, step in ((k - j + 1, 1), (j, -1)):
            while x % p == 0:
                x, t = x // p, t + step
            unit = unit * pow(x, step, m) % m
        if t + j < a:
            coeffs[k - j] = unit * p ** (t + j)
    return TruncSeries.make(ring, coeffs)


def congruence_compare(n: int, a: int, p: int) -> dict:
    """Verify the v-versus-(v+p) congruence facts by explicit division.

    Checks (v+p)^n in v^{n-a+1} R[v], v^n in (v+p)^{n-a+1} R[v], and
    (v+p)^{p^{a-1}} = v^{p^{a-1}} mod p^a; quotients are returned.  Each
    power has at most a terms (_v_plus_p_power), so no series product is
    made, and the division takes at most a steps of a terms each.
    """
    if n < a:
        raise ValueError("first inclusion needs n >= a")
    ring = Ring(p, a, 1)
    m, deg_d, t = ring.modulus, n - a + 1, p**(a - 1)
    powers = {k: _v_plus_p_power(ring, k) for k in (deg_d, n, t)}
    # (v+p)^n / v^{n-a+1}: every coefficient below n-a+1 must vanish mod p^a
    low_ok = all(k >= deg_d for k, _ in powers[n].coeffs)
    quotient1 = {k - deg_d: v for k, v in powers[n].coeffs if k >= deg_d}
    # v^n divided by the monic (v+p)^{n-a+1}, top term down (popping c v^k
    # cancels it); rem is reduced mod p^a only where it is read
    rem = {n: 1}
    quotient2: dict[int, int] = {}
    for k in range(n, deg_d - 1, -1):
        if c := rem.pop(k, 0) % m:
            quotient2[k - deg_d] = c
            for kk, vv in powers[deg_d].coeffs[:-1]:
                rem[kk + k - deg_d] = rem.get(kk + k - deg_d, 0) - c * vv
    division_ok = not any(v % m for v in rem.values())
    # (v+p)^{p^{a-1}} = v^{p^{a-1}} mod p^a
    binomial_ok = powers[t].equals(TruncSeries.monomial(ring, t))
    return {
        "first_inclusion": low_ok,
        "first_quotient": quotient1,
        "second_inclusion": division_ok,
        "second_quotient": quotient2,
        "frobenius_congruence": binomial_ok,
    }


def random_polynomial(rng: random.Random, ring: Ring, lo: int, deg: int) -> TruncSeries:
    """An exact random polynomial supported on [lo, deg)."""
    coeffs = {k: rng.randrange(ring.modulus) for k in range(lo, deg)}
    return TruncSeries.make(ring, coeffs)


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
        if _is_integral_unit(cand):
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
