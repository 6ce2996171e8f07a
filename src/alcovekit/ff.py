"""Small finite fields GF(p^k) over a deterministically chosen primitive polynomial.

Used by the strictification routine to double-check monomial identities with
honest field arithmetic.  Elements are coefficient tuples over Z/p; the
modulus is the lexicographically smallest monic primitive polynomial of the
requested degree (as a tuple of coefficients from the constant term up),
found once when the field is built.

Primitivity test: with q = p^k, a monic f of degree k is primitive iff
x^(q-1) = 1 and x^((q-1)/l) != 1 modulo f for every prime l dividing q - 1
(either condition alone lets some reducible f through).  Candidates whose
norm (-1)^k f(0) is not a primitive root mod p are skipped before that.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product


def _poly_mul_mod(a: tuple, b: tuple, modulus: tuple, p: int) -> tuple:
    k = len(modulus) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    # reduce by the monic modulus
    for i in range(len(out) - 1, k - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(k):
                out[i - k + j] = (out[i - k + j] - c * modulus[j]) % p
    out = out[:k] + [0] * max(0, k - len(out))
    return tuple(out[:k])


def _poly_pow_mod(a: tuple, e: int, modulus: tuple, p: int) -> tuple:
    """a^e modulo `modulus` by square-and-multiply, e >= 0."""
    acc = (1,) + (0,) * (len(modulus) - 2)
    while e:
        if e & 1:
            acc = _poly_mul_mod(acc, a, modulus, p)
        a = _poly_mul_mod(a, a, modulus, p)
        e >>= 1
    return acc


def _prime_factors(n: int) -> list[int]:
    """Distinct primes dividing n >= 1, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def primitive_polynomial(p: int, k: int) -> tuple:
    """Lexicographically smallest monic primitive polynomial of degree k over F_p."""
    q = p**k
    one = (1,) + (0,) * (k - 1)
    cofactors = [(q - 1) // l for l in _prime_factors(q - 1)]
    norm_cofactors = [(p - 1) // l for l in _prime_factors(p - 1)]
    for c0 in range(1, p):
        norm = (-1) ** k * c0 % p
        if any(pow(norm, d, p) == 1 for d in norm_cofactors):
            continue
        for rest in product(range(p), repeat=k - 1):
            modulus = (c0,) + rest + (1,)
            x = _poly_mul_mod((0, 1), (1,), modulus, p)  # x reduced modulo the candidate
            if _poly_pow_mod(x, q - 1, modulus, p) == one and all(
                    _poly_pow_mod(x, d, modulus, p) != one for d in cofactors):
                return modulus
    raise RuntimeError("no primitive polynomial found")


@dataclass(frozen=True)
class GF:
    p: int
    k: int
    modulus: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "modulus", primitive_polynomial(self.p, self.k))

    @property
    def q(self) -> int:
        return self.p**self.k

    def generator_power(self, e: int) -> tuple:
        """omega^e as a coefficient tuple, omega = the class of x (primitive)."""
        x = _poly_mul_mod((0, 1), (1,), self.modulus, self.p)
        return _poly_pow_mod(x, e % (self.q - 1), self.modulus, self.p)

    def mul(self, a: tuple, b: tuple) -> tuple:
        return _poly_mul_mod(a, b, self.modulus, self.p)

    def zero(self) -> tuple:
        return (0,) * self.k

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mat_mul(self, A, B):
        n = len(A)
        out = [[self.zero()] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = self.zero()
                for t in range(n):
                    acc = self.add(acc, self.mul(A[i][t], B[t][j]))
                out[i][j] = acc
        return out

    def monomial_to_matrix(self, m) -> list:
        """Realize a constant MonomialMatrix over this field; mod must equal q-1."""
        if m.mod != self.q - 1 or not m.is_constant():
            raise ValueError("need a constant monomial matrix with mod = q - 1")
        n = m.n
        out = [[self.zero()] * n for _ in range(n)]
        for i in range(n):
            out[i][m.cols[i]] = self.generator_power(m.exps[i])
        return out
