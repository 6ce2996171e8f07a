from itertools import product

import pytest

from alcovekit.ff import GF, primitive_polynomial
from alcovekit.monomial import MonomialMatrix

PRIMES = [p for p in range(2, 50) if all(p % d for d in range(2, p))]


def walk_primitive_polynomial(p, k):
    """Reference search: the first monic candidate, in lexicographic order of
    its coefficients from the constant term up, on which the powers of x
    first return to 1 after exactly q - 1 steps."""
    q = p**k
    one = (1,) + (0,) * (k - 1)
    for coeffs in product(range(p), repeat=k):
        if coeffs[0] == 0:
            continue
        acc = one
        for step in range(1, q):
            # multiply by x: shift up, then x^k = -(c_0 + c_1 x + ... + c_{k-1} x^{k-1})
            top = acc[-1]
            acc = tuple((lo - top * c) % p for lo, c in zip((0,) + acc[:-1], coeffs))
            if acc == one:
                break
        if acc == one and step == q - 1:
            return coeffs + (1,)
    raise AssertionError("no primitive polynomial")


def test_primitive_polynomial_matches_the_order_walk():
    fields = [(p, k) for p in PRIMES for k in range(1, 12) if p**k <= 2500]
    assert len(fields) == 15 + 35
    for p, k in fields:
        assert primitive_polynomial(p, k) == walk_primitive_polynomial(p, k), (p, k)


def test_gf2_modulus_is_not_x():
    # x is 0 in GF(2)[x]/(x); the only degree-1 primitive polynomial is x + 1
    assert GF(2, 1).modulus == (1, 1)
    assert GF(2, 1).generator_power(5) == (1,)


@pytest.mark.parametrize("p,k", [(2, 1), (5, 1), (7, 2), (3, 4), (2, 6), (5, 3)])
def test_generator_power_is_the_repeated_product(p, k):
    field = GF(p, k)
    omega = (0, 1) + (0,) * (k - 2) if k >= 2 else ((-field.modulus[0]) % p,)
    one = (1,) + (0,) * (k - 1)
    acc = one
    for e in range(2 * (field.q - 1) + 1):
        assert field.generator_power(e) == acc, e
        assert (acc == one) == (e % (field.q - 1) == 0)  # omega has order q - 1
        acc = field.mul(acc, omega)
    assert field.generator_power(-1) == field.generator_power(field.q - 2)


def test_monomial_to_matrix_refuses_u_powers_and_wrong_mod():
    field = GF(7, 2)
    with pytest.raises(ValueError):
        field.monomial_to_matrix(MonomialMatrix.diag_upow((1, 0), 48))
    with pytest.raises(ValueError):
        field.monomial_to_matrix(MonomialMatrix.identity(2, 24))
    assert field.monomial_to_matrix(MonomialMatrix.identity(2, 48)) == [
        [(1, 0), (0, 0)], [(0, 0), (1, 0)]]
