import math
import random
from fractions import Fraction

import pytest

from alcovekit.lattices import (
    kernel_basis,
    quotient_invariants,
    smith_normal_form,
    solve_in_lattice,
)
from alcovekit.rootdata import build_root_datum, pi1, pi1_coinvariants, split_gamma, tate_h0


def test_smith_diagonal():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]


def test_smith_zero_and_rectangular():
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[3, 6, 9]]) == [3]
    # a zero between diagonal entries still gives the divisibility chain
    assert smith_normal_form([[2, 0, 0], [0, 0, 0], [0, 0, 3]]) == [1, 6]


def test_quotient_invariants():
    # Z^3 / <e1-e2, e2-e3, 3e3-ish>: the PGL3-style index-3 sublattice
    free, tor = quotient_invariants(3, [[1, -1, 0], [0, 1, -1], [1, 1, 1]])
    assert (free, tor) == (0, [3])
    free, tor = quotient_invariants(2, [[2, 0]])
    assert free == 1 and tor == [2]
    assert quotient_invariants(2, []) == (2, [])


def test_solve_in_lattice():
    gens = [[1, -1, 0], [0, 1, -1]]
    assert solve_in_lattice(gens, (1, 0, -1)) == [1, 1]
    assert solve_in_lattice(gens, (1, 1, 1)) is None
    assert solve_in_lattice(gens, (2, -1, -1)) is not None
    # rational targets go through a root datum, which scales by its den
    half = (Fraction(1, 2), Fraction(-1, 2), 0)
    assert not build_root_datum("SL3").in_cochar_lattice(half)
    assert not build_root_datum("PGL3").in_cochar_lattice(half)
    assert build_root_datum("PGL3").in_cochar_lattice(
        (Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)))
    # dependent generators
    assert solve_in_lattice([[1, 1], [2, 2]], (1, 2)) is None
    assert solve_in_lattice([[2, 4], [3, 6]], (1, 2)) is not None


def test_kernel_basis():
    ker = kernel_basis([[1, 1, 1]])
    assert len(ker) == 2
    for v in ker:
        assert sum(v) == 0
    # fixed vectors of the unitary twist (a,b,c) -> (-c,-b,-a)
    delta = [[-1, 0, -1], [0, -2, 0], [-1, 0, -1]]  # J - 1
    ker = kernel_basis(delta)
    assert len(ker) == 1
    a, b, c = ker[0]
    assert b == 0 and a == -c


# ---------------------------------------------------------------------------
# Differential check against the three reductions the echelon routine
# replaced, copied here unchanged: a pivot-search Smith form, a Fraction
# Gauss-Jordan lattice solve and a transpose-plus-identity kernel.

def _old_smith(mat):
    from math import gcd

    m = [list(row) for row in mat]
    if not m or not m[0]:
        return []
    rows, cols = len(m), len(m[0])
    diag = []
    top = 0
    while top < rows and top < cols:
        pivot = None
        for i in range(top, rows):
            for j in range(top, cols):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[top], m[pi] = m[pi], m[top]
        for row in m:
            row[top], row[pj] = row[pj], row[top]
        while True:
            p = m[top][top]
            dirty = False
            for i in range(top + 1, rows):
                if m[i][top] % p != 0:
                    q = m[i][top] // p
                    for j in range(cols):
                        m[i][j] -= q * m[top][j]
                    m[top], m[i] = m[i], m[top]
                    dirty = True
                    break
            if dirty:
                continue
            for i in range(top + 1, rows):
                q = m[i][top] // p
                for j in range(cols):
                    m[i][j] -= q * m[top][j]
            for j in range(top + 1, cols):
                if m[top][j] % p != 0:
                    q = m[top][j] // p
                    for i in range(rows):
                        m[i][j] -= q * m[i][top]
                    for i in range(rows):
                        m[i][top], m[i][j] = m[i][j], m[i][top]
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(top + 1, cols):
                q = m[top][j] // p
                for i in range(rows):
                    m[i][j] -= q * m[i][top]
            break
        diag.append(abs(m[top][top]))
        top += 1
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if a and b % a != 0:
                g = gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return [d for d in diag if d != 0]


def _old_solve(gens, target):
    if not gens:
        return [] if all(x == 0 for x in target) else None
    rows = [[Fraction(x) for x in g] for g in gens]
    ncols = len(rows[0])
    aug = [row + [Fraction(1) if i == j else Fraction(0) for j in range(len(rows))]
           for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    coeffs = [Fraction(0)] * len(gens)
    residual = [Fraction(x) for x in target]
    for row_idx, c in enumerate(pivots):
        f = residual[c]
        if f != 0:
            for j in range(ncols):
                residual[j] -= f * aug[row_idx][j]
            for j in range(len(gens)):
                coeffs[j] += f * aug[row_idx][ncols + j]
    if any(x != 0 for x in residual):
        return None
    if any(x.denominator != 1 for x in coeffs):
        return None
    return [int(x) for x in coeffs]


def _old_kernel(mat):
    rows, cols = len(mat), len(mat[0]) if mat else 0
    if cols == 0:
        return []
    work = [[mat[i][j] for i in range(rows)] + [1 if j == k else 0 for k in range(cols)]
            for j in range(cols)]
    r = 0
    for c in range(rows):
        while True:
            pr = None
            for i in range(r, cols):
                if work[i][c] != 0 and (pr is None or abs(work[i][c]) < abs(work[pr][c])):
                    pr = i
            if pr is None:
                break
            work[r], work[pr] = work[pr], work[r]
            done = True
            for i in range(r + 1, cols):
                if work[i][c] != 0:
                    q = work[i][c] // work[r][c]
                    work[i] = [x - q * y for x, y in zip(work[i], work[r])]
                    if work[i][c] != 0:
                        done = False
            if done:
                r += 1
                break
    return [row[rows:] for row in work if all(x == 0 for x in row[:rows])]


def _random_matrix(rng, rows, cols, bound=6, rational=False):
    """Entries in [-bound, bound], about a third of them zero; rational
    entries get a denominator in 1..3."""
    def entry():
        x = rng.randint(-bound, bound) if rng.random() > 0.35 else 0
        return Fraction(x, rng.randint(1, 3)) if rational else x
    return [[entry() for _ in range(cols)] for _ in range(rows)]


def _scaled(gens, target):
    """Rational generators and target times a common denominator d: x lies in
    L(gens) exactly when d x lies in L(d gens), with the same coefficients."""
    d = math.lcm(*(Fraction(x).denominator for v in (*gens, target) for x in v))
    return [[int(x * d) for x in g] for g in gens], [int(x * d) for x in target]


def _combination(coeffs, gens, n):
    return tuple(sum(c * g[k] for c, g in zip(coeffs, gens)) for k in range(n))


def _rank(gens):
    return len(_old_smith([[int(x * 6) for x in g] for g in gens])) if gens else 0


def test_smith_matches_the_pivot_search_reduction():
    rng = random.Random(20261018)
    for _ in range(600):
        mat = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), bound=rng.choice((1, 6, 40)))
        assert smith_normal_form(mat) == _old_smith(mat), mat


def test_kernel_matches_the_transpose_reduction():
    rng = random.Random(7)
    for _ in range(400):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        mat = _random_matrix(rng, rows, cols)
        new, old = kernel_basis(mat), _old_kernel(mat)
        assert len(new) == len(old), mat
        for v in new:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in mat)
        # equal spans: each basis lies in the lattice of the other
        for v in new:
            assert not old or _old_solve(old, v) is not None, mat
        for v in old:
            assert not new or _old_solve(new, v) is not None, mat


def test_solve_matches_gauss_jordan_on_independent_generators():
    rng = random.Random(11)
    checked = 0
    while checked < 400:
        n = rng.randint(1, 4)
        gens = _random_matrix(rng, rng.randint(1, n), n, rational=rng.random() < 0.5)
        if _rank(gens) < len(gens):
            continue
        checked += 1
        inside = _combination([rng.randint(-5, 5) for _ in gens], gens, n)
        outside = tuple(x + Fraction(rng.randint(-2, 2), rng.randint(1, 4)) for x in inside)
        for target in (inside, outside, (0,) * n):
            assert solve_in_lattice(*_scaled(gens, target)) == _old_solve(gens, target), \
                (gens, target)


def test_solve_on_dependent_generators_finds_every_solution_gauss_jordan_found():
    rng = random.Random(13)
    checked = 0
    while checked < 300:
        n = rng.randint(1, 3)
        gens = _random_matrix(rng, rng.randint(n, n + 2), n, rational=rng.random() < 0.5)
        if _rank(gens) == len(gens):
            continue
        checked += 1
        target = _combination([rng.randint(-4, 4) for _ in gens], gens, n)
        coeffs = solve_in_lattice(*_scaled(gens, target))
        assert coeffs is not None and _combination(coeffs, gens, n) == target, (gens, target)
        old = _old_solve(gens, target)
        assert old is None or _combination(old, gens, n) == target
    gens = [[Fraction(-1, 2), 4], [Fraction(5, 3), -2], [0, -2]]
    target = (Fraction(-1, 6), -14)
    assert _old_solve(gens, target) is None
    assert _combination(solve_in_lattice(*_scaled(gens, target)), gens, 2) == target


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pi1_and_tate_closed_forms(n):
    # split inertia of order e: pi_1 is Z, 0, Z/n and Tate H^0 is (Z/e)^rank
    e = 4
    cases = {f"GL{n}": ((1, []), n)}
    if n > 1:
        cases[f"SL{n}"] = ((0, []), n - 1)
        cases[f"PGL{n}"] = ((0, [n]), n - 1)
    for label, (fundamental, rank) in cases.items():
        rd = build_root_datum(label)
        g = split_gamma(rd, 5, e)  # r = ord_4(5) = 1
        assert pi1(rd) == fundamental
        assert pi1_coinvariants(rd, g) == (fundamental, not fundamental[1])
        assert tate_h0(rd, g) == [e] * rank
    if n > 1:
        rd = build_root_datum(f"GL{n}xSL{n}xPGL{n}")
        g = split_gamma(rd, 5, e)  # r = ord_4(5) = 1
        assert pi1(rd) == (1, [n])
        assert tate_h0(rd, g) == [e] * (3 * n - 2)
