"""Exact integer lattice arithmetic: Smith/Hermite reduction and quotients.

Everything here works on plain Python integers (arbitrary precision) and
lists of lists.  No floating point is allowed anywhere in this package's
lattice computations.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence


Matrix = list[list[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    if any(len(row) != k for row in a):
        raise ValueError("matrix shapes do not match")
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def smith_normal_form(mat: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal entries d_1 | d_2 | ... of the Smith normal form of `mat`.

    Returns the list of nonzero invariant factors (nonnegative, each dividing
    the next).  Zero rows/columns of the normal form are omitted.
    """
    m = [list(row) for row in mat]
    if not m or not m[0]:
        return []
    rows, cols = len(m), len(m[0])
    diag: list[int] = []
    top = 0
    while top < rows and top < cols:
        # find a nonzero pivot of least absolute value
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
        # clear the pivot row and column; restart if a remainder shrinks the pivot
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
    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if a and b % a != 0:
                from math import gcd

                g = gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return [d for d in diag if d != 0]


def quotient_invariants(rank: int, sub_gens: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """Invariant factors of Z^rank / <sub_gens>.

    Returns (free_rank, torsion) where torsion lists the invariant factors
    greater than 1, in divisibility order.
    """
    if rank == 0:
        return 0, []
    if not sub_gens:
        return rank, []
    diag = smith_normal_form(sub_gens)
    torsion = [d for d in diag if d > 1]
    free = rank - len(diag)
    return free, torsion


def solve_in_lattice(gens: Sequence[Sequence[int]], target: Sequence[Fraction | int]):
    """Express `target` as an integer combination of `gens`, or return None.

    `gens` are vectors in Q^n spanning a lattice; the coefficients must be
    integers for membership.  Uses exact fraction Gaussian elimination.
    """
    if not gens:
        return [] if all(x == 0 for x in target) else None
    rows = [[Fraction(x) for x in g] for g in gens]
    ncols = len(rows[0])
    aug = [row + [Fraction(1) if i == j else Fraction(0) for j in range(len(rows))]
           for i, row in enumerate(rows)]
    # row reduce the generator matrix, tracking the row operations
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
    t = [Fraction(x) for x in target]
    coeffs = [Fraction(0)] * len(gens)
    residual = list(t)
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


def in_lattice(gens: Sequence[Sequence[int]], target: Sequence[Fraction | int]) -> bool:
    return solve_in_lattice(gens, target) is not None


def kernel_basis(mat: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of the integer kernel {v : mat @ v = 0} of an integer matrix.

    Computed by reducing the transpose augmented with an identity; rows of
    the identity part whose matrix part has reduced to zero span the kernel.
    """
    rows, cols = len(mat), len(mat[0]) if mat else 0
    if cols == 0:
        return []
    # work on [mat^T | I]; integer row reduction of the left block
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
