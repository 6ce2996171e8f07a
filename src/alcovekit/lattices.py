"""Exact integer lattice arithmetic: Smith normal form, kernels, quotients.

Everything here takes and returns plain Python integers (arbitrary
precision) in lists of lists.  No floating point is allowed anywhere in this
package's lattice computations, and no rational arithmetic is done here
either: rational lattice data is scaled to integers by its owner (the
cocharacter basis of a root datum is held as numerators over one `den`).  One
integer routine, `_echelon`, brings a matrix to row echelon form by
unimodular row operations and returns the transform with it.  The kernel is
read off the transform, a lattice solve divides down the echelon pivots,
and the Smith form alternates the routine on a matrix and its transpose
(Cohen, A Course in Computational Algebraic Number Theory, section 2.4).
"""
from __future__ import annotations

from math import gcd
from typing import Sequence


Matrix = list[list[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    if any(len(row) != k for row in a):
        raise ValueError("matrix shapes do not match")
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def _echelon(rows: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix]:
    """Row echelon form h of an integer matrix and a unimodular u with u @ rows == h.

    The nonzero rows of h come first; each has a positive pivot strictly to
    the right of the pivot of the row above, with zeros below every pivot.
    """
    h = [list(r) for r in rows]
    u = identity_matrix(len(h))
    top = 0
    for c in range(len(h[0]) if h else 0):
        # Euclid down column c: the entry of least absolute value reduces the rest
        while nz := [i for i in range(top, len(h)) if h[i][c]]:
            piv = min(nz, key=lambda i: abs(h[i][c]))
            h[top], h[piv], u[top], u[piv] = h[piv], h[top], u[piv], u[top]
            if len(nz) == 1:
                if h[top][c] < 0:
                    h[top], u[top] = [-x for x in h[top]], [-x for x in u[top]]
                top += 1
                break
            for i in range(top + 1, len(h)):
                if q := h[i][c] // h[top][c]:
                    h[i] = [x - q * y for x, y in zip(h[i], h[top])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[top])]
    return h, u


def smith_normal_form(mat: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal entries d_1 | d_2 | ... of the Smith normal form of `mat`.

    Returns the list of nonzero invariant factors (nonnegative, each dividing
    the next).  Zero rows/columns of the normal form are omitted.
    """
    if not mat or not mat[0]:
        return []
    m = [list(row) for row in mat]
    # echelon the rows, then the columns, until nothing is left off the diagonal
    while any(x for i, row in enumerate(m) for j, x in enumerate(row) if i != j):
        m = [list(col) for col in zip(*_echelon(m)[0])]
    diag = [abs(m[i][i]) for i in range(min(len(m), len(m[0]))) if m[i][i]]
    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a != 0:
                g = gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return diag


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


def solve_in_lattice(gens: Sequence[Sequence[int]], target: Sequence[int]):
    """Express `target` as an integer combination of `gens`, or return None.

    `gens` are integer vectors spanning a lattice, possibly dependent, and
    `target` is an integer vector.  The generators are echeloned, and the
    target is reduced by exact integer division down the pivots.
    """
    if not gens:
        return [] if all(x == 0 for x in target) else None
    h, u = _echelon(gens)
    residual = list(target)
    coeffs = [0] * len(gens)
    for row, urow in zip(h, u):
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            break
        f, rem = divmod(residual[c], row[c])
        if rem:
            return None
        residual = [x - f * y for x, y in zip(residual, row, strict=True)]
        coeffs = [x + f * y for x, y in zip(coeffs, urow)]
    return None if any(residual) else coeffs


def kernel_basis(mat: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of the integer kernel {v : mat @ v = 0} of an integer matrix.

    Read off the transform u that echelons the transpose: the rows of u
    whose echelon row is zero span the kernel.
    """
    if not mat or not mat[0]:
        return []
    h, u = _echelon([list(col) for col in zip(*mat)])
    return [urow for row, urow in zip(h, u) if not any(row)]
