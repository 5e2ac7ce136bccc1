"""Exact linear algebra over the rationals.

Matrices are lists of lists; entries are ints or Fractions and stay exact
throughout. rref scales each row to integers, eliminates fraction-free and
divides every updated row by its content, so Fractions appear only in its
output. Determinants use Bareiss elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Matrix = list[list[Fraction]]


def clear_denominators(row) -> list[int]:
    """The row times the lcm of its denominators: an integer row."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def rref(rows) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form. Returns (matrix, pivot column indices).

    Scaling a row by a nonzero rational keeps its span, and the RREF is
    unique, so integer elimination gives the same Fractions as over Q."""
    m = [clear_denominators(row) for row in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        pv = prow[c]
        for i in range(nrows):
            f = m[i][c]
            if i != r and f:
                g = gcd(pv, f)
                s, t = pv // g, f // g
                row = [s * a - t * b for a, b in zip(m[i], prow)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    zero = Fraction(0)  # the RREF is mostly zeros; skip Fraction's gcd for them
    out = [[Fraction(a, row[pc]) if a else zero for a in row]
           for row, pc in zip(m, pivots)]
    out += [[zero] * ncols for _ in range(len(pivots), nrows)]
    return out, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def kernel_basis(rows) -> list[list[Fraction]]:
    """Basis of the right kernel. One vector per free column, free variable
    set to 1, listed in ascending free-column order."""
    m, pivots = rref(rows)
    ncols = len(m[0]) if m else 0
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def mat_mul(a, b) -> list[list[int]]:
    """Product of integer matrices."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def det_bareiss(rows) -> int:
    """Determinant of an integer matrix, fraction-free (Bareiss)."""
    m = [list(map(int, row)) for row in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("square matrix required")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1
