"""Exact linear algebra over the rationals.

Matrices are lists of rows of ints or Fractions, exact throughout. One
integer elimination core, echelon, serves rref, rank, kernel_vector and
geometry's dimension counts: it scales each row to integers (an all-int
row is copied as is), takes as pivot the row with the least |entry| in
the column, eliminates fraction-free and divides every updated row by its
content. rref and kernel_vector read their Fractions off its rows; rank
clears only below each pivot. Determinants use Bareiss elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index

Matrix = list[list[Fraction]]


def clear_denominators(row) -> list[int]:
    """The row times the lcm of its denominators: an integer row."""
    if set(map(type, row)) <= {int}:
        return list(row)
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def echelon(rows, reduced: bool = True) -> tuple[list[list[int]], list[int]]:
    """Integer echelon form: (nonzero rows, pivot column indices).

    Row r has its pivot at column pivots[r] and zeros below it in that
    column; reduced=True also clears above it, so that dividing each row by
    its pivot gives the RREF. Rows are scaled by nonzero rationals only,
    which keeps their span; the pivot rows come out in no fixed sign."""
    m = [clear_denominators(row) for row in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        live = [i for i in range(r, nrows) if m[i][c]]
        if not live:
            continue
        # the least pivot keeps the multipliers of the other rows small
        pr = min(live, key=lambda i: abs(m[i][c]))
        m[r], m[pr] = m[pr], m[r]
        # the pivot row is zero left of c, and so is every row below it
        tail = m[r][c:]
        pv = tail[0]
        for i in range(nrows) if reduced else range(r + 1, nrows):
            f = m[i][c]
            if i != r and f:
                g = gcd(pv, f)
                s, t = pv // g, f // g
                head = m[i][:c]
                if s != 1 and i < r:
                    head = [s * a for a in head]
                row = head + [s * a - t * b for a, b in zip(m[i][c:], tail)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    return m[: len(pivots)], pivots


def rref(rows) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form. Returns (matrix, pivot column indices).

    Scaling a row by a nonzero rational keeps its span, and the RREF is
    unique, so integer elimination gives the same Fractions as over Q."""
    m, pivots = echelon(rows)
    ncols = len(rows[0]) if rows else 0
    zero = Fraction(0)  # the RREF is mostly zeros; skip Fraction's gcd for them
    out = [[Fraction(a, row[pc]) if a else zero for a in row]
           for row, pc in zip(m, pivots)]
    out += [[zero] * ncols for _ in range(len(pivots), len(rows))]
    return out, pivots


def rank(rows) -> int:
    """Rank over Q, by forward elimination only."""
    return len(echelon(rows, reduced=False)[1])


def kernel_vector(rows, pivots, ncols: int, free_values) -> list[Fraction]:
    """The kernel vector of echelon's reduced (rows, pivots) that is
    free_values[fc] at each free column fc listed and 0 at the other free
    columns; at each pivot pc it is -sum(value * row[fc]) / row[pc]."""
    v = [Fraction(0)] * ncols
    for fc, value in free_values.items():
        v[fc] = Fraction(value)
    for row, pc in zip(rows, pivots):
        v[pc] = Fraction(-sum(value * row[fc] for fc, value in free_values.items()), row[pc])
    return v


def mat_mul(a, b) -> list[list[int]]:
    """Product of integer matrices."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def det_bareiss(rows) -> int:
    """Determinant of an integer matrix, fraction-free (Bareiss). A
    non-integer entry (a Fraction, a float) raises TypeError."""
    m = [list(map(index, row)) for row in rows]
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
