"""The rank-5 plane lattices, their isometries, and the induced rank-4 form.

The Gram matrix family is indexed by two bits (alpha, beta). Basis order is
(o, P1, P2, P3, P4) where o is the distinguished self-pairing-3 class. The
two generators of the isometry group used here swap P2 (resp. P3) with the
residual class of the pair (P1, P2) (resp. (P1, P3)); each flips one bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import det_bareiss, identity, mat_mul, transpose
from .qforms import QuadraticForm, is_positive_definite

_PROFILE_VALUES = {"empty": 0, "point": 1, "line": -1}


@dataclass(frozen=True)
class GramMatrix5:
    entries: tuple[tuple[int, ...], ...]
    alpha: int
    beta: int

    def pairing(self, v, w) -> int:
        if len(v) != 5 or len(w) != 5:
            raise ValueError("vectors must have length 5")
        return sum(
            v[i] * self.entries[i][j] * w[j] for i in range(5) for j in range(5)
        )


@dataclass(frozen=True)
class BasisChange:
    matrix: tuple[tuple[int, ...], ...]
    source: tuple[int, int]
    target: tuple[int, int]


def gram_M(alpha: int, beta: int) -> GramMatrix5:
    if alpha not in (0, 1) or beta not in (0, 1):
        raise ValueError("alpha and beta must be 0 or 1")
    rows = (
        (3, 1, 1, 1, 1),
        (1, 3, -1, -1, 0),
        (1, -1, 3, 1, alpha),
        (1, -1, 1, 3, beta),
        (1, 0, alpha, beta, 3),
    )
    return GramMatrix5(rows, alpha, beta)


def voisin_value(profile: str) -> int:
    """Pairing value of two plane classes from their intersection type."""
    try:
        return _PROFILE_VALUES[profile]
    except KeyError:
        raise ValueError(f"unknown intersection profile: {profile!r}") from None


def residual_class(m: GramMatrix5, i: int, j: int) -> tuple[int, ...]:
    """Coordinates of o - Pi - Pj, defined when Pi and Pj meet in a line.

    The result r satisfies r.r = 3, r.Pi = r.Pj = -1 and o = Pi + Pj + r.
    """
    if not (1 <= i <= 4 and 1 <= j <= 4 and i != j):
        raise ValueError("plane indices must be distinct and in 1..4")
    if m.entries[i][j] != -1:
        raise ValueError(
            f"planes P{i} and P{j} do not meet in a line (pairing {m.entries[i][j]})"
        )
    r = [0] * 5
    r[0] = 1
    r[i] = -1
    r[j] = -1
    return tuple(r)


def _flip_matrix(column: int) -> list[list[int]]:
    # identity with one plane column replaced by the residual substitution
    u = identity(5)
    for row in range(5):
        u[row][column] = 0
    u[0][column] = 1
    u[1][column] = -1
    u[column][column] = -1
    return u


def isometry_to(source: tuple[int, int], target: tuple[int, int]) -> BasisChange:
    """Unimodular U with U^T M_source U = M_target.

    Composed from the alpha flip (P2 column) then the beta flip (P3 column);
    the two commute, so the order is a convention only.
    """
    sa, sb = source
    ta, tb = target
    gram_M(sa, sb)
    gram_M(ta, tb)
    u = identity(5)
    if sa != ta:
        u = mat_mul(u, _flip_matrix(2))
    if sb != tb:
        u = mat_mul(u, _flip_matrix(3))
    rows = tuple(tuple(int(x) for x in row) for row in u)
    return BasisChange(rows, (sa, sb), (ta, tb))


def apply_basis_change(m: GramMatrix5, change: BasisChange) -> tuple[tuple[int, ...], ...]:
    u = [list(r) for r in change.matrix]
    prod = mat_mul(mat_mul(transpose(u), [list(r) for r in m.entries]), u)
    return tuple(tuple(int(x) for x in row) for row in prod)


def is_unimodular(change: BasisChange) -> bool:
    return det_bareiss(change.matrix) in (1, -1)


def disc_pair(m: GramMatrix5, w) -> int:
    """Discriminant of the rank-2 sublattice spanned by o and w."""
    if len(w) != 5:
        raise ValueError("vectors must have length 5")
    o = (1, 0, 0, 0, 0)
    return m.pairing(o, o) * m.pairing(w, w) - m.pairing(o, w) ** 2


def induced_form_F() -> QuadraticForm:
    """The rank-4 form v -> disc<o, v1*P1 + ... + v4*P4> at (alpha, beta) = (0, 0)."""
    m = gram_M(0, 0)
    gram = tuple(
        tuple(3 * m.entries[i][j] - 1 for j in range(1, 5)) for i in range(1, 5)
    )
    return QuadraticForm(4, gram, "F_induced")


def is_positive_definite_gram(m: GramMatrix5) -> bool:
    return is_positive_definite(QuadraticForm(5, m.entries))
