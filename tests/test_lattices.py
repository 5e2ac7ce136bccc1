"""Rank-5 Gram matrices, discriminants, and the four basis-change isometries."""

from itertools import product

import pytest

from hassettmax.lattices import (
    BasisChange,
    apply_basis_change,
    gram_M,
    induced_form_F,
    is_unimodular,
    isometry_to,
    residual_class,
    voisin_value,
)
from hassettmax.linalg import det_bareiss, identity, mat_mul
from hassettmax.qforms import QuadraticForm, builtin_form, evaluate, is_positive_definite

PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_gram_entries_frozen():
    m = gram_M(0, 0)
    assert m.entries == (
        (3, 1, 1, 1, 1),
        (1, 3, -1, -1, 0),
        (1, -1, 3, 1, 0),
        (1, -1, 1, 3, 0),
        (1, 0, 0, 0, 3),
    )
    for alpha, beta in PAIRS:
        e = gram_M(alpha, beta).entries
        assert e[2][4] == e[4][2] == alpha
        assert e[3][4] == e[4][3] == beta
        assert all(e[i][i] == 3 for i in range(5))
        assert all(e[0][i] == e[i][0] == 1 for i in range(1, 5))
        assert all(e[i][j] == e[j][i] for i in range(5) for j in range(5))


def test_gram_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gram_M(2, 0)
    with pytest.raises(ValueError):
        gram_M(0, -1)


def test_voisin_dictionary():
    assert voisin_value("empty") == 0
    assert voisin_value("point") == 1
    assert voisin_value("line") == -1
    with pytest.raises(ValueError):
        voisin_value("plane")


def test_isometries_connect_all_variants():
    for source in PAIRS:
        for target in PAIRS:
            change = isometry_to(source, target)
            assert change.source == source and change.target == target
            assert is_unimodular(change)
            assert det_bareiss(change.matrix) in (1, -1)
            got = apply_basis_change(gram_M(*source), change)
            assert got == gram_M(*target).entries, (source, target)


def reference_flip(column):
    u = identity(5)
    for row in range(5):
        u[row][column] = 0
    u[0][column] = 1
    u[1][column] = -1
    u[column][column] = -1
    return u


def test_isometry_is_the_product_of_flip_matrices():
    for source in PAIRS:
        for target in PAIRS:
            u = identity(5)
            if source[0] != target[0]:
                u = mat_mul(u, reference_flip(2))
            if source[1] != target[1]:
                u = mat_mul(u, reference_flip(3))
            assert isometry_to(source, target).matrix == tuple(map(tuple, u))


def test_flip_matrices_are_involutions():
    for source, target in [((0, 0), (1, 0)), ((0, 0), (0, 1))]:
        u = isometry_to(source, target).matrix
        square = [
            [sum(u[i][k] * u[k][j] for k in range(5)) for j in range(5)]
            for i in range(5)
        ]
        assert square == [[1 if i == j else 0 for j in range(5)] for i in range(5)]


def test_identity_isometry():
    change = isometry_to((1, 1), (1, 1))
    rows = [list(row) for row in change.matrix]
    assert rows == [[1 if i == j else 0 for j in range(5)] for i in range(5)]


def test_residual_class():
    m = gram_M(0, 0)
    assert residual_class(m, 1, 2) == (1, -1, -1, 0, 0)
    assert residual_class(m, 1, 3) == (1, -1, 0, -1, 0)
    with pytest.raises(ValueError):
        residual_class(m, 2, 3)  # pairing is +1, not a line
    with pytest.raises(ValueError):
        residual_class(m, 1, 1)
    with pytest.raises(ValueError):
        residual_class(m, 0, 2)


def test_disc_pair_frozen():
    lattice = QuadraticForm(5, gram_M(0, 0).entries)
    o = (1, 0, 0, 0, 0)

    def disc(w):  # of the rank-2 sublattice spanned by o and w
        ow = tuple(a + b for a, b in zip(o, w))
        b = (evaluate(lattice, ow) - evaluate(lattice, o) - evaluate(lattice, w)) // 2
        return evaluate(lattice, o) * evaluate(lattice, w) - b * b

    assert disc((0, 0, 1, 0, 0)) == 8  # P2
    assert disc(o) == 0  # the polarization itself
    assert disc((0, 1, 1, 0, 0)) == 8  # P1 + P2
    induced = induced_form_F()
    for v in product(range(-2, 3), repeat=4):
        assert evaluate(induced, v) == disc((0, *v))


def test_induced_form_equals_builtin_f():
    induced = induced_form_F()
    f = builtin_form("F")
    assert induced.dim == 4
    assert induced.gram == f.gram


def test_positive_definiteness_of_variants():
    for alpha, beta in PAIRS:
        assert is_positive_definite(QuadraticForm(5, gram_M(alpha, beta).entries))
    # P4 . P4 = 0 leaves the leading minors 3, 8, 16, 32, -20
    rows = [list(row) for row in gram_M(0, 0).entries]
    rows[4][4] = 0
    assert not is_positive_definite(QuadraticForm(5, tuple(map(tuple, rows))))


def test_unimodularity_detection():
    change = BasisChange(
        [[2 if i == j else 0 for j in range(5)] for i in range(5)], (0, 0), (0, 0)
    )
    assert not is_unimodular(change)
