"""Rank-5 Gram matrices, discriminants, and the four basis-change isometries."""

import pytest

from hassettmax.lattices import (
    BasisChange,
    GramMatrix5,
    apply_basis_change,
    disc_pair,
    gram_M,
    induced_form_F,
    is_positive_definite_gram,
    is_unimodular,
    isometry_to,
    residual_class,
    voisin_value,
)
from hassettmax.linalg import det_bareiss
from hassettmax.qforms import builtin_form

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


def test_pairing_is_the_matrix():
    m = gram_M(1, 0)
    e = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
         (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]
    for i in range(5):
        for j in range(5):
            assert m.pairing(e[i], e[j]) == m.entries[i][j]
    assert m.pairing((1, 1, 0, 0, 0), (0, 0, 1, 0, 1)) == (
        m.entries[0][2] + m.entries[0][4] + m.entries[1][2] + m.entries[1][4]
    )


def test_isometries_connect_all_variants():
    for source in PAIRS:
        for target in PAIRS:
            change = isometry_to(source, target)
            assert change.source == source and change.target == target
            assert is_unimodular(change)
            assert det_bareiss(change.matrix) in (1, -1)
            got = apply_basis_change(gram_M(*source), change)
            assert got == gram_M(*target).entries, (source, target)


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
    m = gram_M(0, 0)
    assert disc_pair(m, (0, 0, 1, 0, 0)) == 8  # P2
    assert disc_pair(m, (1, 0, 0, 0, 0)) == 0  # the polarization itself
    assert disc_pair(m, (0, 1, 1, 0, 0)) == 8  # P1 + P2


def test_induced_form_equals_builtin_f():
    induced = induced_form_F()
    f = builtin_form("F")
    assert induced.dim == 4
    assert induced.gram == f.gram


def test_positive_definiteness_of_variants():
    for alpha, beta in PAIRS:
        assert is_positive_definite_gram(gram_M(alpha, beta))
    # P4 . P4 = 0 leaves the leading minors 3, 8, 16, 32, -20
    rows = [list(row) for row in gram_M(0, 0).entries]
    rows[4][4] = 0
    assert not is_positive_definite_gram(GramMatrix5(tuple(map(tuple, rows)), 0, 0))


def test_unimodularity_detection():
    change = BasisChange(
        [[2 if i == j else 0 for j in range(5)] for i in range(5)], (0, 0), (0, 0)
    )
    assert not is_unimodular(change)
