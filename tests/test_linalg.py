"""clear_denominators against the per-entry reference it replaced, and
rank_over against the rank of all the rows."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hassettmax.linalg import clear_denominators, echelon, rank, rank_over


def _clear_denominators_reference(row):
    if all(type(x) is int for x in row):
        return list(row)
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


@pytest.mark.parametrize("row", [
    [3, 0, -7, 10**40],
    [Fraction(1, 2), Fraction(-2, 3), Fraction(0), Fraction(5)],
    [1, Fraction(3, 4), 0, Fraction(-1, 6)],
    [True, 2, False, Fraction(1, 3)],
    [True, False],
    [],
], ids=["int", "fraction", "mixed", "bool-mixed", "bool", "empty"])
def test_clear_denominators_matches_reference(row):
    got = clear_denominators(row)
    want = _clear_denominators_reference(row)
    # equal values of equal types: True == 1, so compare the types too
    assert [(type(x), x) for x in got] == [(type(x), x) for x in want]
    assert got is not row


# --- rank_over against the rank of all rows ---

_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@st.composite
def _prefix_and_rows(draw):
    """(P, R) of equal width: P and R may be empty, and R holds zero rows,
    copies of rows of P or R, and combinations of rows of P."""
    ncols = draw(st.integers(1, 6))
    row = st.lists(_ENTRIES, min_size=ncols, max_size=ncols)
    p = draw(st.lists(row, max_size=5))
    r = draw(st.lists(row, max_size=4))
    extra = draw(st.lists(st.sampled_from(["zero", "copy", "span"]), max_size=3))
    for kind in extra:
        if kind == "zero":
            r.append([0] * ncols)
        elif kind == "copy" and p + r:
            r.append(list(draw(st.sampled_from(p + r))))
        elif kind == "span" and p:
            coeffs = draw(st.lists(_ENTRIES, min_size=len(p), max_size=len(p)))
            r.append([sum((c * x for c, x in zip(coeffs, col)), Fraction(0)) for col in zip(*p)])
    return p, draw(st.permutations(r))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_prefix_and_rows())
def test_rank_over_is_the_rank_of_prefix_plus_rows(case):
    p, r = case
    want = rank(p + r)
    assert rank_over(echelon(p), r) == want
    assert rank_over(echelon(p, reduced=False), r) == want


def test_rank_over_edge_cases():
    p = [[1, 2, 3], [0, 0, 5], [Fraction(1, 2), 1, 4]]  # rank 2: row 3 is row 1/2 + row 2/2
    assert rank_over(echelon([]), []) == 0
    assert rank_over(echelon(p), []) == rank(p) == 2
    assert rank_over(echelon([]), p) == 2
    assert rank_over(echelon(p), [[0, 0, 0], [2, 4, 6], [0, 0, Fraction(-1, 3)]]) == 2
    assert rank_over(echelon(p), [[0, 1, 0], [0, 2, 0]]) == 3
