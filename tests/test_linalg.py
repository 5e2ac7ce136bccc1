"""clear_denominators against the per-entry reference it replaced."""

from fractions import Fraction
from math import lcm

import pytest

from hassettmax.linalg import clear_denominators


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
