"""Plane configurations, vanishing cubics, and dimension counts.

Frozen dimensions below were computed by two independent exact methods
(restriction-matrix kernel and evaluation at the 10 lattice points of each
plane) which the report requires to agree. Formula comparison flags are recorded output, checked
for internal consistency only. Each plane's integer restriction block is
checked against a Fraction expansion over its basis, and the restriction's
row space against one over sympy's kernel bases of the ideals.
"""

import hashlib
import json
from fractions import Fraction
from itertools import product
from math import lcm, prod

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hassettmax import geometry
from hassettmax.arith import SplitMix64
from hassettmax.geometry import (
    MONOMIALS,
    PARAM_MONOMIALS,
    CubicPoly,
    PlaneConfig,
    _monomial_values,
    alpha_beta,
    cubic_from_dict,
    cubic_to_dict,
    cubics_through,
    dims_report,
    gram_from_geometry,
    intersection_profile,
    linear_system_dim,
    linear_system_dim_by_evaluation,
    parse_rational,
    random_cubic,
    restriction_matrix,
    stabilizer_dim,
    standard_config,
    verify_cubic_dict,
)
from hassettmax.lattices import gram_M
from hassettmax.linalg import det_bareiss, echelon, kernel_vector, rank, rref

PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.fixture(scope="module")
def configs():
    return {(a, b): standard_config(a, b) for a, b in PAIRS}


@pytest.fixture(scope="module")
def vanishing_bases(configs):
    return {key: cubics_through(cfg) for key, cfg in configs.items()}


# --- monomial bookkeeping ---


def test_monomial_tables():
    assert len(MONOMIALS) == 56
    assert MONOMIALS[0] == (3, 0, 0, 0, 0, 0)
    assert MONOMIALS[-1] == (0, 0, 0, 0, 0, 3)
    assert len(set(MONOMIALS)) == 56
    assert all(sum(m) == 3 for m in MONOMIALS)
    assert list(MONOMIALS) == sorted(MONOMIALS, reverse=True)
    assert len(PARAM_MONOMIALS) == 10
    assert PARAM_MONOMIALS[0] == (3, 0, 0)


def test_cubic_requires_56_coefficients():
    with pytest.raises(ValueError):
        CubicPoly((Fraction(1),) * 55)


# --- configurations and profiles ---


def test_bases_are_killed_by_their_ideals(configs):
    for cfg in configs.values():
        for ideal, basis in zip(cfg.ideals, cfg.bases):
            assert len(basis) == 3
            for form in ideal:
                for bvec in basis:
                    assert sum(f * c for f, c in zip(form, bvec)) == 0


def test_fixed_profile_entries(configs):
    for cfg in configs.values():
        assert intersection_profile(cfg, 1, 2) == "line"
        assert intersection_profile(cfg, 1, 3) == "line"
        assert intersection_profile(cfg, 1, 4) == "empty"
        assert intersection_profile(cfg, 2, 3) == "point"


def test_variable_profile_entries(configs):
    assert intersection_profile(configs[(1, 1)], 2, 4) == "empty"
    assert intersection_profile(configs[(1, 1)], 3, 4) == "empty"
    assert intersection_profile(configs[(0, 1)], 2, 4) == "point"
    assert intersection_profile(configs[(0, 1)], 3, 4) == "empty"
    assert intersection_profile(configs[(1, 0)], 2, 4) == "empty"
    assert intersection_profile(configs[(1, 0)], 3, 4) == "point"
    assert intersection_profile(configs[(0, 0)], 2, 4) == "point"
    assert intersection_profile(configs[(0, 0)], 3, 4) == "point"


def test_profile_rejects_bad_indices(configs):
    cfg = configs[(1, 1)]
    with pytest.raises(ValueError):
        intersection_profile(cfg, 2, 2)
    with pytest.raises(ValueError):
        intersection_profile(cfg, 2, 1)
    with pytest.raises(ValueError):
        intersection_profile(cfg, 0, 3)


def test_profile_rejects_coinciding_planes(configs):
    cfg = configs[(1, 1)]
    # plane 4 equal to plane 1
    ideals, bases = cfg.ideals[:3] + cfg.ideals[:1], cfg.bases[:3] + cfg.bases[:1]
    twin = PlaneConfig(cfg.a, cfg.b, ideals, bases)
    with pytest.raises(ValueError, match="planes coincide"):
        intersection_profile(twin, 1, 4)
    with pytest.raises(ValueError, match="planes coincide"):
        gram_from_geometry(twin)


def test_alpha_beta_rule(configs):
    for (a, b), cfg in configs.items():
        alpha, beta = alpha_beta(cfg)
        assert alpha == (1 if a == 0 else 0)
        assert beta == (1 if b == 0 else 0)
    # generic rational parameters behave like (1, 1)
    assert alpha_beta(standard_config(Fraction(2, 3), Fraction(-7, 5))) == (0, 0)
    assert alpha_beta(standard_config(0, Fraction(11, 4))) == (1, 0)


def test_alpha_beta_rejects_base_profile_violations(configs):
    cfg = configs[(1, 1)]

    def unit(i):
        coeffs = [Fraction(0)] * 6
        coeffs[i] = Fraction(1)
        return tuple(coeffs)

    # fourth plane sharing the x = y = 0 locus meets plane 1 in a line
    bad_fourth = (unit(0), unit(1), unit(5))
    broken = PlaneConfig(cfg.a, cfg.b, cfg.ideals[:3] + (bad_fourth,), cfg.bases)
    with pytest.raises(ValueError, match=r"profile violation: planes \(1,4\) meet in a line"):
        alpha_beta(broken)
    with pytest.raises(ValueError, match=r"profile violation: planes \(1,4\) meet in a line"):
        gram_from_geometry(broken)


def test_profile_violation_at_1_4_is_raised_before_2_4_is_ranked(configs, monkeypatch):
    # plane 4 equal to plane 2 meets plane 1 in a line: that is the error,
    # not the coinciding planes (2,4), which are never ranked
    cfg = configs[(1, 1)]
    ideals, bases = cfg.ideals[:3] + cfg.ideals[1:2], cfg.bases[:3] + cfg.bases[1:2]
    twin = PlaneConfig(cfg.a, cfg.b, ideals, bases)
    calls = []
    real = geometry.intersection_profile
    monkeypatch.setattr(geometry, "intersection_profile",
                        lambda cfg, i, j: calls.append((i, j)) or real(cfg, i, j))
    for call in (alpha_beta, gram_from_geometry):
        calls.clear()
        with pytest.raises(ValueError, match=r"profile violation: planes \(1,4\) meet in a line"):
            call(twin)
        assert calls == [(1, 4)]


def test_alpha_beta_rejects_a_fourth_plane_meeting_p2_in_a_line(configs, monkeypatch):
    # no four planes reach this: with P1 meeting P2 in a line, a line of P4
    # in P2 would meet that line, and so P1; a stand-in profile reaches it
    real = geometry.intersection_profile
    monkeypatch.setattr(geometry, "intersection_profile",
                        lambda cfg, i, j: "line" if (i, j) == (2, 4) else real(cfg, i, j))
    for call in (alpha_beta, gram_from_geometry):
        with pytest.raises(ValueError, match="planes P2/P3 may not meet P4 in a line"):
            call(configs[(1, 1)])


def test_each_plane_pair_is_ranked_once(configs, monkeypatch):
    calls = []
    real = geometry.intersection_profile
    monkeypatch.setattr(geometry, "intersection_profile",
                        lambda cfg, i, j: calls.append((i, j)) or real(cfg, i, j))
    for cfg in configs.values():
        calls.clear()
        gram_from_geometry(cfg)
        # the pairs among planes 1-3 were ranked once, at import
        assert calls == [(1, 4), (2, 4), (3, 4)]


def test_fourth_plane_basis_at_generic_parameters(configs):
    # kernel of (v - y, u - z, w)
    expected = {
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 1, 0),
        (0, 0, 1, 1, 0, 0),
    }
    got = {tuple(int(c) for c in vec) for vec in configs[(1, 1)].bases[3]}
    assert got == expected


def test_gram_from_geometry_matches_template(configs):
    for (a, b), cfg in configs.items():
        built = gram_from_geometry(cfg)
        assert built == gram_M(*alpha_beta(cfg))
    frozen = gram_from_geometry(configs[(1, 1)])
    assert frozen.entries == (
        (3, 1, 1, 1, 1),
        (1, 3, -1, -1, 0),
        (1, -1, 3, 1, 0),
        (1, -1, 1, 3, 0),
        (1, 0, 0, 0, 3),
    )


# --- restrictions and vanishing cubics ---


def test_restriction_matrix_shape(configs):
    mat = restriction_matrix(configs[(1, 1)])
    assert len(mat) == 40
    assert all(len(row) == 56 for row in mat)


def _on_plane(matrix, i, coeffs):
    """Plane i's 10 rows of a restriction matrix applied to coeffs: the
    cubic's coefficients on that plane, in PARAM_MONOMIALS order. The dot
    products run in ints, on the coefficients times their common
    denominator, which is far cheaper than Fraction products."""
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    scaled = [int(c * den) for c in coeffs]
    return [Fraction(sum(c * x for c, x in zip(scaled, row) if c), den)
            for row in matrix[10 * (i - 1):10 * i]]


def test_nonvanishing_control_cubic(configs):
    matrix = restriction_matrix(configs[(1, 1)])
    coeffs = [Fraction(0)] * 56
    coeffs[MONOMIALS.index((0, 0, 0, 0, 0, 3))] = Fraction(1)  # w^3
    assert any(_on_plane(matrix, 1, coeffs))  # w is free on plane 1
    assert not any(_on_plane(matrix, 4, coeffs))  # plane 4 kills w


def test_vanishing_basis_sizes(vanishing_bases):
    assert len(vanishing_bases[(1, 1)]) == 24
    assert len(vanishing_bases[(0, 1)]) == 25
    assert len(vanishing_bases[(1, 0)]) == 25
    assert len(vanishing_bases[(0, 0)]) == 26


def test_vanishing_basis_restricts_to_zero(configs, vanishing_bases):
    for key, cfg in configs.items():
        matrix = restriction_matrix(cfg)
        for cubic in vanishing_bases[key]:
            for i in (1, 2, 3, 4):
                assert not any(_on_plane(matrix, i, cubic.coeffs))


def test_vanishing_basis_is_independent(vanishing_bases):
    from hassettmax.linalg import rank

    rows = [list(c.coeffs) for c in vanishing_bases[(1, 1)]]
    assert rank(rows) == 24


def test_random_cubic_vanishes_at_plane_points(configs):
    cfg = configs[(0, 1)]
    cubic = random_cubic(cfg, seed=1)
    assert any(c != 0 for c in cubic.coeffs)
    assert random_cubic(cfg, seed=1) == cubic
    assert random_cubic(cfg, seed=2) != cubic
    params = [(1, 2, 3), (Fraction(1, 2), -1, Fraction(2, 7)), (-4, 0, 5)]
    for basis in cfg.bases:
        for triple in params:
            point = [
                sum(Fraction(t) * bvec[i] for t, bvec in zip(triple, basis))
                for i in range(6)
            ]
            values = _monomial_values_reference(point)
            assert sum(c * v for c, v in zip(cubic.coeffs, values)) == 0


def test_random_cubic_is_the_weighted_kernel_sum(configs):
    from hassettmax.arith import SplitMix64

    cfg = configs[(1, 1)]
    basis = cubics_through(cfg)
    rng = SplitMix64(3)
    weights = [rng.randint(-9, 9) for _ in basis]
    expected = tuple(
        sum((w * c.coeffs[idx] for w, c in zip(weights, basis)), Fraction(0))
        for idx in range(56)
    )
    assert random_cubic(cfg, seed=3).coeffs == expected


# --- integer restriction against the Fraction expansion ---


def _poly_times_linear_reference(poly, lin):
    out = {}
    for expo, coef in poly.items():
        for var in range(3):
            if lin[var] == 0:
                continue
            key = list(expo)
            key[var] += 1
            key = tuple(key)
            out[key] = out.get(key, Fraction(0)) + coef * lin[var]
    return out


def _restrict_monomial_reference(monomial, basis):
    """Fraction expansion of a monomial on the plane s0*b0 + s1*b1 + s2*b2."""
    poly = {(0, 0, 0): Fraction(1)}
    for coord in range(6):
        lin = (basis[0][coord], basis[1][coord], basis[2][coord])
        for _ in range(monomial[coord]):
            poly = _poly_times_linear_reference(poly, lin)
    return poly


def _nullspace(rows):
    """sympy's kernel basis as Fraction rows: one vector per free column,
    that column set to 1, in ascending free-column order."""
    return [[Fraction(int(x.p), int(x.q)) for x in vec] for vec in sympy.Matrix(rows).nullspace()]


def _fraction_bases(cfg):
    """sympy's kernel bases of the plane ideals, Fraction entries."""
    return [_nullspace([list(f) for f in ideal]) for ideal in cfg.ideals]


def _block_reference(basis):
    columns = [_restrict_monomial_reference(m, basis) for m in MONOMIALS]
    return [[col.get(pm, Fraction(0)) for col in columns] for pm in PARAM_MONOMIALS]


def _restriction_matrix_reference(bases):
    return [row for basis in bases for row in _block_reference(basis)]


def _restrict_reference(coeffs, basis):
    total = {}
    for coeff, monomial in zip(coeffs, MONOMIALS):
        if coeff:
            for expo, c in _restrict_monomial_reference(monomial, basis).items():
                total[expo] = total.get(expo, Fraction(0)) + coeff * c
    return {e: c for e, c in total.items() if c != 0}


_DIGITS30 = st.integers(10**29, 10**30 - 1)
_PARAMETERS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.builds(lambda n, d, sign: Fraction(sign * n, d),
              _DIGITS30, _DIGITS30, st.sampled_from((1, -1))),
)


_PAIR30 = (
    Fraction(123456789012345678901234567891, 987654321098765432109876543211),
    Fraction(-314159265358979323846264338327, 271828182845904523536028747135),
)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_PARAMETERS, _PARAMETERS)
@example(Fraction(0), Fraction(0))
@example(Fraction(0), Fraction(-7, 3))
@example(Fraction(-5, 2), Fraction(0))
@example(Fraction(-4, 9), Fraction(-6, 5))
@example(*_PAIR30)
@example(Fraction(2**61 - 1), Fraction(0))
@example(Fraction(2**61 - 1), Fraction(-(2**61 - 1), 3))
def test_closed_form_bases_are_the_scaled_kernel_bases(a, b):
    # each basis spans its ideal's kernel: the ideal has rank 3, kills every
    # basis vector, and the basis has rank 3
    cfg = standard_config(a, b)
    for ideal, basis in zip(cfg.ideals, cfg.bases):
        assert all(sum(f * x for f, x in zip(form, vec)) == 0 for form in ideal for vec in basis)
        assert rank([list(f) for f in ideal]) == rank([list(v) for v in basis]) == 3
        assert all(type(x) is int for vec in basis for x in vec)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    _PARAMETERS,
    _PARAMETERS,
    st.integers(0, 2**32),
    st.sampled_from(MONOMIALS),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
)
@example(Fraction(0), Fraction(0), 1, (0, 0, 0, 0, 0, 3), Fraction(1))
@example(
    Fraction(123456789012345678901234567891, 987654321098765432109876543211),
    Fraction(-314159265358979323846264338327, 271828182845904523536028747135),
    5, (3, 0, 0, 0, 0, 0), Fraction(-2, 3),
)
def test_integer_restriction_matches_fraction_reference(a, b, seed, monomial, t):
    cfg = standard_config(a, b)
    matrix = restriction_matrix(cfg)
    assert all(type(x) is int for row in matrix for x in row)
    assert matrix == _restriction_matrix_reference(cfg.bases)
    # the row space, and so the kernel, is that over sympy's kernel bases
    reference = _restriction_matrix_reference(_fraction_bases(cfg))
    assert rref(matrix) == rref(reference)
    kernel = cubics_through(cfg)
    assert [list(c.coeffs) for c in kernel] == _nullspace(reference)

    # the seeded cubic plus t times one monomial: it vanishes on exactly the
    # planes that kill the monomial (all four when t = 0)
    coeffs = list(random_cubic(cfg, seed).coeffs)
    coeffs[MONOMIALS.index(monomial)] += t
    for cubic in [*kernel, CubicPoly(tuple(coeffs))]:
        for i, basis in enumerate(cfg.bases, start=1):
            want = _restrict_reference(cubic.coeffs, basis)
            assert _on_plane(matrix, i, cubic.coeffs) == [want.get(e, 0) for e in PARAM_MONOMIALS]


def _monomial_values_reference(point):
    powers = [(1, x, x * x, x * x * x) for x in point]
    return [prod(pw[e] for pw, e in zip(powers, m)) for m in MONOMIALS]


def test_param_monomial_points_are_unisolvent_for_ternary_cubics():
    # the values of the 10 ternary cubic monomials at the 10 points
    # (s0, s1, s2) of PARAM_MONOMIALS: a nonzero determinant means only the
    # zero cubic vanishes at all of them
    values = [[prod(s**e for s, e in zip(point, m)) for m in PARAM_MONOMIALS]
              for point in PARAM_MONOMIALS]
    assert det_bareiss(values) != 0


def _oracle_rows_reference(cfg):
    """All 40 oracle rows: the 56 monomial values at the points
    s0*b0 + s1*b1 + s2*b2 of each plane, (s0, s1, s2) in PARAM_MONOMIALS."""
    rows = []
    for basis in cfg.bases:
        for params in PARAM_MONOMIALS:
            point = [sum(t * x for t, x in zip(params, coords)) for coords in zip(*basis)]
            rows.append(_monomial_values_reference(point))
    return rows


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_PARAMETERS, _PARAMETERS)
@example(Fraction(0), Fraction(0))
@example(Fraction(-3, 7), Fraction(0))
@example(*_PAIR30)
@example(Fraction(2**61 - 1), Fraction(0))
def test_lattice_point_oracle_is_the_rank_of_all_40_rows(a, b):
    cfg = standard_config(a, b)
    rows = _oracle_rows_reference(cfg)
    assert len(rows) == 40
    oracle = linear_system_dim_by_evaluation(cfg)
    assert oracle == 56 - rank(rows) - 1 == linear_system_dim(cfg)


def test_plane_by_plane_oracle_on_rank_deficient_planes(configs):
    cfg = configs[(1, 1)]
    p1, p2, p3, p4 = cfg.bases
    zero = (0,) * 6
    for bases in [
        (p1, p2, p3, (p4[0], p4[0], p4[2])),  # plane 4 a line: block rank 4
        (p1, p2, p3, (zero, zero, zero)),  # plane 4 zero: block rank 0
    ]:
        twin = PlaneConfig(cfg.a, cfg.b, cfg.ideals, bases)
        matrix = restriction_matrix(twin)
        assert matrix == [row for basis in bases for row in _block_reference(basis)]
        assert [rank(matrix[n:n + 10]) for n in (0, 10, 20, 30)] != [10] * 4
        rows = _oracle_rows_reference(twin)
        oracle = linear_system_dim_by_evaluation(twin)
        assert oracle == 56 - rank(rows) - 1 == linear_system_dim(twin)


def _stabilizer_rows_reference(cfg):
    """All 36 stabilizer rows: for each plane, basis vector bvec and ideal
    generator form, the 6x6 matrix X (row-major) with form . (X bvec) = 0."""
    return [[form[i] * bvec[j] for i in range(6) for j in range(6)]
            for ideal, basis in zip(cfg.ideals, cfg.bases)
            for bvec in basis for form in ideal]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_PARAMETERS, _PARAMETERS)
@example(Fraction(0), Fraction(0))
@example(Fraction(-3, 7), Fraction(0))
@example(*_PAIR30)
@example(Fraction(2**61 - 1), Fraction(0))
def test_stabilizer_is_the_rank_of_all_36_rows(a, b):
    cfg = standard_config(a, b)
    rows = _stabilizer_rows_reference(cfg)
    assert len(rows) == 36
    stab = 36 - rank(rows)
    assert stabilizer_dim(cfg) == (stab, 36 - stab)


def _twins(cfg):
    """(ideals, bases) whose planes 1-3 are not written as standard_config
    writes them: same planes in other coordinates, other planes, Fraction
    entries, degenerate bases."""
    (i1, i2, i3, i4), (p1, p2, p3, p4) = cfg.ideals, cfg.bases
    scaled = tuple(tuple(-3 * x for x in form) for form in reversed(i2))
    halves = tuple(tuple(Fraction(x, 2) for x in form) for form in i3)
    zero = (0,) * 6
    return [
        ((i1, i2, i3, i4), ((p1[1], p1[0], p1[2]), p2, p3, p4)),  # plane 1 reordered
        ((i1, scaled, i3, i4), (p1, p2, p3, p4)),  # plane 2's ideal rescaled
        ((i1, i3, i3, i4), (p1, p2, p3, p4)),  # plane 2's ideal off its basis
        ((i1, i2, halves, i4), (p1, p2, tuple(reversed(p3)), p4)),
        ((i3, i2, i1, i4), (p3, p2, p1, p4)),  # planes 1 and 3 swapped
        ((i4, i2, i3, i1), (p4, p2, p3, p1)),  # planes 1 and 4 swapped
        ((i1, i2, i3, i4), (p1, (p2[2], zero, p2[2]), p3, p4)),  # plane 2 a point
        ((i1, i1, i3, i4), (p1, p1, p3, p4)),  # plane 2 equal to plane 1
    ]


# --- seeded cubics: the chart read-off against all 40 rows ---


def _seeded_cubic(rows, pivots, seed):
    """The kernel vector of echelon's reduced (rows, pivots) whose value
    at each free column is a weight in [-9, 9], drawn in ascending order."""
    rng = SplitMix64(seed)
    weights = {fc: rng.randint(-9, 9) for fc in range(56) if fc not in pivots}
    return CubicPoly(tuple(kernel_vector(rows, pivots, 56, weights)))


def _random_cubic_reference(cfg, seed):
    """The seeded cubic read off the echelon of all 40 restriction rows."""
    return _seeded_cubic(*echelon(restriction_matrix(cfg)), seed)


def _fixed_rows(rows_of):
    """The rows of planes 1-3 for one count, rows_of giving one plane's."""
    planes = geometry._FIXED_BASES
    if rows_of is geometry._stabilizer_rows:
        planes = tuple(zip(geometry._FIXED_IDEALS, geometry._FIXED_BASES))
    return [row for plane in planes for row in rows_of(plane)]


def test_fixed_restriction_rows_are_unit_rows_at_the_pinned_monomials():
    rows, pivots = echelon(_fixed_rows(geometry._plane_block))
    assert len(rows) == 22
    assert all(len(row) - row.count(0) == 1 for row in rows)
    # planes 1-3 are the coordinate planes on {u,v,w}, {z,v,w} and {y,u,w}:
    # a monomial in one plane's free coordinates alone is pinned to 0
    free = ({3, 4, 5}, {2, 4, 5}, {1, 3, 5})
    pinned = {m for m, triple in enumerate(geometry._INDEX_TRIPLES)
              if any(set(triple) <= plane for plane in free)}
    assert len(pinned) == 22
    assert geometry._PINNED == pinned == set(pivots)


def test_each_count_pins_the_unit_rows_of_planes_1_3():
    # the premise of _rank_of_planes: for each count, the echelon of planes
    # 1-3's rows is unit rows, so only its pivot set is kept
    counts = geometry._FIXED_PLANES
    assert list(counts) == [geometry._plane_block, geometry._oracle_rows,
                            geometry._stabilizer_rows]
    for rows_of, (pinned, unpinned) in counts.items():
        rows, pivots = echelon(_fixed_rows(rows_of))
        assert all(len(row) - row.count(0) == 1 for row in rows)
        assert isinstance(pinned, frozenset) and pinned == set(pivots)
        width = len(rows[0])
        assert list(unpinned(range(width))) == [c for c in range(width) if c not in pinned]
    # the oracle rows span the restriction rows: the invertible 10x10
    assert counts[geometry._oracle_rows][0] == counts[geometry._plane_block][0] == geometry._PINNED
    assert len(geometry._PINNED) == 22
    assert len(counts[geometry._stabilizer_rows][0]) == 19


def test_fixed_planes_refuse_rows_whose_echelon_is_not_unit_rows():
    # at b != 0, monomials x^2*y and x^2*v both restrict to x^2*y on plane
    # 4: its echelon has a row with two nonzeros (at a = b = 0 it is unit rows)
    for a, b in [(0, 1), (1, 1), _PAIR30]:
        fourth = standard_config(a, b).bases[3]
        with pytest.raises(AssertionError, match="not a unit row"):
            geometry._fixed_planes(geometry._plane_block, (*geometry._FIXED_BASES, fourth))


_PLANE_4 = st.sampled_from(["plane", "line", "zero"])


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_PARAMETERS, _PARAMETERS, _PLANE_4)
@example(Fraction(0), Fraction(0), "plane")
@example(Fraction(-3, 7), Fraction(0), "line")
@example(*_PAIR30, "plane")
@example(*_PAIR30, "zero")
@example(Fraction(2**61 - 1), Fraction(0), "line")
def test_each_count_is_the_rank_of_all_four_planes_rows(a, b, plane_4):
    # the pinned columns plus plane 4's masked rank against one rank of the
    # rows of all four planes, for plane 4 a plane, a line or zero
    cfg = standard_config(a, b)
    p1, p2, p3, p4 = cfg.bases
    fourth = {"plane": p4, "line": (p4[0], p4[0], p4[2]), "zero": ((0,) * 6,) * 3}[plane_4]
    cfg = PlaneConfig(cfg.a, cfg.b, cfg.ideals, (p1, p2, p3, fourth))
    fiber = 56 - rank(_restriction_matrix_reference(cfg.bases)) - 1
    assert linear_system_dim(cfg) == fiber
    assert linear_system_dim_by_evaluation(cfg) == 56 - rank(_oracle_rows_reference(cfg)) - 1
    stab = 36 - rank(_stabilizer_rows_reference(cfg))
    assert stabilizer_dim(cfg) == (stab, 36 - stab)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_PARAMETERS, _PARAMETERS, st.integers(0, 2**64))
@example(Fraction(0), Fraction(0), 1)
@example(Fraction(0), Fraction(-7, 3), 5)
@example(Fraction(-5, 2), Fraction(0), 2**64)
@example(Fraction(-4, 9), Fraction(-6, 5), 0)
@example(*_PAIR30, 7)
@example(Fraction(2**61 - 1), Fraction(0), 3)
@example(Fraction(2**61 - 1), Fraction(-(2**61 - 1), 3), 11)
def test_random_cubic_is_read_off_all_40_rows(a, b, seed):
    cfg = standard_config(a, b)
    assert random_cubic(cfg, seed) == _random_cubic_reference(cfg, seed)


@pytest.mark.parametrize("pair", [(0, 0), (Fraction(-4, 9), Fraction(-6, 5)), _PAIR30])
def test_counts_off_the_fixed_planes_are_the_ranks_of_all_rows(pair):
    # PlaneConfig refuses planes 1-3 other than the fixed ones; it accepts
    # a degenerate plane 4, whose counts are the ranks of all rows
    cfg = standard_config(*pair)
    for ideals, bases in _twins(cfg):
        assert (ideals[:3], bases[:3]) != (cfg.ideals[:3], cfg.bases[:3])
        with pytest.raises(ValueError, match="planes 1-3 must be the fixed coordinate planes"):
            PlaneConfig(cfg.a, cfg.b, ideals, bases)
    p1, p2, p3, p4 = cfg.bases
    zero = (0,) * 6
    for fourth in [(p4[0], p4[0], p4[2]), (zero, zero, zero)]:
        twin = PlaneConfig(cfg.a, cfg.b, cfg.ideals, (p1, p2, p3, fourth))
        stab = 36 - rank(_stabilizer_rows_reference(twin))
        assert stabilizer_dim(twin) == (stab, 36 - stab)
        fiber = 56 - rank(_restriction_matrix_reference(twin.bases)) - 1
        assert linear_system_dim(twin) == fiber
        oracle = 56 - rank(_oracle_rows_reference(twin)) - 1
        assert linear_system_dim_by_evaluation(twin) == oracle == fiber


@pytest.mark.parametrize("pair", [(0, 0), (Fraction(-4, 9), Fraction(-6, 5)), _PAIR30])
def test_random_cubic_on_twins_is_read_off_all_40_rows(pair):
    # over the fixed planes 1-3, a zero plane 4 and each plane of _twins,
    # the point among them included, are in the chart and read off all 40
    # rows; the line with basis vector e_x twice is not, and the producer
    # refuses it as the replay does
    cfg = standard_config(*pair)
    p1, p2, p3, p4 = cfg.bases
    zero = (0,) * 6
    fourths = {basis for _, bases in _twins(cfg) for basis in bases} | {(zero, zero, zero)}
    for n, fourth in enumerate(sorted(fourths)):
        twin = PlaneConfig(cfg.a, cfg.b, cfg.ideals, (p1, p2, p3, fourth))
        assert random_cubic(twin, n) == _random_cubic_reference(twin, n)
    line = PlaneConfig(cfg.a, cfg.b, cfg.ideals, (p1, p2, p3, (p4[0], p4[0], p4[2])))
    with pytest.raises(ValueError, match="not in standard_config's chart"):
        random_cubic(line, 1)
    with pytest.raises(ValueError, match="not in standard_config's chart"):
        geometry.cubic_replays(CubicPoly((Fraction(0),) * 56), line, 1)


@pytest.mark.parametrize("pair", PAIRS)
def test_replay_rejects_a_cubic_with_a_pinned_column_dropped(configs, monkeypatch, pair):
    # plane 4 lies in w = 0, so its block is 0 at each monomial with w: such
    # a column, no longer pinned, is free and takes a weight
    cfg = configs[pair]
    with_w = [m for m in sorted(geometry._PINNED) if 5 in geometry._INDEX_TRIPLES[m]]
    assert len(with_w) == 12
    column, seeds = with_w[0], range(40)
    honest = [random_cubic(cfg, seed) for seed in seeds]
    monkeypatch.setattr(geometry, "_PINNED", geometry._PINNED - {column})
    cubics = [random_cubic(cfg, seed) for seed in seeds]
    assert all(cubic != want for cubic, want in zip(cubics, honest))
    assert not any(verify_cubic_dict(cubic_to_dict(cubic, cfg, seed))
                   for cubic, seed in zip(cubics, seeds))
    # a weight of 0 there shifts the later weights: a cubic through all four
    # planes, which only the seed replay rejects
    matrix = restriction_matrix(cfg)
    through = [cubic for cubic in cubics if cubic.coeffs[column] == 0]
    assert through
    for cubic in through:
        assert not any(any(_on_plane(matrix, i, cubic.coeffs)) for i in (1, 2, 3, 4))


def test_replay_does_not_use_the_masked_rows(configs, monkeypatch):
    # the producer masks plane 4's block at _PINNED; the replay reads the
    # pinned columns off planes 1-3's rows and never touches that table
    payloads = [cubic_to_dict(random_cubic(cfg, 5), cfg, 5) for cfg in configs.values()]

    def refuse(*args):
        raise AssertionError("the replay read the producer's _PINNED")

    class Refuse:
        __getattr__ = __contains__ = __iter__ = __len__ = __or__ = __sub__ = __eq__ = refuse

    monkeypatch.setattr(geometry, "_PINNED", Refuse())
    assert all(verify_cubic_dict(payload) for payload in payloads)


def test_cubic_to_dict_refuses_a_coefficient_it_cannot_write():
    # the coefficients grow to about twice the parameter's digits: str() cannot write 4401
    cfg = standard_config(10**2200 + 7, 1)
    with pytest.raises(ValueError, match=r"^a coefficient has 4401 digits, above the limit 4300$"):
        cubic_to_dict(random_cubic(cfg, 5), cfg, 5)


def test_random_cubic_runs_no_elimination(monkeypatch):
    from hassettmax import linalg

    cases = [(standard_config(*pair), seed) for pair in [*PAIRS, _PAIR30, (2**61 - 1, 0)]
             for seed in (0, 5, 2**64 - 1)]
    payloads = [cubic_to_dict(random_cubic(cfg, seed), cfg, seed) for cfg, seed in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("random_cubic eliminated")

    for module in (geometry, linalg):
        monkeypatch.setattr(module, "echelon", refuse)
        monkeypatch.setattr(module, "kernel_vector", refuse)
    assert [cubic_to_dict(random_cubic(cfg, seed), cfg, seed) for cfg, seed in cases] == payloads


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_PARAMETERS, _PARAMETERS)
@example(Fraction(0), Fraction(0))
@example(*_PAIR30)
@example(Fraction(2**61 - 1), Fraction(0))
@example(Fraction(0), Fraction(-(2**61 - 1), 3))
def test_plane_4_hits_are_the_closed_form_of_the_chart(a, b):
    # on plane 4, x^e0 y^e1 z^e2 u^e3 v^e4 is den(b)^e1 num(b)^e4 den(a)^e2
    # num(a)^e3 times s0^e0 s1^(e1+e4) s2^(e2+e3), and a monomial with w is 0:
    # the hit table from exponents alone
    table = [[] for _ in PARAM_MONOMIALS]
    for m, (e0, e1, e2, e3, e4, e5) in enumerate(MONOMIALS):
        weight = b.denominator**e1 * b.numerator**e4 * a.denominator**e2 * a.numerator**e3
        if m not in geometry._PINNED and not e5 and weight:
            table[PARAM_MONOMIALS.index((e0, e1 + e4, e2 + e3))].append((m, weight))
    block = geometry._plane_block(standard_config(a, b).bases[3])
    assert geometry._plane_4_hits(geometry._PINNED, block) == table


# --- the replay checks the kernel and the free columns ---


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_PARAMETERS, _PARAMETERS, st.integers(0, 2**64))
@example(Fraction(0), Fraction(0), 1)
@example(Fraction(0), Fraction(-7, 3), 5)
@example(Fraction(-4, 9), Fraction(-6, 5), 0)
@example(*_PAIR30, 7)
@example(Fraction(2**61 - 1), Fraction(-(2**61 - 1), 3), 11)
def test_replay_agrees_with_the_seeded_cubic_off_all_40_rows(a, b, seed):
    # an honest payload replays, and so does the reference's cubic under
    # another seed exactly when it is that seed's cubic too
    cfg = standard_config(a, b)
    payload = json.loads(json.dumps(cubic_to_dict(random_cubic(cfg, seed), cfg, seed)))
    cubic = cubic_from_dict(payload)[0]
    assert cubic == _seeded_cubic(*echelon(restriction_matrix(cfg)), seed)
    assert verify_cubic_dict(payload)
    other = (seed + 1) % 2**64
    same = _random_cubic_reference(cfg, other) == cubic
    assert verify_cubic_dict(dict(payload, seed=str(other))) is same


def _dense_replay(matrix, pivots, cubic, seed):
    """The replay on all 40 rows of matrix: the cubic is in their kernel,
    and its coefficients at the columns outside pivots, the echelon's, are
    the seeded weights, drawn in ascending order."""
    if any(any(_on_plane(matrix, i, cubic.coeffs)) for i in (1, 2, 3, 4)):
        return False
    rng = SplitMix64(seed)
    return all(cubic.coeffs[fc] == rng.randint(-9, 9) for fc in range(56) if fc not in pivots)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_PARAMETERS, _PARAMETERS, st.integers(0, 2**64))
@example(Fraction(0), Fraction(0), 1)
@example(Fraction(-4, 9), Fraction(-6, 5), 0)
@example(*_PAIR30, 7)
@example(Fraction(2**61 - 1), Fraction(0), 3)
@example(Fraction(0), Fraction(-(2**61 - 1), 3), 2**64)
def test_replay_is_the_dense_check_of_all_40_rows(a, b, seed):
    # the 22 pinned zeros and plane 4's short sums against all 40 dense
    # rows: the honest cubic, each +1 edit, the honest cubic plus twice each
    # basis cubic, and each pinned coefficient set to 1
    cfg = standard_config(a, b)
    matrix = restriction_matrix(cfg)
    pivots = echelon(matrix, reduced=False)[1]
    honest = random_cubic(cfg, seed)

    def edited(column, value):
        coeffs = list(honest.coeffs)
        coeffs[column] = value
        return CubicPoly(tuple(coeffs))

    cubics = [
        honest,
        *(edited(c, x + 1) for c, x in enumerate(honest.coeffs)),
        *(CubicPoly(tuple(h + 2 * e for h, e in zip(honest.coeffs, extra.coeffs)))
          for extra in cubics_through(cfg)),
        *(edited(c, Fraction(1)) for c in sorted(geometry._PINNED)),
    ]
    verdicts = [geometry.cubic_replays(cubic, cfg, seed) for cubic in cubics]
    assert verdicts == [_dense_replay(matrix, pivots, cubic, seed) for cubic in cubics]
    assert verdicts[0] and verify_cubic_dict(json.loads(json.dumps(cubic_to_dict(honest, cfg, seed))))


def _free_columns(cfg):
    return [c for c in range(56) if c not in echelon(restriction_matrix(cfg))[1]]


@pytest.mark.parametrize("pair", [*PAIRS, _PAIR30])
def test_replay_rejects_an_honest_cubic_plus_a_vanishing_one(pair):
    # the sum still vanishes on all four planes; only the seeded free
    # values tell it from the honest cubic
    cfg = standard_config(*pair)
    matrix = restriction_matrix(cfg)
    free = _free_columns(cfg)
    basis = cubics_through(cfg)
    for seed, (column, extra) in enumerate(zip(free, basis)):
        honest = random_cubic(cfg, seed)
        forged = CubicPoly(tuple(h + 2 * e for h, e in zip(honest.coeffs, extra.coeffs)))
        assert not any(any(_on_plane(matrix, i, forged.coeffs)) for i in (1, 2, 3, 4))
        assert forged.coeffs[column] != honest.coeffs[column]
        assert verify_cubic_dict(cubic_to_dict(honest, cfg, seed))
        assert not verify_cubic_dict(cubic_to_dict(forged, cfg, seed))


@pytest.mark.parametrize("pair", [*PAIRS, _PAIR30])
def test_replay_rejects_a_changed_pivot_coefficient(pair):
    # every free value is still the seeded weight; the cubic leaves the kernel
    cfg = standard_config(*pair)
    pivots = echelon(restriction_matrix(cfg))[1]
    free = _free_columns(cfg)
    honest = random_cubic(cfg, 3)
    for pivot in pivots:
        coeffs = list(honest.coeffs)
        coeffs[pivot] += 1
        forged = CubicPoly(tuple(coeffs))
        assert [forged.coeffs[c] for c in free] == [honest.coeffs[c] for c in free]
        assert not verify_cubic_dict(cubic_to_dict(forged, cfg, 3))


# --- the replay reads its pivots off the chart ---


def _replay_pivots(fourth):
    """The pivots cubic_replays reads off the chart for plane 4 = fourth:
    its own pinned table, then the first column of each hit row."""
    hits = geometry._plane_4_hits(geometry._REPLAY_PINNED, geometry._plane_block(fourth))
    return geometry._REPLAY_PINNED.union(row[0][0] for row in hits if row)


def test_replay_pinned_table_is_the_producers():
    # two read-offs of planes 1-3's rows: the replay's, column by column at
    # import, and _PINNED, the pivots of their echelon
    assert isinstance(geometry._REPLAY_PINNED, frozenset)
    assert geometry._REPLAY_PINNED == geometry._PINNED


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_PARAMETERS, _PARAMETERS)
@example(Fraction(0), Fraction(0))
@example(Fraction(0), Fraction(-7, 3))
@example(Fraction(-4, 9), Fraction(0))
@example(*_PAIR30)
@example(Fraction(2**61 - 1), Fraction(0))
@example(Fraction(2**61 - 1), Fraction(-(2**61 - 1), 3))
def test_chart_pivots_are_the_echelon_pivots_of_all_40_rows(a, b):
    cfg = standard_config(a, b)
    pivots = echelon(restriction_matrix(cfg), reduced=False)[1]
    assert _replay_pivots(cfg.bases[3]) == set(pivots)


@pytest.fixture(scope="module")
def replay_payloads():
    cases = [standard_config(*pair) for pair in [*PAIRS, _PAIR30, (2**61 - 1, 0)]]
    return [cubic_to_dict(random_cubic(cfg, seed), cfg, seed) for seed, cfg in enumerate(cases)]


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"the replay {what}")
    return refuse


def test_replay_builds_no_restriction_matrix(replay_payloads, monkeypatch):
    monkeypatch.setattr(geometry, "restriction_matrix", _refuse("built the restriction matrix"))
    assert all(verify_cubic_dict(payload) for payload in replay_payloads)


def test_replay_runs_no_echelon(replay_payloads, monkeypatch):
    from hassettmax import linalg

    for module in (geometry, linalg):
        monkeypatch.setattr(module, "echelon", _refuse("ran an echelon"))
    assert all(verify_cubic_dict(payload) for payload in replay_payloads)


def test_replay_reads_no_kernel_vector(replay_payloads, monkeypatch):
    from hassettmax import linalg

    for module in (geometry, linalg):
        monkeypatch.setattr(module, "kernel_vector", _refuse("rebuilt the cubic"))
    assert all(verify_cubic_dict(payload) for payload in replay_payloads)


@pytest.mark.parametrize("pair", [(0, 0), (Fraction(-4, 9), Fraction(-6, 5)), _PAIR30])
def test_replay_refuses_a_plane_4_off_the_chart(pair):
    # the degenerate plane 4 of the twin counts, a line with basis vector
    # e_x twice, writes x as s0 + s1: column x^3 of its block has four
    # nonzeros. The planes of _twins, the point among them included, are in
    # the chart, and their pivots are read off as the echelon finds them
    cfg = standard_config(*pair)
    p1, p2, p3, p4 = cfg.bases
    line = PlaneConfig(cfg.a, cfg.b, cfg.ideals, (p1, p2, p3, (p4[0], p4[0], p4[2])))
    with pytest.raises(ValueError, match="not in standard_config's chart"):
        geometry.cubic_replays(CubicPoly((Fraction(0),) * 56), line, 1)
    fourths = {basis for _, bases in _twins(cfg) for basis in bases}
    assert any(rank(basis) < 3 for basis in fourths)
    for fourth in fourths:
        matrix = restriction_matrix(PlaneConfig(cfg.a, cfg.b, cfg.ideals, (p1, p2, p3, fourth)))
        assert _replay_pivots(fourth) == set(echelon(matrix, reduced=False)[1])


def test_replay_verdicts_on_one_coefficient_edits_are_frozen():
    # the honest payload and each +1 edit of one coefficient, five pairs at
    # seeds 0-9: count and sha256 of the verdicts, pinned on the echelon replay
    verdicts = []
    for pair in [*PAIRS, _PAIR30]:
        cfg = standard_config(*pair)
        for seed in range(10):
            payload = cubic_to_dict(random_cubic(cfg, seed), cfg, seed)
            verdicts.append(verify_cubic_dict(payload))
            for i, coeff in enumerate(payload["coeffs"]):
                coeffs = list(payload["coeffs"])
                coeffs[i] = str(Fraction(coeff) + 1)
                verdicts.append(verify_cubic_dict(dict(payload, coeffs=coeffs)))
    blob = "".join("1" if ok else "0" for ok in verdicts).encode()
    assert (len(verdicts), sum(verdicts)) == (2850, 50)
    assert hashlib.sha256(blob).hexdigest() == (
        "bf4b2c35f3357b081c0a6cb490a7c790eae96511f1b6eb52c658d1a1a68d280f"
    )


def test_seeded_cubics_are_frozen():
    # 200 (a, b, seed) triples, a and b zero or 6-digit fractions; len and
    # sha256 of the JSON payloads, pinned before the masked plane-4 rows
    rng = SplitMix64(20)

    def coordinate():
        if rng.randint(0, 3) == 0:
            return Fraction(0)
        sign = rng.randint(0, 1) * 2 - 1
        return Fraction(sign * rng.randint(10**5, 10**6 - 1), rng.randint(10**5, 10**6 - 1))

    payloads = []
    for _ in range(200):
        cfg = standard_config(coordinate(), coordinate())
        seed = rng.randint(0, 2**32)
        payloads.append(cubic_to_dict(random_cubic(cfg, seed), cfg, seed))
    blob = json.dumps(payloads, sort_keys=True).encode()
    assert len(blob) == 323132
    assert hashlib.sha256(blob).hexdigest() == (
        "5366b1d49d7988ea64a5ddd1a72ff27257961b5c83554a2dd27eaa7812fabbbf"
    )


def test_restriction_matrix_rows_are_fresh_lists(configs):
    cfg = configs[(0, 1)]
    matrix = restriction_matrix(cfg)
    assert all(type(row) is list for row in matrix)
    for row in matrix:
        row[:] = [7] * 56
    assert restriction_matrix(cfg) == _restriction_matrix_reference(cfg.bases)


_COORDINATES = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.integers(-(10**30), 10**30),
    st.fractions(max_denominator=10**30),
)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    _PARAMETERS,
    _PARAMETERS,
    st.lists(_COORDINATES, min_size=6, max_size=6),
    st.integers(0, 2**32),
)
@example(Fraction(0), Fraction(0), [0] * 6, 1)
@example(
    Fraction(123456789012345678901234567891, 987654321098765432109876543211),
    Fraction(-314159265358979323846264338327, 271828182845904523536028747135),
    [Fraction(-(10**30), 7), 10**30, 0, -1, Fraction(1, 3), 2], 7,
)
def test_rank_index_triple_and_block_identities(a, b, point, seed):
    cfg = standard_config(a, b)
    kernel = cubics_through(cfg)
    assert dims_report(cfg)["basis_size"] == len(kernel)
    assert _monomial_values(point) == _monomial_values_reference(point)

    # each plane's block is the Fraction expansion over its basis
    assert restriction_matrix(cfg) == _restriction_matrix_reference(cfg.bases)

    # the integer-echelon cubic is the weighted sum of the kernel vectors
    rng = SplitMix64(seed)
    weights = [rng.randint(-9, 9) for _ in kernel]
    assert random_cubic(cfg, seed).coeffs == tuple(
        sum((w * c.coeffs[idx] for w, c in zip(weights, kernel)), Fraction(0))
        for idx in range(56)
    )


# --- dimension counts ---


EXPECTED_DIMS = {
    # (a, b): (alpha, beta, basis, fiber, stab, orbit)
    (1, 1): (0, 0, 24, 23, 8, 28),
    (0, 1): (1, 0, 25, 24, 9, 27),
    (1, 0): (0, 1, 25, 24, 9, 27),
    (0, 0): (1, 1, 26, 25, 10, 26),
}


@pytest.mark.parametrize("pair", PAIRS)
def test_dims_report_frozen(configs, pair):
    report = dims_report(configs[pair])
    alpha, beta, basis, fiber, stab, orbit = EXPECTED_DIMS[pair]
    assert report["alpha"] == alpha and report["beta"] == beta
    assert report["basis_size"] == basis
    assert report["fiber_dim"] == fiber
    assert report["fiber_dim_eval"] == fiber
    assert report["methods_agree"] is True
    assert report["stab_dim"] == stab
    assert report["orbit_dim"] == orbit
    assert report["total"] == 51 and report["total_matches"] is True
    # recorded formula comparisons stay self-consistent
    assert report["fiber_matches"] == (fiber == report["fiber_formula"])
    assert report["orbit_matches"] == (orbit == report["orbit_formula"])
    assert set(report) == {
        "alpha", "beta", "basis_size", "fiber_dim", "fiber_dim_eval",
        "methods_agree", "fiber_formula", "fiber_matches", "stab_dim",
        "orbit_dim", "orbit_formula", "orbit_matches", "total",
        "total_formula", "total_matches",
    }


@pytest.mark.parametrize(
    "a, b, alpha_beta_pair",
    [
        (2**61 - 1, 0, (0, 1)),  # a rank modulo 2^61 - 1 would see a = 0
        (
            Fraction(123456789012345678901234567891, 987654321098765432109876543211),
            Fraction(-314159265358979323846264338327, 271828182845904523536028747135),
            (0, 0),
        ),
        # numerators and denominators of 3800 to 4200 digits
        (Fraction(10**4200 + 7, 3**8000), Fraction(-(10**4199 + 9), 7**4900), (0, 0)),
    ],
)
def test_dims_report_large_parameters(a, b, alpha_beta_pair):
    report = dims_report(standard_config(a, b))
    alpha, beta = alpha_beta_pair
    assert (report["alpha"], report["beta"]) == (alpha, beta)
    assert report["methods_agree"] is True
    assert report["fiber_dim"] == report["fiber_dim_eval"] == 23 + alpha + beta
    assert report["total"] == 51


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_PARAMETERS, _PARAMETERS)
@example(Fraction(0), Fraction(0))
@example(*_PAIR30)
@example(Fraction(2**61 - 1), Fraction(0))
@example(Fraction(0), Fraction(-(2**61 - 1), 3))
def test_counts_in_the_chart_for_every_parameter(a, b):
    # plane 4 is {(x, y, z, az, by, 0)}: each monomial restricts to one term
    # of its block, and a != 0, b != 0 each cost one cubic and one symmetry
    cfg = standard_config(a, b)
    block = restriction_matrix(cfg)[30:]
    assert all(len(column) - column.count(0) <= 1 for column in zip(*block))
    report = dims_report(cfg)
    nonzero = (a != 0) + (b != 0)
    assert report["fiber_dim"] == report["fiber_dim_eval"] == 25 - nonzero
    assert report["stab_dim"] == 10 - nonzero
    assert report["total"] == 51


def test_dim_functions_match_report(configs):
    cfg = configs[(1, 1)]
    assert linear_system_dim(cfg) == 23
    assert linear_system_dim_by_evaluation(cfg) == 23
    assert stabilizer_dim(cfg) == (8, 28)


def test_stabilizer_contains_scalars(configs):
    for cfg in configs.values():
        stab, orbit = stabilizer_dim(cfg)
        assert stab >= 1
        assert stab + orbit == 36


# --- serialization ---


def test_cubic_serialization_round_trip(configs):
    cfg = configs[(1, 1)]
    cubic = random_cubic(cfg, seed=7)
    payload = cubic_to_dict(cubic, cfg, seed=7)
    blob = json.loads(json.dumps(payload))
    back, back_cfg, seed = cubic_from_dict(blob)
    assert back == cubic and seed == 7
    assert (back_cfg.a, back_cfg.b) == (cfg.a, cfg.b)
    assert verify_cubic_dict(blob)


def test_verify_cubic_dict_rejects_tampering(configs):
    cfg = configs[(1, 1)]
    payload = cubic_to_dict(random_cubic(cfg, seed=7), cfg, seed=7)

    wrong_seed = dict(payload, seed="8")
    assert not verify_cubic_dict(wrong_seed)

    idx = next(i for i, c in enumerate(payload["coeffs"]) if c != "0")
    doctored = list(payload["coeffs"])
    doctored[idx] = str(Fraction(doctored[idx]) + 1)
    assert not verify_cubic_dict(dict(payload, coeffs=doctored))
    doctored[idx] = "1/0"
    assert not verify_cubic_dict(dict(payload, coeffs=doctored))

    reordered = dict(payload, monomials=list(reversed(payload["monomials"])))
    assert not verify_cubic_dict(reordered)

    assert not verify_cubic_dict({"a": "1"})


@pytest.mark.parametrize("coeffs", [
    "0" * 56, {str(i): "0" for i in range(56)},
], ids=["string", "object"])
def test_cubic_coeffs_must_be_a_json_list(configs, coeffs):
    # each would otherwise be read one character or one key at a time,
    # into 56 coefficients
    cfg = configs[(1, 1)]
    payload = dict(cubic_to_dict(random_cubic(cfg, seed=7), cfg, seed=7), coeffs=coeffs)
    with pytest.raises(TypeError):
        cubic_from_dict(payload)
    assert not verify_cubic_dict(payload)


@pytest.mark.parametrize("text", ["0", "-1", "2/3", "-7/5", str(Fraction(10**40 + 1, 3))])
def test_parse_rational_reads_what_str_writes(text):
    assert str(parse_rational(text)) == text


@pytest.mark.parametrize("text", [
    0, 1.5, True, None,
    "0.0", " 0 ", "0/5", "-0", "+1", "2/4", "-2/2", "1/-2", "0.5", "1e3", "1E3", "1_0",
    "1/0", "1/00", "-0/0", "1/0_0",  # a zero denominator is a ValueError too
], ids=repr)
def test_parse_rational_refuses_every_other_spelling(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@pytest.mark.parametrize("text", [
    "7", "-7", "0", "-0", "07", "00", "+7", " 7", "7\n", "7_0", "\u0663", "7.0", "1e3", "",
    "-", str(10**4299), str(-(10**4299)),
], ids=repr)
def test_parse_rational_without_a_slash_takes_what_the_fraction_rule_took(text):
    # parse_int reads these: the same strings as Fraction's rule, no more
    try:
        value = Fraction(text)
        want = value if str(value) == text and "e" not in text.lower() else None
    except ValueError:
        want = None
    if want is None:
        with pytest.raises(ValueError):
            parse_rational(text)
    else:
        assert parse_rational(text) == want and type(parse_rational(text)) is Fraction


def _noncanonical_coefficient(payload):
    """The first nonzero coefficient p/q written as 2p/2q: "-1" as "-2/2"."""
    idx, value = next((i, Fraction(c)) for i, c in enumerate(payload["coeffs"]) if c != "0")
    coeffs = list(payload["coeffs"])
    coeffs[idx] = f"{2 * value.numerator}/{2 * value.denominator}"
    return coeffs


def _exponent_as_float(payload):
    """x^3 written [3.0, 0, 0, 0, 0, 0]: equal in value, not an int."""
    return [[3.0, *payload["monomials"][0][1:]], *payload["monomials"][1:]]


def _exponent_as_bool(payload):
    """x^2*y written [2, true, 0, 0, 0, 0]."""
    return [payload["monomials"][0], [2, True, 0, 0, 0, 0], *payload["monomials"][2:]]


@pytest.mark.parametrize("field, value", [
    ("seed", 1.7), ("seed", True), ("seed", 1), ("seed", " 1\n"), ("seed", "0001"),
    ("a", "0.0"), ("a", " 0 "), ("a", "0/5"), ("a", "-0"), ("a", 0),
    ("coeffs", _noncanonical_coefficient),
    ("monomials", _exponent_as_float), ("monomials", _exponent_as_bool),
], ids=lambda x: getattr(x, "__name__", repr(x)))
def test_verify_cubic_dict_refuses_noncanonical_fields(field, value):
    # a = 0, seed 1: every forged field has the value of the honest one
    cfg = standard_config(0, 1)
    payload = cubic_to_dict(random_cubic(cfg, 1), cfg, 1)
    assert verify_cubic_dict(payload)
    forged = dict(payload, **{field: value(payload) if callable(value) else value})
    assert not verify_cubic_dict(forged)
