"""Plane configurations, vanishing cubics, and dimension counts.

Frozen dimensions below were computed by two independent exact methods
(restriction-matrix kernel and seeded point evaluation) which the report
requires to agree. Formula comparison flags are recorded output, checked
for internal consistency only.
"""

import json
from fractions import Fraction
from itertools import product

import pytest

from hassettmax.geometry import (
    EVAL_SEED,
    MONOMIALS,
    PARAM_MONOMIALS,
    CubicPoly,
    PlaneConfig,
    alpha_beta,
    cubic_from_dict,
    cubic_to_dict,
    cubics_through,
    dims_report,
    evaluate_cubic,
    gram_from_geometry,
    intersection_profile,
    linear_system_dim,
    linear_system_dim_by_evaluation,
    random_cubic,
    restrict_to_plane,
    restriction_matrix,
    stabilizer_dim,
    standard_config,
    verify_cubic_dict,
)
from hassettmax.lattices import gram_M

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
    twin = PlaneConfig(cfg.a, cfg.b, (cfg.ideals[0],) * 2 + cfg.ideals[2:], cfg.bases)
    with pytest.raises(ValueError):
        intersection_profile(twin, 1, 2)


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
    with pytest.raises(ValueError):
        alpha_beta(broken)


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


def test_nonvanishing_control_cubic(configs):
    cfg = configs[(1, 1)]
    coeffs = [Fraction(0)] * 56
    coeffs[MONOMIALS.index((0, 0, 0, 0, 0, 3))] = Fraction(1)  # w^3
    cubic = CubicPoly(tuple(coeffs))
    assert restrict_to_plane(cubic, cfg, 1)  # w is free on plane 1
    assert restrict_to_plane(cubic, cfg, 4) == {}  # plane 4 kills w
    with pytest.raises(ValueError):
        restrict_to_plane(cubic, cfg, 5)


def test_vanishing_basis_sizes(vanishing_bases):
    assert len(vanishing_bases[(1, 1)]) == 24
    assert len(vanishing_bases[(0, 1)]) == 25
    assert len(vanishing_bases[(1, 0)]) == 25
    assert len(vanishing_bases[(0, 0)]) == 26


def test_vanishing_basis_restricts_to_zero(configs, vanishing_bases):
    for key, cfg in configs.items():
        for cubic in vanishing_bases[key]:
            for i in (1, 2, 3, 4):
                assert restrict_to_plane(cubic, cfg, i) == {}


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
            assert evaluate_cubic(cubic, point) == 0


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
    ],
)
def test_dims_report_large_parameters(a, b, alpha_beta_pair):
    report = dims_report(standard_config(a, b))
    alpha, beta = alpha_beta_pair
    assert (report["alpha"], report["beta"]) == (alpha, beta)
    assert report["methods_agree"] is True
    assert report["fiber_dim"] == report["fiber_dim_eval"] == 23 + alpha + beta
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

    reordered = dict(payload, monomials=list(reversed(payload["monomials"])))
    assert not verify_cubic_dict(reordered)

    assert not verify_cubic_dict({"a": "1"})
