"""Exact rational linear algebra for four-plane configurations in 6-space.

Coordinates are ordered (x, y, z, u, v, w). The canonical family has plane
ideals (x,y,z), (x,y,u), (x,z,v) and (v-by, u-az, w); the parameters a, b
control whether the fourth plane meets the second and third ones. From the
intersection profile we rebuild the rank-5 Gram matrix, compute the space
of cubics vanishing on all four planes, and count orbit and stabilizer
dimensions for the simultaneous linear symmetry group. Data are Fractions;
dimensions are exact ranks from linalg's integer elimination, cross-checked
by a seeded evaluation oracle whose plane points are scaled to integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod

from .arith import SplitMix64
from .lattices import GramMatrix5, gram_M, voisin_value
from .linalg import clear_denominators, kernel_basis, rank

EVAL_SEED = 1729
NUM_VARS = 6
DEGREE = 3

# degree-3 monomials in 6 variables, descending lex, x^3 first
MONOMIALS = tuple(
    sorted(
        (e for e in product(range(DEGREE + 1), repeat=NUM_VARS) if sum(e) == DEGREE),
        reverse=True,
    )
)

# degree-3 monomials in the 3 plane parameters
PARAM_MONOMIALS = tuple(
    sorted(
        (e for e in product(range(DEGREE + 1), repeat=3) if sum(e) == DEGREE),
        reverse=True,
    )
)

assert len(MONOMIALS) == 56
assert len(PARAM_MONOMIALS) == 10


@dataclass(frozen=True)
class PlaneConfig:
    a: Fraction
    b: Fraction
    ideals: tuple  # four triples of 6-coefficient linear forms
    bases: tuple  # four triples of kernel basis vectors


@dataclass(frozen=True)
class CubicPoly:
    coeffs: tuple  # 56 Fractions, aligned with MONOMIALS

    def __post_init__(self):
        if len(self.coeffs) != 56:
            raise ValueError("a cubic has 56 coefficients")


def _form(*pairs) -> tuple:
    """Linear form from (index, coeff) pairs."""
    coeffs = [Fraction(0)] * NUM_VARS
    for idx, c in pairs:
        coeffs[idx] = Fraction(c)
    return tuple(coeffs)


def standard_config(a, b) -> PlaneConfig:
    a = Fraction(a)
    b = Fraction(b)
    ideals = (
        (_form((0, 1)), _form((1, 1)), _form((2, 1))),
        (_form((0, 1)), _form((1, 1)), _form((3, 1))),
        (_form((0, 1)), _form((2, 1)), _form((4, 1))),
        (_form((4, 1), (1, -b)), _form((3, 1), (2, -a)), _form((5, 1))),
    )
    bases = []
    for ideal in ideals:
        rows = [list(f) for f in ideal]
        if rank(rows) != 3:
            raise AssertionError("plane ideal must have rank 3")
        basis = tuple(tuple(vec) for vec in kernel_basis(rows))
        bases.append(basis)
    return PlaneConfig(a, b, ideals, tuple(bases))


def intersection_profile(config: PlaneConfig, i: int, j: int) -> str:
    if not (1 <= i < j <= 4):
        raise ValueError("need plane indices 1 <= i < j <= 4")
    stacked = [list(f) for f in config.ideals[i - 1] + config.ideals[j - 1]]
    dim = NUM_VARS - rank(stacked)
    if dim == 0:
        return "empty"
    if dim == 1:
        return "point"
    if dim == 2:
        return "line"
    raise ValueError("planes coincide; profile undefined")


_REQUIRED_PROFILE = {(1, 2): "line", (1, 3): "line", (1, 4): "empty", (2, 3): "point"}


def _check_base_profile(config: PlaneConfig) -> None:
    for (i, j), expected in _REQUIRED_PROFILE.items():
        got = intersection_profile(config, i, j)
        if got != expected:
            raise ValueError(
                f"profile violation: planes ({i},{j}) meet in a {got}, "
                f"expected {expected}"
            )


def alpha_beta(config: PlaneConfig) -> tuple[int, int]:
    """(alpha, beta) from the variable intersections (P2,P4) and (P3,P4)."""
    _check_base_profile(config)
    alpha = voisin_value(intersection_profile(config, 2, 4))
    beta = voisin_value(intersection_profile(config, 3, 4))
    if alpha not in (0, 1) or beta not in (0, 1):
        raise ValueError("planes P2/P3 may not meet P4 in a line")
    return (alpha, beta)


def gram_from_geometry(config: PlaneConfig) -> GramMatrix5:
    """Gram matrix rebuilt from computed profiles; equals gram_M(alpha, beta)."""
    alpha, beta = alpha_beta(config)
    entries = [[0] * 5 for _ in range(5)]
    for idx in range(5):
        entries[idx][idx] = 3
    for idx in range(1, 5):
        entries[0][idx] = entries[idx][0] = 1
    for i in range(1, 5):
        for j in range(i + 1, 5):
            value = voisin_value(intersection_profile(config, i, j))
            entries[i][j] = entries[j][i] = value
    built = GramMatrix5(tuple(tuple(row) for row in entries), alpha, beta)
    if built != gram_M(alpha, beta):
        raise AssertionError("geometric Gram matrix disagrees with the template")
    return built


def _poly_times_linear(poly: dict, lin) -> dict:
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


def _restrict_monomial(monomial, basis) -> dict:
    """Expand prod_i coord_i^{e_i} on the plane s0*b0 + s1*b1 + s2*b2."""
    poly = {(0, 0, 0): Fraction(1)}
    for coord in range(NUM_VARS):
        lin = (basis[0][coord], basis[1][coord], basis[2][coord])
        for _ in range(monomial[coord]):
            poly = _poly_times_linear(poly, lin)
    return poly


def restriction_matrix(config: PlaneConfig) -> list:
    """40x56 map from cubic coefficients to their four plane restrictions."""
    rows = []
    for basis in config.bases:
        columns = [_restrict_monomial(m, basis) for m in MONOMIALS]
        for pm in PARAM_MONOMIALS:
            rows.append([col.get(pm, Fraction(0)) for col in columns])
    return rows


def restrict_to_plane(cubic: CubicPoly, config: PlaneConfig, i: int) -> dict:
    """The cubic as a polynomial in the three parameters of plane i."""
    if not 1 <= i <= 4:
        raise ValueError("plane index out of range")
    basis = config.bases[i - 1]
    total = {}
    for coeff, monomial in zip(cubic.coeffs, MONOMIALS):
        if coeff == 0:
            continue
        for expo, c in _restrict_monomial(monomial, basis).items():
            total[expo] = total.get(expo, Fraction(0)) + coeff * c
    return {e: c for e, c in total.items() if c != 0}


def cubics_through(config: PlaneConfig) -> list[CubicPoly]:
    """Basis of cubics vanishing on all four planes."""
    kern = kernel_basis(restriction_matrix(config))
    return [CubicPoly(tuple(vec)) for vec in kern]


def _monomial_values(point) -> list:
    """Values of the 56 MONOMIALS at a point, exact in the point's type."""
    powers = [(1, x, x * x, x * x * x) for x in point]
    return [prod(pw[e] for pw, e in zip(powers, m)) for m in MONOMIALS]


def evaluate_cubic(cubic: CubicPoly, point) -> Fraction:
    values = _monomial_values(point)
    return sum((c * v for c, v in zip(cubic.coeffs, values) if c), Fraction(0))


def linear_system_dim(config: PlaneConfig) -> int:
    """Projective dimension: basis size minus one."""
    return len(cubics_through(config)) - 1


def _seeded_plane_points(config: PlaneConfig, points_per_plane: int) -> list:
    rng = SplitMix64(EVAL_SEED)
    points = []
    for basis in config.bases:
        for _ in range(points_per_plane):
            params = [rng.randint(-20, 20) for _ in range(3)]
            point = [
                sum(Fraction(t) * bvec[coord] for t, bvec in zip(params, basis))
                for coord in range(NUM_VARS)
            ]
            points.append(point)
    return points


def linear_system_dim_by_evaluation(
    config: PlaneConfig, points_per_plane: int = 20
) -> int:
    """Same dimension count from monomial values at seeded plane points.

    Every evaluation row is a rational combination of restriction rows, so
    this can only overcount the kernel; agreement with the kernel method
    certifies the count. Each point is scaled to integers first: scaling by
    lambda keeps it on its plane and scales its row by lambda^3, so the rank
    over Q is unchanged.
    """
    points = _seeded_plane_points(config, points_per_plane)
    rows = [_monomial_values(clear_denominators(p)) for p in points]
    return 56 - rank(rows) - 1


def stabilizer_dim(config: PlaneConfig) -> tuple[int, int]:
    """(stab, orbit): matrices preserving all four planes, and 36 - stab.

    The stabilizer lives in 6x6 matrix space; one constraint row per
    (plane, basis vector, ideal generator) triple requires the generator to
    kill the image of the basis vector.
    """
    rows = []
    for ideal, basis in zip(config.ideals, config.bases):
        for bvec in basis:
            for form in ideal:
                row = [Fraction(0)] * 36
                for r in range(NUM_VARS):
                    if form[r] == 0:
                        continue
                    for s in range(NUM_VARS):
                        if bvec[s] == 0:
                            continue
                        row[6 * r + s] += form[r] * bvec[s]
                rows.append(row)
    stab = 36 - rank(rows)
    return (stab, 36 - stab)


def random_cubic(config: PlaneConfig, seed: int) -> CubicPoly:
    """Deterministic small-integer combination of the vanishing basis."""
    basis = cubics_through(config)
    if not basis:
        raise ValueError("no cubics vanish on the configuration")
    rng = SplitMix64(seed)
    weights = [rng.randint(-9, 9) for _ in basis]
    coeffs = [Fraction(0)] * 56
    for weight, cubic in zip(weights, basis):
        if weight == 0:
            continue
        for idx, c in enumerate(cubic.coeffs):
            coeffs[idx] += weight * c
    return CubicPoly(tuple(coeffs))


def dims_report(config: PlaneConfig) -> dict:
    """All dimension counts plus recorded (not asserted) formula comparisons."""
    alpha, beta = alpha_beta(config)
    basis_size = len(cubics_through(config))
    fiber = basis_size - 1
    fiber_eval = linear_system_dim_by_evaluation(config)
    stab, orbit = stabilizer_dim(config)
    d_a = 1 if alpha == 0 else 0
    d_b = 1 if beta == 0 else 0
    fiber_formula = 23 + d_a + d_b
    orbit_formula = 28 - d_a - d_b
    return {
        "alpha": alpha,
        "beta": beta,
        "basis_size": basis_size,
        "fiber_dim": fiber,
        "fiber_dim_eval": fiber_eval,
        "methods_agree": fiber == fiber_eval,
        "fiber_formula": fiber_formula,
        "fiber_matches": fiber == fiber_formula,
        "stab_dim": stab,
        "orbit_dim": orbit,
        "orbit_formula": orbit_formula,
        "orbit_matches": orbit == orbit_formula,
        "total": orbit + fiber,
        "total_formula": 51,
        "total_matches": orbit + fiber == 51,
    }


# --- serialization ---


def config_to_dict(config: PlaneConfig) -> dict:
    return {
        "a": str(config.a),
        "b": str(config.b),
        "ideals": [
            [[str(c) for c in form] for form in ideal] for ideal in config.ideals
        ],
    }


def cubic_to_dict(cubic: CubicPoly, config: PlaneConfig, seed: int) -> dict:
    return {
        "a": str(config.a),
        "b": str(config.b),
        "seed": str(seed),
        "monomials": [list(m) for m in MONOMIALS],
        "coeffs": [str(c) for c in cubic.coeffs],
    }


def cubic_from_dict(d: dict) -> tuple[CubicPoly, PlaneConfig, int]:
    config = standard_config(Fraction(d["a"]), Fraction(d["b"]))
    cubic = CubicPoly(tuple(Fraction(c) for c in d["coeffs"]))
    if [list(m) for m in MONOMIALS] != [list(m) for m in d["monomials"]]:
        raise ValueError("monomial order mismatch")
    return cubic, config, int(d["seed"])


def verify_cubic_dict(d: dict) -> bool:
    """Replay: the stored cubic must match its seed and vanish on all planes."""
    try:
        cubic, config, seed = cubic_from_dict(d)
    except (KeyError, ValueError, TypeError):
        return False
    if random_cubic(config, seed).coeffs != cubic.coeffs:
        return False
    return all(not restrict_to_plane(cubic, config, i) for i in (1, 2, 3, 4))
