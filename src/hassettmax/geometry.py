"""Exact rational linear algebra for four-plane configurations in 6-space.

Coordinates are ordered (x, y, z, u, v, w). The canonical family has plane
ideals (x,y,z), (x,y,u), (x,z,v) and (v-by, u-az, w); the parameters a, b
control whether the fourth plane meets the second and third ones. From the
intersection profile we rebuild the rank-5 Gram matrix, compute the space
of cubics vanishing on all four planes, and count orbit and stabilizer
dimensions for the simultaneous linear symmetry group. Parameters and
cubic coefficients are Fractions; the ideals are integer forms, plane 4's
with the denominators of a and b cleared. Planes 1-3 are the same three
coordinate planes in every configuration, and PlaneConfig accepts no
others; plane 4 is {(x, y, z, az, by, 0)}, and standard_config writes its
basis in that chart, so every basis, restriction row, oracle point and
stabilizer row is an integer. One table of monomial index triples drives
monomial values at a point and each plane's block of the restriction.
Dimensions are exact ranks from linalg's integer elimination,
cross-checked by an evaluation oracle at the 10 lattice points of each
plane, which span the same rows as the restriction. Everything about
planes 1-3 is computed once, at import: their restriction blocks, their
pairwise profiles, and for each count the pivot columns of the echelon of
their restriction, oracle or stabilizer rows. Planes 1-3 are coordinate
planes, so each of those echelons is unit rows (checked at import), and a
count is the number of its pinned columns plus the rank of plane 4's rows
with those columns deleted. Every cubic through planes 1-3 is 0 at the 22
pinned restriction columns, and each other column of plane 4's block hits
at most one row, so a seeded cubic is read off the chart. Its replay
builds no restriction matrix: the cubic vanishes on all 40 rows exactly
when its 22 pinned coefficients are 0 and each of plane 4's rows, then a
short sum, is 0, and its free coefficients must be the seeded weights.
Neither eliminates, and both refuse a plane 4 off the chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from operator import itemgetter

from .arith import MAX_DIGITS, SplitMix64, decimal_digits, parse_int
from .lattices import GramMatrix5, gram_M, voisin_value
from .linalg import clear_denominators, echelon, kernel_vector, rank

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

# each monomial as the ascending triple of its variable indices: x^2*y is
# (0, 0, 1)
_INDEX_TRIPLES = tuple(
    tuple(var for var, e in enumerate(m) for _ in range(e)) for m in MONOMIALS
)

assert len(MONOMIALS) == 56
assert len(PARAM_MONOMIALS) == 10


@dataclass(frozen=True)
class PlaneConfig:
    """Four planes, each an ideal of three linear forms and a basis of
    three vectors. Planes 1-3 are always _FIXED_IDEALS and _FIXED_BASES;
    plane 4 is free, degenerate bases included."""

    a: Fraction
    b: Fraction
    ideals: tuple  # four triples of 6-coefficient integer linear forms
    bases: tuple  # four triples of integer kernel basis vectors

    def __post_init__(self):
        if self.ideals[:3] != _FIXED_IDEALS or self.bases[:3] != _FIXED_BASES:
            raise ValueError("planes 1-3 must be the fixed coordinate planes")


@dataclass(frozen=True)
class CubicPoly:
    coeffs: tuple  # 56 Fractions, aligned with MONOMIALS

    def __post_init__(self):
        if len(self.coeffs) != 56:
            raise ValueError("a cubic has 56 coefficients")


def _form(*pairs) -> tuple:
    """Integer linear form from (index, coeff) pairs."""
    coeffs = [0] * NUM_VARS
    for idx, c in pairs:
        coeffs[idx] = c
    return tuple(coeffs)


# planes 1-3: the ideals (x,y,z), (x,y,u), (x,z,v), and their kernels read
# off one free column at a time: unit vectors at the free columns
_FIXED_IDEALS = tuple(tuple(_form((i, 1)) for i in gens)
                      for gens in ((0, 1, 2), (0, 1, 3), (0, 2, 4)))
_FIXED_BASES = tuple(tuple(tuple(int(i == c) for i in range(NUM_VARS)) for c in free)
                     for free in ((3, 4, 5), (2, 4, 5), (1, 3, 5)))


def standard_config(a, b) -> PlaneConfig:
    """The canonical four planes. Plane 4 is {(x, y, z, az, by, 0)}, and
    its basis is that chart's with the denominators cleared: e_x,
    den(b)*e_y + num(b)*e_v and den(a)*e_z + num(a)*e_u, integer for every
    a and b, 0 included."""
    a = Fraction(a)
    b = Fraction(b)
    ideal = (
        _form((4, b.denominator), (1, -b.numerator)),
        _form((3, a.denominator), (2, -a.numerator)),
        _form((5, 1)),
    )
    basis = (
        _form((0, 1)),
        _form((1, b.denominator), (4, b.numerator)),
        _form((2, a.denominator), (3, a.numerator)),
    )
    return PlaneConfig(a, b, (*_FIXED_IDEALS, ideal), (*_FIXED_BASES, basis))


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

# the pairs among planes 1-3 depend on no parameter: ranked once, at import
_FIXED_PROFILES = {pair: intersection_profile(standard_config(0, 0), *pair)
                   for pair in ((1, 2), (1, 3), (2, 3))}
if any(got != _REQUIRED_PROFILE[pair] for pair, got in _FIXED_PROFILES.items()):
    raise AssertionError("planes 1-3 do not meet as _REQUIRED_PROFILE says")


def _profiles(config: PlaneConfig) -> dict:
    """The profile of each plane pair: those among planes 1-3 from import,
    then (1,4), (2,4) and (3,4), each ranked once. (1,4) must be empty,
    and neither (2,4) nor (3,4) a line."""
    profiles = dict(_FIXED_PROFILES)
    got = profiles[1, 4] = intersection_profile(config, 1, 4)
    if got != "empty":
        raise ValueError(f"profile violation: planes (1,4) meet in a {got}, expected empty")
    for i in (2, 3):
        profiles[i, 4] = intersection_profile(config, i, 4)
    if "line" in (profiles[2, 4], profiles[3, 4]):
        raise ValueError("planes P2/P3 may not meet P4 in a line")
    return profiles


def alpha_beta(config: PlaneConfig) -> tuple[int, int]:
    """(alpha, beta) from the variable intersections (P2,P4) and (P3,P4)."""
    profiles = _profiles(config)
    return (voisin_value(profiles[2, 4]), voisin_value(profiles[3, 4]))


def gram_from_geometry(config: PlaneConfig) -> GramMatrix5:
    """Gram matrix rebuilt from computed profiles; equals gram_M(alpha, beta)."""
    # h^2 and each plane square to 3, and h^2 meets each plane in 1
    entries = [[3 if i == j else int(0 in (i, j)) for j in range(5)] for i in range(5)]
    for (i, j), profile in _profiles(config).items():
        entries[i][j] = entries[j][i] = voisin_value(profile)
    alpha, beta = entries[2][4], entries[3][4]
    built = GramMatrix5(tuple(tuple(row) for row in entries), alpha, beta)
    if built != gram_M(alpha, beta):
        raise AssertionError("geometric Gram matrix disagrees with the template")
    return built


def _cubic_product(p, q, r) -> tuple:
    """Coefficients of p*q*r for three linear forms in (s0, s1, s2), in
    PARAM_MONOMIALS order: s0^3, s0^2 s1, s0^2 s2, s0 s1^2, s0 s1 s2,
    s0 s2^2, s1^3, s1^2 s2, s1 s2^2, s2^3."""
    p0, p1, p2 = p
    q0, q1, q2 = q
    r0, r1, r2 = r
    # p*q in s0^2, s0 s1, s0 s2, s1^2, s1 s2, s2^2
    a, b, c = p0 * q0, p0 * q1 + p1 * q0, p0 * q2 + p2 * q0
    d, e, f = p1 * q1, p1 * q2 + p2 * q1, p2 * q2
    return (
        a * r0,
        a * r1 + b * r0,
        a * r2 + c * r0,
        b * r1 + d * r0,
        b * r2 + c * r1 + e * r0,
        c * r2 + f * r0,
        d * r1,
        d * r2 + e * r1,
        e * r2 + f * r1,
        f * r2,
    )


def _plane_block(basis) -> list:
    """The plane's 10x56 block of the restriction: column m holds monomial m
    on the plane s0*b0 + s1*b1 + s2*b2, the product of the linear forms of
    the coordinates in m's index triple. Integer for an integer basis."""
    forms = list(zip(*basis))  # coordinate c is the form (b0[c], b1[c], b2[c])
    columns = [_cubic_product(forms[i], forms[j], forms[k]) for i, j, k in _INDEX_TRIPLES]
    return list(zip(*columns))


def _monomial_values(point) -> list:
    """Values of the 56 MONOMIALS at a point, exact in the point's type."""
    return [point[i] * point[j] * point[k] for i, j, k in _INDEX_TRIPLES]


def _oracle_rows(basis) -> list:
    """Monomial values at the plane's 10 points s0*b0 + s1*b1 + s2*b2, with
    (s0, s1, s2) the triples of PARAM_MONOMIALS."""
    return [
        _monomial_values([sum(s * x for s, x in zip(params, form)) for form in zip(*basis)])
        for params in PARAM_MONOMIALS
    ]


def _stabilizer_rows(plane) -> list:
    """One row per (basis vector, ideal generator) of plane = (ideal, basis):
    the outer product of the generator and the vector."""
    ideal, basis = plane
    return [[f * x for f in form for x in bvec] for bvec in basis for form in ideal]


# the blocks of planes 1-3 depend on no parameter: built once, rows immutable
_FIXED_BLOCKS = tuple(map(_plane_block, _FIXED_BASES))


def _fixed_planes(rows_of, planes) -> tuple:
    """(pinned, unpinned) for one count, rows_of giving one plane's rows:
    the pivots of the echelon of planes 1-3's rows, which must be unit
    rows, and a getter of the other columns of a row."""
    rows, pivots = echelon([row for plane in planes for row in rows_of(plane)])
    if any(len(row) - row.count(0) != 1 for row in rows):
        raise AssertionError(f"{rows_of.__name__}: an echelon row of planes 1-3 is not a unit row")
    pinned = frozenset(pivots)
    return pinned, itemgetter(*(c for c in range(len(rows[0])) if c not in pinned))


# planes 1-3 eliminated once for each count: restriction, oracle, stabilizer
_FIXED_PLANES = {
    rows_of: _fixed_planes(rows_of, planes)
    for rows_of, planes in ((_plane_block, _FIXED_BASES), (_oracle_rows, _FIXED_BASES),
                            (_stabilizer_rows, tuple(zip(_FIXED_IDEALS, _FIXED_BASES))))
}

# a cubic through planes 1-3 is 0 at these 22 columns, which the oracle rows
# pin too (the invertible 10x10 of linear_system_dim_by_evaluation)
_PINNED = _FIXED_PLANES[_plane_block][0]
if _FIXED_PLANES[_oracle_rows][0] != _PINNED:
    raise AssertionError("the oracle rows of planes 1-3 do not span their restriction rows")


def _rank_of_planes(rows_of, plane) -> int:
    """Rank of the rows of all four planes, rows_of giving one plane's:
    planes 1-3's span the unit vectors at their pinned columns, so plane
    4's rows add the rank of their other columns, exact over Q."""
    pinned, unpinned = _FIXED_PLANES[rows_of]
    return len(pinned) + rank(list(map(unpinned, rows_of(plane))))


def restriction_matrix(config: PlaneConfig) -> list:
    """40x56 map from cubic coefficients to their four plane restrictions:
    planes 1-3's blocks from import, plane 4's built here."""
    return [list(row) for block in (*_FIXED_BLOCKS, _plane_block(config.bases[3]))
            for row in block]


def cubics_through(config: PlaneConfig) -> list[CubicPoly]:
    """Basis of cubics vanishing on all four planes: one kernel_vector per
    free column of the restriction's echelon, set to 1, ascending."""
    rows, pivots = echelon(restriction_matrix(config))
    return [CubicPoly(tuple(kernel_vector(rows, pivots, 56, {fc: 1})))
            for fc in range(56) if fc not in pivots]


def linear_system_dim(config: PlaneConfig) -> int:
    """Projective dimension: basis size minus one. The basis of
    cubics_through has one kernel_vector per free column."""
    return 56 - _rank_of_planes(_plane_block, config.bases[3]) - 1


def linear_system_dim_by_evaluation(config: PlaneConfig) -> int:
    """Same dimension count from monomial values at plane points.

    Each plane contributes its 10 points s0*b0 + s1*b1 + s2*b2 with
    (s0, s1, s2) the triples of PARAM_MONOMIALS. A ternary cubic vanishing
    at them vanishes at 4 points of each coordinate line, so it is
    c*s0*s1*s2, and (1, 1, 1) forces c = 0: the 10 rows are an invertible
    10x10 matrix times the plane's restriction block, for any basis. The
    count is therefore exact, and the plane bases are integers, so every
    point and every row is too.
    """
    return 56 - _rank_of_planes(_oracle_rows, config.bases[3]) - 1


def stabilizer_dim(config: PlaneConfig) -> tuple[int, int]:
    """(stab, orbit): matrices preserving all four planes, and 36 - stab.

    The stabilizer lives in 6x6 matrix space; one constraint row per
    (plane, basis vector, ideal generator) triple requires the generator to
    kill the image of the basis vector: the row is the outer product of the
    generator and the basis vector.
    """
    stab = 36 - _rank_of_planes(_stabilizer_rows, (config.ideals[3], config.bases[3]))
    return (stab, 36 - stab)


def _plane_4_hits(pinned, block) -> list:
    """Per row of plane 4's block, the (column, entry) pairs of the columns
    outside pinned that hit it, ascending. In standard_config's chart each
    column hits at most one row; a column hitting two raises ValueError."""
    hits = [[] for _ in block]
    for c, column in enumerate(zip(*block)):
        if c not in pinned and any(column):
            if column.count(0) < len(column) - 1:
                raise ValueError("plane 4 is not in standard_config's chart")
            x = sum(column)
            hits[column.index(x)].append((c, x))
    return hits


def random_cubic(config: PlaneConfig, seed: int) -> CubicPoly:
    """Deterministic small-integer combination of the vanishing basis, read
    off the chart: the pivots of all 40 restriction rows are _PINNED, where
    the cubic is 0, and the first column hitting each row of plane 4. One
    seeded weight in [-9, 9] is drawn per other column, ascending, and each
    row's pivot coefficient is the quotient that makes the row vanish."""
    hits = [row for row in _plane_4_hits(_PINNED, _plane_block(config.bases[3])) if row]
    pivots = _PINNED.union(row[0][0] for row in hits)
    rng = SplitMix64(seed)
    weights = [0 if c in pivots else rng.randint(-9, 9) for c in range(56)]
    coeffs = list(map(Fraction, weights))
    for (pc, x), *rest in hits:
        coeffs[pc] = Fraction(-sum(weights[c] * y for c, y in rest), x)
    return CubicPoly(tuple(coeffs))


def dims_report(config: PlaneConfig) -> dict:
    """All dimension counts plus recorded (not asserted) formula comparisons."""
    alpha, beta = alpha_beta(config)
    fiber = linear_system_dim(config)
    basis_size = fiber + 1
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


def cubic_to_dict(cubic: CubicPoly, config: PlaneConfig, seed: int) -> dict:
    try:
        coeffs = [str(c) for c in cubic.coeffs]
    except ValueError:  # str() refuses an int of more than MAX_DIGITS digits
        n = max(decimal_digits(x) for c in cubic.coeffs for x in (c.numerator, c.denominator))
        raise ValueError(f"a coefficient has {n} digits, above the limit {MAX_DIGITS}") from None
    return {
        "a": str(config.a),
        "b": str(config.b),
        "seed": str(seed),
        "monomials": [list(m) for m in MONOMIALS],
        "coeffs": coeffs,
    }


def parse_rational(text: str) -> Fraction:
    """Only the spelling str(Fraction) writes: lowest terms, no "0.0", "-0",
    "+1", whitespace or zero denominator ("1/0", "1/00", "-0/0"). Each side
    of a "/", or the text without one, is read by parse_int, which refuses
    the exponent notation with which "1e100000" would stand for a
    100001-digit parameter."""
    if isinstance(text, str):
        if "/" not in text:
            return Fraction(parse_int(text))
        num, den = map(parse_int, text.split("/", 1))
        if den > 1 and gcd(num, den) == 1:
            return Fraction(num, den)
    raise ValueError(f"not a rational as str(Fraction) writes it: {text!r:.60}")


# the monomials as cubic_to_dict writes them, each exponent an int
_MONOMIAL_LISTS = [list(m) for m in MONOMIALS]


def cubic_from_dict(d: dict) -> tuple[CubicPoly, PlaneConfig, int]:
    config = standard_config(parse_rational(d["a"]), parse_rational(d["b"]))
    if not isinstance(d["coeffs"], list):
        raise TypeError(f"not a list of coefficients: {d['coeffs']!r:.60}")
    cubic = CubicPoly(tuple(map(parse_rational, d["coeffs"])))
    monomials = d["monomials"]
    if monomials != _MONOMIAL_LISTS or {type(e) for m in monomials for e in m} != {int}:
        raise ValueError("monomial order mismatch")
    return cubic, config, parse_int(d["seed"])


# the replay's own read-off of planes 1-3's 30 rows, apart from the
# echelon behind _PINNED: each is a unit row, and its column is pinned
if any(len(row) - row.count(0) != 1 for block in _FIXED_BLOCKS for row in block):
    raise AssertionError("a restriction row of planes 1-3 is not a unit row")
_REPLAY_PINNED = frozenset(c for block in _FIXED_BLOCKS for row in block
                           for c, x in enumerate(row) if x)


def cubic_replays(cubic: CubicPoly, config: PlaneConfig, seed: int) -> bool:
    """Replay: the cubic must vanish on all four planes and match its seed,
    checked in the chart, with no restriction matrix built.

    A cubic through the planes is a kernel vector of the 40 restriction
    rows, fixed by its coefficients at the free columns, those that are not
    pivots. Planes 1-3's rows are unit rows at _REPLAY_PINNED, so they
    vanish exactly when those 22 coefficients are 0, and then each row of
    plane 4 is its short sum over the columns _plane_4_hits lists (which
    refuses a plane 4 outside the chart). The free coefficients, ascending,
    must be the seeded weights random_cubic draws. These pass exactly when
    the cubic is random_cubic's, and nothing of the producer is rebuilt."""
    hits = _plane_4_hits(_REPLAY_PINNED, _plane_block(config.bases[3]))
    coeffs = clear_denominators(cubic.coeffs)
    if any(coeffs[c] for c in _REPLAY_PINNED) or any(
            sum(coeffs[c] * x for c, x in row) for row in hits):
        return False
    pivots = _REPLAY_PINNED.union(row[0][0] for row in hits if row)
    rng = SplitMix64(seed)
    return all(cubic.coeffs[fc] == rng.randint(-9, 9) for fc in range(56) if fc not in pivots)


def verify_cubic_dict(d: dict) -> bool:
    """cubic_from_dict, then cubic_replays; False when the payload does not decode."""
    try:
        decoded = cubic_from_dict(d)
    except (KeyError, ValueError, TypeError):
        return False
    return cubic_replays(*decoded)
