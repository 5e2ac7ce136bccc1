"""Form evaluation and enumeration, checked against hand-written oracles.

The oracles here are deliberately primitive: explicit polynomials and
exhaustive box sweeps with bounds derived from the diagonalization
8F = (8x-4y-4z-u)^2 + 3(4y-u)^2 + 3(4z-u)^2 + 57u^2.
"""

from collections import Counter
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hassettmax.linalg import det_bareiss, leading_principal_minors
from hassettmax.qforms import (
    QuadraticForm,
    bilinear,
    builtin_form,
    content,
    evaluate,
    integer_image_upto,
    is_diagonal,
    is_positive_definite,
    is_primitive,
    primitive_image,
    representations,
    vectors_up_to,
)

F = builtin_form("F")
Q3 = builtin_form("Q3")
G = builtin_form("G")


def f_poly(x, y, z, u):
    return (
        8 * x * x + 8 * y * y + 8 * z * z + 8 * u * u
        - 8 * x * y - 8 * x * z + 4 * y * z
        - 2 * u * x - 2 * u * y - 2 * u * z
    )


def f_diagonalized_times8(x, y, z, u):
    return (
        (8 * x - 4 * y - 4 * z - u) ** 2
        + 3 * (4 * y - u) ** 2
        + 3 * (4 * z - u) ** 2
        + 57 * u * u
    )


def q3_poly(x, y, z):
    return x * x + y * y + 3 * z * z


def g_poly(x, y, z):
    return x * x + 3 * y * y + 3 * z * z


def brute_f_table(n_max):
    """value -> sorted vectors, from an exhaustive sweep; bounds follow from
    the diagonalization with 8*n_max on the right-hand side."""
    table = {}
    for x in range(-12, 13):
        for y in range(-7, 8):
            for z in range(-7, 8):
                for u in range(-5, 6):
                    q = f_poly(x, y, z, u)
                    if 0 <= q <= n_max:
                        table.setdefault(q, []).append((x, y, z, u))
    return {n: sorted(vs) for n, vs in table.items()}


def brute_ternary_table(poly, zc, n_max):
    """Same for x^2+y^2+zc*z^2 shaped polynomials (zc = coefficient layout)."""
    table = {}
    r = isqrt(n_max) + 1
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            for z in range(-r, r + 1):
                q = poly(x, y, z)
                if 0 <= q <= n_max:
                    table.setdefault(q, []).append((x, y, z))
    return {n: sorted(vs) for n, vs in table.items()}


# --- evaluation ---


def test_builtin_names():
    assert (F.dim, Q3.dim, G.dim) == (4, 3, 3)
    with pytest.raises(ValueError):
        builtin_form("H")


def test_f_matches_polynomial_everywhere_small():
    for x in range(-4, 5):
        for y in range(-4, 5):
            for z in range(-4, 5):
                for u in range(-4, 5):
                    assert evaluate(F, (x, y, z, u)) == f_poly(x, y, z, u)


def test_special_values():
    assert evaluate(F, (1, 0, -1, 0)) == 24
    assert evaluate(F, (0, 1, -2, 1)) == 42
    assert evaluate(F, (1, 3, -1, 0)) == 60
    assert evaluate(F, (1, 0, 0, 0)) == 8
    assert evaluate(F, (0, 0, 0, 1)) == 8
    assert evaluate(F, (1, 1, 1, 1)) == 14


def test_two_presentations_agree():
    # identity 8F = diagonalized form, on a box and as polynomials
    for x in range(-8, 9):
        for y in range(-8, 9, 2):
            for z in range(-8, 9, 2):
                for u in range(-8, 9, 3):
                    assert 8 * f_poly(x, y, z, u) == f_diagonalized_times8(x, y, z, u)


def test_coefficient_vectors_agree():
    # extract both coefficient vectors via finite differencing on a basis
    e = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    for i in range(4):
        assert 8 * f_poly(*e[i]) == f_diagonalized_times8(*e[i])
        for j in range(i + 1, 4):
            v = tuple(a + b for a, b in zip(e[i], e[j]))
            assert 8 * f_poly(*v) == f_diagonalized_times8(*v)


def test_ternary_polynomials():
    for x in range(-5, 6):
        for y in range(-5, 6):
            for z in range(-5, 6):
                assert evaluate(Q3, (x, y, z)) == q3_poly(x, y, z)
                assert evaluate(G, (x, y, z)) == g_poly(x, y, z)


def test_homogeneity_and_polarization():
    vs = [(1, 2, 3, 4), (-2, 0, 5, 1), (3, -3, 1, 0)]
    for v in vs:
        q = evaluate(F, v)
        assert evaluate(F, tuple(3 * x for x in v)) == 9 * q
        assert evaluate(F, [Fraction(x, 2) for x in v]) == Fraction(q, 4)
    for v in vs:
        for w in vs:
            s = tuple(a + b for a, b in zip(v, w))
            lhs = 2 * bilinear(F, v, w)
            assert lhs == evaluate(F, s) - evaluate(F, v) - evaluate(F, w)
            assert bilinear(F, v, w) == bilinear(F, w, v)


@st.composite
def evaluation_cases(draw):
    """A symmetric integer Gram of dimension 1-5 (not necessarily definite)
    and a vector of ints or Fractions, both with frequent zero entries."""
    n = draw(st.integers(1, 5))
    entry = st.just(0) | st.integers(-9, 9) | st.integers(-(10**21), 10**21)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(entry)
    if draw(st.booleans()):
        coord = entry
    else:
        coord = st.just(Fraction(0)) | entry | st.fractions(max_denominator=10**6)
    return tuple(map(tuple, g)), [draw(coord) for _ in range(n)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(evaluation_cases())
@example((((0,),), [5]))
@example((((0, 0), (0, 0)), [1, 2]))
@example((((1, 2), (2, 0)), [Fraction(0), Fraction(0)]))
@example((((3, -1, 0), (-1, 0, 7), (0, 7, 2)), [0, Fraction(1, 3), -4]))
def test_evaluate_matches_gram_sum(case):
    gram, v = case
    form = QuadraticForm(len(gram), gram)
    n = len(v)
    expected = sum(gram[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
    got = evaluate(form, v)
    assert got == expected
    assert evaluate(form, tuple(v)) == expected
    if all(type(x) is int for x in v):
        assert type(got) is int
    w = v[::-1]
    assert bilinear(form, v, w) == sum(
        gram[i][j] * v[i] * w[j] for i in range(n) for j in range(n)
    )


def test_form_identity_ignores_precomputed_terms():
    # the evaluation terms are derived state: equality, hash and repr are
    # those of (dim, gram, name) alone
    gram = ((1, 0, 0), (0, 1, 0), (0, 0, 3))
    q3 = QuadraticForm(3, gram, "Q3")
    assert builtin_form("Q3") == q3
    assert hash(builtin_form("Q3")) == hash(q3) == hash((3, gram, "Q3"))
    assert repr(q3) == "QuadraticForm(dim=3, gram=((1, 0, 0), (0, 1, 0), (0, 0, 3)), name='Q3')"
    assert q3 != QuadraticForm(3, gram)
    assert len({q3, QuadraticForm(3, gram, "Q3"), builtin_form("Q3")}) == 1


def test_is_diagonal_reads_every_off_diagonal_entry():
    assert is_diagonal(Q3) and is_diagonal(G) and not is_diagonal(F)
    assert is_diagonal(QuadraticForm(3, ((0, 0, 0), (0, 2, 0), (0, 0, 0))))
    # the only off-diagonal entry comes after three diagonal ones
    gram = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 1), (0, 0, 1, 2))
    assert not is_diagonal(QuadraticForm(4, gram))


def test_gram_symmetry_validation():
    with pytest.raises(ValueError):
        QuadraticForm(2, ((1, 2), (3, 1)))


def test_positive_definiteness():
    assert is_positive_definite(F)
    assert is_positive_definite(Q3)
    assert is_positive_definite(G)
    assert not is_positive_definite(QuadraticForm(2, ((1, 0), (0, -1))))


@st.composite
def symmetric_grams(draw):
    n = draw(st.integers(1, 4))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(st.integers(-2, 10) if i == j else st.integers(-3, 3))
    return tuple(map(tuple, g))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(symmetric_grams())
@example(((1, 1), (1, 1)))  # leading minors 1, 0
@example(((1, 1, 0), (1, 1, 0), (0, 0, 1)))  # 1, 0, 0
@example(((2, 1, 1), (1, 1, 0), (1, 0, 1)))  # 2, 1, 0
@example(((0, 1), (1, 2)))  # 0, -1
def test_positive_definite_is_sylvester(gram):
    form = QuadraticForm(len(gram), gram)
    assert is_positive_definite(form) == all(m > 0 for m in leading_principal_minors(gram))


# --- primitivity ---


def test_primitivity():
    assert is_primitive((1, 0, -1, 0))
    assert not is_primitive((2, 4, 6, 0))
    assert not is_primitive((0, 0, 0, 0))
    assert content((2, 4, 6, 0)) == 2
    assert content((0, 0, 0)) == 0


# --- enumeration against box oracles ---


def test_representations_match_brute_force_f():
    table = brute_f_table(200)
    for n in range(0, 201):
        assert representations(F, n) == table.get(n, []), f"n = {n}"


def test_representations_match_brute_force_ternary():
    table_q3 = brute_ternary_table(q3_poly, 3, 300)
    table_g = brute_ternary_table(g_poly, 3, 300)
    for n in range(0, 301):
        assert representations(Q3, n) == table_q3.get(n, []), f"Q3 n = {n}"
        assert representations(G, n) == table_g.get(n, []), f"G n = {n}"


def test_representations_frozen_values():
    assert representations(Q3, 2) == [(-1, -1, 0), (-1, 1, 0), (1, -1, 0), (1, 1, 0)]
    assert representations(Q3, 6) == []
    reps7 = representations(G, 7)
    assert len(reps7) == 16
    assert (2, 1, 0) in reps7
    assert (-1, -1, -1) in reps7
    assert all(g_poly(*v) == 7 for v in reps7)
    assert reps7 == sorted(reps7)


def test_vectors_up_to_covers_ball():
    got = {v for v, q in vectors_up_to(Q3, 12)}
    table = brute_ternary_table(q3_poly, 3, 12)
    expected = {v for vs in table.values() for v in vs}
    assert got == expected
    for v, q in vectors_up_to(Q3, 12):
        assert q == q3_poly(*v)


# --- images ---


def test_primitive_image_frozen():
    assert primitive_image(F, 30) == [8, 12, 14, 18, 20, 24, 26, 30]
    # spec prose lists 9 here, but 9 = 3^2 is only imprimitively represented
    assert primitive_image(Q3, 10) == [1, 2, 3, 4, 5, 7, 8, 10]
    assert primitive_image(F, 0) == []


def test_primitive_image_against_brute_force():
    table = brute_f_table(200)
    expected = sorted(
        n
        for n, vs in table.items()
        if n > 0 and any(gcd(gcd(abs(a), abs(b)), gcd(abs(c), abs(d))) == 1
                         for a, b, c, d in vs)
    )
    assert primitive_image(F, 200) == expected


def test_integer_image_fast_path_matches_enumeration():
    table = brute_ternary_table(g_poly, 3, 400)
    expected = {n for n in table if n > 0}
    assert integer_image_upto(G, 400) == expected
    table_f = brute_f_table(150)
    expected_f = {n for n in table_f if n > 0}
    assert integer_image_upto(F, 150) == expected_f


def test_image_containment_in_hassett():
    # every positive F-value on a box is 0 or 2 mod 6 and >= 8
    for n in integer_image_upto(F, 600):
        assert n >= 8 and n % 6 in (0, 2)


# --- property tests against a box brute force ---

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def nondiagonal_forms(draw):
    """Positive definite Gram matrices of dimension 1-4 whose off-diagonal
    entries are all nonzero, so the scaled LDL has nontrivial entries."""
    n = draw(st.integers(1, 4))
    off = st.integers(-3, 3).filter(bool)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(off)
    for i in range(n):
        g[i][i] = sum(abs(x) for x in g[i]) + draw(st.integers(-2, 3))
    form = QuadraticForm(n, tuple(map(tuple, g)))
    assume(is_positive_definite(form))
    return form


def gram_poly(gram, v):
    return sum(gram[i][j] * v[i] * v[j] for i in range(len(v)) for j in range(len(v)))


def brute_table(form, bound):
    """value -> sorted vectors over the box |v_i| <= sqrt(bound * (B^-1)_ii),
    which holds the whole ellipsoid Q(v) <= bound."""
    n, gram = form.dim, form.gram
    det = det_bareiss(gram)
    radii = []
    for i in range(n):
        keep = [k for k in range(n) if k != i]
        cofactor = det_bareiss([[gram[r][c] for c in keep] for r in keep]) if keep else 1
        radii.append(isqrt(bound * cofactor // det) + 1)
    table = {}

    def sweep(v):
        if len(v) == n:
            q = gram_poly(gram, v)
            if q <= bound:
                table.setdefault(q, []).append(tuple(v))
            return
        r = radii[len(v)]
        for x in range(-r, r + 1):
            sweep(v + [x])

    sweep([])
    return {q: sorted(vs) for q, vs in table.items()}


@PROPERTY
@given(nondiagonal_forms(), st.integers(0, 30))
def test_enumeration_matches_box_brute_force(form, bound):
    table = brute_table(form, bound)
    for n in range(bound + 1):
        assert representations(form, n) == table.get(n, []), f"n = {n}"
    walked = list(vectors_up_to(form, bound))
    counts = Counter(v for v, _ in walked)
    assert set(counts) == {v for vs in table.values() for v in vs}
    assert set(counts.values()) == {1}
    assert all(q == evaluate(form, v) for v, q in walked)
    assert primitive_image(form, bound) == sorted(
        n for n, vs in table.items() if n > 0 and any(content(v) == 1 for v in vs)
    )
    assert integer_image_upto(form, bound) == {n for n in table if n > 0}


@PROPERTY
@given(st.lists(st.integers(1, 6), min_size=3, max_size=3), st.integers(0, 60))
def test_diagonal_sieve_matches_box_brute_force(diagonal, bound):
    a, b, c = diagonal
    form = QuadraticForm(3, ((a, 0, 0), (0, b, 0), (0, 0, c)))
    expected = {n for n in brute_table(form, bound) if n > 0}
    assert integer_image_upto(form, bound) == expected


def test_enumeration_edge_cases():
    for form in (F, Q3, QuadraticForm(1, ((5,),))):
        assert representations(form, 0) == [(0,) * form.dim]
        assert list(vectors_up_to(form, 0)) == [((0,) * form.dim, 0)]
        assert list(vectors_up_to(form, -1)) == []
        assert primitive_image(form, -1) == []
        assert integer_image_upto(form, -1) == set()
        with pytest.raises(ValueError, match="n must be >= 0"):
            representations(form, -1)
    assert representations(QuadraticForm(1, ((5,),)), 20) == [(-2,), (2,)]


@pytest.mark.parametrize("gram", [((1, 0), (0, -1)), ((1, 2), (2, 1)), ((0, 0), (0, 1)), ((-2,),)])
def test_not_positive_definite_is_rejected(gram):
    form = QuadraticForm(len(gram), gram)
    with pytest.raises(ValueError, match="^representations requires a positive definite form$"):
        representations(form, 4)
    with pytest.raises(ValueError, match="^representations requires a positive definite form$"):
        representations(form, -1)
    with pytest.raises(ValueError, match="^enumeration requires a positive definite form$"):
        list(vectors_up_to(form, 4))
    with pytest.raises(ValueError, match="^enumeration requires a positive definite form$"):
        list(vectors_up_to(form, -1))
    with pytest.raises(ValueError, match="^primitive_image requires a positive definite form$"):
        primitive_image(form, 4)
    with pytest.raises(ValueError, match="^enumeration requires a positive definite form$"):
        integer_image_upto(form, 4)
