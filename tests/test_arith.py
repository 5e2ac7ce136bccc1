"""Unit tests for the integer and exact linear algebra substrate."""

from fractions import Fraction
from math import isqrt

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hassettmax.arith import (
    SplitMix64,
    _strong_lucas_probable_prime,
    ceil_sqrt,
    factorize,
    is_prime,
    is_square,
)
from hassettmax.linalg import (
    det_bareiss,
    identity,
    kernel_basis,
    leading_principal_minors,
    mat_mul,
    rank,
    rref,
)

_MASK = (1 << 64) - 1


def _splitmix_reference(seed):
    # published recurrence, typed out independently of the package
    state = seed & _MASK
    while True:
        state = (state + 0x9E3779B97F4B7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


def test_is_prime_small_and_carmichael():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(2, 50):
        assert is_prime(n) == (n in primes)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(341550071728321)  # strong pseudoprime to several bases
    assert is_prime(2**61 - 1)


# psi_13: the least strong pseudoprime to every prime base up to 41
PSI_13 = 3317044064679887385961981
PSI_13_FACTORS = {1287836182261: 1, 2575672364521: 1}
SYMPY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def test_psi13_is_composite():
    assert not is_prime(PSI_13)
    assert factorize(PSI_13) == PSI_13_FACTORS
    assert all(is_prime(p) for p in PSI_13_FACTORS)
    # the primes on either side: fixed bases below psi_13, Baillie-PSW above
    assert is_prime(sympy.prevprime(PSI_13))
    assert is_prime(sympy.nextprime(PSI_13))


def test_strong_lucas_selfridge_pseudoprimes():
    # the strong Lucas pseudoprimes below 10^5 (Selfridge parameters): the
    # Lucas half of Baillie-PSW alone passes them, base 2 rejects them
    spsp = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]
    found = [
        n
        for n in range(49, 10**5, 2)
        if all(n % p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))
        and _strong_lucas_probable_prime(n)
        and not sympy.isprime(n)
    ]
    assert found == spsp
    assert not any(is_prime(n) for n in spsp)


@SYMPY
@given(st.integers(PSI_13, 10**40))
@example(PSI_13)
@example(PSI_13 + 2)
@example(10**40 - 1)
def test_is_prime_matches_sympy_above_psi13(n):
    assert is_prime(n) == sympy.isprime(n)
    p = sympy.nextprime(n)
    assert is_prime(p)
    assert not is_prime(p * p)


@SYMPY
@given(st.integers(2, 10**20), st.integers(2, 10**20))
@example(1287836182260, 2575672364520)
def test_is_prime_rejects_products_of_two_primes(a, b):
    n = sympy.nextprime(a) * sympy.nextprime(b)
    assert not is_prime(n)
    assert is_prime(n) == sympy.isprime(n)


def test_factorize_reassembles():
    for n in [1, 2, 12, 97, 128, 600851475143, 2**31 - 1, 10**12 + 39]:
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_splits_squares_without_rho():
    # rho alone needs about q^(1/2) steps to split q^2: about 32 s for this q
    # on a 2-core x86-64 machine
    q = 1999574419881851
    assert factorize(2**4 * q**2) == {2: 4, q: 2}
    assert factorize(q**2 * 1000003) == {q: 2, 1000003: 1}


def test_ceil_sqrt_and_is_square():
    for n in range(1, 500):
        c = ceil_sqrt(n)
        assert (c - 1) ** 2 < n <= c**2
        assert is_square(n) == (isqrt(n) ** 2 == n)


def test_splitmix_matches_reference():
    for seed in (0, 1, 42, 1729, 2**63 + 11):
        rng = SplitMix64(seed)
        ref = _splitmix_reference(seed)
        for _ in range(50):
            assert rng.next_u64() == next(ref)


def test_splitmix_randint_range_and_determinism():
    rng1 = SplitMix64(7)
    rng2 = SplitMix64(7)
    draws = [rng1.randint(-9, 9) for _ in range(200)]
    assert draws == [rng2.randint(-9, 9) for _ in range(200)]
    assert all(-9 <= d <= 9 for d in draws)
    assert len(set(draws)) > 10  # hits most of the range


def _frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_rank_kernel():
    rows = _frac_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(rows) == 2
    kern = kernel_basis(rows)
    assert len(kern) == 1
    for row in rows:
        assert sum(r * k for r, k in zip(row, kern[0])) == 0


def test_kernel_of_full_rank_is_empty():
    assert kernel_basis(_frac_rows([[1, 0], [0, 1]])) == []


def test_det_bareiss():
    assert det_bareiss([[2, 0], [0, 3]]) == 6
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    m = [[3, 1, 1, 1, 1], [1, 3, -1, -1, 0], [1, -1, 3, 1, 0],
         [1, -1, 1, 3, 0], [1, 0, 0, 0, 3]]
    # cofactor oracle
    def det_rec(a):
        if len(a) == 1:
            return a[0][0]
        return sum(
            (-1) ** j * a[0][j] * det_rec([row[:j] + row[j + 1:] for row in a[1:]])
            for j in range(len(a))
        )
    assert det_bareiss(m) == det_rec(m)
    assert det_bareiss([]) == 1  # empty product


def test_leading_principal_minors():
    m = [[2, 1], [1, 2]]
    assert leading_principal_minors(m) == [2, 3]


def test_mat_mul_identity():
    m = [[1, 2], [3, 4]]
    assert mat_mul(m, identity(2)) == _frac_rows(m)


# --- rref against the Fraction Gauss-Jordan it replaced ---


def _rref_reference(rows):
    """Plain Gauss-Jordan over Fractions, first nonzero pivot in each column."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _kernel_reference(m, pivots, ncols):
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


_HUGE = 10**30
_ENTRIES = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.integers(-_HUGE, _HUGE),
    st.builds(Fraction, st.integers(-_HUGE, _HUGE), st.integers(1, _HUGE)),
)
_SCALES = st.one_of(
    st.integers(-3, 3),  # 0 makes a zero row, 1 a duplicate
    st.builds(Fraction, st.integers(-_HUGE, _HUGE), st.integers(1, _HUGE)),
)


@st.composite
def _matrices(draw):
    """Up to 8x8 with ints and Fractions mixed, a zero column now and then,
    and extra rows that are rational multiples (zero included) of others."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    rows = [[draw(_ENTRIES) for _ in range(ncols)] for _ in range(nrows)]
    if ncols and draw(st.booleans()):
        zero_col = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[zero_col] = 0
    while rows and len(rows) < 8 and draw(st.booleans()):
        source = draw(st.sampled_from(rows))
        scale = draw(_SCALES)
        rows.insert(draw(st.integers(0, len(rows))), [scale * x for x in source])
    return rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_matrices())
def test_rref_rank_kernel_match_fraction_gauss_jordan(rows):
    before = [list(row) for row in rows]
    m, pivots = rref(rows)
    ref_m, ref_pivots = _rref_reference(rows)
    assert rows == before
    assert (m, pivots) == (ref_m, ref_pivots)
    assert all(type(x) is Fraction for row in m for x in row)
    assert rank(rows) == len(ref_pivots)
    ncols = len(rows[0]) if rows else 0
    kern = kernel_basis(rows)
    assert kern == _kernel_reference(ref_m, ref_pivots, ncols)
    for v in kern:
        for row in rows:
            assert sum(a * x for a, x in zip(row, v)) == 0
