"""Unit tests for the integer and exact linear algebra substrate."""

import itertools
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hassettmax import arith
from hassettmax.arith import (
    SplitMix64,
    _strong_lucas_probable_prime,
    ceil_sqrt,
    factorize,
    is_prime,
    is_square,
    parse_int,
    parse_ints,
)
from hassettmax.linalg import (
    det_bareiss,
    echelon,
    identity,
    kernel_vector,
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


def test_factorize_splits_perfect_powers_without_rho(monkeypatch):
    # rho alone took 43.7 s to split q^3 on a 2-core x86-64 machine
    def no_rho(n):
        raise AssertionError(f"Pollard rho called on {n}")

    monkeypatch.setattr(arith, "_pollard_rho", no_rho)
    q = 1999574419881851
    for k in (2, 3, 5, 6, 7, 11):
        assert factorize(q**k) == {q: k}
    assert factorize(3 * q**5) == {3: 1, q: 5}
    assert factorize(53**2) == {53: 2}  # a square of a prime the trial gcd takes out


def test_factorize_splits_the_root_of_a_power_once(monkeypatch):
    calls = []

    def counting_rho(n):
        calls.append(n)
        return rho(n)

    rho = arith._pollard_rho
    monkeypatch.setattr(arith, "_pollard_rho", counting_rho)
    r = 1000003 * 1000033
    assert factorize(r**7) == {1000003: 7, 1000033: 7}
    assert calls == [r]


_BIG_PRIME = st.integers(2**19, 2**59).map(sympy.nextprime)  # 20 to 60 bits
_SMALL_PRIME = st.integers(2**19, 2**27).map(sympy.nextprime)  # 20 to 28 bits


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.tuples(_BIG_PRIME, st.integers(1, 5)),
    st.lists(st.tuples(_SMALL_PRIME, st.integers(1, 5)), max_size=2),
)
@example((1999574419881851, 3), [])
@example((1048583, 5), [(1048589, 5)])  # a perfect power of a composite
def test_factorize_matches_sympy(big, small):
    # rho splits off the primes below 2^28 in about 2^14 steps; what is left
    # of the one prime up to 2^60 is prime or a perfect power of it
    n = 1
    for p, e in [big, *small]:
        n *= p**e
    assert factorize(n) == sympy.factorint(n)


B = arith._TRIAL_BOUND
# the least strong pseudoprime to the first k prime bases, k = 1..13
PSI = {1: 2047, 2: 1373653, 3: 25326001, 4: 3215031751, 5: 2152302898747,
       6: 3474749660383, 7: 341550071728321, 8: 341550071728321,
       9: 3825123056546413051, 10: 3825123056546413051, 11: 3825123056546413051,
       12: 318665857834031151167461, 13: PSI_13}


def test_trial_primes_and_their_product():
    assert 2**8 <= B <= 2**12
    assert arith._TRIAL == list(sympy.primerange(2, B))
    assert arith._PRIMORIAL == prod(arith._TRIAL)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 2**30))
@example(B**2 - 1)
@example(B**2)
@example(arith._TRIAL[-1] * arith._TRIAL[-2])
def test_factorize_matches_sympy_up_to_2_30(n):
    assert factorize(n) == sympy.factorint(n)


def test_factorize_at_the_trial_bound(monkeypatch):
    below = [sympy.prevprime(B), sympy.prevprime(sympy.prevprime(B))]
    above = [sympy.nextprime(B), sympy.nextprime(sympy.nextprime(B))]
    for p, q in itertools.combinations_with_replacement(below + above, 2):
        for n in (p * q, 6 * p * q, p * q * arith._PRIMORIAL):
            assert factorize(n) == sympy.factorint(n)

    def no_rho(n):
        raise AssertionError(f"Pollard rho called on {n}")

    monkeypatch.setattr(arith, "_pollard_rho", no_rho)
    r = above[0]
    for n in (r**2, r**3, 2 * r**2, below[0] * r**3, r**5 * arith._PRIMORIAL):
        assert factorize(n) == sympy.factorint(n)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(2**19, 2**36).flatmap(lambda a: st.tuples(st.just(a), st.integers(a, 2 * a))))
@example((2**36, 2**37 - 2**30))
def test_factorize_splits_balanced_semiprimes(pair):
    # two primes of 20 to 37 bits: all of it is Pollard rho's work
    n = sympy.nextprime(pair[0]) * sympy.nextprime(pair[1])
    assert factorize(n) == sympy.factorint(n)


def _rho_one_step(n):
    """Brent's loop one step per modular product, as _pollard_rho was
    written before its four-step batches: the reference for its result."""
    seed = 1
    while True:
        seed += 1
        y, c, m = seed, seed + 1, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(3, 2**24).map(sympy.nextprime), min_size=2, max_size=3, unique=True))
def test_pollard_rho_returns_the_one_step_factor(primes):
    # the same y sequence, q products and backtracking, so the same factor;
    # small primes make the first rounds, of one and two steps, find it
    n = prod(primes)
    assert arith._pollard_rho(n) == _rho_one_step(n)


@pytest.mark.parametrize("k", sorted(PSI))
def test_is_prime_around_each_psi(k):
    psi = PSI[k]
    # psi_k passes the first k bases; the bases is_prime uses at psi_k reject it
    assert arith._miller_rabin(psi, arith._MR_BASES[:k])
    assert not is_prime(psi)
    for n in range(psi - 6, psi + 7):
        assert is_prime(n) == sympy.isprime(n)


@SYMPY
@given(st.integers(1, PSI_13.bit_length()).flatmap(lambda b: st.integers(2, min(2**b, PSI_13 - 1))))
@example(PSI_13 - 1)
def test_is_prime_matches_sympy_below_psi13(n):
    assert is_prime(n) == sympy.isprime(n)
    p = sympy.nextprime(n)
    assert is_prime(p)
    assert not is_prime(p * sympy.nextprime(p))


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


def _unit_read_offs(rows):
    """One kernel_vector per free column of echelon(rows), that column set
    to 1, in ascending free-column order."""
    m, pivots = echelon(rows)
    ncols = len(rows[0]) if rows else 0
    return [kernel_vector(m, pivots, ncols, {fc: 1}) for fc in range(ncols) if fc not in pivots]


def test_rref_rank_kernel():
    rows = _frac_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(rows) == 2
    kern = _unit_read_offs(rows)
    assert len(kern) == 1
    for row in rows:
        assert sum(r * k for r, k in zip(row, kern[0])) == 0


def test_kernel_of_full_rank_is_empty():
    assert _unit_read_offs(_frac_rows([[1, 0], [0, 1]])) == []


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
    # a non-integer entry raises instead of being truncated (to 0 and to 1)
    with pytest.raises(TypeError):
        det_bareiss([[Fraction(1, 2), 0], [0, 2]])
    with pytest.raises(TypeError):
        det_bareiss([[1.9, 0], [0, 1]])


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


# pivots are chosen by least |entry|, so check that nothing depends on the
# order or the scale of the rows
_NONZERO_SCALES = st.one_of(
    st.sampled_from((-3, -2, -1, 1, 2, 3)),
    st.builds(Fraction, st.integers(1, _HUGE) | st.integers(-_HUGE, -1), st.integers(1, _HUGE)),
)


@st.composite
def _reordered(draw):
    """A matrix and a copy with its rows permuted and scaled by nonzero rationals."""
    rows = draw(_matrices())
    order = draw(st.permutations(range(len(rows))))
    scales = [draw(_NONZERO_SCALES) for _ in order]
    return rows, [[s * x for x in rows[i]] for s, i in zip(scales, order)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_reordered())
@example(([], []))
@example(([[], []], [[], []]))
@example(([[0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0]]))
@example(
    ([[0, 0, 0], [6, 2, 4], [0, 0, 0], [1, 5, 0]],
     [[Fraction(-1, 3), Fraction(-5, 3), 0], [0, 0, 0], [0, 0, 0], [3, 1, 2]]),
)
def test_elimination_ignores_row_order_and_scale(pair):
    rows, shuffled = pair
    m, pivots = rref(rows)
    assert rref(shuffled) == (m, pivots)
    assert rank(shuffled) == rank(rows) == len(pivots)


# a weight per free column, None for a column left out of the dict
_WEIGHTS = st.lists(st.none() | st.integers(-9, 9) | st.integers(-_HUGE, _HUGE),
                    min_size=8, max_size=8)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_reordered(), _WEIGHTS, st.booleans())
@example(([], []), [None] * 8, False)
@example(([[0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0]]), [5, None, -7] + [0] * 5, True)
def test_kernel_vector_reads_off_the_gauss_jordan_kernel(pair, draws, backwards):
    rows, shuffled = pair
    ncols = len(rows[0]) if rows else 0
    m, pivots = echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    # one unit read-off per free column: the Fraction Gauss-Jordan kernel
    units = _unit_read_offs(rows)
    ref_m, ref_pivots = _rref_reference(rows)
    assert units == _kernel_reference(ref_m, ref_pivots, ncols)
    assert all(type(x) is Fraction for v in units for x in v)

    # int weights at some free columns, in either order, 0 at the rest:
    # the weighted sum of the unit read-offs, orthogonal to every row
    listed = [(fc, w) for fc, w in zip(free, draws) if w is not None]
    weights = dict(reversed(listed) if backwards else listed)
    v = kernel_vector(m, pivots, ncols, weights)
    assert v == [sum((weights.get(fc, 0) * u[c] for fc, u in zip(free, units)), Fraction(0))
                 for c in range(ncols)]
    for row in rows:
        assert sum(a * x for a, x in zip(row, v)) == 0

    # rows permuted and scaled: the same read-offs
    assert _unit_read_offs(shuffled) == units
    assert kernel_vector(*echelon(shuffled), ncols, weights) == v


# --- parse_int: only what str(int) writes ---


@pytest.mark.parametrize("n", [0, 7, -7, 10**40, -(10**4299)])
def test_parse_int_reads_what_str_writes(n):
    assert parse_int(str(n)) == n


@pytest.mark.parametrize("text", [
    1, 3.9, True, None, ["7"],  # JSON numbers, bools, null, lists
    " 7\n", "0_7", "07", "0001", "+7", "-0", "", "7.0", "\u0667",
    "1" * 4301,  # past the 4300-digit limit of int()
], ids=repr)
def test_parse_int_refuses_every_other_spelling(text):
    with pytest.raises(ValueError):
        parse_int(text)


def test_parse_ints_reads_a_list_of_canonical_ints():
    assert parse_ints(["5", "-9", "0"]) == (5, -9, 0) and parse_ints([]) == ()
    # a string would read one digit at a time, a dict by its keys
    for value in ["591", ("5", "9"), {"5": "9"}, None, 5]:
        with pytest.raises(TypeError):
            parse_ints(value)
    with pytest.raises(ValueError):
        parse_ints(["5", " 9"])


# --- short_int: any int, in at most 40 digits ---


def _short_int_by_str(n):
    # short_int as str() writes it, for |n| < 10**4300
    text, digits = str(n), len(str(abs(n)))
    return text if digits <= 40 else f"{text[:20]}... ({digits} digits)"


@pytest.mark.parametrize("digits", [1, 2, 19, 20, 21, 39, 40, 41, 42, 100, 1000, 4299, 4300])
def test_short_int_agrees_with_str_below_the_limit(digits):
    rng = SplitMix64(digits)
    draws = [rng.randint(10 ** (digits - 1), 10**digits - 1) for _ in range(20)]
    for n in [10 ** (digits - 1), 10**digits - 1, *draws]:
        assert arith.short_int(n) == _short_int_by_str(n)
        assert arith.short_int(-n) == _short_int_by_str(-n)
    assert arith.short_int(0) == "0"


def test_short_int_shows_ints_past_the_str_limit():
    assert arith.short_int(10**5000) == "10000000000000000000... (5001 digits)"
    assert arith.short_int(-(10**5000)) == "-1000000000000000000... (5001 digits)"
    n = 12345678901234567890 * 10**4990 + 7
    assert arith.short_int(n) == "12345678901234567890... (5010 digits)"
    assert arith.short_int(-n) == "-1234567890123456789... (5010 digits)"
