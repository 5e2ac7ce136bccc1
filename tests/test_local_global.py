"""Square classes, Hilbert symbols, Hensel lifting, and place certificates.

Independent oracles: Euler's criterion for the Jacobi symbol, the Hilbert
product formula and bimultiplicativity, exhaustive residue tables for the
2-adic and 3-adic obstruction classes, and enumeration cross-checks.
"""

import hashlib
import json
import re
import time
from dataclasses import replace
from math import ceil, log10, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hassettmax import local_global
from hassettmax.arith import LIMIT, SplitMix64, factorize, is_prime
from hassettmax.local_global import (
    _BASE_2,
    _overall,
    LocalCertificate,
    certify_global,
    certify_local,
    check_modulus,
    default_extra_primes,
    hensel_lift_two_squares,
    hilbert_symbol,
    is_padic_square,
    jacobi,
    rational_values_mask,
    rationally_representable_ternary,
    report_from_dict,
    report_to_dict,
    sqrt_mod_2k,
    sqrt_mod_p,
    sqrt_mod_pk,
    ternary_represents_locally,
    verify_local_certificate,
    verify_report,
)
from hassettmax.qforms import builtin_form, evaluate, integer_image_upto

G = builtin_form("G")
ODD_PRIMES = [p for p in range(3, 120) if is_prime(p)]


# --- jacobi ---


def test_jacobi_matches_euler_criterion():
    for p in ODD_PRIMES:
        for a in range(0, p):
            legendre = pow(a, (p - 1) // 2, p)
            expected = 0 if legendre == 0 else (1 if legendre == 1 else -1)
            assert jacobi(a, p) == expected, (a, p)


def test_jacobi_multiplicative_in_modulus():
    rng = SplitMix64(5)
    for _ in range(100):
        a = rng.randint(-50, 50)
        m = 2 * rng.randint(1, 40) + 1
        n = 2 * rng.randint(1, 40) + 1
        assert jacobi(a, m * n) == jacobi(a, m) * jacobi(a, n)


def test_jacobi_rejects_even_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 4)


# --- hilbert symbols ---


def test_hilbert_symmetry_and_bimultiplicativity():
    rng = SplitMix64(6)
    places = [None, 2, 3, 5, 7, 11]
    for _ in range(150):
        a = rng.randint(1, 60) * (1 if rng.randint(0, 1) else -1)
        b = rng.randint(1, 60) * (1 if rng.randint(0, 1) else -1)
        c = rng.randint(1, 60) * (1 if rng.randint(0, 1) else -1)
        for p in places:
            assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
            assert hilbert_symbol(a, b * c, p) == hilbert_symbol(
                a, b, p
            ) * hilbert_symbol(a, c, p)


def test_hilbert_product_formula():
    rng = SplitMix64(7)
    for _ in range(200):
        a = rng.randint(1, 400) * (1 if rng.randint(0, 1) else -1)
        b = rng.randint(1, 400) * (1 if rng.randint(0, 1) else -1)
        places = {2} | {p for p in range(3, 800) if is_prime(p) and (a * b) % p == 0}
        prod = hilbert_symbol(a, b, None)
        for p in places:
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1, (a, b)


def test_hilbert_classics():
    assert hilbert_symbol(-1, -1, None) == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, 3) == 1
    assert hilbert_symbol(2, 3, 2) == -1  # 2x^2 + 3y^2 = z^2 insoluble over Q_2
    with pytest.raises(ValueError):
        hilbert_symbol(0, 5, 3)


def test_padic_squares():
    # odd p oracle: unit squares have even valuation and QR unit part
    for p in (3, 5, 7, 11):
        for a in range(1, 200):
            e = 0
            u = a
            while u % p == 0:
                u //= p
                e += 1
            expected = e % 2 == 0 and pow(u, (p - 1) // 2, p) == 1
            assert is_padic_square(a, p) == expected
    # 2-adic: exhaustive small table against x^2 mod 64
    squares_mod64 = {x * x % 64 for x in range(64)}
    for a in range(1, 64, 2):
        assert is_padic_square(a, 2) == (a % 8 == 1)
        if a % 8 == 1:
            assert a in squares_mod64


# --- local representability of the ternary forms ---


def q3_fails_at_3(n):
    e = 0
    while n % 3 == 0:
        n //= 3
        e += 1
    return e % 2 == 1 and n % 3 == 2


def g_fails_at_3(n):
    e = 0
    while n % 3 == 0:
        n //= 3
        e += 1
    return e % 2 == 0 and n % 3 == 2


def test_ternary_local_obstruction_classes():
    # hand-derived 3-adic failure classes vs the Hilbert-symbol machinery
    for n in range(1, 400):
        assert ternary_represents_locally((1, 1, 3), n, 3) == (not q3_fails_at_3(n))
        assert ternary_represents_locally((1, 3, 3), n, 3) == (not g_fails_at_3(n))
        # both forms are universal over Q_2 and at good primes
        assert ternary_represents_locally((1, 1, 3), n, 2)
        assert ternary_represents_locally((1, 3, 3), n, 2)
        assert ternary_represents_locally((1, 1, 3), n, 7)


def test_rational_representability_matches_enumeration():
    # Q3 and G are ADC, so rational and integral representability coincide
    image_q3 = integer_image_upto(builtin_form("Q3"), 400)
    image_g = integer_image_upto(G, 400)
    for n in range(1, 401):
        assert rationally_representable_ternary((1, 1, 3), n) == (n in image_q3)
        assert rationally_representable_ternary((1, 3, 3), n) == (n in image_g)


def reference_represents_locally(coeffs, n, p):
    """The rank-3 local criterion with every symbol computed per call."""
    if n == 0:
        return True
    if p is None:
        if all(c > 0 for c in coeffs):
            return n > 0
        if all(c < 0 for c in coeffs):
            return n < 0
        return True
    d = coeffs[0] * coeffs[1] * coeffs[2]
    eps = (
        hilbert_symbol(coeffs[0], coeffs[1], p)
        * hilbert_symbol(coeffs[0], coeffs[2], p)
        * hilbert_symbol(coeffs[1], coeffs[2], p)
    )
    same_class = is_padic_square(n * -d, p)
    return (not same_class) or hilbert_symbol(-1, -d, p) == eps


def reference_rationally_representable(coeffs, n):
    """Hasse-Minkowski over the real place and every prime of 2*disc,
    factoring 2*disc per call."""
    if n == 0:
        return True
    if not reference_represents_locally(coeffs, n, None):
        return False
    bad = sorted(factorize(abs(2 * coeffs[0] * coeffs[1] * coeffs[2])))
    return all(reference_represents_locally(coeffs, n, p) for p in bad)


NONZERO_COEFF = st.integers(-30, 30).filter(bool)
TARGET = st.integers(-500, 500)
SMALL_PRIMES = [p for p in range(2, 32) if is_prime(p)]
CACHED = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@CACHED
@given(st.tuples(NONZERO_COEFF, NONZERO_COEFF, NONZERO_COEFF), TARGET,
       st.sampled_from([None] + SMALL_PRIMES))
@example((1, 1, 3), 0, 3)
@example((1, 3, 3), 2, 3)
@example((-1, -3, -3), -2, 3)
def test_ternary_represents_locally_matches_per_call_reference(coeffs, n, p):
    assert ternary_represents_locally(coeffs, n, p) == reference_represents_locally(coeffs, n, p)


@CACHED
@given(st.tuples(NONZERO_COEFF, NONZERO_COEFF, NONZERO_COEFF), TARGET)
@example((1, 1, 3), 0)
@example((1, 1, 3), 6)
@example((-7, 5, 30), -500)
def test_rationally_representable_ternary_matches_per_call_reference(coeffs, n):
    assert rationally_representable_ternary(coeffs, n) == reference_rationally_representable(
        coeffs, n
    )


@CACHED
@given(st.integers(-500, 500), st.sampled_from(SMALL_PRIMES))
def test_unsolvable_certificates_replay_the_per_call_criterion(k, p):
    # verify_local_certificate accepts a witness-free "unsolvable" verdict
    # exactly when G = <1, 3, 3> fails to represent k over Q_p
    cert = LocalCertificate(k, p, 3, None, "unsolvable")
    assert verify_local_certificate(cert) == (not reference_represents_locally((1, 3, 3), k, p))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.tuples(*[st.integers(1, 30)] * 3), st.integers(0, 3000))
@example((1, 1, 1), 3000)  # obstructed at 2: n = 4^a (8b + 7)
@example((1, 1, 3), 3000)
@example((1, 3, 3), 3000)
@example((2, 3, 5), 3000)
@example((3, 5, 7), 3000)
@example((1, 1, 9), 3000)
@example((1, 3, 3), 0)
@example((1, 1, 1), 1)
def test_rational_values_mask_matches_the_per_n_test(coeffs, n_max):
    mask = rational_values_mask(coeffs, n_max)
    assert mask >> (n_max + 1) == 0 and mask & 1 == 0
    for n in range(1, n_max + 1):
        assert (mask >> n) & 1 == rationally_representable_ternary(coeffs, n), n


def test_rational_values_mask_sum_of_three_squares():
    # Legendre: n is a sum of three rational squares unless n = 4^a (8b + 7)
    def legendre_excluded(n):
        while n % 4 == 0:
            n //= 4
        return n % 8 == 7

    mask = rational_values_mask((1, 1, 1), 5000)
    assert [n for n in range(1, 5001) if not (mask >> n) & 1] == [
        n for n in range(1, 5001) if legendre_excluded(n)
    ]
    assert rational_values_mask((1, 1, 1), -5) == rational_values_mask((1, 1, 1), 0) == 0
    with pytest.raises(ValueError, match="positive coefficients"):
        rational_values_mask((1, -1, 3), 100)


def test_negative_targets_fail_at_the_real_place():
    assert not ternary_represents_locally((1, 3, 3), -5, None)
    assert not rationally_representable_ternary((1, 3, 3), -5)


# --- modular square roots ---


def test_sqrt_mod_p_all_residues():
    for p in ODD_PRIMES:
        for a in range(1, p):
            if pow(a, (p - 1) // 2, p) == 1:
                r = sqrt_mod_p(a, p)
                assert r * r % p == a
                assert r <= p - r
            else:
                with pytest.raises(ValueError):
                    sqrt_mod_p(a, p)


def reference_sqrt_mod_pk(a, p, k):
    """The lift of sqrt_mod_p(a, p) one p-adic digit per Newton step."""
    pk = p**k
    x, mod = sqrt_mod_p(a, p), p
    while mod < pk:
        inv = pow(2 * x % (mod * p), -1, mod * p)
        x = (x - (x * x - a) * inv) % (mod * p)
        mod *= p
    return x % pk


def test_sqrt_mod_pk_matches_the_per_digit_reference():
    # k = 1000 only at p <= 7, where the per-digit reference stays fast
    for p in ODD_PRIMES[:8]:
        residues = sorted({x * x % p for x in range(1, p)})
        for k in [*range(1, 41), 97, *([1000] if p <= 7 else [])]:
            pk = p**k
            for r in residues:
                for a in (r, (r + 7 * p * k) % pk, pk - p + r):
                    assert sqrt_mod_pk(a, p, k) == reference_sqrt_mod_pk(a, p, k), (a, p, k)


def test_sqrt_mod_pk():
    rng = SplitMix64(8)
    for _ in range(100):
        p = ODD_PRIMES[rng.randint(0, len(ODD_PRIMES) - 1)]
        k = rng.randint(1, 5)
        x = rng.randint(1, p**k - 1)
        if x % p == 0:
            continue
        a = x * x % p**k
        r = sqrt_mod_pk(a, p, k)
        assert r * r % p**k == a
    with pytest.raises(ValueError):
        sqrt_mod_pk(3, 5, 2)  # 3 is not a QR mod 5
    with pytest.raises(ValueError):
        sqrt_mod_pk(5, 5, 2)  # not a unit


def test_sqrt_mod_2k():
    for k in range(3, 10):
        mod = 1 << k
        for a in range(1, mod, 8):
            r = sqrt_mod_2k(a, k)
            assert r * r % mod == a, (a, k)
    for bad in (3, 5, 7):
        with pytest.raises(ValueError):
            sqrt_mod_2k(bad, 4)
    assert sqrt_mod_2k(1, 1) == 1
    assert sqrt_mod_2k(1, 2) == 1


# --- hensel two-squares helper ---


def test_hensel_two_squares_frozen():
    assert hensel_lift_two_squares(2, 5, 2) == (1, 1)
    assert hensel_lift_two_squares(522, 5, 2) == (1, 11)
    with pytest.raises(ValueError):
        hensel_lift_two_squares(10, 5, 2)  # not a unit at 5
    with pytest.raises(ValueError):
        hensel_lift_two_squares(3, 2, 2)  # p must be odd


def test_hensel_two_squares_random():
    rng = SplitMix64(9)
    for _ in range(120):
        p = ODD_PRIMES[rng.randint(0, len(ODD_PRIMES) - 1)]
        prec = rng.randint(1, 4)
        c = rng.randint(1, p**prec)
        if c % p == 0:
            continue
        y, z = hensel_lift_two_squares(c, p, prec)
        assert (y * y + z * z - c) % p**prec == 0


# --- local certificates ---


def test_certify_local_frozen_examples():
    cert = certify_local(7, 2, 3)
    assert cert.witness == (1, 1, 1) and cert.verdict == "solvable"
    assert verify_local_certificate(cert)
    cert55 = certify_local(55, 5, 2)
    assert cert55.witness == (3, 1, 16)
    assert (evaluate(G, cert55.witness) - 55) % 25 == 0
    assert verify_local_certificate(cert55)


def test_certify_local_2adic_all_residues():
    # every k has a 2-adic witness; the k = 7 mod 8 branch keeps (x, 1, 1)
    for k in range(1, 130):
        cert = certify_local(k, 2, 5)
        assert cert.verdict == "solvable"
        assert (evaluate(G, cert.witness) - k) % 32 == 0
        if k % 8 == 7:
            assert cert.witness[1:] == (1, 1)
        assert verify_local_certificate(cert)


def test_certify_local_3adic_cases():
    cert3 = certify_local(3, 3, 3)
    assert cert3.verdict == "solvable" and cert3.witness[0] == 0
    assert (evaluate(G, cert3.witness) - 3) % 27 == 0
    cert1 = certify_local(7, 3, 3)
    assert cert1.witness[1:] == (0, 0)
    assert (evaluate(G, cert1.witness) - 7) % 27 == 0
    cert9 = certify_local(9 * 4, 3, 3)
    assert cert9.verdict == "solvable"
    assert all(x % 3 == 0 for x in cert9.witness)
    assert (evaluate(G, cert9.witness) - 36) % 27 == 0
    bad = certify_local(5, 3, 3)
    assert bad.verdict == "unsolvable" and bad.witness is None
    assert verify_local_certificate(bad)
    for k in range(1, 200):
        cert = certify_local(k, 3, 3)
        assert (cert.verdict == "unsolvable") == g_fails_at_3(k)
        assert verify_local_certificate(cert)


def reference_certify_3(k, precision):
    """The recursive 3-adic certificate: one level per factor 9 of k."""
    if k % 9 == 0:
        inner = reference_certify_3(k // 9, precision)
        witness = None
        if inner.witness is not None:
            witness = tuple(3 * x for x in inner.witness)
        return LocalCertificate(k, 3, precision, witness, inner.verdict)
    mod = 3**precision
    if k % 3 == 0:
        y, z = hensel_lift_two_squares(k // 3, 3, precision)
        return LocalCertificate(k, 3, precision, (0, y, z), "solvable")
    if k % 3 == 1:
        x = sqrt_mod_pk(k % mod, 3, precision)
        return LocalCertificate(k, 3, precision, (x, 0, 0), "solvable")
    return LocalCertificate(k, 3, precision, None, "unsolvable")


@pytest.mark.parametrize("precision", [1, 2, 3, 7, 20])
def test_certify_3_matches_the_recursive_reference(precision):
    for k in range(-3000, 3000):
        if k == 0:
            continue  # the recursive reference never ends at 0
        for j in range(5):
            kj = k * 9**j
            assert certify_local(kj, 3, precision) == reference_certify_3(kj, precision), kj


def test_certify_local_at_3_handles_a_deep_power_of_9():
    # one level of recursion per factor 9 used to exhaust the stack here
    cert = certify_local(7 * 9**1200, 3, 3)
    assert cert.verdict == "solvable" and verify_local_certificate(cert)
    assert len(str(2 * 9**1500)) == 1432
    for k, overall in [(2 * 9**1500, "unsolvable"), (7 * 9**1500, "solvable")]:
        report = certify_global(k)
        assert report.overall == overall
        assert verify_report(report)


def test_certify_local_generic_prime_precision():
    for k, p, prec in [(55, 5, 4), (111, 7, 3), (7, 11, 2), (200, 13, 3)]:
        cert = certify_local(k, p, prec)
        assert cert.verdict == "solvable"
        assert (evaluate(G, cert.witness) - k) % p**prec == 0
        assert verify_local_certificate(cert)


def test_certify_local_real_and_zero():
    assert certify_local(7, "real").verdict == "solvable"
    assert certify_local(-3, "real").verdict == "unsolvable"
    # G(0, 0, 0) = 0: k = 0 is solvable at every place, and replays
    for place in ("real", 2, 3, 5, 7, 11):
        zero = certify_local(0, place)
        assert zero.verdict == "solvable", place
        assert zero.witness == (None if place == "real" else (0, 0, 0))
        assert verify_local_certificate(zero)


def test_verdicts_follow_the_old_per_place_rules_away_from_zero():
    # the real-place sign test, g_fails_at_3 at 3, and solvable elsewhere
    for k in [*range(-60, 4001), 2 * 9**1500, -(7 * 9**40)]:
        if k == 0:
            continue
        report = certify_global(k, extra_primes=[5, 7, 11, 13])
        want = [k > 0, True, not g_fails_at_3(k), True, True, True, True]
        assert [c.verdict == "solvable" for c in report.certificates] == want, k
        assert verify_report(report)


def test_certify_local_rejects_bad_places():
    with pytest.raises(ValueError):
        certify_local(5, 4)
    with pytest.raises(ValueError):
        certify_local(5, "complex")
    with pytest.raises(ValueError):
        certify_local(5, 5, 0)


def test_verify_rejects_tampered_certificates():
    cert = certify_local(7, 2, 3)
    tampered = LocalCertificate(cert.k, cert.place, cert.precision, (2, 1, 1), "solvable")
    assert not verify_local_certificate(tampered)
    fake_unsolvable = LocalCertificate(7, 5, 2, None, "unsolvable")
    assert not verify_local_certificate(fake_unsolvable)
    wrong_verdict = LocalCertificate(7, "real", 3, None, "unsolvable")
    assert not verify_local_certificate(wrong_verdict)


def test_seed_table_covers_all_residues_mod_8():
    # existence backing for the 2-adic seed search
    covered = {}
    for x in range(8):
        for y in range(8):
            for z in range(8):
                if x % 2 or y % 2 or z % 2:
                    covered.setdefault((x * x + 3 * y * y + 3 * z * z) % 8, (x, y, z))
    assert sorted(covered) == list(range(8))


def first_search_hit(r):
    """The 2-adic seed search that _BASE_2 tabulates: the first (x, y, z) over
    (Z/8)^3, in lexicographic order, with an odd coordinate and G = r mod 8."""
    for x in range(8):
        for y in range(8):
            for z in range(8):
                if (x % 2 or y % 2 or z % 2) and (x * x + 3 * y * y + 3 * z * z - r) % 8 == 0:
                    return (x, y, z)
    raise AssertionError(f"no seed for {r}")


def reference_witness_2(k, precision):
    """Reference copy of the 2-adic witness built by search: a special case
    for k = 7 mod 8, else the first hit with its first odd coordinate lifted."""
    mod = 1 << precision
    if k % 8 == 7:
        return (sqrt_mod_2k((k - 6) % mod, precision), 1, 1)
    inv3 = pow(3, -1, mod)
    x, y, z = first_search_hit(k % 8)
    if x % 2:
        return (sqrt_mod_2k((k - 3 * y * y - 3 * z * z) % mod, precision), y, z)
    if y % 2:
        return (x, sqrt_mod_2k(inv3 * (k - x * x - 3 * z * z) % mod, precision), z)
    return (x, y, sqrt_mod_2k(inv3 * (k - x * x - 3 * y * y) % mod, precision))


def test_base_2_table_is_the_first_search_hit():
    assert [_BASE_2[r] for r in range(7)] == [first_search_hit(r) for r in range(7)]
    assert _BASE_2[7] == (1, 1, 1) and evaluate(G, _BASE_2[7]) % 8 == 7


def test_certify_local_2adic_matches_the_search_reference():
    for precision in (1, 2, 3, 4, 7, 20):
        for k in range(-3000, 3000):
            cert = certify_local(k, 2, precision)
            want = (0, 0, 0) if k == 0 else reference_witness_2(k, precision)
            assert cert == LocalCertificate(k, 2, precision, want, "solvable"), (k, precision)


def flipped(cert):
    """cert with the other verdict, and a witness only where one is allowed."""
    if cert.verdict == "solvable":
        return LocalCertificate(cert.k, cert.place, cert.precision, None, "unsolvable")
    witness = None if cert.place == "real" else (0, 0, 0)
    return LocalCertificate(cert.k, cert.place, cert.precision, witness, "solvable")


def test_flipped_verdicts_are_rejected():
    for k in range(-60, 400):
        for place in ("real", 2, 3, 5, 7, 11):
            cert = certify_local(k, place, 3)
            assert verify_local_certificate(cert), cert
            assert not verify_local_certificate(flipped(cert)), cert
    # the forgery G(0, 0, 0) = 162 mod 27, though G misses 162 over Q_3
    assert not verify_local_certificate(LocalCertificate(162, 3, 3, (0, 0, 0), "solvable"))
    for k in range(1, 2000):
        for p in (2, 3, 5, 7):
            forged = LocalCertificate(k, p, 1, (0, 0, 0), "solvable")
            want = k % p == 0 and ternary_represents_locally((1, 3, 3), k, p)
            assert verify_local_certificate(forged) == want, (k, p)


# --- global reports ---


def test_certify_global_default_places():
    report = certify_global(7)
    assert [c.place for c in report.certificates] == ["real", 2, 3, 5, 7]
    assert report.overall == "solvable"
    assert verify_report(report)
    report55 = certify_global(55)
    assert [c.place for c in report55.certificates] == ["real", 2, 3, 5, 7, 11]


def test_default_extra_primes():
    assert default_extra_primes(7) == [5, 7]
    assert default_extra_primes(55) == [5, 7, 11]
    assert default_extra_primes(7 * 53) == [5, 7]  # 53 > 50 cut
    assert default_extra_primes(0) == [5, 7]


def reference_default_extra_primes(k):
    extras = {5, 7}
    if k != 0:
        extras.update(p for p in factorize(abs(k)) if p % 2 and p != 3 and p <= 50)
    return sorted(extras)


NEAR_50 = [p for p in range(2, 80) if is_prime(p)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    st.integers(-10**15, 10**15),
    st.lists(st.sampled_from(NEAR_50), min_size=1, max_size=6).map(prod),
))
@example(0)
@example(47 * 53)
@example(-3 * 43 * 47 * 53 * 59)
@example(2**4 * 9 * 5**3 * 49 * 41)
def test_default_extra_primes_matches_the_factorize_reference(k):
    assert default_extra_primes(k) == reference_default_extra_primes(k)


def test_default_extra_primes_does_not_factor_a_huge_k():
    # (2^61 - 1) times the next prime above 2^60: two 61-bit factors
    k = 2658455991569831820747511920005742559
    start = time.perf_counter()
    assert default_extra_primes(k) == [5, 7]
    assert time.perf_counter() - start < 1


def test_certify_global_unsolvable_cases():
    assert certify_global(5).overall == "unsolvable"  # 5 = 2 mod 3
    assert certify_global(-7).overall == "unsolvable"  # real place
    assert verify_report(certify_global(5))
    zero = certify_global(0)  # G(0, 0, 0) = 0: solvable at every place
    assert zero.overall == "solvable" and verify_report(zero)
    assert all(c.verdict == "solvable" for c in zero.certificates)


@pytest.mark.parametrize("k", [7, 111, 5, -7, 162])
def test_verify_report_rejects_a_flipped_overall(k):
    report = certify_global(k)
    flipped = {"solvable": "unsolvable", "unsolvable": "solvable"}[report.overall]
    assert verify_report(report)
    assert not verify_report(replace(report, overall=flipped))


@pytest.mark.parametrize("k", [0, 5, 7, 2 * 9**1500], ids=["0", "5", "7", "2*9**1500"])
def test_verify_report_needs_the_real_place_2_and_3(k):
    report = certify_global(k)
    assert verify_report(report)
    for place in ("real", 2, 3):
        kept = tuple(c for c in report.certificates if c.place != place)
        assert not verify_report(replace(report, certificates=kept, overall=_overall(kept)))
    assert not verify_report(replace(report, certificates=(), overall="solvable"))


def test_certify_global_explicit_primes():
    report = certify_global(7, extra_primes=[13, 5])
    assert [c.place for c in report.certificates] == ["real", 2, 3, 5, 13]
    with pytest.raises(ValueError):
        certify_global(7, extra_primes=[6])
    # certify_local checks each listed place
    with pytest.raises(ValueError, match=r"^place must be 'real' or a prime, got 9$"):
        certify_global(7, extra_primes=[9])


@pytest.mark.parametrize("k", [7, 5, 0, 162])
def test_each_place_is_proven_prime_once(monkeypatch, k):
    # 10**100 + 267 is past psi_13, where a proof is a Baillie-PSW run
    p = 10**100 + 267
    calls = []
    monkeypatch.setattr(local_global, "is_prime", lambda n: calls.append(n) or is_prime(n))
    report = certify_global(k, [p, 1000003])
    places = sorted(c.place for c in report.certificates if c.place != "real")
    assert p in places and sorted(calls) == places
    calls.clear()
    assert verify_report(report)
    assert sorted(calls) == places


def test_reports_are_pinned():
    # every witness, verdict and place list of these 1804 reports, as report_to_dict writes them
    digest = hashlib.sha256()
    for precision in (1, 3, 40, 1000):
        for k in range(-50, 401):
            report = report_to_dict(certify_global(k, precision=precision))
            digest.update(json.dumps(report, sort_keys=True).encode())
    assert digest.hexdigest() == "1e23142ac08a3d086b2f9b4485c012dfdcd293b2e64d7e5094b06b39179d9c8a"


def test_report_serialization_round_trip():
    report = certify_global(111)
    blob = json.dumps(report_to_dict(report))
    back = report_from_dict(json.loads(blob))
    assert back == report
    assert verify_report(back)


@pytest.mark.parametrize("path, value", [
    (("certificates", 0, "precision"), 3.9),  # a JSON number, once read as 3
    (("certificates", 1, "precision"), 3),
    (("certificates", 1, "precision"), "03"),
    (("k",), " 7\n"),
    (("k",), "0_7"),
    (("certificates", 2, "k"), "+7"),
    (("certificates", 2, "place"), "3.0"),
    (("certificates", 1, "witness"), [True, True, True]),
    (("certificates", 1, "witness"), "111"),
    (("certificates",), {}), (("certificates",), ""),  # each once read as no certificates
], ids=repr)
def test_report_from_dict_refuses_noncanonical_ints(path, value):
    payload = json.loads(json.dumps(report_to_dict(certify_global(7))))
    assert verify_report(report_from_dict(payload))
    *parents, key = path
    node = payload
    for step in parents:
        node = node[step]
    node[key] = value
    with pytest.raises((ValueError, TypeError)):
        report_from_dict(payload)


@pytest.mark.parametrize("place, edit, message", [
    ("3", {"precision": "1001"}, "precision 1001 is above the limit 1000"),
    # G(2, 1, 0) = 7: each witness holds at every precision, and no limit is waived for it
    ("real", {"precision": "1001"}, "precision 1001 is above the limit 1000"),
    ("2", {"precision": "1001", "witness": ["2", "1", "0"]},
     "precision 1001 is above the limit 1000"),
    ("3", {"precision": "1001", "witness": ["2", "1", "0"]},
     "precision 1001 is above the limit 1000"),
    ("3", {"precision": "100000000", "witness": ["2", "1", "0"]},
     "precision 100000000 is above the limit 1000"),
    ("3", {"precision": "0"}, "precision 0 is below the limit 1"),
    ("3", {"precision": "-1"}, "precision -1 is below the limit 1"),
    ("3", {"precision": "100000000"}, "precision 100000000 is above the limit 1000"),
    # G(2, 1, 0) = 7 holds at every precision, but the producer refuses 1000003**1000
    ("7", {"place": "1000003", "precision": "1000", "witness": ["2", "1", "0"]},
     "1000003**1000 has more than 4300 digits"),
], ids=repr)
def test_report_from_dict_holds_the_producers_limits(monkeypatch, place, edit, message):
    # the replay would compute place**precision: 3**100000000 would not end soon
    payload = report_to_dict(certify_global(7))
    cert = next(c for c in payload["certificates"] if c["place"] == place)
    cert.update(edit)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        report_from_dict(payload)
    # the producer and the verifier hold the same rule
    place = cert["place"] if cert["place"] == "real" else int(cert["place"])
    witness = cert["witness"] and tuple(map(int, cert["witness"]))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        certify_local(7, place, int(cert["precision"]))
    monkeypatch.setattr(local_global, "evaluate", None)  # refused before G(w) mod p**precision
    assert not verify_local_certificate(
        LocalCertificate(7, place, int(cert["precision"]), witness, cert["verdict"]))


def test_check_modulus_boundary():
    check_modulus(10, 4299)
    for p in (10, -10):
        with pytest.raises(ValueError, match=rf"^{p}\*\*4300 has more than 4300 digits$"):
            check_modulus(p, 4300)
    check_modulus(10**4300 - 1, 1)  # 4300 digits
    assert 3**9012 < LIMIT <= 3**9013
    check_modulus(3, 9012)
    with pytest.raises(ValueError, match=r"^3\*\*9013 has more than 4300 digits$"):
        check_modulus(3, 9013)


@pytest.mark.parametrize("p", [2, 3, 7, 10, 1000003, 2**64 - 59, 2**64, 10**100 + 267])
def test_check_modulus_agrees_with_the_power(p):
    # on both sides of the boundary, where the bit length alone decides and where not
    e0 = ceil(4300 / log10(p))
    seen = set()
    for e in range(max(1, e0 - 3), e0 + 4):
        too_big = p**e >= LIMIT
        seen.add(too_big)
        try:
            check_modulus(p, e)
        except ValueError:
            assert too_big, (p, e)
        else:
            assert not too_big, (p, e)
    assert seen == {False, True}
