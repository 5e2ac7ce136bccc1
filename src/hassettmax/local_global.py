"""Local solvability certificates for the ternary form G = x^2 + 3y^2 + 3z^2.

One rule, _solvable (Hasse-Minkowski through ternary_represents_locally),
decides every verdict, for the producer and the verifier alike, and
_overall (solvable at every listed place) every report's; k = 0 is
solvable everywhere (w = 0). A "solvable" certificate at a prime p stores
an integer witness w with G(w) congruent to k mod p^precision, Hensel-lifted
from a seed (at 2, from a table indexed by k mod 8); at the real place and
for "unsolvable" it stores no witness. The verifier re-evaluates w and
recomputes the verdict, so a forged certificate does not replay.
check_precision is the one precision rule, held before any primality test
by certify_local, certificate_from_dict, verify_local_certificate and the
CLI; each place is proven prime once per certificate.

Also contains the generic square-class machinery (Hilbert symbols and
p-adic squares, built on arith.jacobi) used to decide rational
representability of diagonal ternary forms exactly. The parts of that test
that depend on the form alone, the Hasse comparison at each prime and the
primes where it can fail, are cached per coefficient triple.
rationally_representable_ternary decides one n; rational_values_mask
decides every n up to a bound at once (adc.adc_check), clearing each
obstructed square class as one arithmetic progression.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .arith import LIMIT, MAX_DIGITS, factorize, is_prime, jacobi, parse_int, parse_ints, short_int
from .qforms import builtin_form, evaluate, flags_to_mask

_G = builtin_form("G")
MAX_PRECISION = 1000  # check_precision's limit on precision
PLACES = ("real", 2, 3)  # in every report; G can fail only at the real place and at 3


def _split_valuation(a: int, p: int) -> tuple[int, int]:
    e = 0
    while a % p == 0:
        a //= p
        e += 1
    return e, a


def hilbert_symbol(a: int, b: int, p) -> int:
    """(a, b)_p for prime p, or the real symbol when p is None."""
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol requires nonzero arguments")
    if p is None:
        return -1 if a < 0 and b < 0 else 1
    if p == 2:
        alpha, u = _split_valuation(a, 2)
        beta, w = _split_valuation(b, 2)
        eps_u = (u - 1) // 2
        eps_w = (w - 1) // 2
        omega_u = (u * u - 1) // 8
        omega_w = (w * w - 1) // 8
        exponent = eps_u * eps_w + alpha * omega_w + beta * omega_u
        return -1 if exponent % 2 else 1
    alpha, u = _split_valuation(a, p)
    beta, w = _split_valuation(b, p)
    eps_p = (p - 1) // 2
    sign = -1 if (alpha * beta * eps_p) % 2 else 1
    if beta % 2:
        sign *= jacobi(u % p, p)
    if alpha % 2:
        sign *= jacobi(w % p, p)
    return sign


def is_padic_square(a: int, p: int) -> bool:
    if a == 0:
        raise ValueError("zero has no square class")
    e, u = _split_valuation(a, p)
    if e % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return jacobi(u % p, p) == 1


@cache  # per (coeffs, p): the same few forms and primes recur
def _hasse_differs(coeffs: tuple[int, int, int], p: int) -> bool:
    """(-1, -disc)_p != the Hasse invariant of <c1, c2, c3> at p; only then
    can the form fail to represent some n over Q_p."""
    d = coeffs[0] * coeffs[1] * coeffs[2]
    eps = (
        hilbert_symbol(coeffs[0], coeffs[1], p)
        * hilbert_symbol(coeffs[0], coeffs[2], p)
        * hilbert_symbol(coeffs[1], coeffs[2], p)
    )
    return hilbert_symbol(-1, -d, p) != eps


@cache
def _obstructing_primes(coeffs: tuple[int, int, int]) -> tuple[int, ...]:
    """The primes of 2*disc at which <c1, c2, c3> fails to represent some n
    over Q_p; no other prime can (there both symbols are 1)."""
    d = coeffs[0] * coeffs[1] * coeffs[2]
    return tuple(p for p in sorted(factorize(abs(2 * d))) if _hasse_differs(coeffs, p))


def ternary_represents_locally(coeffs: tuple[int, int, int], n: int, p) -> bool:
    """Does <c1, c2, c3> represent n over Q_p (p None = over R)?

    Rank-3 criterion: q represents n unless n lies in the square class of
    -disc(q) while (-1, -disc)_p differs from the Hasse invariant of q. That
    comparison depends only on (coeffs, p) and is computed once for each.
    """
    if n == 0:
        return True
    if p is None:
        if all(c > 0 for c in coeffs):
            return n > 0
        if all(c < 0 for c in coeffs):
            return n < 0
        return True
    d = coeffs[0] * coeffs[1] * coeffs[2]
    return not _hasse_differs(coeffs, p) or not is_padic_square(n * -d, p)


def rationally_representable_ternary(coeffs: tuple[int, int, int], n: int) -> bool:
    """Exact Hasse-Minkowski test for a diagonal ternary form.

    Only the real place and the primes of 2*disc can obstruct, so the check
    is finite; the obstructing primes are found once per coeffs, so a call
    factors nothing after the first for the same form.
    """
    if n == 0:
        return True
    if not ternary_represents_locally(coeffs, n, None):
        return False
    return all(ternary_represents_locally(coeffs, n, p) for p in _obstructing_primes(coeffs))


def rational_values_mask(coeffs: tuple[int, int, int], n_max: int) -> int:
    """The n in [1, n_max] that <c1, c2, c3>, with every c_i > 0, represents
    over Q, as the bits of one int: bit n is set exactly when
    rationally_representable_ternary(coeffs, n).

    With -disc = p^e u at an obstructing prime p, n = p^k w is obstructed
    there exactly when k = e mod 2 and w u is a p-adic square, a condition
    on w mod p (mod 8 at p = 2). Each such class is one arithmetic
    progression, cleared by a single slice assignment.
    """
    if min(coeffs) <= 0:
        raise ValueError("rational_values_mask requires positive coefficients")
    n_max = max(n_max, 0)
    flags = bytearray(b"\x01") * (n_max + 1)
    flags[0] = 0
    d = coeffs[0] * coeffs[1] * coeffs[2]
    for p in _obstructing_primes(coeffs):
        e, u = _split_valuation(-d, p)
        unit_mod = 8 if p == 2 else p
        pk = p ** (e % 2)
        while pk <= n_max:
            step = pk * unit_mod
            for s in range(1, min(unit_mod, n_max // pk + 1)):
                if s % p and is_padic_square(s * u, p):
                    start = pk * s
                    flags[start::step] = bytes(len(range(start, n_max + 1, step)))
            pk *= p * p
    return flags_to_mask(flags)


def sqrt_mod_p(a: int, p: int) -> int:
    """Smallest square root of a modulo odd prime p (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if jacobi(a, p) != 1:
        raise ValueError(f"{a} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # p = 1 mod 4: full Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return min(r, p - r)


def sqrt_mod_pk(a: int, p: int, k: int) -> int:
    """x with x^2 = a mod p^k, for odd p and a a unit square mod p."""
    if k < 1:
        raise ValueError("precision must be >= 1")
    pk = p**k
    a %= pk
    if a % p == 0:
        raise ValueError("lifting requires a unit")
    x = sqrt_mod_p(a, p)
    mod = p
    while mod < pk:
        # simple-zero Newton step: the derivative 2x is a unit, so a root
        # mod p^j lifts to the unique root mod p^(2j) above it
        mod = min(mod * mod, pk)
        x = (x - (x * x - a) * pow(2 * x, -1, mod)) % mod
    return x


def sqrt_mod_2k(a: int, k: int) -> int:
    """x with x^2 = a mod 2^k for odd a; needs a = 1 mod 8 when k >= 3."""
    if k < 1:
        raise ValueError("precision must be >= 1")
    a %= 1 << k
    if a % 2 == 0:
        raise ValueError("lifting requires an odd target")
    if k == 1:
        return 1
    if a % 4 != 1:
        raise ValueError("no square root: target is 3 mod 4")
    if k == 2:
        return 1
    if a % 8 != 1:
        raise ValueError("no square root: odd 2-adic squares are 1 mod 8")
    x = 1
    for j in range(3, k):
        if (x * x - a) % (1 << (j + 1)):
            x += 1 << (j - 1)
    return x % (1 << k)


def hensel_lift_two_squares(c: int, p: int, precision: int) -> tuple[int, int]:
    """(y, z) with y^2 + z^2 = c mod p^precision, for an odd prime p and a p-adic unit c.

    Deterministic: y is the smallest nonnegative residue making c - y^2 a
    nonzero quadratic residue mod p; z is Hensel-lifted from its smallest
    root.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be an odd prime")
    if c % p == 0:
        raise ValueError(f"{c} is not a unit at {p}")
    for y0 in range(p):
        rest = (c - y0 * y0) % p
        if rest != 0 and jacobi(rest, p) == 1:
            z = sqrt_mod_pk((c - y0 * y0) % p**precision, p, precision)
            return (y0, z)
    raise AssertionError("every unit is a sum of two squares mod an odd prime")


@dataclass(frozen=True)
class LocalCertificate:
    k: int
    place: object  # "real" or a prime int
    precision: int
    witness: tuple[int, int, int] | None
    verdict: str  # "solvable" | "unsolvable"


@dataclass(frozen=True)
class GlobalSolvabilityReport:
    k: int
    certificates: tuple[LocalCertificate, ...]
    overall: str


def _check_place(place, precision: int) -> None:
    """check_precision, then a proof that place is "real" or a prime."""
    check_precision(place, precision)
    if place != "real" and not (isinstance(place, int) and is_prime(place)):
        raise ValueError(f"place must be 'real' or a prime, got {place!r}")


def _solvable(k: int, place) -> bool:
    """The one rule for every local verdict: does G represent k over Q_place
    (over R for "real")?"""
    return ternary_represents_locally((1, 3, 3), k, None if place == "real" else place)


# _BASE_2[k % 8]: the lexicographically first triple in (Z/8)^3 with an odd
# coordinate and G = k mod 8, except (1, 1, 1) for k = 7 (x lifts to
# sqrt(k - 6)). G's coefficients are odd, so the first odd coordinate lifts.
_BASE_2 = (
    (1, 1, 2), (1, 0, 0), (2, 1, 1), (0, 0, 1),
    (1, 0, 1), (1, 0, 2), (0, 1, 1), (1, 1, 1),
)


def _witness_2(k: int, precision: int) -> tuple[int, int, int]:
    coeffs = (1, 3, 3)
    w = list(_BASE_2[k % 8])
    i = next(j for j in range(3) if w[j] % 2)
    rest = sum(coeffs[j] * w[j] * w[j] for j in range(3) if j != i)
    mod = 1 << precision
    w[i] = sqrt_mod_2k((k - rest) * pow(coeffs[i], -1, mod) % mod, precision)
    return tuple(w)


def _witness_3(k: int, precision: int) -> tuple[int, int, int]:
    # k = 9^e k' with 9 not dividing k': lift for k', then scale by 3^e once.
    # certify_local calls this only for k != 0 solvable at 3: k' = 0, 1 mod 3.
    e, k0 = 0, k
    while k0 % 9 == 0:
        k0 //= 9
        e += 1
    if k0 % 3 == 0:
        witness = (0, *hensel_lift_two_squares(k0 // 3, 3, precision))
    else:
        witness = (sqrt_mod_pk(k0 % 3**precision, 3, precision), 0, 0)
    return tuple(3**e * x for x in witness)


def _witness_p(k: int, p: int, precision: int) -> tuple[int, int, int]:
    # choose x0 with k - x0^2 a p-adic unit; x0 = 3 works unless p | k - 9
    if (k - 9) % p != 0:
        x0 = 3
    else:
        x0 = next(x for x in range(3) if (k - x * x) % p != 0)
    mod = p**precision
    c = (k - x0 * x0) * pow(3, -1, mod) % mod
    y, z = hensel_lift_two_squares(c, p, precision)
    return (x0, y, z)


def certify_local(k: int, place, precision: int = 3) -> LocalCertificate:
    """Solvability certificate for G(w) = k at one place.

    The verdict is _solvable's. A solvable one at a prime p carries a
    witness with G(w) = k mod p^precision.
    """
    _check_place(place, precision)
    if not _solvable(k, place):
        return LocalCertificate(k, place, precision, None, "unsolvable")
    if place == "real":
        witness = None
    elif k == 0:
        witness = (0, 0, 0)
    elif place == 2:
        witness = _witness_2(k, precision)
    elif place == 3:
        witness = _witness_3(k, precision)
    else:
        witness = _witness_p(k, place, precision)
    return LocalCertificate(k, place, precision, witness, "solvable")


def verify_local_certificate(cert: LocalCertificate) -> bool:
    """Independent replay of one certificate: the verdict must be _solvable's,
    and "solvable" at a prime p needs a witness with G(w) = k mod p^precision."""
    try:
        _check_place(cert.place, cert.precision)
    except ValueError:
        return False
    if cert.verdict != ("solvable" if _solvable(cert.k, cert.place) else "unsolvable"):
        return False
    if cert.verdict == "unsolvable" or cert.place == "real":
        return cert.witness is None
    if cert.witness is None or len(cert.witness) != 3:
        return False
    return (evaluate(_G, cert.witness) - cert.k) % cert.place**cert.precision == 0


def default_extra_primes(k: int) -> list[int]:
    """Odd primes <= 50 dividing k, plus 5 and 7 as spot checks (3 excluded).
    Trial division: a huge k is never factored."""
    if k == 0:
        return [5, 7]
    primes = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    return [p for p in primes if p in (5, 7) or k % p == 0]


def _overall(certificates) -> str:
    """The one global rule: solvable when every listed place is."""
    return "solvable" if all(c.verdict == "solvable" for c in certificates) else "unsolvable"


def certify_global(
    k: int, extra_primes=None, precision: int = 3
) -> GlobalSolvabilityReport:
    if extra_primes is None:
        extra_primes = default_extra_primes(k)
    else:
        extra_primes = sorted(set(map(int, extra_primes)) - {2, 3})
    certs = [certify_local(k, place, precision) for place in (*PLACES, *extra_primes)]
    return GlobalSolvabilityReport(k, tuple(certs), _overall(certs))


def verify_report(report: GlobalSolvabilityReport) -> bool:
    """Replays every certificate and the overall verdict. A report must list
    PLACES, as certify_global always does: G can fail only at the real place
    and at 3."""
    places = [c.place for c in report.certificates]
    if any(place not in places for place in PLACES):
        return False
    if any(c.k != report.k for c in report.certificates):
        return False
    if not all(verify_local_certificate(c) for c in report.certificates):
        return False
    return report.overall == _overall(report.certificates)


# --- serialization (integers as decimal strings) ---


def certificate_to_dict(cert: LocalCertificate) -> dict:
    return {
        "k": str(cert.k),
        "place": "real" if cert.place == "real" else str(cert.place),
        "precision": str(cert.precision),
        "witness": None if cert.witness is None else [str(x) for x in cert.witness],
        "verdict": cert.verdict,
    }


def check_modulus(p: int, e: int) -> None:
    """Refuse p**e, e >= 1, of more than MAX_DIGITS digits. As 2**(b-1) <= |p| < 2**b,
    the bit length b decides unless (b - 1) * e < LIMIT.bit_length() <= b * e."""
    bits, top = abs(p).bit_length(), LIMIT.bit_length()
    if bits * e >= top and ((bits - 1) * e >= top or abs(p) ** e >= LIMIT):
        raise ValueError(f"{short_int(p)}**{e} has more than {MAX_DIGITS} digits")


def check_precision(place, precision: int) -> None:
    """The one precision rule: refuse a precision outside [1, MAX_PRECISION]
    and, at an int place p, a p**precision past check_modulus. No primality test."""
    if precision > MAX_PRECISION:
        raise ValueError(f"precision {precision} is above the limit {MAX_PRECISION}")
    if precision < 1:
        raise ValueError(f"precision {precision} is below the limit 1")
    if isinstance(place, int):
        check_modulus(place, precision)


def certificate_from_dict(d: dict) -> LocalCertificate:
    """Also refuses what check_precision refuses."""
    place = d["place"] if d["place"] == "real" else parse_int(d["place"])
    witness = None if d["witness"] is None else parse_ints(d["witness"])
    k, precision = parse_int(d["k"]), parse_int(d["precision"])
    check_precision(place, precision)
    return LocalCertificate(k, place, precision, witness, d["verdict"])


def report_to_dict(report: GlobalSolvabilityReport) -> dict:
    return {
        "k": str(report.k),
        "certificates": [certificate_to_dict(c) for c in report.certificates],
        "overall": report.overall,
    }


def report_from_dict(d: dict) -> GlobalSolvabilityReport:
    if not isinstance(d["certificates"], list):
        raise TypeError(f"not a list of certificates: {d['certificates']!r:.60}")
    return GlobalSolvabilityReport(
        parse_int(d["k"]),
        tuple(certificate_from_dict(c) for c in d["certificates"]),
        d["overall"],
    )
