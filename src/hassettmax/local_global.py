"""Local solvability certificates for the ternary form G = x^2 + 3y^2 + 3z^2.

A certificate at an odd place p stores an integer witness w with
G(w) congruent to k mod p^precision; at the real place it stores the sign
verdict. Witnesses are produced by Hensel lifting from seed solutions and
re-verified by direct evaluation, so every solvable certificate replays.

Also contains the generic square-class machinery (Hilbert symbols and
p-adic squares, built on arith.jacobi) used to decide rational
representability of diagonal ternary forms exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import factorize, is_prime, jacobi
from .qforms import builtin_form, evaluate

_G = builtin_form("G")


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


def ternary_represents_locally(coeffs: tuple[int, int, int], n: int, p) -> bool:
    """Does <c1, c2, c3> represent n over Q_p (p None = over R)?

    Rank-3 criterion: q represents n unless n lies in the square class of
    -disc(q) while (-1, -disc)_p differs from the Hasse invariant of q.
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
    eps = (
        hilbert_symbol(coeffs[0], coeffs[1], p)
        * hilbert_symbol(coeffs[0], coeffs[2], p)
        * hilbert_symbol(coeffs[1], coeffs[2], p)
    )
    same_class = is_padic_square(n * -d, p)
    return (not same_class) or hilbert_symbol(-1, -d, p) == eps


def rationally_representable_ternary(coeffs: tuple[int, int, int], n: int) -> bool:
    """Exact Hasse-Minkowski test for a diagonal ternary form.

    Only the real place and primes dividing 2*disc can obstruct, so the
    check is finite.
    """
    if n == 0:
        return True
    if not ternary_represents_locally(coeffs, n, None):
        return False
    bad = sorted(factorize(abs(2 * coeffs[0] * coeffs[1] * coeffs[2])))
    return all(ternary_represents_locally(coeffs, n, p) for p in bad)


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
        # simple-zero Newton step: the derivative 2x is a unit
        inv = pow(2 * x % (mod * p), -1, mod * p)
        x = (x - (x * x - a) * inv) % (mod * p)
        mod *= p
    return x % pk


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
    """(y, z) with y^2 + z^2 = c mod p^precision, p odd, c a p-adic unit.

    Deterministic: y is the smallest nonnegative residue making c - y^2 a
    nonzero quadratic residue mod p; z is Hensel-lifted from its smallest
    root.
    """
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if precision < 1:
        raise ValueError("precision must be >= 1")
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


def _validate_place(place) -> None:
    if place == "real":
        return
    if isinstance(place, int) and is_prime(place):
        return
    raise ValueError(f"place must be 'real' or a prime, got {place!r}")


def _witness_2(k: int, precision: int) -> tuple[int, int, int]:
    mod = 1 << precision
    if k % 8 == 7:
        # lift the base solution (x, 1, 1) with x^2 = k - 6
        x = sqrt_mod_2k((k - 6) % mod, precision)
        return (x, 1, 1)
    inv3 = pow(3, -1, mod)
    for x, y, z in ((a, b, c) for a in range(8) for b in range(8) for c in range(8)):
        if x % 2 == 0 and y % 2 == 0 and z % 2 == 0:
            continue
        if (x * x + 3 * y * y + 3 * z * z - k) % 8:
            continue
        if x % 2:
            lifted = sqrt_mod_2k((k - 3 * y * y - 3 * z * z) % mod, precision)
            return (lifted, y, z)
        if y % 2:
            lifted = sqrt_mod_2k(inv3 * (k - x * x - 3 * z * z) % mod, precision)
            return (x, lifted, z)
        lifted = sqrt_mod_2k(inv3 * (k - x * x - 3 * y * y) % mod, precision)
        return (x, y, lifted)
    raise AssertionError("G covers every residue mod 8 with an odd coordinate")


def _certify_3(k: int, precision: int) -> LocalCertificate:
    if k % 9 == 0:
        inner = _certify_3(k // 9, precision)
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

    At a prime p the witness satisfies G(w) = k mod p^precision; at the
    real place the verdict is the sign test.
    """
    _validate_place(place)
    if precision < 1:
        raise ValueError("precision must be >= 1")
    if place == "real":
        verdict = "solvable" if k > 0 else "unsolvable"
        return LocalCertificate(k, "real", precision, None, verdict)
    p = place
    if k == 0:
        return LocalCertificate(k, p, precision, (0, 0, 0), "solvable")
    if p == 2:
        return LocalCertificate(k, 2, precision, _witness_2(k, precision), "solvable")
    if p == 3:
        return _certify_3(k, precision)
    return LocalCertificate(k, p, precision, _witness_p(k, p, precision), "solvable")


def verify_local_certificate(cert: LocalCertificate) -> bool:
    """Independent replay of one certificate."""
    if cert.precision < 1 or cert.verdict not in ("solvable", "unsolvable"):
        return False
    if cert.place == "real":
        return cert.witness is None and cert.verdict == (
            "solvable" if cert.k > 0 else "unsolvable"
        )
    if not (isinstance(cert.place, int) and is_prime(cert.place)):
        return False
    if cert.verdict == "unsolvable":
        expected = ternary_represents_locally((1, 3, 3), cert.k, cert.place)
        return cert.witness is None and not expected
    if cert.witness is None or len(cert.witness) != 3:
        return False
    mod = cert.place**cert.precision
    return (evaluate(_G, cert.witness) - cert.k) % mod == 0


def default_extra_primes(k: int) -> list[int]:
    """Odd primes <= 50 dividing k, plus 5 and 7 as spot checks (3 excluded)."""
    extras = {5, 7}
    if k != 0:
        extras.update(
            p for p in factorize(abs(k)) if p % 2 and p != 3 and p <= 50
        )
    return sorted(extras)


def certify_global(
    k: int, extra_primes=None, precision: int = 3
) -> GlobalSolvabilityReport:
    if extra_primes is None:
        extra_primes = default_extra_primes(k)
    else:
        extra_primes = sorted(set(int(p) for p in extra_primes) - {2, 3})
        for p in extra_primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
    certs = [certify_local(k, "real", precision)]
    certs.append(certify_local(k, 2, precision))
    certs.append(certify_local(k, 3, precision))
    certs.extend(certify_local(k, p, precision) for p in extra_primes)
    overall = (
        "solvable"
        if all(c.verdict == "solvable" for c in certs)
        else "unsolvable"
    )
    return GlobalSolvabilityReport(k, tuple(certs), overall)


def verify_report(report: GlobalSolvabilityReport) -> bool:
    if any(c.k != report.k for c in report.certificates):
        return False
    if not all(verify_local_certificate(c) for c in report.certificates):
        return False
    expected = (
        "solvable"
        if all(c.verdict == "solvable" for c in report.certificates)
        else "unsolvable"
    )
    return report.overall == expected


# --- serialization (integers as decimal strings) ---


def certificate_to_dict(cert: LocalCertificate) -> dict:
    return {
        "k": str(cert.k),
        "place": "real" if cert.place == "real" else str(cert.place),
        "precision": str(cert.precision),
        "witness": None if cert.witness is None else [str(x) for x in cert.witness],
        "verdict": cert.verdict,
    }


def certificate_from_dict(d: dict) -> LocalCertificate:
    place = d["place"]
    if place != "real":
        place = int(place)
    witness = d["witness"]
    if witness is not None:
        witness = tuple(int(x) for x in witness)
    return LocalCertificate(
        int(d["k"]), place, int(d["precision"]), witness, d["verdict"]
    )


def report_to_dict(report: GlobalSolvabilityReport) -> dict:
    return {
        "k": str(report.k),
        "certificates": [certificate_to_dict(c) for c in report.certificates],
        "overall": report.overall,
    }


def report_from_dict(d: dict) -> GlobalSolvabilityReport:
    return GlobalSolvabilityReport(
        int(d["k"]),
        tuple(certificate_from_dict(c) for c in d["certificates"]),
        d["overall"],
    )
