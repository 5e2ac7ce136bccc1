"""Constructive primitive representations for the quaternary form F.

Pipeline for n in the admissible set: pick the branch value u, form
k = 8n - 57u^2, find an all-odd representation of k by G = x^2+3y^2+3z^2,
normalize signs into the image of the affine map T, invert T, and read off
an integer vector v with F(v) = n. Three small n are handled by fixed
special vectors. Every certificate replays from scratch: represent returns
a certificate only after verify_certificate has accepted it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .arith import factorize, is_square, parse_int, parse_ints
from .qforms import QuadraticForm, builtin_form, evaluate, image_mask, is_primitive

_F = builtin_form("F")
_G = builtin_form("G")

SPECIAL_VECTORS = {
    24: (1, 0, -1, 0),
    42: (0, 1, -2, 1),
    60: (1, 3, -1, 0),
}


@dataclass(frozen=True)
class Branch:
    kind: str  # "special" | "u_one" | "u_minus3"
    u: int | None
    vector: tuple[int, int, int, int] | None


@dataclass(frozen=True)
class HassettCertificate:
    n: int
    branch: str
    u: int | None
    k: int | None
    g: tuple[int, int, int] | None
    xyz: tuple[int, int, int] | None
    v: tuple[int, int, int, int]
    property_checks: tuple[bool, bool, bool, bool] | None


def in_hassett(n: int) -> bool:
    """Membership in {n >= 8 : n = 0 or 2 mod 6}."""
    return n >= 8 and n % 6 in (0, 2)


def choose_branch(n: int) -> Branch:
    if not in_hassett(n):
        raise ValueError(f"{n} is not in the admissible set")
    if n in SPECIAL_VECTORS:
        return Branch("special", None, SPECIAL_VECTORS[n])
    if n % 18 == 6:
        # members = 6 mod 18 start at 24; the three smallest are special
        return Branch("u_minus3", -3, None)
    return Branch("u_one", 1, None)


def values_in_hassett(form: QuadraticForm) -> bool:
    """Whether Gram entries 2 mod 3 (so Q(v) = -(v1 + ... + vd)^2 is 0 or 2
    mod 3), an even diagonal (so Q(v) is even) and no nonzero v with Q(v) <= 7
    put every nonzero value of the positive definite form in the admissible set."""
    return (all(x % 3 == 2 for row in form.gram for x in row)
            and all(form.gram[i][i] % 2 == 0 for i in range(form.dim))
            and image_mask(form, 7) == 1)


def k_value(n: int, u: int) -> int:
    return 8 * n - 57 * u * u


def check_k_properties(k: int) -> tuple[bool, bool, bool, bool]:
    """(k > 0, k = 7 mod 8, k = 0 or 1 mod 3, k not 0 mod 9)."""
    return (k > 0, k % 8 == 7, k % 3 in (0, 1), k % 9 != 0)


def _sum_two_squares_ok(m: int) -> bool:
    # classical criterion: primes 3 mod 4 occur to even exponent
    if m == 0:
        return True
    return all(e % 2 == 0 for p, e in factorize(m).items() if p % 4 == 3)


def _lex_smallest_nonneg(k: int) -> tuple[int, int, int] | None:
    x = 0
    while x * x <= k:
        if (k - x * x) % 3 == 0:
            m3 = (k - x * x) // 3
            if _sum_two_squares_ok(m3):
                for y in range(isqrt(m3) + 1):
                    z2 = m3 - y * y
                    if is_square(z2):
                        return (x, y, isqrt(z2))
                raise AssertionError("two-square criterion disagreed with search")
        x += 1
    return None


def parity_fix(triple) -> tuple[int, int, int]:
    """Turn a representation of a value = 7 mod 8 into an all-odd one.

    Only three parity patterns can occur for such values: all odd, or a
    single odd coordinate in position y or z. In the mixed cases the even
    pair (2X, 2Y) is replaced by (X+3Y, X-Y), which preserves x^2 + 3y^2.
    """
    x, y, z = triple
    value = evaluate(_G, (x, y, z))
    if value % 8 != 7:
        raise ValueError(f"G-value {value} is not 7 mod 8")
    if x % 2 and y % 2 and z % 2:
        return (x, y, z)
    if z % 2 and x % 2 == 0 and y % 2 == 0:
        big, small = x // 2, y // 2
        fixed = (big + 3 * small, big - small, z)
    elif y % 2 and x % 2 == 0 and z % 2 == 0:
        big, small = x // 2, z // 2
        fixed = (big + 3 * small, y, big - small)
    else:
        raise AssertionError("parity pattern impossible for values 7 mod 8")
    if evaluate(_G, fixed) != value or not all(c % 2 for c in fixed):
        raise AssertionError("parity fix broke the invariant")
    return fixed


def sign_normalize(g, u: int) -> tuple[int, int, int]:
    """Flip signs of an odd triple so each coordinate is -u mod 4.

    For both admissible u the target residue is 3 mod 4.
    """
    if u not in (1, -3):
        raise ValueError("u must be 1 or -3")
    if any(c % 2 == 0 for c in g):
        raise ValueError("sign normalization needs odd coordinates")
    return tuple(-c if c % 4 == 1 else c for c in g)


def invert_T(g, u: int) -> tuple[int, int, int]:
    """Unique preimage of g under T(x,y,z,u) = (4(x-y-z)-u, 4y-u, 4z-u)."""
    for c in g:
        if (c + u) % 4 != 0:
            raise ValueError(f"coordinate {c} is not -{u} mod 4")
    y = (g[1] + u) // 4
    z = (g[2] + u) // 4
    x = (g[0] + u) // 4 + y + z
    return (x, y, z)


def T_map(x: int, y: int, z: int, u: int) -> tuple[int, int, int]:
    return (4 * (x - y - z) - u, 4 * y - u, 4 * z - u)


def odd_representation(k: int) -> tuple[int, int, int]:
    """All-odd (x,y,z) with x^2 + 3y^2 + 3z^2 = k, deterministic.

    Takes the lexicographically smallest nonnegative representation and
    applies parity_fix.
    """
    if k % 8 != 7:
        raise ValueError(f"{k} is not 7 mod 8")
    rep = _lex_smallest_nonneg(k)
    if rep is None:
        raise ValueError(f"{k} is not represented by x^2 + 3y^2 + 3z^2")
    return parity_fix(rep)


def represent(n: int) -> HassettCertificate:
    """End-to-end certificate that F primitively represents n, replayed
    through verify_certificate before it is returned."""
    branch = choose_branch(n)
    if branch.kind == "special":
        cert = HassettCertificate(n, "special", None, None, None, None, branch.vector, None)
    else:
        u = branch.u
        k = k_value(n, u)
        g = sign_normalize(odd_representation(k), u)
        xyz = invert_T(g, u)
        v = (xyz[0] // 2, xyz[1], xyz[2], u)
        cert = HassettCertificate(n, branch.kind, u, k, g, xyz, v, check_k_properties(k))
    if not verify_certificate(cert):
        raise AssertionError(f"the certificate for n = {n} failed to replay")
    return cert


def verify_certificate(cert: HassettCertificate) -> bool:
    """Replays every stored relation from scratch; never raises."""
    try:
        n = cert.n
        if not in_hassett(n):
            return False
        branch = choose_branch(n)
        if branch.kind != cert.branch:
            return False
        v = tuple(cert.v)
        if len(v) != 4 or evaluate(_F, v) != n or not is_primitive(v):
            return False
        if cert.branch == "special":
            return (
                v == SPECIAL_VECTORS[n]
                and cert.u is None
                and cert.k is None
                and cert.g is None
                and cert.xyz is None
                and cert.property_checks is None
            )
        u = cert.u
        if u != branch.u:
            return False
        k = cert.k
        if k != k_value(n, u):
            return False
        checks = tuple(cert.property_checks)
        if checks != check_k_properties(k) or not all(checks):
            return False
        g = tuple(cert.g)
        if len(g) != 3 or evaluate(_G, g) != k:
            return False
        if any(c % 2 == 0 or (c + u) % 4 != 0 for c in g):
            return False
        xyz = tuple(cert.xyz)
        if len(xyz) != 3 or T_map(*xyz, u) != g:
            return False
        if xyz[0] % 2:
            return False
        if v != (xyz[0] // 2, xyz[1], xyz[2], u):
            return False
        return 8 * evaluate(_F, v) == evaluate(_G, g) + 57 * u * u
    except (TypeError, ValueError, AttributeError, IndexError, KeyError):
        return False


def certificate_to_dict(cert: HassettCertificate) -> dict:
    checks = None
    if cert.property_checks is not None:
        positive, mod8, mod3, mod9 = cert.property_checks
        checks = {"positive": positive, "mod8": mod8, "mod3": mod3, "mod9": mod9}
    return {
        "n": str(cert.n),
        "branch": cert.branch,
        "u": None if cert.u is None else str(cert.u),
        "k": None if cert.k is None else str(cert.k),
        "g": None if cert.g is None else [str(c) for c in cert.g],
        "xyz": None if cert.xyz is None else [str(c) for c in cert.xyz],
        "v": [str(c) for c in cert.v],
        "checks": checks,
        "valid": verify_certificate(cert),
    }


def certificate_from_dict(d: dict) -> HassettCertificate:
    """Every int only as str(int) writes it (arith.parse_int), each vector a
    JSON list, each check a JSON boolean."""
    checks = d["checks"]
    if checks is not None:
        checks = (checks["positive"], checks["mod8"], checks["mod3"], checks["mod9"])
        if any(type(c) is not bool for c in checks):
            raise TypeError("each check is a JSON boolean")
    maybe = lambda key, read: None if d[key] is None else read(d[key])
    return HassettCertificate(
        parse_int(d["n"]),
        d["branch"],
        maybe("u", parse_int),
        maybe("k", parse_int),
        maybe("g", parse_ints),
        maybe("xyz", parse_ints),
        parse_ints(d["v"]),
        checks,
    )
