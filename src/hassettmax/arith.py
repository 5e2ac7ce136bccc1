"""Integer arithmetic helpers: primality, factorization, the Jacobi symbol,
integer square roots, the splitmix64 generator used for seeded randomized
checks, and parse_int and parse_ints, the strict decoders of a certificate's
ints, held to int()'s MAX_DIGITS; decimal_digits and short_int take any int.

factorize takes out the primes below B = 4096 by one gcd with their product,
so a cofactor below B^2 is prime; is_prime tests the larger ones. It splits a
perfect power by an integer root and the rest by Brent's variant of Pollard
rho (Brent 1980), four steps per modular product.

Everything here is exact. No floats anywhere.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, isqrt, prod

# Miller-Rabin with the first k prime bases is proven correct below psi_k,
# the least strong pseudoprime to all of them (Jaeschke 1993; psi_12 and
# psi_13 = 1287836182261 * 2575672364521 from Sorenson and Webster 2017).
# psi_8 = psi_7 and psi_11 = psi_10 = psi_9 add nothing. From psi_13 on,
# is_prime is Baillie-PSW: base 2 plus a strong Lucas test with Selfridge's
# parameters.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (
    (2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
    (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9),
    (318665857834031151167461, 12), (3317044064679887385961981, 13),
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# factorize's trial bound B: the primes below it and their product
_TRIAL_BOUND = 1 << 12
_sieve = bytearray([0, 0]) + bytearray([1]) * (_TRIAL_BOUND - 2)
for _p in range(2, isqrt(_TRIAL_BOUND) + 1):
    _sieve[_p * _p :: _p] = bytes(len(_sieve[_p * _p :: _p]))
_TRIAL = list(compress(range(_TRIAL_BOUND), _sieve))
_PRIMORIAL = prod(_TRIAL)
del _sieve, _p


def is_prime(n: int) -> bool:
    """Deterministic primality test: Miller-Rabin with the first k prime
    bases below psi_k, Baillie-PSW from psi_13 on (no known counterexample)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    for psi, k in _PSI:
        if n < psi:
            return _miller_rabin(n, _MR_BASES[:k])
    return _miller_rabin(n, (2,)) and _strong_lucas_probable_prime(n)


def _miller_rabin(n: int, bases) -> bool:
    """True when odd n > max(bases) is a strong probable prime to every base."""
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^r, d odd
    d = (n - 1) >> r
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi symbol requires odd positive n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test for odd n > 1 with no factor below 48, with
    Selfridge's parameters: D the first of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1, Q = (1 - D)/4 (Baillie and Wagstaff 1980)."""
    if is_square(n):
        return False  # no D with (D/n) = -1 exists
    D = 5
    while True:
        j = jacobi(D, n)
        if j == -1:
            break
        if j == 0:  # |D| < n shares a factor with n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    # n + 1 = d * 2^s with d odd; U_d, V_d, Q^d by left-to-right doubling
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    U, V, Qk = 1, 1, Q % n  # U_1, V_1, Q^1 (P = 1)
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V  # 2 U_{k+1}, 2 V_{k+1}
            U = (U + n if U % 2 else U) // 2 % n
            V = (V + n if V % 2 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
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
                batch = min(m, r - k)
                for _ in range(batch >> 2):
                    y1 = (y * y + c) % n
                    y2 = (y1 * y1 + c) % n
                    y3 = (y2 * y2 + c) % n
                    y = (y3 * y3 + c) % n
                    q = q * (x - y1) * (x - y2) % n * (x - y3) * (x - y) % n
                for _ in range(batch & 3):
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


def _iroot(m: int, k: int) -> int:
    """Floor of the k-th root of m >= 1: Newton's method from above."""
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(m: int) -> tuple[int, int] | None:
    """(r, k) with r**k == m and k prime, or None, for m with no prime
    factor below B = _TRIAL_BOUND; then r >= B, so only the k with B^k <= m
    can occur."""
    k = 2
    while _TRIAL_BOUND**k <= m:
        if is_prime(k):
            r = isqrt(m) if k == 2 else _iroot(m, k)
            if r**k == m:
                return r, k
        k += 1
    return None


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out: dict[int, int] = {}
    g = gcd(n, _PRIMORIAL)  # the product of the primes below B dividing n
    primes = iter(_TRIAL)
    while g > 1:
        p = next(primes)
        if p * p > g:
            p = g  # what is left of g is prime
        elif g % p:
            continue
        g //= p
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [(n, 1)] if n > 1 else []  # (cofactor > 1, its multiplicity)
    while stack:
        m, e = stack.pop()
        # no prime below B divides m, so m < B^2 is prime
        if m < _TRIAL_BOUND**2 or is_prime(m):
            out[m] = out.get(m, 0) + e
            continue
        power = _perfect_power(m)
        if power:  # rho would need about sqrt(r) steps to split r^k
            r, k = power
            stack.append((r, e * k))
            continue
        d = _pollard_rho(m)
        stack += [(d, e), (m // d, e)]
    return out


def ceil_sqrt(n: int) -> int:
    """Smallest integer s with s*s >= n, for n >= 0."""
    if n < 0:
        raise ValueError("ceil_sqrt requires n >= 0")
    if n == 0:
        return 0
    return isqrt(n - 1) + 1


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


MAX_DIGITS = 4300  # str() and int() refuse a longer int by default, so no JSON holds one
LIMIT = 10**MAX_DIGITS  # the least int of more than MAX_DIGITS digits


def decimal_digits(n: int) -> int:
    """Decimal digits of |n| (1 for 0), counted without str(): it refuses past MAX_DIGITS."""
    n = abs(n)
    digits = n.bit_length() * 30102999 // 10**8 or 1  # no more: 0.30102999 < log10(2)
    while 10**digits <= n:
        digits += 1
    return digits


def short_int(n: int) -> str:
    """n in full up to 40 digits, else its first 20 characters and digit count."""
    digits = decimal_digits(n)
    head = abs(n) // 10 ** max(digits - 20 + (n < 0), 0)  # the digits of the first 20 characters
    return str(n) if digits <= 40 else f"{'-' * (n < 0)}{head}... ({digits} digits)"


def parse_int(text: str) -> int:
    """Only the spelling str(int) writes: no "+", leading zero, "-0",
    whitespace, underscore, JSON number or bool. int() refuses more than
    MAX_DIGITS digits."""
    if isinstance(text, str):
        n = int(text)
        if str(n) == text:
            return n
    raise ValueError(f"not a decimal integer as str(int) writes it: {text!r:.60}")


def parse_ints(value: list) -> tuple[int, ...]:
    """A JSON list of ints, each read by parse_int: a string is refused,
    not read one character at a time."""
    if not isinstance(value, list):
        raise TypeError(f"not a list of ints: {value!r:.60}")
    return tuple(map(parse_int, value))


_M64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream. Fixed algorithm so seeded runs replay bit-for-bit."""

    def __init__(self, seed: int):
        self._state = seed & _M64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4B7C15) & _M64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (rejection-free modular draw)."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        return lo + self.next_u64() % span
