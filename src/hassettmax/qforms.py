"""Integral quadratic forms with exact evaluation and enumeration.

A form is stored by the symmetric integer matrix B of its polarization,
so Q(v) = v^T B v. All three builtin forms used by the rest of the
package live here:

    F   rank 4, the discriminant form of the rank-5 plane lattice
    Q3  x^2 + y^2 + 3 z^2
    G   x^2 + 3 y^2 + 3 z^2

Enumeration is one Fincke-Pohst walk over an integer LDL scaled by Bareiss
elimination: every bound is an integer square root and every step an int
operation, with no floats and no fractions. For diagonal ternary forms
integer_image_upto keeps a sieve over the non-negative octant, which visits
1/8 of the vectors the walk would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import gcd, isqrt, lcm

_GRAM_F = (
    (8, -4, -4, -1),
    (-4, 8, 2, -1),
    (-4, 2, 8, -1),
    (-1, -1, -1, 8),
)
_GRAM_Q3 = ((1, 0, 0), (0, 1, 0), (0, 0, 3))
_GRAM_G = ((1, 0, 0), (0, 3, 0), (0, 0, 3))


@dataclass(frozen=True)
class QuadraticForm:
    """Integral quadratic form Q(v) = v^T B v with symmetric integer B."""

    dim: int
    gram: tuple[tuple[int, ...], ...]
    name: str = ""
    # (i, j, c) for i <= j with c = B[i][j] (i == j) or 2 B[i][j] (i < j),
    # nonzero c only: Q(v) = sum c v[i] v[j]
    _terms: tuple[tuple[int, int, int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.dim < 1 or len(self.gram) != self.dim:
            raise ValueError("gram size must match dim")
        for i, row in enumerate(self.gram):
            if len(row) != self.dim:
                raise ValueError("gram must be square")
            for j in range(self.dim):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("gram must be symmetric")
        terms = tuple(
            (i, j, self.gram[i][j] if i == j else 2 * self.gram[i][j])
            for i in range(self.dim)
            for j in range(i, self.dim)
            if self.gram[i][j]
        )
        object.__setattr__(self, "_terms", terms)


@cache  # forms are immutable, so callers may share one instance
def builtin_form(name: str) -> QuadraticForm:
    if name == "F":
        return QuadraticForm(4, _GRAM_F, "F")
    if name == "Q3":
        return QuadraticForm(3, _GRAM_Q3, "Q3")
    if name == "G":
        return QuadraticForm(3, _GRAM_G, "G")
    raise ValueError(f"unknown builtin form: {name!r}")


def _check_dim(form: QuadraticForm, v) -> None:
    if len(v) != form.dim:
        raise ValueError(f"vector length {len(v)} != form dimension {form.dim}")


def evaluate(form: QuadraticForm, v):
    """Q(v), exact. Integer for integer v, Fraction otherwise."""
    _check_dim(form, v)
    total = 0
    for i, j, c in form._terms:
        total += c * v[i] * v[j]
    return total


def bilinear(form: QuadraticForm, v, w):
    """B(v, w) with B(v, v) = Q(v)."""
    _check_dim(form, v)
    _check_dim(form, w)
    total = 0
    for i, j, c in form._terms:
        if i == j:
            total += c * v[i] * w[i]
        else:  # c = 2 B[i][j]
            total += c // 2 * (v[i] * w[j] + v[j] * w[i])
    return total


def is_diagonal(form: QuadraticForm) -> bool:
    """True when every off-diagonal Gram entry is zero."""
    return all(i == j for i, j, _ in form._terms)


def content(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def is_primitive(v) -> bool:
    # zero vector counts as non-primitive
    return content(v) == 1


def is_positive_definite(form: QuadraticForm) -> bool:
    """Sylvester: _scaled_ldl stops at the first Bareiss pivot (minor) <= 0."""
    try:
        _scaled_ldl(form, "is_positive_definite")
    except ValueError:
        return False
    return True


def _scaled_ldl(form: QuadraticForm, what: str):
    """Integer LDL of the Gram matrix by Bareiss elimination.

    Returns (d, b, w, m): d[k] is the k-th leading principal minor (d[0] = 1),
    b[i][j] for j > i are the Bareiss row entries, m = lcm_i(d[i] * d[i+1])
    and w[i] = m // (d[i] * d[i+1]). Then

        m * Q(v) = sum_i w[i] * L_i(v)^2,  L_i(v) = d[i+1] v[i] + sum_{j>i} b[i][j] v[j].

    The pivots are the minors, so a non-positive one means the form is not
    positive definite (Sylvester); `what` names the caller in the error.
    """
    n = form.dim
    b = [list(row) for row in form.gram]
    d = [1]
    for k in range(n):
        p = b[k][k]
        if p <= 0:
            raise ValueError(f"{what} requires a positive definite form")
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                b[i][j] = (p * b[i][j] - b[i][k] * b[k][j]) // d[k]
        d.append(p)
    m = lcm(*(d[i] * d[i + 1] for i in range(n)))
    return d, b, [m // (d[i] * d[i + 1]) for i in range(n)], m


def _walk(ldl, bound: int, exact: bool):
    """Fincke-Pohst walk over a scaled integer LDL: yield (v, Q(v)) for
    every integer v with Q(v) <= bound, or Q(v) == bound when `exact`.
    Requires bound >= 0.

    Coordinates are fixed from the last one down. Level i gets the room r
    left for sum_{k<=i} w[k] L_k^2 and the shift s = L_i - d[i+1] v[i], and
    walks |L_i| <= isqrt(r // w[i]). In exact mode the first coordinate must
    use up the room, so r // w[0] must be a perfect square. Every step is an
    int operation.
    """
    d, b, w, m = ldl
    n = len(w)
    top = m * bound
    v = [0] * n
    d1, w0 = d[1], w[0]

    def exact_firsts(r: int, s: int):
        """The v[0] with w[0] * (d[1] v[0] + s)^2 == r."""
        if r % w0:
            return ()
        t = isqrt(r // w0)
        if t * t * w0 != r:
            return ()
        return {(root - s) // d1 for root in (-t, t) if (root - s) % d1 == 0}

    def level(i: int, r: int, s: int):
        di, wi = d[i + 1], w[i]
        t = isqrt(r // wi)
        lo, hi = -((t + s) // di), (t - s) // di
        if i == 0:
            base = top - r
            for x in range(lo, hi + 1):
                v[0] = x
                ell = di * x + s
                yield tuple(v), (base + wi * ell * ell) // m
            return
        row = b[i - 1]
        # shift of level i-1, less its v[i] term
        below = sum(row[j] * v[j] for j in range(i + 1, n))
        c = row[i]
        for x in range(lo, hi + 1):
            v[i] = x
            ell = di * x + s
            rest = r - wi * ell * ell
            if exact and i == 1:
                for v[0] in exact_firsts(rest, below + c * x):
                    yield tuple(v), bound
            else:
                yield from level(i - 1, rest, below + c * x)

    if exact and n == 1:
        yield from (((x,), bound) for x in exact_firsts(top, 0))
    else:
        yield from level(n - 1, top, 0)


def representations(form: QuadraticForm, n: int) -> list[tuple[int, ...]]:
    """All integer vectors v with Q(v) = n, in lexicographic order."""
    ldl = _scaled_ldl(form, "representations")
    if n < 0:
        raise ValueError("n must be >= 0")
    return sorted(v for v, _ in _walk(ldl, n, True))


def vectors_up_to(form: QuadraticForm, bound: int):
    """Yield (v, Q(v)) over all integer v with Q(v) <= bound.

    Includes the zero vector. Order is not specified.
    """
    ldl = _scaled_ldl(form, "enumeration")
    if bound >= 0:
        yield from _walk(ldl, bound, False)


def primitive_image(form: QuadraticForm, n_max: int) -> list[int]:
    """Sorted values Q(v) for primitive v with 0 < Q(v) <= n_max."""
    seen: set[int] = set()
    try:
        for vec, q in vectors_up_to(form, n_max):
            if 0 < q and q not in seen and is_primitive(vec):
                seen.add(q)
    except ValueError:  # the only one vectors_up_to raises: not positive definite
        raise ValueError("primitive_image requires a positive definite form") from None
    return sorted(seen)


def integer_image_upto(form: QuadraticForm, n_max: int) -> set[int]:
    """All positive values of Q on integer vectors, up to n_max."""
    if is_diagonal(form) and form.dim == 3 and is_positive_definite(form):
        # Q is even in each coordinate, so sieving the non-negative octant
        # visits 1/8 of the vectors the generic walk would
        a, b, c = form.gram[0][0], form.gram[1][1], form.gram[2][2]
        vals = set()
        x = 0
        while a * x * x <= n_max:
            ax = a * x * x
            y = 0
            while ax + b * y * y <= n_max:
                axy = ax + b * y * y
                z = 0
                while axy + c * z * z <= n_max:
                    vals.add(axy + c * z * z)
                    z += 1
                y += 1
            x += 1
        vals.discard(0)
        return vals
    return {q for _, q in vectors_up_to(form, n_max) if q > 0}
