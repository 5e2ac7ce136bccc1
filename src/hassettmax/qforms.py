"""Integral quadratic forms with exact evaluation and enumeration.

A form is stored by the symmetric integer matrix B of its polarization,
so Q(v) = v^T B v. All three builtin forms used by the rest of the
package live here:

    F   rank 4, induced from the rank-5 plane lattice (lattices.induced_form_F)
    Q3  x^2 + y^2 + 3 z^2
    G   x^2 + 3 y^2 + 3 z^2

Enumeration is one Fincke-Pohst walk, all int operations, over an integer
LDL scaled by Bareiss elimination. Coordinates 1 and 0 are two nested loops
in one generator frame; the room left for coordinate 0 is w[0] times an int
that, as w[1] d[2] == w[0], steps by integer differences along each row.
Every walk is a half walk, one of each +-v != 0 (same value, same content);
callers mirror it. Except in representations, it yields rows: one per fixed
v[1:], with the range of v[0], Q at its first value and the first
difference. primitive_image, and image_mask for a form that is not diagonal,
mark rows in a bytearray. primitive_image takes g = gcd(v[1:]) once per row:
all of the row is primitive when g == 1, else the v[0] with gcd(g, v[0]) == 1.

image_mask holds a form's values up to a bound as the bits of one Python
int. For a positive definite diagonal form it skips the walk: each
coordinate ORs the mask so far, shifted by c x^2 for every x >= 1, so the
work is a few hundred big-integer shifts, not one Python step per value.
integer_image_upto reads that mask in a single C pass; adc.adc_check ANDs
its complement with a mask of the rational values first.

representations walks only when n passes a residue test: Q(v) = n forces
Q(v mod m) = n mod m, so an n outside the values of Q mod 8 or mod 9 has
no representation (two thirds of all n for F, whose values are 0 or 2 mod 6).
_residues builds those value sets on a form's first exact query, fixing one
coordinate at a time mod m, and caches them. Its states grow as
m^((dim + 1) / 2), so the test runs for dim <= 4 only (F, Q3 and G).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import compress, count
from math import gcd, isqrt, lcm
from operator import neg

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
        from .lattices import induced_form_F  # lattices imports this module
        return QuadraticForm(4, induced_form_F().gram, "F")
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


def is_diagonal(form: QuadraticForm) -> bool:
    """True when every off-diagonal Gram entry is zero."""
    return all(i == j for i, j, _ in form._terms)


def is_primitive(v) -> bool:
    # zero vector counts as non-primitive
    return gcd(*v) == 1


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
    """Fincke-Pohst walk over a scaled integer LDL. Requires bound >= 0.

    Every walk is a half walk: it visits only the v != 0 whose last nonzero
    coordinate is positive, one of each pair +-v, and callers mirror it.
    When `exact`, yield each such v with Q(v) == bound. Otherwise yield one
    row (v, first, last, q, dq) per fixed v[1:], for the v with Q(v) <=
    bound: v is a list holding v[1:] until the next row; v[0] runs over
    first..last; q is Q(v) at v[0] = first, Q rises by dq per step of v[0],
    and dq by 2 d[1]. Only non-empty rows are yielded.

    Coordinates are fixed from the last one down. Level i gets the room r
    left for sum_{k<=i} w[k] L_k^2 and the shift s = L_i - d[i+1] v[i], and
    walks |L_i| <= isqrt(r // w[i]), from v[i] = 0 while v[i+1:] == 0 (from
    v[1] = 1: the axis v[1:] == 0, Q = d[1] v[0]^2, is walked last). Levels
    1 and 0 are two nested loops. The level-0 room is w[0] q, q = d[1]
    (bound - Q(v)) + L_0^2 at v[0] = 0, and q falls by 2 L_1 + d[2] per step
    of v[1] (w[1] d[2] == w[0]); exact mode takes L_0 = +-sqrt(q). Q(v)
    rises by 2 L_0 + d[1] per step of v[0].
    """
    d, b, w, m = ldl
    n = len(w)
    d1, w0 = d[1], w[0]
    top = m * bound
    v = [0] * n

    def level(i: int, r: int, s: int, zero: bool):
        # zero: v[i+1:] all 0, so s == 0 and v[i] >= 0 (v[1] >= 1)
        di, wi = d[i + 1], w[i]
        t = isqrt(r // wi)
        lo, hi = int(i == 1) if zero else -((t + s) // di), (t - s) // di
        row = b[i - 1]
        # shift of level i-1, less its v[i] term
        below = sum(row[j] * v[j] for j in range(i + 1, n))
        c = row[i]
        if i > 1:
            for v[i] in range(lo, hi + 1):
                ell = di * v[i] + s
                yield from level(i - 1, r - wi * ell * ell, below + c * v[i], zero and not v[i])
        elif exact:
            ell = di * lo + s
            q = (r - wi * ell * ell) // w0
            for x in range(lo, hi + 1):
                t = isqrt(q)
                if t * t == q:
                    s0 = below + c * x
                    for root in {t, -t}:  # one root when t == 0
                        if (root - s0) % d1 == 0:
                            yield ((root - s0) // d1, x, *v[2:])
                q -= 2 * ell + di
                ell += di
        else:
            for x in range(lo, hi + 1):
                ell = di * x + s
                r0 = r - wi * ell * ell
                s0 = below + c * x
                t = isqrt(r0 // w0)
                first, last = -((t + s0) // d1), (t - s0) // d1
                if first <= last:
                    ell = d1 * first + s0
                    v[1] = x
                    yield v, first, last, (top - r0 + w0 * ell * ell) // m, 2 * ell + d1

    if n > 1:
        yield from level(n - 1, top, 0, True)
    t = isqrt(bound // d1)  # the axis: v[0] = 1..t
    if exact:
        if t and d1 * t * t == bound:
            yield (t,) + (0,) * (n - 1)
    elif t:
        yield [0] * n, 1, t, d1, 3 * d1


@lru_cache(maxsize=128)  # forms are immutable; bounded, as callers may pass many
def _residues(form: QuadraticForm) -> dict[int, frozenset[int]]:
    """{m: the values of Q on (Z/m)^dim} for m = 8 and 9.

    Coordinates are fixed from the last one down, keeping the set of states
    (Q of the fixed part mod m, the linear terms 2 B[i][k] v[k] they put on
    each unfixed v[i] mod m). There are at most min(m^fixed, m^(1 + unfixed))
    states, so at most m^((dim + 1) / 2), and no evaluate call."""
    residues = {}
    for m in (8, 9):
        states = {(0, (0,) * form.dim)}
        for k in reversed(range(form.dim)):
            c, row = form.gram[k][k], [2 * form.gram[i][k] for i in range(k)]
            states = {((q + (c * x + lin[k]) * x) % m, tuple((a + r * x) % m for a, r in zip(lin, row)))
                      for q, lin in states for x in range(m)}
        residues[m] = frozenset(q for q, _ in states)
    return residues


def representations(form: QuadraticForm, n: int) -> list[tuple[int, ...]]:
    """All integer vectors v with Q(v) = n, in lexicographic order: the
    half walk, its mirror, and the zero vector when n == 0.

    For dim <= 4, an n that is not a value of Q mod 8 or mod 9 returns []
    without a walk: Q(v) = n forces Q(v mod m) = n mod m. Above dimension 4
    the sets are not built, as their build grows as m^((dim + 1) / 2)
    states, and the walk alone answers."""
    ldl = _scaled_ldl(form, "representations")
    if n < 0:
        raise ValueError("n must be >= 0")
    if form.dim <= 4 and any(n % m not in values for m, values in _residues(form).items()):
        return []
    half = list(_walk(ldl, n, True))
    return sorted(half + [tuple(map(neg, v)) for v in half] + [(0,) * form.dim] * (n == 0))


def vectors_up_to(form: QuadraticForm, bound: int):
    """Yield (v, Q(v)) over all integer v with Q(v) <= bound, in no set
    order: the zero vector once, then each half-walk vector and its -v."""
    ldl = _scaled_ldl(form, "enumeration")
    if bound >= 0:
        yield (0,) * form.dim, 0
        step = 2 * ldl[0][1]
        for v, first, last, q, dq in _walk(ldl, bound, False):
            for v[0] in range(first, last + 1):
                yield tuple(v), q
                yield tuple(map(neg, v)), q
                q += dq
                dq += step


def _marked(form: QuadraticForm, n_max: int, what: str, primitive: bool) -> bytearray:
    """Flag each value 0 < Q(v) <= n_max of a v != 0, primitive v only when
    `primitive`. `what` names the caller in _scaled_ldl's error."""
    ldl = _scaled_ldl(form, what)
    seen = bytearray(max(n_max, 0) + 1)
    if n_max < 0:
        return seen
    step = 2 * ldl[0][1]
    for v, first, last, q, dq in _walk(ldl, n_max, False):
        g = gcd(*v[1:]) if primitive else 1
        if g == 1:
            for _ in range(first, last + 1):
                seen[q] = 1
                q += dq
                dq += step
        else:
            for x in range(first, last + 1):
                if gcd(g, x) == 1:
                    seen[q] = 1
                q += dq
                dq += step
    return seen


def primitive_image(form: QuadraticForm, n_max: int) -> list[int]:
    """Sorted values Q(v) for primitive v with 0 < Q(v) <= n_max."""
    return list(compress(count(), _marked(form, n_max, "primitive_image", True)))


# byte tables between a 0/1 flag per value and the ASCII digits of int(_, 2)
# and bin(): one C pass each way
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def image_mask(form: QuadraticForm, n_max: int) -> int:
    """The values of Q on integer vectors up to n_max, as a bitmask: bit q
    is set when some v has Q(v) = q. Bit 0 is always set (the zero vector),
    and no bit above max(n_max, 0) is.

    Other forms mark the rows of the half walk in a bytearray. Requires a
    positive definite form; _scaled_ldl raises ValueError("enumeration
    requires a positive definite form") for any other.
    """
    n_max = max(n_max, 0)
    if is_diagonal(form) and is_positive_definite(form):
        # Q = sum c_i v_i^2 is even in each coordinate: each x >= 1 of the
        # next coordinate adds the values so far shifted by c x^2
        width = (1 << (n_max + 1)) - 1
        mask = 1
        for i in range(form.dim):
            c = form.gram[i][i]
            grown = mask
            for x in range(1, isqrt(n_max // c) + 1):
                grown |= mask << c * x * x
            mask = grown & width
        return mask
    seen = _marked(form, n_max, "enumeration", False)
    seen[0] = 1
    return flags_to_mask(seen)


def flags_to_mask(flags: bytearray) -> int:
    """The int whose bit i is set when flags[i] is 1 (each flag 0 or 1)."""
    # "1" at string index len - 1 - i is bit i
    return int(flags[::-1].translate(_DIGITS), 2)


def set_bits(mask: int):
    """The positions of the set bits of mask >= 0, in increasing order."""
    flags = bin(mask)[:1:-1].encode().translate(_FLAGS)  # bit i at index i
    return compress(count(), flags)


def integer_image_upto(form: QuadraticForm, n_max: int) -> set[int]:
    """All positive values of Q on integer vectors, up to n_max: the set
    bits >= 1 of image_mask."""
    return set(set_bits(image_mask(form, n_max) & -2))
