"""Denominator descent and ADC verification for the ternary forms Q3 and G.

The engine takes a rational representation Q(v/t) = m and shrinks t one
prime at a time. For a prime p above the pigeonhole bound, some multiple
i*v/p lands near the integer lattice on the torus R^n/Z^n, and a secant
step through the nearby integer point cuts the denominator below p. The
odd primes below the bound have such a multiple too (tests check every
class); p = 2, when it has none, is cleared by an exact halving identity.

A trace holds trivial, secant and divide4 steps, each strictly
shrinking t. A trivial step divides out the content v shares with t, so no
later prime p of t divides every coordinate of v. verify_trace also needs
a terminal with t = 1, and trace_from_dict, the one decoder of a trace, a
form of TRACE_FORMS and points of 3 coordinates.

The denominator is factored once, at the first reduction, into a set of
candidate primes. Every step divides t, except a secant step, which
multiplies t/p by its new t_r < p; the primes of t_r join the set. So the
set holds every prime of t, and the largest candidate dividing t is the
largest prime of t, the one reduced, as if t were factored afresh.
cube_bound(form) is computed once per descent.

_secant audits the value and the shrink of every secant step, and the
halving identity audits its own value; trivial steps are exact by
construction. The torus scan hands _secant the Q(w) it checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from itertools import product
from operator import index

from .arith import ceil_sqrt, factorize, parse_int, parse_ints
from .qforms import (
    QuadraticForm,
    builtin_form,
    evaluate,
    image_mask,
    is_diagonal,
    is_positive_definite,
    set_bits,
)
from . import local_global

TRACE_FORMS = ("Q3", "G")  # the forms descend serves and a trace may name


@dataclass(frozen=True)
class RationalPoint:
    """Integer vector v, positive denominator t, certified value m = Q(v/t)."""

    v: tuple[int, ...]
    t: int
    m: int

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("denominator must be positive")


@dataclass(frozen=True)
class DescentStep:
    kind: str  # "secant" | "divide4" | "trivial"
    data: dict
    before: RationalPoint
    after: RationalPoint


@dataclass(frozen=True)
class DescentTrace:
    form_name: str
    start: RationalPoint
    steps: tuple[DescentStep, ...]
    terminal: RationalPoint


def rational_point(form: QuadraticForm, v, t: int) -> RationalPoint:
    """Build a RationalPoint, checking that Q(v/t) is an integer. Each
    coordinate and t are read by operator.index: a Fraction or float raises
    TypeError."""
    v, t = tuple(map(index, v)), index(t)
    if t <= 0:
        raise ValueError("denominator must be positive")
    q = evaluate(form, v)
    if q % (t * t) != 0:
        raise ValueError(f"Q(v/t) = {Fraction(q, t * t)} is not an integer")
    return RationalPoint(v, t, q // (t * t))


def cube_sup(form: QuadraticForm) -> int:
    """max Q over the sign vertices of [-1,1]^dim (= max over the cube)."""
    if not is_positive_definite(form):
        raise ValueError("cube_sup requires a positive definite form")
    return max(evaluate(form, v) for v in product((-1, 1), repeat=form.dim))


def cube_bound(form: QuadraticForm) -> int:
    """ceil(sqrt(M))^dim, the prime threshold of the torus pigeonhole."""
    return ceil_sqrt(cube_sup(form)) ** form.dim


def _secant(form: QuadraticForm, point: RationalPoint, z, num: int) -> RationalPoint:
    """The second point of the line through v/t and the integer z, given
    num = Q(v - t z) with 0 < |num| < t^2."""
    v, t, m = point.v, point.t, point.m
    a = evaluate(form, z) - m
    # num = t (a t + b) for b = 2 (m t - B(v, z)), so B(v, z) is not needed
    new_t = num // t
    b = new_t - a * t
    new_v = tuple(a * vi + b * zi for vi, zi in zip(v, z))
    if new_t < 0:
        new_v = tuple(-x for x in new_v)
        new_t = -new_t
    # self-audit: the algebra guarantees both, cheap to re-check
    if evaluate(form, new_v) != m * new_t * new_t:
        raise AssertionError("secant step lost the certified value")
    if new_t >= t:
        raise AssertionError("secant step failed to shrink the denominator")
    return RationalPoint(new_v, new_t, m)


def _centered_residue(x: int, p: int) -> int:
    """x - p*round(x/p) with the tie (p even) broken toward a zero shift."""
    r = x % p
    if 2 * r < p:
        return r
    if 2 * r > p:
        return r - p
    return r if x > 0 else -r


def _torus_reduce_full(form: QuadraticForm, point: RationalPoint, p: int, bound: int):
    """(after, i, z) for a prime p of point.t: after has point's value and the
    denominator t_r * t/p, t_r < p, from the secant step at i*v/p through
    z = (i*v - w)/p, for the least i in [1, min(p-1, bound)] whose centered
    residue w of i*v mod p has 0 < Q(w) < p^2; bound is cube_bound. None
    when no such i exists."""
    v, m, s = point.v, point.m, point.t // p
    for i in range(1, min(p - 1, bound) + 1):
        w = tuple(_centered_residue(i * x, p) for x in v)
        num = evaluate(form, w)
        if 0 < num < p * p:
            break
    else:
        return None
    iv = tuple(i * x for x in v)
    z = tuple((ivj - wj) // p for ivj, wj in zip(iv, w))
    # Q(i*v/p) = i^2 m s^2, since Q(v) = m t^2 and t = p s; i*v - p*z = w
    reduced = _secant(form, RationalPoint(iv, p, i * i * m * s * s), z, num)
    if any(x % i for x in reduced.v):
        raise AssertionError("secant output must be divisible by i")
    return RationalPoint(tuple(x // i for x in reduced.v), reduced.t * s, m), i, z


def _halve_pair(x: int, z: int) -> tuple[int, int]:
    """For odd x, z with 4 | x^2 + 3 z^2: (x', z') with x'^2 + 3 z'^2 a quarter
    of the input value. Uses the norm-form halving of x^2 + 3 z^2."""
    s = 1 if (x - z) % 4 == 0 else -1
    u = (x + 3 * s * z) // 2
    w = (x - s * z) // 2
    if u % 2 or w % 2:
        raise AssertionError("halving identity produced odd intermediates")
    return u // 2, w // 2


def _halve(form: QuadraticForm, v) -> tuple[int, ...]:
    """w with Q(w) = Q(v)/4, for Q3 and G only."""
    v = tuple(int(x) for x in v)
    q = evaluate(form, v)
    if q % 4 != 0:
        raise ValueError(f"Q(v) = {q} is not divisible by 4")
    odd = [k for k in range(form.dim) if v[k] % 2]
    if not odd:
        return tuple(x // 2 for x in v)
    if not _is_builtin_ternary(form):
        raise ValueError("halving identity implemented for Q3 and G only")
    # coefficients (1,1,3) or (1,3,3), so 4 | Q(v) forces one odd coordinate
    # of coefficient 1, then one of coefficient 3
    if [form.gram[k][k] for k in odd] != [1, 3]:
        raise AssertionError(f"parity pattern impossible for 4 | {form.name}(v)")
    a, b = odd
    w = [x // 2 for x in v]
    w[a], w[b] = _halve_pair(v[a], v[b])
    if evaluate(form, w) * 4 != q:
        raise AssertionError("halving lost the certified value")
    return tuple(w)


def _is_builtin_ternary(form: QuadraticForm) -> bool:
    return form.gram in (builtin_form("Q3").gram, builtin_form("G").gram)


def descend(form: QuadraticForm, point: RationalPoint) -> DescentTrace:
    """Run the full denominator descent from point, for Q3 and G only. The
    trace always ends in an integer vector of the same value."""
    if not _is_builtin_ternary(form):
        raise ValueError("descend serves Q3 and G only")
    v, t, m = point.v, point.t, point.m
    if evaluate(form, v) != m * t * t:
        raise ValueError("point does not satisfy Q(v/t) = m")
    steps: list[DescentStep] = []
    current = point
    # an integer point needs no torus scan, so no bound
    bound = cube_bound(form) if t > 1 else 0
    # candidate primes, holding every prime of current.t; factored at the
    # first reduction, after any leading trivial steps, so the content
    # shared with t (say a large prime squared) is never factored
    primes: set[int] | None = None

    def push(kind: str, data: dict, after: RationalPoint):
        nonlocal current
        steps.append(DescentStep(kind, data, current, after))
        current = after

    while current.t > 1:
        g = gcd(*current.v, current.t)
        if g > 1:
            after = RationalPoint(tuple(x // g for x in current.v), current.t // g, m)
            push("trivial", {"g": g}, after)
            continue
        if primes is None:
            primes = set(factorize(current.t))
        p = max((q for q in primes if current.t % q == 0), default=None)
        if p is None:
            raise AssertionError("carried factorization lost a prime of the denominator")
        reduced = _torus_reduce_full(form, current, p, bound)
        if reduced is None:
            # Q3 and G have a torus multiple at every odd prime (a test checks each class)
            if p != 2:
                raise AssertionError(f"no torus multiple for the odd prime {p}")
            w = _halve(form, current.v)
            push("divide4", {"p": 2}, RationalPoint(w, current.t // 2, m))
            continue
        after, i, z = reduced
        # t_r = after.t / (t/p) < p is the only new factor of the denominator
        primes.update(factorize(after.t * p // current.t))
        push("secant", {"p": p, "i": i, "z": z}, after)
    return DescentTrace(form.name or "?", point, tuple(steps), current)


def verify_trace(form: QuadraticForm, trace: DescentTrace) -> bool:
    """Certify a chain from start to terminal of steps of descend's kinds, each
    keeping m = Q(v/t) and strictly shrinking t, to a terminal with t = 1:
    an integer representation of m."""
    m = trace.start.m
    if evaluate(form, trace.start.v) != m * trace.start.t ** 2:
        return False
    prev = trace.start
    for step in trace.steps:
        if step.before != prev:
            return False
        if step.kind not in ("trivial", "secant", "divide4"):
            return False
        if step.after.m != m:
            return False
        if evaluate(form, step.after.v) != m * step.after.t ** 2:
            return False
        if step.after.t >= step.before.t:
            return False
        prev = step.after
    return prev == trace.terminal and prev.t == 1


def adc_check(form: QuadraticForm, n_max: int) -> list[int]:
    """Integers n in [1, n_max] rationally but not integrally represented by
    a positive definite diagonal ternary form: the complement of
    qforms.image_mask ANDed with the mask of rational values, read in one
    pass with no step per candidate."""
    if not is_positive_definite(form):
        raise ValueError("adc_check requires a positive definite form")
    if form.dim != 3 or not is_diagonal(form):
        raise ValueError("adc_check decides diagonal ternary forms only")
    n_max = max(n_max, 0)
    outside = ~image_mask(form, n_max) & ((2 << n_max) - 2)  # bits 1..n_max
    diag = tuple(form.gram[i][i] for i in range(3))
    return list(set_bits(outside & local_global.rational_values_mask(diag, n_max)))


# --- serialization (integers as decimal strings) ---


def _point_to_dict(point: RationalPoint) -> dict:
    return {"v": [str(x) for x in point.v], "t": str(point.t), "m": str(point.m)}


def _point_from_dict(d: dict) -> RationalPoint:
    return RationalPoint(parse_ints(d["v"]), parse_int(d["t"]), parse_int(d["m"]))


def _data_to_dict(data: dict) -> dict:
    out = {}
    for key, value in data.items():
        if isinstance(value, tuple):
            out[key] = [str(x) for x in value]
        else:
            out[key] = str(value)
    return out


def _data_from_dict(d: dict) -> dict:
    return {key: parse_ints(value) if isinstance(value, list) else parse_int(value)
            for key, value in d.items()}


def trace_to_dict(trace: DescentTrace) -> dict:
    return {
        "form": trace.form_name,
        "start": _point_to_dict(trace.start),
        "steps": [
            {
                "kind": s.kind,
                "data": _data_to_dict(s.data),
                "before": _point_to_dict(s.before),
                "after": _point_to_dict(s.after),
            }
            for s in trace.steps
        ],
        "terminal": _point_to_dict(trace.terminal),
    }


def trace_from_dict(d: dict) -> DescentTrace:
    """Every int as str(int) writes it (arith.parse_int), a form of
    TRACE_FORMS, points of 3 coordinates. A step's before written as the point
    before it (the start, or the previous step's after) is that decoded point,
    not decoded again; so is a terminal written as the last point."""
    form = d["form"]

    def point(p: dict) -> RationalPoint:
        decoded = _point_from_dict(p)
        if len(decoded.v) != 3:
            raise ValueError(f"not a trace of Q3 or G in 3 coordinates: {form!r:.60}")
        return decoded

    if not isinstance(d["steps"], list):
        raise TypeError(f"not a list of steps: {d['steps']!r:.60}")
    if form not in TRACE_FORMS:
        raise ValueError(f"not a trace of Q3 or G in 3 coordinates: {form!r:.60}")
    prev_dict = d["start"]
    prev = start = point(prev_dict)
    steps = []
    for s in d["steps"]:
        before = prev if s["before"] == prev_dict else point(s["before"])
        prev_dict = s["after"]
        prev = point(prev_dict)
        steps.append(DescentStep(s["kind"], _data_from_dict(s["data"]), before, prev))
    terminal = prev if d["terminal"] == prev_dict else point(d["terminal"])
    return DescentTrace(form, start, tuple(steps), terminal)
