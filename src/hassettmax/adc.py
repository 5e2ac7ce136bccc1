"""Denominator descent and ADC verification for positive definite forms.

The engine takes a rational representation Q(v/t) = m and shrinks t one
prime at a time. For a prime p above the pigeonhole bound, some multiple
i*v/p lands near the integer lattice on the torus R^n/Z^n, and a secant
step through the nearby integer point cuts the denominator below p. Small
primes are cleared by an exact halving identity (p = 2, forms Q3 and G)
or, as a last resort, by enumeration of integer representations.

A trace holds trivial, secant, divide4 and enumerate steps. A trivial step
divides out the content v shares with t, so no later prime p of t divides
every coordinate of v: torus_reduce's shortcut v/p never applies inside a
descent, and no trace holds a torus step.

The denominator is factored once, at the first reduction, and its
{prime: exponent} dict is carried from step to step: a trivial step divides
out the primes of the common content, a halving step drops one p, a secant
step drops p and adds the factors of its new t_r < p, and an enumeration
step clears it. The largest prime is always the one reduced, as if t were
factored afresh. cube_bound(form) is computed once per descent.

Every step re-verifies the certified value; nothing is trusted blindly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod
from itertools import product

from .arith import ceil_sqrt, factorize
from .qforms import (
    QuadraticForm,
    bilinear,
    builtin_form,
    content,
    evaluate,
    integer_image_upto,
    is_diagonal,
    is_positive_definite,
    representations,
)
from . import local_global


class DegenerateChordError(ValueError):
    """Secant chord hit the quadric tangentially (z already on it)."""


class ReductionUnavailable(Exception):
    """No torus multiple qualified; only possible for p <= cube_bound."""


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
    kind: str  # "secant" | "divide4" | "trivial" | "enumerate"
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
    """Build a RationalPoint, checking that Q(v/t) is an integer."""
    v = tuple(int(x) for x in v)
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


def secant_step(form: QuadraticForm, point: RationalPoint, z) -> RationalPoint:
    z = tuple(int(x) for x in z)
    v, t, m = point.v, point.t, point.m
    diff = tuple(vi - t * zi for vi, zi in zip(v, z))
    num = evaluate(form, diff)  # Q(v/t - z) = num / t^2
    if num == 0:
        raise DegenerateChordError("z lies on the quadric through v/t")
    if abs(num) >= t * t:
        raise ValueError("secant step requires 0 < |Q(v/t - z)| < 1")
    a = evaluate(form, z) - m
    b = 2 * (m * t - bilinear(form, v, z))
    new_v = tuple(a * vi + b * zi for vi, zi in zip(v, z))
    new_t = a * t + b
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


def _torus_scan(form: QuadraticForm, v, p: int, bound: int):
    """Smallest i in [1, min(p-1, bound)] whose centered residue w of
    i*v mod p has 0 < Q(w) < p^2, or None; bound is cube_bound(form)."""
    p2 = p * p
    for i in range(1, min(p - 1, bound) + 1):
        w = tuple(_centered_residue(i * x, p) for x in v)
        qw = evaluate(form, w)
        if 0 < qw < p2:
            return i, w, qw
    return None


def _torus_reduce_full(form: QuadraticForm, v, p: int, bound: int):
    """Returns (v', i, t, z) with Q(v'/(i*t)) = Q(v)/p^2 from the secant step
    through z; bound is cube_bound(form)."""
    q = evaluate(form, v)
    if q % (p * p) != 0:
        raise ValueError(f"p^2 = {p * p} does not divide Q(v) = {q}")
    m_red = q // (p * p)
    found = _torus_scan(form, v, p, bound)
    if found is None:
        raise ReductionUnavailable(f"no qualifying multiple for p = {p}")
    i, w, _ = found
    iv = tuple(i * x for x in v)
    z = tuple((ivj - wj) // p for ivj, wj in zip(iv, w))
    reduced = secant_step(form, RationalPoint(iv, p, i * i * m_red), z)
    return reduced.v, i, reduced.t, z


def torus_reduce(form: QuadraticForm, v, p: int):
    """(v', i, t) with 0 < i, t < p and Q(v'/(i*t)) = Q(v)/p^2."""
    bound = cube_bound(form)  # first: it rejects a form not positive definite
    v = tuple(int(x) for x in v)
    if all(x % p == 0 for x in v):
        return tuple(x // p for x in v), 1, 1
    new_v, i, t, _ = _torus_reduce_full(form, v, p, bound)
    return new_v, i, t


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
    return tuple(w)


def divide_by_4(v) -> tuple[int, ...]:
    """For Q3: w with Q3(w) = Q3(v)/4. Precondition: 4 | Q3(v)."""
    q3 = builtin_form("Q3")
    w = _halve(q3, v)
    if evaluate(q3, w) * 4 != evaluate(q3, v):
        raise AssertionError("divide_by_4 value check failed")
    return w


def reduce_3G(a: int, b: int, c: int) -> tuple[int, int, int]:
    """(x, y, z) with G(x, y, z) = Q3(a, b, c)/3. Precondition: 3 | Q3(a, b, c)."""
    q = a * a + b * b + 3 * c * c
    if q % 3 != 0:
        raise ValueError(f"Q3(a, b, c) = {q} is not divisible by 3")
    # forced: a sum of two squares is 0 mod 3 only when both terms are
    if a % 3 or b % 3:
        raise AssertionError("3 | Q3 must force 3 | a and 3 | b")
    return (c, a // 3, b // 3)


def _is_builtin_ternary(form: QuadraticForm) -> bool:
    return form.gram in (builtin_form("Q3").gram, builtin_form("G").gram)


def _drop(primes: dict[int, int], p: int) -> None:
    """Remove one factor p from the factorization primes, in place."""
    if primes[p] == 1:
        del primes[p]
    else:
        primes[p] -= 1


def descend(form: QuadraticForm, point: RationalPoint) -> DescentTrace:
    """Run the full denominator descent from point.

    For Q3 and G the trace always ends in an integer vector of the same
    value. For other positive definite forms the loop stops once no
    reduction applies, leaving the residual denominator in the terminal
    point.
    """
    v, t, m = point.v, point.t, point.m
    if evaluate(form, v) != m * t * t:
        raise ValueError("point does not satisfy Q(v/t) = m")
    steps: list[DescentStep] = []
    current = point
    # an integer point needs no torus scan, so no bound (nor definiteness)
    bound = cube_bound(form) if t > 1 else 0
    # {prime: exponent} of current.t, carried from step to step; factored at
    # the first reduction, after any leading trivial steps, so the content
    # shared with t (say a large prime squared) is never factored
    primes: dict[int, int] | None = None

    def push(kind: str, data: dict, after: RationalPoint):
        nonlocal current
        if evaluate(form, after.v) != m * after.t * after.t:
            raise AssertionError(f"{kind} step lost the certified value")
        steps.append(DescentStep(kind, data, current, after))
        current = after

    while current.t > 1:
        g = gcd(content(current.v), current.t)
        if g > 1:
            push(
                "trivial",
                {"g": g},
                RationalPoint(
                    tuple(x // g for x in current.v), current.t // g, m
                ),
            )
            for q in list(primes or ()):
                while g % q == 0:
                    g //= q
                    _drop(primes, q)
            continue
        if primes is None:
            primes = factorize(current.t)
        elif prod(q**e for q, e in primes.items()) != current.t:
            raise AssertionError("carried factorization lost the denominator")
        p = max(primes)
        s = current.t // p
        # no torus shortcut: after the trivial steps p does not divide all of v
        try:
            raw_v, i, t_r, z = _torus_reduce_full(form, current.v, p, bound)
        except ReductionUnavailable:
            if p == 2 and _is_builtin_ternary(form):
                w = _halve(form, current.v)
                push("divide4", {"p": 2}, RationalPoint(w, s, m))
                _drop(primes, 2)
                continue
            reps = representations(form, m)
            if reps:
                push("enumerate", {"p": p}, RationalPoint(reps[0], 1, m))
                primes.clear()
                continue
            break  # residual denominator stays; form is not ADC here
        if any(x % i for x in raw_v):
            raise AssertionError("secant output must be divisible by i")
        push(
            "secant",
            {"p": p, "i": i, "z": z},
            RationalPoint(tuple(x // i for x in raw_v), t_r * s, m),
        )
        _drop(primes, p)
        # t_r < p is the only new factor of the denominator
        for q, e in factorize(t_r).items():
            primes[q] = primes.get(q, 0) + e
    return DescentTrace(form.name or "?", point, tuple(steps), current)


def verify_trace(form: QuadraticForm, trace: DescentTrace) -> bool:
    """Replay a trace: value preservation, monotone denominators, chaining."""
    m = trace.start.m
    if evaluate(form, trace.start.v) != m * trace.start.t ** 2:
        return False
    prev = trace.start
    for step in trace.steps:
        if step.before != prev:
            return False
        if step.after.m != m:
            return False
        if evaluate(form, step.after.v) != m * step.after.t ** 2:
            return False
        if step.after.t > step.before.t:
            return False
        if step.kind in ("secant", "torus", "divide4") and step.after.t >= step.before.t:
            return False
        prev = step.after
    return prev == trace.terminal


def _rationally_representable(form: QuadraticForm, n: int) -> bool:
    """Exact for unary and diagonal ternary forms; bounded search otherwise."""
    if n == 0:
        return True
    if form.dim == 1:
        a = form.gram[0][0]
        r = isqrt(abs(n * a))
        return n * a >= 0 and r * r == n * a
    if form.dim == 3 and is_diagonal(form):
        diag = tuple(form.gram[i][i] for i in range(3))
        return local_global.rationally_representable_ternary(diag, n)
    # sound but not complete: witness search over denominators up to 8
    for t in range(1, 9):
        if representations(form, n * t * t):
            return True
    return False


def adc_check(form: QuadraticForm, n_max: int) -> list[int]:
    """Integers n in [1, n_max] rationally but not integrally represented."""
    try:
        image = integer_image_upto(form, n_max)
    except ValueError:  # the only one it raises: not positive definite
        raise ValueError("adc_check requires a positive definite form") from None
    return [
        n
        for n in range(1, n_max + 1)
        if n not in image and _rationally_representable(form, n)
    ]


# --- serialization (integers as decimal strings) ---


def _point_to_dict(point: RationalPoint) -> dict:
    return {"v": [str(x) for x in point.v], "t": str(point.t), "m": str(point.m)}


def _point_from_dict(d: dict) -> RationalPoint:
    return RationalPoint(tuple(int(x) for x in d["v"]), int(d["t"]), int(d["m"]))


def _data_to_dict(data: dict) -> dict:
    out = {}
    for key, value in data.items():
        if isinstance(value, tuple):
            out[key] = [str(x) for x in value]
        else:
            out[key] = str(value)
    return out


def _data_from_dict(d: dict) -> dict:
    out = {}
    for key, value in d.items():
        if isinstance(value, list):
            out[key] = tuple(int(x) for x in value)
        else:
            out[key] = int(value)
    return out


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
    steps = tuple(
        DescentStep(
            s["kind"],
            _data_from_dict(s["data"]),
            _point_from_dict(s["before"]),
            _point_from_dict(s["after"]),
        )
        for s in d["steps"]
    )
    return DescentTrace(
        d["form"], _point_from_dict(d["start"]), steps, _point_from_dict(d["terminal"])
    )
