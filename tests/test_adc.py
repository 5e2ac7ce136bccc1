"""Descent machinery: secant steps, torus reduction, halving, full traces.

Rational test points are generated by the secant parametrization: for an
integer solution z of Q = m and any direction d, the second intersection
of the line z + s*d with the quadric is rational with denominator Q(d).
"""

import json
from math import gcd

import pytest

from hassettmax import adc
from hassettmax.adc import (
    DegenerateChordError,
    DescentStep,
    DescentTrace,
    RationalPoint,
    ReductionUnavailable,
    adc_check,
    cube_bound,
    cube_sup,
    descend,
    divide_by_4,
    rational_point,
    reduce_3G,
    secant_step,
    torus_reduce,
    trace_from_dict,
    trace_to_dict,
    verify_trace,
)
from hassettmax.arith import SplitMix64, factorize, is_prime
from hassettmax.local_global import sqrt_mod_pk
from hassettmax.qforms import (
    QuadraticForm,
    bilinear,
    builtin_form,
    content,
    evaluate,
    representations,
)

Q3 = builtin_form("Q3")
G = builtin_form("G")
F = builtin_form("F")


def secant_generated_point(form, z, d):
    """Second intersection of the line through integer solution z along d."""
    qd = evaluate(form, d)
    if qd == 0:
        return None
    bzd = bilinear(form, z, d)
    v = tuple(qd * zi - 2 * bzd * di for zi, di in zip(z, d))
    return v, qd


# --- bounds ---


def test_cube_bounds_frozen():
    assert cube_sup(Q3) == 5
    assert cube_sup(G) == 7
    assert cube_sup(F) == 54
    assert cube_bound(Q3) == 27
    assert cube_bound(G) == 27
    assert cube_bound(F) == 4096


def test_cube_sup_requires_positive_definite():
    with pytest.raises(ValueError):
        cube_sup(QuadraticForm(2, ((1, 0), (0, -1))))


# --- rational points ---


def test_rational_point_validation():
    pt = rational_point(Q3, (3, 4, 5), 5)
    assert (pt.v, pt.t, pt.m) == ((3, 4, 5), 5, 4)
    with pytest.raises(ValueError):
        rational_point(Q3, (1, 1, 1), 2)  # Q

    # value 5/4 is not an integer
    with pytest.raises(ValueError):
        rational_point(Q3, (1, 0, 0), 0)


# --- secant step ---


def test_secant_worked_examples():
    out = secant_step(Q3, rational_point(Q3, (3, 4, 5), 5), (1, 1, 1))
    assert (out.v, out.t, out.m) == ((-1, 0, 1), 1, 4)
    out2 = secant_step(Q3, rational_point(Q3, (7, 1, 0), 5), (1, 0, 0))
    assert (out2.v, out2.t, out2.m) == ((-1, -1, 0), 1, 2)


def test_secant_degenerate_chord():
    with pytest.raises(DegenerateChordError):
        secant_step(Q3, rational_point(Q3, (2, 2, 2), 2), (1, 1, 1))


def test_secant_needs_nearby_integer_point():
    # z too far: |Q(v/t - z)| >= 1
    with pytest.raises(ValueError):
        secant_step(Q3, rational_point(Q3, (3, 4, 5), 5), (5, 5, 5))


def test_secant_diminishes_denominator_on_generated_points():
    rng = SplitMix64(99)
    base = (1, 1, 1)  # Q3 = 5
    count = 0
    while count < 40:
        d = tuple(rng.randint(-30, 30) for _ in range(3))
        got = secant_generated_point(Q3, base, d)
        if got is None:
            continue
        v, t = got
        pt = rational_point(Q3, v, t)
        if pt.t == 1:
            continue
        count += 1
        # the base point itself is a valid nearby integer point iff the
        # fractional part is small; use the rounding of v/t instead
        z = tuple(round(x / pt.t) for x in pt.v)
        diff_val = evaluate(Q3, tuple(a - pt.t * b for a, b in zip(pt.v, z)))
        if diff_val == 0 or diff_val >= pt.t * pt.t:
            continue
        out = secant_step(Q3, pt, z)
        assert out.t < pt.t
        assert evaluate(Q3, out.v) == out.m * out.t * out.t
        assert out.m == pt.m


# --- torus reduction ---


def test_torus_worked_example():
    assert torus_reduce(Q3, (21, 20, 0), 29) == ((-3, -4, 0), 1, 5)


def test_torus_requires_p_squared_divisibility():
    with pytest.raises(ValueError):
        torus_reduce(Q3, (1, 0, 0), 5)


def test_torus_shortcut_when_p_divides_v():
    assert torus_reduce(Q3, (5, 10, 0), 5) == ((1, 2, 0), 1, 1)


def torus_case(rng, form_coeffs, p):
    """Random v with p^2 | x^2+y^2+c*z^2, built via a modular square root."""
    _, _, c = form_coeffs
    p2 = p * p
    for _ in range(200):
        v1 = rng.randint(1, p2 - 1)
        v2 = rng.randint(1, p2 - 1)
        target = (-(v1 * v1 + v2 * v2) * pow(c, -1, p2)) % p2
        if target % p == 0:
            continue
        try:
            v3 = sqrt_mod_pk(target, p, 2)
        except ValueError:
            continue
        return (v1, v2, v3)
    return None


def test_torus_reduction_seeded_sweep():
    rng = SplitMix64(2024)
    primes = [p for p in range(29, 200) if is_prime(p)]
    done = 0
    for p in primes:
        v = torus_case(rng, (1, 1, 3), p)
        if v is None:
            continue
        q = evaluate(Q3, v)
        assert q % (p * p) == 0
        new_v, i, t = torus_reduce(Q3, v, p)
        assert 0 < i < p and 0 < t < p
        assert evaluate(Q3, new_v) == (q // (p * p)) * (i * t) ** 2
        done += 1
    assert done >= 20


# --- halving and 3G reduction ---


def test_divide_by_4_frozen():
    assert divide_by_4((1, 0, 1)) == (1, 0, 0)


def test_divide_by_4_sweep():
    for x in range(-6, 7):
        for y in range(-6, 7):
            for z in range(-6, 7):
                q = x * x + y * y + 3 * z * z
                if q % 4 == 0 and q > 0:
                    w = divide_by_4((x, y, z))
                    assert evaluate(Q3, w) * 4 == q


def test_divide_by_4_requires_multiple_of_4():
    with pytest.raises(ValueError):
        divide_by_4((1, 0, 0))


def test_reduce_3g_frozen():
    assert reduce_3G(3, 3, 1) == (1, 1, 1)
    assert reduce_3G(0, 3, 0) == (0, 0, 1)
    with pytest.raises(ValueError):
        reduce_3G(1, 1, 1)


def test_reduce_3g_sweep_and_forced_divisibility():
    for a in range(-20, 21):
        for b in range(-20, 21):
            for c in range(-20, 21):
                q = a * a + b * b + 3 * c * c
                if q % 3 == 0:
                    assert a % 3 == 0 and b % 3 == 0
                    out = reduce_3G(a, b, c)
                    assert evaluate(G, out) * 3 == q


# --- full descent ---


def test_descend_worked_example():
    point = rational_point(G, (5, 9, 12), 10)
    assert point.m == 7
    trace = descend(G, point)
    assert [s.kind for s in trace.steps] == ["secant", "trivial", "divide4"]
    assert trace.terminal.t == 1
    assert evaluate(G, trace.terminal.v) == 7
    assert verify_trace(G, trace)


def test_descend_q3_example():
    trace = descend(Q3, rational_point(Q3, (3, 4, 5), 5))
    assert trace.terminal.t == 1
    assert evaluate(Q3, trace.terminal.v) == 4
    assert verify_trace(Q3, trace)


def test_descend_integer_point_is_a_fixed_point():
    pt = rational_point(Q3, (1, 2, 3), 1)
    trace = descend(Q3, pt)
    assert trace.steps == ()
    assert trace.terminal == pt


def test_descend_seeded_points_both_forms():
    rng = SplitMix64(77)
    bases = {"Q3": ((1, 1, 1), Q3), "G": ((1, 1, 1), G)}
    for name, (base, form) in bases.items():
        done = 0
        while done < 50:
            d = tuple(rng.randint(-40, 40) for _ in range(3))
            got = secant_generated_point(form, base, d)
            if got is None:
                continue
            v, t = got
            pt = rational_point(form, v, t)
            trace = descend(form, pt)
            assert trace.terminal.t == 1, (name, pt)
            assert evaluate(form, trace.terminal.v) == pt.m
            assert verify_trace(form, trace)
            # denominators never increase; strict drop on real reductions
            for step in trace.steps:
                assert step.after.t <= step.before.t
            done += 1


def refactoring_descend(form, point):
    """Reference: the descent loop as it was before the denominator's
    factorization was carried and its torus shortcut dropped, re-factoring
    current.t at every step."""
    m = point.m
    steps = []
    current = point

    def push(kind, data, after):
        nonlocal current
        steps.append(DescentStep(kind, data, current, after))
        current = after

    while current.t > 1:
        g = gcd(content(current.v), current.t)
        if g > 1:
            after = RationalPoint(tuple(x // g for x in current.v), current.t // g, m)
            push("trivial", {"g": g}, after)
            continue
        p = max(factorize(current.t))
        s = current.t // p
        if all(x % p == 0 for x in current.v):  # the torus shortcut
            push("torus", {"p": p}, RationalPoint(tuple(x // p for x in current.v), s, m))
            continue
        try:
            raw_v, i, t_r, z = adc._torus_reduce_full(
                form, current.v, p, cube_bound(form)
            )
        except ReductionUnavailable:
            if p == 2 and adc._is_builtin_ternary(form):
                push("divide4", {"p": 2}, RationalPoint(adc._halve(form, current.v), s, m))
                continue
            reps = representations(form, m)
            if reps:
                push("enumerate", {"p": p}, RationalPoint(reps[0], 1, m))
                continue
            break
        after = RationalPoint(tuple(x // i for x in raw_v), t_r * s, m)
        push("secant", {"p": p, "i": i, "z": z}, after)
    return DescentTrace(form.name or "?", point, tuple(steps), current)


def log_uniform_entry(rng, hi_exponent):
    """A signed integer with about log-uniform size in [1, 10^hi_exponent]."""
    bound = 10 ** rng.randint(0, hi_exponent)
    return rng.randint(-bound, bound)


def chord_points(form, rng, count, hi_exponent):
    """Seeded second chord intersections through small integer points."""
    points = []
    while len(points) < count:
        z = tuple(rng.randint(-4, 4) for _ in range(form.dim))
        d = tuple(log_uniform_entry(rng, hi_exponent) for _ in range(form.dim))
        got = secant_generated_point(form, z, d)
        if got is None or got[1] <= 1:
            continue
        points.append(rational_point(form, *got))
    return points


def rescaled(form, point, k):
    """The point (k v)/(k t): same value, content sharing k with the denominator."""
    return rational_point(form, tuple(k * x for x in point.v), k * point.t)


def f_residual_points(rng, count):
    """F points whose value F does not represent integrally: second chord
    intersections through the rational points (4,4,3,2)/2 (value 35) and
    (4,3,0,1)/7 (value 2), so the descent keeps a residual denominator."""
    bases = [((4, 4, 3, 2), 2), ((4, 3, 0, 1), 7)]
    points = []
    while len(points) < count:
        v0, t0 = bases[len(points) % 2]
        d = tuple(log_uniform_entry(rng, 4) for _ in range(4))
        qd = evaluate(F, d)
        if qd == 0:
            continue
        bvd = bilinear(F, v0, d)
        v = tuple(qd * x - 2 * bvd * di for x, di in zip(v0, d))
        points.append(rational_point(F, v, t0 * qd))
    return points


def test_carried_factorization_keeps_traces_identical():
    rng = SplitMix64(4)
    cases = []
    for form in (Q3, G):
        chords = chord_points(form, rng, 40, 11)
        cases += [(form, pt) for pt in chords]
        for pt in chords[:10]:
            small = sorted(factorize(pt.t))[:2]
            # content sharing a square and a second prime with t, and not
            cases.append((form, rescaled(form, pt, small[0] ** 2 * small[-1])))
            cases.append((form, rescaled(form, pt, 7**3 * 11)))
    cases += [(F, pt) for pt in chord_points(F, rng, 12, 5)]
    cases += [(F, pt) for pt in f_residual_points(rng, 12)]

    kinds = {"mid-trace trivial": 0, "enumerate": 0, "residual": 0}
    for form, pt in cases:
        trace = descend(form, pt)
        assert trace_to_dict(trace) == trace_to_dict(refactoring_descend(form, pt))
        assert verify_trace(form, trace)
        kinds["mid-trace trivial"] += any(s.kind == "trivial" for s in trace.steps[1:])
        kinds["enumerate"] += any(s.kind == "enumerate" for s in trace.steps)
        kinds["residual"] += trace.terminal.t > 1
    assert all(count > 0 for count in kinds.values()), kinds


def test_descend_audits_the_carried_factorization(monkeypatch):
    point = rational_point(G, (5, 9, 12), 10)
    monkeypatch.setattr(adc, "factorize", lambda n: {5: 1} if n == 10 else factorize(n))
    with pytest.raises(AssertionError, match="carried factorization"):
        descend(G, point)


def test_verify_trace_rejects_tampering():
    trace = descend(G, rational_point(G, (5, 9, 12), 10))
    bad_terminal = DescentTrace(
        trace.form_name,
        trace.start,
        trace.steps,
        rational_point(G, (2, 1, 0), 1),  # value 7 but breaks chaining
    )
    assert not verify_trace(G, bad_terminal)
    no_steps = DescentTrace(trace.form_name, trace.start, (), trace.terminal)
    assert not verify_trace(G, no_steps)


def test_trace_serialization_round_trip():
    trace = descend(G, rational_point(G, (5, 9, 12), 10))
    payload = trace_to_dict(trace)
    blob = json.dumps(payload)
    back = trace_from_dict(json.loads(blob))
    assert back == trace
    assert verify_trace(G, back)


# --- adc_check ---


def test_adc_check_toy_counterexample():
    four_x_squared = QuadraticForm(1, ((4,),))
    assert adc_check(four_x_squared, 10) == [1, 9]


def test_adc_check_ternary_forms_clean_small():
    assert adc_check(Q3, 300) == []
    assert adc_check(G, 300) == []


@pytest.mark.parametrize(
    "gram",
    [((1, 0, 0), (0, -1, 0), (0, 0, 3)), ((2, 3), (3, 2)), ((-4,),)],
)
def test_adc_check_rejects_indefinite_forms(gram):
    form = QuadraticForm(len(gram), gram)
    with pytest.raises(ValueError, match="^adc_check requires a positive definite form$"):
        adc_check(form, 50)
