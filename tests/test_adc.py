"""Descent machinery: secant steps, torus reduction, halving, full traces.

Rational test points are generated by the secant parametrization: for an
integer solution z of Q = m and any direction d, the second intersection
of the line z + s*d with the quadric is rational with denominator Q(d).
"""

import hashlib
import itertools
import json
import re
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.solvers.diophantine.diophantine import cornacchia

from hassettmax import adc, local_global
from hassettmax.adc import (
    DescentStep,
    DescentTrace,
    RationalPoint,
    adc_check,
    cube_bound,
    cube_sup,
    descend,
    rational_point,
    trace_from_dict,
    trace_to_dict,
    verify_trace,
)
from hassettmax.arith import SplitMix64, factorize, is_prime
from hassettmax.local_global import sqrt_mod_pk
from hassettmax.qforms import (
    QuadraticForm,
    builtin_form,
    evaluate,
    integer_image_upto,
)

Q3 = builtin_form("Q3")
G = builtin_form("G")
F = builtin_form("F")


def polar(form, v, w):
    """B(v, w) by polarization: (Q(v + w) - Q(v) - Q(w)) / 2."""
    s = tuple(a + b for a, b in zip(v, w))
    return (evaluate(form, s) - evaluate(form, v) - evaluate(form, w)) // 2


def secant(form, point, z):
    """adc._secant through the integer point z, with the num = Q(v - t z)
    that the torus scan would hand it."""
    num = evaluate(form, tuple(x - point.t * zi for x, zi in zip(point.v, z)))
    return adc._secant(form, point, z, num)


def secant_generated_point(form, z, d):
    """Second intersection of the line through integer solution z along d."""
    qd = evaluate(form, d)
    if qd == 0:
        return None
    bzd = polar(form, z, d)
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


@pytest.mark.parametrize("v, t", [((Fraction(7, 2), 2.9, 0), 1), ((3.0, 4, 5), 5),
                                  ((Fraction(3), 4, 5), 5), ((3, 4, 5), 5.0)])
def test_rational_point_refuses_non_ints(v, t):
    # int() would read (7/2, 2.9, 0) as (3, 2, 0), a point nobody gave descend
    with pytest.raises(TypeError):
        rational_point(Q3, v, t)


# --- secant step ---


def test_secant_worked_examples():
    out = secant(Q3, rational_point(Q3, (3, 4, 5), 5), (1, 1, 1))
    assert (out.v, out.t, out.m) == ((-1, 0, 1), 1, 4)
    out2 = secant(Q3, rational_point(Q3, (7, 1, 0), 5), (1, 0, 0))
    assert (out2.v, out2.t, out2.m) == ((-1, -1, 0), 1, 2)


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
        out = adc._secant(Q3, pt, z, diff_val)
        assert out.t < pt.t
        assert evaluate(Q3, out.v) == out.m * out.t * out.t
        assert out.m == pt.m


# --- torus reduction ---


def test_torus_worked_example():
    point = rational_point(Q3, (21, 20, 0), 29)
    after, i, z = adc._torus_reduce_full(Q3, point, 29, cube_bound(Q3))
    assert (after, i, z) == (RationalPoint((-3, -4, 0), 5, 1), 1, (1, 1, 0))


def test_torus_requires_p_squared_divisibility():
    with pytest.raises(ValueError):
        rational_point(Q3, (1, 0, 0), 5)


def test_torus_shortcut_when_p_divides_v():
    # v/p is a trivial step, which descend takes before any torus step
    trace = descend(Q3, rational_point(Q3, (5, 10, 0), 5))
    assert [(s.kind, s.data) for s in trace.steps] == [("trivial", {"g": 5})]
    assert trace.terminal == RationalPoint((1, 2, 0), 1, 5)


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
        after, i, _ = adc._torus_reduce_full(Q3, rational_point(Q3, v, p), p, cube_bound(Q3))
        assert 0 < i < p and 0 < after.t < p
        assert after.m == q // (p * p)
        assert evaluate(Q3, after.v) == after.m * after.t**2
        done += 1
    assert done >= 20


def lift_to_p_squared(form, v, p):
    """v + p*u with p^2 | Q for a diagonal ternary form and odd p, or None
    when there is none: if no c_j v_j is a unit mod p, every lift of v has
    the value of v mod p^2."""
    coeffs = [form.gram[j][j] for j in range(3)]
    j = next((j for j in range(3) if coeffs[j] * v[j] % p), None)
    if j is None:
        return tuple(v) if evaluate(form, v) % (p * p) == 0 else None
    lift = list(v)
    lift[j] += p * (-(evaluate(form, v) // p) * pow(2 * coeffs[j] * v[j], -1, p) % p)
    assert evaluate(form, lift) % (p * p) == 0
    return tuple(lift)


def test_small_odd_primes_always_have_a_torus_step():
    # descend raises AssertionError when _torus_reduce_full finds no multiple
    # i at an odd prime. Its test reads v mod p alone, and after the trivial
    # steps v is nonzero mod p. So checking every such class v with p | Q(v)
    # at the odd primes up to 23 shows that raise is unreachable for Q3 and G:
    # above 27 = cube_bound the pigeonhole bound gives an i, and p = 2 is
    # divide4.
    for form in (Q3, G):
        bound = cube_bound(form)
        assert bound == 27
        classes = lifted = 0
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            for v in itertools.product(range(p), repeat=3):
                if v == (0, 0, 0) or evaluate(form, v) % p:
                    continue
                classes += 1
                assert any(
                    0 < evaluate(form, [adc._centered_residue(i * x, p) for x in v]) < p * p
                    for i in range(1, min(p - 1, bound) + 1)
                ), (form.name, p, v)
                lift = lift_to_p_squared(form, v, p)
                if lift is not None:  # a state descend can meet: run its step
                    lifted += 1
                    adc._torus_reduce_full(form, rational_point(form, lift, p), p, bound)
        # the classes with no lift are (0, 0, z) for Q3 and (0, y, z) for G at p = 3
        assert (classes, lifted) == {"Q3": (1538, 1536), "G": (1544, 1536)}[form.name]


# --- halving and 3G reduction ---


def test_divide_by_4_frozen():
    assert adc._halve(Q3, (1, 0, 1)) == (1, 0, 0)


def test_divide_by_4_sweep():
    for x in range(-6, 7):
        for y in range(-6, 7):
            for z in range(-6, 7):
                q = x * x + y * y + 3 * z * z
                if q % 4 == 0 and q > 0:
                    w = adc._halve(Q3, (x, y, z))
                    assert evaluate(Q3, w) * 4 == q


def test_divide_by_4_requires_multiple_of_4():
    with pytest.raises(ValueError):
        adc._halve(Q3, (1, 0, 0))


def test_halve_audits_its_value(monkeypatch):
    monkeypatch.setattr(adc, "_halve_pair", lambda x, z: (x, z))
    with pytest.raises(AssertionError, match="halving lost the certified value"):
        adc._halve(Q3, (1, 0, 1))


def test_reduce_3g_frozen():
    # 3 | Q3(a, b, c) forces 3 | a and 3 | b, and G(c, a/3, b/3) = Q3(a, b, c)/3
    assert evaluate(Q3, (3, 3, 1)) == 3 * evaluate(G, (1, 1, 1)) == 21
    assert evaluate(Q3, (0, 3, 0)) == 3 * evaluate(G, (0, 0, 1)) == 9


def test_reduce_3g_sweep_and_forced_divisibility():
    for a in range(-20, 21):
        for b in range(-20, 21):
            for c in range(-20, 21):
                q = a * a + b * b + 3 * c * c
                if q % 3 == 0:
                    assert a % 3 == 0 and b % 3 == 0
                    assert evaluate(G, (c, a // 3, b // 3)) * 3 == q


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


def test_descend_serves_q3_and_g_only():
    # refused before the point is read: none of these satisfies Q(v/t) = m
    for form in (F, diagonal_form(1, 1, 1), diagonal_form(1, 1, 3, 3)):
        with pytest.raises(ValueError, match="^descend serves Q3 and G only$"):
            descend(form, RationalPoint((1,) * form.dim, 2, 1))
    # the Gram matrix decides, not the name
    point = rational_point(Q3, (3, 4, 5), 5)
    trace, named = descend(QuadraticForm(3, Q3.gram), point), descend(Q3, point)
    assert trace.form_name == "?"
    assert (trace.steps, trace.terminal) == (named.steps, named.terminal)


def test_descend_asserts_a_torus_multiple_at_odd_primes(monkeypatch):
    real = adc._torus_reduce_full

    def even_only(form, point, p, bound):
        return None if p % 2 else real(form, point, p, bound)

    monkeypatch.setattr(adc, "_torus_reduce_full", even_only)
    with pytest.raises(AssertionError, match="^no torus multiple for the odd prime 5$"):
        descend(G, rational_point(G, (5, 9, 12), 10))


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
        g = gcd(*current.v, current.t)
        if g > 1:
            after = RationalPoint(tuple(x // g for x in current.v), current.t // g, m)
            push("trivial", {"g": g}, after)
            continue
        p = max(factorize(current.t))
        s = current.t // p
        if all(x % p == 0 for x in current.v):  # the torus shortcut
            push("torus", {"p": p}, RationalPoint(tuple(x // p for x in current.v), s, m))
            continue
        reduced = adc._torus_reduce_full(form, current, p, cube_bound(form))
        if reduced is None:
            assert p == 2
            push("divide4", {"p": 2}, RationalPoint(adc._halve(form, current.v), s, m))
            continue
        after, i, z = reduced
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

    mid_trace_trivial = 0
    for form, pt in cases:
        trace = descend(form, pt)
        assert trace_to_dict(trace) == trace_to_dict(refactoring_descend(form, pt))
        assert verify_trace(form, trace)
        mid_trace_trivial += any(s.kind == "trivial" for s in trace.steps[1:])
    assert mid_trace_trivial > 0


def test_descend_audits_the_carried_factorization(monkeypatch):
    point = rational_point(G, (5, 9, 12), 10)
    monkeypatch.setattr(adc, "factorize", lambda n: {5: 1} if n == 10 else factorize(n))
    with pytest.raises(AssertionError, match="carried factorization"):
        descend(G, point)


def test_descend_factors_once_plus_once_per_secant_step(monkeypatch):
    rng = SplitMix64(5)
    cases = [(form, pt) for form in (Q3, G) for pt in chord_points(form, rng, 20, 11)]
    cases.append((Q3, rational_point(Q3, (5, 10, 0), 5)))  # trivial steps only
    calls = []
    monkeypatch.setattr(adc, "factorize", lambda n: calls.append(n) or factorize(n))
    seen = set()
    for form, pt in cases:
        calls.clear()
        trace = descend(form, pt)
        kinds = [s.kind for s in trace.steps]
        # the first reduction is any step but a trivial one
        reduced = any(k != "trivial" for k in kinds)
        assert len(calls) == reduced + kinds.count("secant"), (form.name, pt, kinds)
        seen.update(kinds)
    assert seen == {"trivial", "secant", "divide4"}


def semiprime_chord_point(form, bits_p, bits_q):
    """A chord point whose denominator Q(d) = p q, p and q the first primes
    from 2^bits that Q3 (p = 1 mod 4) or G (p = 1 mod 3) represents."""
    modulus = 4 if form is Q3 else 3

    def prime_from(bits):
        r = sympy.nextprime(2**bits)
        while r % modulus != 1:
            r = sympy.nextprime(r)
        return r

    p, q = prime_from(bits_p), prime_from(bits_q)
    a, b = min(cornacchia(1, form.gram[1][1], p * q))
    v, t = secant_generated_point(form, (1, 1, 1), (a, b, 0))
    assert t == p * q
    return rational_point(form, v, t)


# length and sha256 of the canonical JSON of every trace below: how
# factorize finds the primes of a denominator must not move a byte
FROZEN_TRACES = (1703300, "417c3d8c7b09a66a388518b1867bc71390681e8aa62566aea2a14aad9199722c")


def test_descend_traces_are_frozen():
    rng = SplitMix64(28)
    cases = [(form, pt) for form in (Q3, G) for pt in chord_points(form, rng, 150, 11)]
    # Pollard rho's tail: two primes of 30 to 37 bits and nothing smaller
    cases += [(form, semiprime_chord_point(form, *bits))
              for form in (Q3, G) for bits in ((30, 31), (33, 35), (36, 37))]
    traces = [trace_to_dict(descend(form, pt)) for form, pt in cases]
    blob = json.dumps(traces, sort_keys=True, separators=(",", ":")).encode()
    assert (len(blob), hashlib.sha256(blob).hexdigest()) == FROZEN_TRACES


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


def test_verify_trace_rejects_steps_that_keep_the_denominator():
    trace = descend(G, rational_point(G, (5, 9, 12), 10))
    start = trace.start
    bogus = DescentStep("bogus", {}, start, start)
    padded = DescentTrace(trace.form_name, start, (bogus,) + trace.steps, trace.terminal)
    assert not verify_trace(G, padded)
    negated = RationalPoint(tuple(-x for x in start.v), start.t, start.m)
    idle = DescentStep("trivial", {"g": 1}, start, negated)
    assert not verify_trace(G, DescentTrace(trace.form_name, start, (idle,), negated))
    # a real step under a kind descend never emits
    first = trace.steps[0]
    for kind in ("torus", "enumerate"):
        step = DescentStep(kind, first.data, first.before, first.after)
        relabeled = DescentTrace(trace.form_name, start, (step,) + trace.steps[1:], trace.terminal)
        assert not verify_trace(G, relabeled)
    assert verify_trace(G, trace)


def test_trace_serialization_round_trip():
    trace = descend(G, rational_point(G, (5, 9, 12), 10))
    payload = trace_to_dict(trace)
    blob = json.dumps(payload)
    back = trace_from_dict(json.loads(blob))
    assert back == trace
    assert verify_trace(G, back)


def _g_trace_payload():
    return json.loads(json.dumps(trace_to_dict(descend(G, rational_point(G, (5, 9, 12), 10)))))


@pytest.mark.parametrize("path, value", [
    (("start", "t"), " 10\n"), (("start", "t"), "010"), (("start", "t"), 10),
    (("start", "m"), "+7"), (("start", "v", 0), "5.0"), (("start", "v"), "5912"),
    (("steps", 0, "after", "t"), "0_5"), (("steps", 1, "before", "v", 2), True),
    (("steps", 0, "data", "p"), "05"), (("steps", 0, "data", "z"), ["1", " 0", "0"]),
    (("terminal", "t"), "01"), (("terminal", "v"), "210"),
    (("steps",), {}), (("steps",), ""),  # each once read as 0 steps
], ids=repr)
def test_trace_from_dict_refuses_noncanonical_ints(path, value):
    # each forged field is equal in value to the honest one, or was read so
    payload = _g_trace_payload()
    assert verify_trace(G, trace_from_dict(payload))
    *parents, key = path
    node = payload
    for step in parents:
        node = node[step]
    node[key] = value
    with pytest.raises((ValueError, TypeError)):
        trace_from_dict(payload)


@pytest.mark.parametrize("path, value", [
    (("form",), "F"),
    (("start", "v"), ["5", "9"]),
    (("steps", 0, "after", "v"), ["1", "2"]),
    (("steps", 1, "before", "v"), ["1", "2"]),  # no longer the point before it: decoded
    (("terminal", "v"), ["-2", "1"]),
], ids=repr)
def test_trace_from_dict_refuses_other_forms_and_dimensions(path, value):
    # each once decoded, and then made verify_trace raise instead of return False
    payload = _g_trace_payload()
    *parents, key = path
    node = payload
    for step in parents:
        node = node[step]
    node[key] = value
    message = f"not a trace of Q3 or G in 3 coordinates: {payload['form']!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        trace_from_dict(payload)


def test_verify_trace_needs_an_integer_terminal():
    # an honest trace cut before any of its steps, ending at the point reached
    trace = descend(G, rational_point(G, (5, 9, 12), 10))
    assert verify_trace(G, trace) and len(trace.steps) == 3
    for n in range(len(trace.steps)):
        last = trace.steps[n - 1].after if n else trace.start
        cut = DescentTrace(trace.form_name, trace.start, trace.steps[:n], last)
        assert last.t > 1 and not verify_trace(G, trace_from_dict(trace_to_dict(cut)))


def test_trace_from_dict_decodes_each_point_once(monkeypatch):
    payload = _g_trace_payload()
    decoded = []
    real = adc._point_from_dict
    monkeypatch.setattr(adc, "_point_from_dict", lambda d: decoded.append(d) or real(d))
    trace = trace_from_dict(payload)
    # the start and each step's after; every before and the terminal reused
    assert decoded == [payload["start"]] + [s["after"] for s in payload["steps"]]
    points = [trace.start] + [s.after for s in trace.steps]
    assert all(s.before is prev for s, prev in zip(trace.steps, points))
    assert trace.terminal is points[-1]
    assert trace == descend(G, rational_point(G, (5, 9, 12), 10))


def test_trace_from_dict_decodes_a_point_that_breaks_the_chain():
    # a before or terminal not written as the point before it is decoded
    # on its own, and the replay rejects the broken chain
    honest = trace_from_dict(_g_trace_payload())
    for path in (("steps", 1, "before"), ("terminal",)):
        payload = _g_trace_payload()
        node = payload
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = {"v": ["2", "1", "0"], "t": "1", "m": "7"}
        trace = trace_from_dict(payload)
        assert trace != honest and not verify_trace(G, trace)
        node[path[-1]]["t"] = " 1"
        with pytest.raises(ValueError):
            trace_from_dict(payload)


# --- adc_check ---


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


@pytest.mark.parametrize("n_max", [0, -1, -10**6])
def test_adc_check_empty_range(n_max):
    for form in (Q3, G, diagonal_form(2, 3, 5)):
        assert adc_check(form, n_max) == []


def test_adc_check_decides_diagonal_ternary_forms_only():
    # x^2 + 2xy + 5y^2 = (x + y)^2 + 4y^2
    for form in (F, QuadraticForm(2, ((1, 1), (1, 5))), QuadraticForm(1, ((4,),)),
                 QuadraticForm(3, ((2, 1, 0), (1, 2, 0), (0, 0, 1)))):
        with pytest.raises(ValueError, match="^adc_check decides diagonal ternary forms only$"):
            adc_check(form, 50)


# --- adc_check against the per-n loop it replaced ---


def reference_adc_check(form, n_max):
    """The image as a set, then every n in [1, n_max] outside it tested
    with the per-n rational test of a diagonal ternary form."""
    image = integer_image_upto(form, n_max)
    diag = tuple(form.gram[i][i] for i in range(3))
    return [
        n
        for n in range(1, n_max + 1)
        if n not in image and local_global.rationally_representable_ternary(diag, n)
    ]


def diagonal_form(*coeffs):
    return QuadraticForm(
        len(coeffs),
        tuple(tuple(c if i == j else 0 for j in range(len(coeffs))) for i, c in enumerate(coeffs)),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.tuples(*[st.integers(1, 12)] * 3), st.integers(0, 1500))
@example((1, 1, 3), 1500)
@example((5, 7, 11), 1500)
def test_adc_check_matches_reference_loop_on_diagonal_ternary_forms(coeffs, n_max):
    # most of these forms are not ADC, so the violation lists are nonempty
    form = diagonal_form(*coeffs)
    assert adc_check(form, n_max) == reference_adc_check(form, n_max)
