"""Acceptance suite: fourteen headline checks at full scale.

Each test prints one [PASS] line with the measured numbers after its
assertions hold. Timed checks assert their wall-clock budgets. Dimension
formula comparisons are emitted with flags and do not gate.
"""

import json
import time
from fractions import Fraction

from hassettmax import adc
from hassettmax.adc import (
    adc_check,
    cube_bound,
    descend,
    rational_point,
    verify_trace,
)
from hassettmax.arith import SplitMix64, is_prime
from hassettmax.cli import main as cli_main
from hassettmax.geometry import (
    alpha_beta,
    cubics_through,
    dims_report,
    gram_from_geometry,
    intersection_profile,
    restriction_matrix,
    standard_config,
)
from hassettmax.hassett_rep import (
    check_k_properties,
    choose_branch,
    in_hassett,
    k_value,
    represent,
    verify_certificate,
)
from hassettmax.lattices import (
    apply_basis_change,
    gram_M,
    induced_form_F,
    is_unimodular,
    isometry_to,
)
from hassettmax.local_global import certify_global, verify_report
from hassettmax.qforms import builtin_form, evaluate, integer_image_upto, primitive_image

F = builtin_form("F")
Q3 = builtin_form("Q3")
G = builtin_form("G")


def chord_point(form, rng, entry_bound):
    """Seeded rational solution: the second chord intersection through an
    integer point z in direction d, with denominator Q(d)."""
    dim = len(form.gram)
    z = tuple(rng.randint(-4, 4) for _ in range(dim))
    d = tuple(rng.randint(-entry_bound, entry_bound) for _ in range(dim))
    t = evaluate(form, d)
    if t <= 1:
        return None
    w = sum(
        form.gram[i][j] * z[i] * d[j] for i in range(dim) for j in range(dim)
    )
    v = tuple(t * zi - 2 * w * di for zi, di in zip(z, d))
    return rational_point(form, v, t), evaluate(form, z)


def test_01_primitive_image_equality():
    t0 = time.monotonic()
    image = primitive_image(F, 1000)
    elapsed = time.monotonic() - t0
    expected = [n for n in range(8, 1001) if n % 6 in (0, 2)]
    assert image == expected
    assert elapsed < 60
    print(f"[PASS] 1: primitive image up to 1000 has {len(image)} values "
          f"and equals the admissible set ({elapsed:.1f}s)")


def test_02_constructive_coverage():
    t0 = time.monotonic()
    count = 0
    for n in range(8, 50001):
        if not in_hassett(n):
            continue
        cert = represent(n)
        assert verify_certificate(cert), n
        count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    print(f"[PASS] 2: {count} certificates up to n = 50000 all verify ({elapsed:.1f}s)")


def test_03_special_vectors():
    assert evaluate(F, (1, 0, -1, 0)) == 24
    assert evaluate(F, (0, 1, -2, 1)) == 42
    assert evaluate(F, (1, 3, -1, 0)) == 60
    print("[PASS] 3: special vectors evaluate to 24, 42, 60")


def test_04_adc_verification():
    t0 = time.monotonic()
    assert adc_check(Q3, 5000) == []
    assert adc_check(G, 5000) == []
    assert adc_check(Q3, 10**5) == adc_check(G, 10**5) == []
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(f"[PASS] 4: no ADC violations for Q3 or G up to 100000 ({elapsed:.1f}s)")


def test_04b_adc_verification_to_a_million():
    t0 = time.monotonic()
    assert adc_check(Q3, 10**6) == adc_check(G, 10**6) == []
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    print(f"[PASS] 4b: no ADC violations for Q3 or G up to 1000000 ({elapsed:.1f}s)")


def test_05_descent_soundness():
    # chord construction through small integer solutions; den cap ~1e9
    entry_bound = {"Q3": 14000, "G": 11900}
    fallbacks = {"torus": 0, "enumerate": 0}
    max_den = kept = 0
    for name in ("Q3", "G"):
        form = builtin_form(name)
        rng = SplitMix64(31337)
        done = 0
        while done < 1000:
            pt = chord_point(form, rng, entry_bound[name])
            if pt is None:
                continue
            point, m = pt
            trace = descend(form, point)
            assert verify_trace(form, trace)
            assert trace.terminal.t == 1
            assert trace.terminal.m == m
            for step in trace.steps:
                if step.kind == "secant":
                    assert step.after.t < step.before.t
                if step.kind in fallbacks:
                    fallbacks[step.kind] += 1
            max_den = max(max_den, point.t)
            done += 1
        kept += done
    print(f"[PASS] 5: {kept} descents reached denominator 1 (max start "
          f"{max_den}); fallback steps used: {fallbacks}")


def test_06_torus_reduction_guarantee():
    from hassettmax.local_global import sqrt_mod_pk

    rng = SplitMix64(2718)
    primes = [p for p in range(29, 1000) if is_prime(p)]
    done = 0
    while done < 200:
        p = primes[rng.randint(0, len(primes) - 1)]
        p2 = p * p
        v1 = rng.randint(1, p2 - 1)
        v2 = rng.randint(1, p2 - 1)
        target = (-(v1 * v1 + v2 * v2) * pow(3, -1, p2)) % p2
        if target % p == 0:
            continue
        try:
            v3 = sqrt_mod_pk(target, p, 2)
        except ValueError:
            continue
        v = (v1, v2, v3)
        q = evaluate(Q3, v)
        assert q % p2 == 0
        after, i, _ = adc._torus_reduce_full(Q3, rational_point(Q3, v, p), p, cube_bound(Q3))
        assert 0 < i < p and 0 < after.t < p
        assert after.m == q // p2
        assert evaluate(Q3, after.v) == after.m * after.t**2
        done += 1
    print(f"[PASS] 6: 200 torus reductions succeeded with 0 < i, t < p "
          f"and exact value preservation")


def test_07_forced_divisibility_and_3g_reduction():
    checked = 0
    for a in range(-60, 61):
        for b in range(-60, 61):
            for c in range(-60, 61):
                q = a * a + b * b + 3 * c * c
                if q % 3:
                    continue
                assert a % 3 == 0 and b % 3 == 0, (a, b, c)
                assert 3 * evaluate(G, (c, a // 3, b // 3)) == q
                checked += 1
    print(f"[PASS] 7: 3 | Q3 forces 3 | a, 3 | b on {checked} triples; "
          f"G(c, a/3, b/3) = Q3(a, b, c)/3")


def test_08_local_certificates():
    ks = sorted(k_value(n, choose_branch(n).u) for n in range(8, 601)
                if in_hassett(n) and choose_branch(n).kind != "special")
    ks = [k for k in ks if k <= 4000]
    assert ks[0] == 7 and len(ks) > 100
    for k in ks:
        report = certify_global(k)
        assert report.overall == "solvable", k
        assert verify_report(report)
        for cert in report.certificates:
            if cert.place == "real":
                assert cert.witness is None and k > 0
            else:
                p = int(cert.place)
                mod = p**cert.precision
                assert (evaluate(G, cert.witness) - k) % mod == 0
    print(f"[PASS] 8: all {len(ks)} target values k <= 4000 certified "
          f"solvable with replayed congruences")


def test_09_k_properties():
    count = 0
    for n in range(8, 50001):
        if not in_hassett(n):
            continue
        branch = choose_branch(n)
        if branch.kind == "special":
            continue
        k = k_value(n, branch.u)
        assert check_k_properties(k) == (True, True, True, True), (n, k)
        count += 1
    print(f"[PASS] 9: all four k-properties hold for {count} values of n <= 50000")


def test_10_image_identity():
    limit = 5000
    odd_values = set()
    bound = int(limit**0.5) + 1
    for x in range(1, bound + 1, 2):
        for y in range(1, bound + 1, 2):
            for z in range(1, bound + 1, 2):
                q = x * x + 3 * y * y + 3 * z * z
                if q <= limit:
                    odd_values.add(q)
    target_class = {n for n in integer_image_upto(G, limit) if n % 8 == 7}
    assert odd_values == target_class
    print(f"[PASS] 10: G at odd triples and the 7 mod 8 slice of its image "
          f"agree on {len(odd_values)} values up to {limit}")


def test_11_lattice_isometries():
    for alpha in (0, 1):
        for beta in (0, 1):
            change = isometry_to((0, 0), (alpha, beta))
            assert is_unimodular(change)
            transformed = apply_basis_change(gram_M(0, 0), change)
            assert transformed == gram_M(alpha, beta).entries
    assert induced_form_F().gram == F.gram
    print("[PASS] 11: unimodular congruences reach all four Gram variants; "
          "the induced quaternary form equals F")


def test_12_form_identity():
    def expanded(x, y, z, u):
        return (8 * x * x + 8 * y * y + 8 * z * z + 8 * u * u
                - 8 * x * y - 8 * x * z + 4 * y * z
                - 2 * u * x - 2 * u * y - 2 * u * z)

    def diagonalized_times8(x, y, z, u):
        return ((8 * x - 4 * y - 4 * z - u) ** 2
                + 3 * (4 * y - u) ** 2 + 3 * (4 * z - u) ** 2
                + 57 * u * u)

    for x in range(-8, 9):
        for y in range(-8, 9):
            for z in range(-8, 9):
                for u in range(-8, 9):
                    v = (x, y, z, u)
                    q = evaluate(F, v)
                    assert q == expanded(*v)
                    assert 8 * q == diagonalized_times8(*v)
    # F(x/2, y, z, u) has integer coefficients, so its parity depends only on
    # the coordinates mod 2; the box holds every class many times over
    for x in range(-5, 6):
        for y in range(-5, 6):
            for z in range(-5, 6):
                for u in range(-5, 6):
                    assert (evaluate(F, (Fraction(x, 2), y, z, u)) - x * u) % 2 == 0
    print("[PASS] 12: both presentations of F agree on the |coords| <= 8 box; "
          "the halved form is congruent to xu mod 2 on |coords| <= 5")


def test_13_geometry_oracle_agreement():
    t0 = time.monotonic()
    lines = []
    for a, b in ((1, 1), (1, 0), (0, 1), (0, 0)):
        config = standard_config(a, b)
        assert intersection_profile(config, 1, 2) == "line"
        assert intersection_profile(config, 1, 3) == "line"
        assert intersection_profile(config, 1, 4) == "empty"
        assert intersection_profile(config, 2, 3) == "point"
        assert gram_from_geometry(config) == gram_M(*alpha_beta(config))
        rows = restriction_matrix(config)  # the four planes' restrictions
        for cubic in cubics_through(config):
            assert all(sum(c * x for c, x in zip(cubic.coeffs, row)) == 0 for row in rows)
        report = dims_report(config)
        assert report["methods_agree"] is True
        lines.append(
            f"  (a,b)=({a},{b}): fiber {report['fiber_dim']} "
            f"(formula {report['fiber_formula']}, match={report['fiber_matches']}), "
            f"orbit {report['orbit_dim']} "
            f"(formula {report['orbit_formula']}, match={report['orbit_matches']}), "
            f"total {report['total']} (match={report['total_matches']})"
        )
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    print(f"[PASS] 13: both rank oracles agree for all four configurations "
          f"({elapsed:.1f}s); recorded formula comparisons:")
    for line in lines:
        print(line)


def test_14_cli_integration(capsys, tmp_path):
    code = cli_main(["hassett", "verify", "--max", "120", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["checked"] == [
        str(n) for n in range(8, 121) if n % 6 in (0, 2)
    ]

    code = cli_main(["hassett", "represent", "10"])
    err = capsys.readouterr().err
    assert code == 1
    assert "4 (mod 6)" in err

    code = cli_main(["lattice", "gram", "--alpha", "0", "--beta", "1"])
    out = capsys.readouterr().out
    assert code == 0 and "alpha = 0" in out

    emitters = [
        (["hassett", "represent", "7986", "--json"],
         ["hassett", "represent", "--verify-file"]),
        (["adc", "descend", "--form", "g", "--num", "5,9,12", "--den", "10",
          "--json"],
         ["adc", "descend", "--verify-file"]),
        (["local", "certify", "--k", "3943", "--json"],
         ["local", "certify", "--verify-file"]),
        (["geometry", "cubic", "--a", "0", "--b", "1", "--seed", "5", "--json"],
         ["geometry", "cubic", "--verify-file"]),
    ]
    for idx, (emit_args, verify_args) in enumerate(emitters):
        assert cli_main(emit_args) == 0
        blob = capsys.readouterr().out
        path = tmp_path / f"payload{idx}.json"
        path.write_text(blob)
        assert cli_main(verify_args + [str(path)]) == 0
        assert "valid" in capsys.readouterr().out
    print("[PASS] 14: the three stated invocations return their exit codes; "
          "all four JSON emitters re-verify from files")
