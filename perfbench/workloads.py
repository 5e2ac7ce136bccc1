"""The four benchmark workloads: seeded inputs, one op, its audit and its reference check.

Each workload is a closed loop with one client. An op is produced by the
library, serialised to canonical JSON, then decoded and checked by the
program's own verifier before the next input is sent. The reference checks
are independent of the library and run outside the timed region.

Inputs come from ``random.Random`` seeded with the workload name and the
seed, so the same seed gives the same stream. Size parameters are drawn
through ``_Strata``: every block of draws covers each slice of [0, 1) once,
which keeps the size mix of a run close to the stated distribution and so
keeps run-to-run spread down without changing that distribution.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd, isqrt

EDGE_MEMBERS = (8, 14, 24, 42, 60, 78)  # 24, 42, 60 special; 78 is the first u = -3 member

_GRAMS = {
    "Q3": ((1, 0, 0), (0, 1, 0), (0, 0, 3)),
    "G": ((1, 0, 0), (0, 3, 0), (0, 0, 3)),
}
_DIAG = {"Q3": (1, 1, 3), "G": (1, 3, 3)}


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class _Strata:
    """Stratified uniforms on [0, 1): each block of ``size`` draws hits every
    1/size slice once, in shuffled order."""

    def __init__(self, rng: random.Random, size: int = 32):
        self.rng = rng
        self.size = size
        self.pending: list[float] = []

    def draw(self) -> float:
        if not self.pending:
            order = list(range(self.size))
            self.rng.shuffle(order)
            self.pending = [(i + self.rng.random()) / self.size for i in order]
        return self.pending.pop()


def _log_uniform(u: float, lo: float, hi: float) -> int:
    return int(lo * (hi / lo) ** u)


def _with_residue(n: int, modulus: int, residue: int, lo: int) -> int:
    """The largest integer = residue mod modulus that is at most n, moved up
    by one modulus when it falls below lo."""
    n -= (n - residue) % modulus
    return n + modulus if n < lo else n


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _shuffled_blocks(rng: random.Random, block: list):
    while True:
        kinds = list(block)
        rng.shuffle(kinds)
        yield from kinds


# --- independent arithmetic for the reference checks ---


def _qform(gram, v) -> int:
    n = len(v)
    return sum(gram[i][j] * v[i] * v[j] for i in range(n) for j in range(n))


def _diag_reps(coeffs, n: int) -> list[tuple[int, int, int]]:
    """All (x, y, z) with a x^2 + b y^2 + c z^2 = n, a = 1, by direct loops."""
    a, b, c = coeffs
    out = []
    z = 0
    while c * z * z <= n:
        y = 0
        while c * z * z + b * y * y <= n:
            rest = n - c * z * z - b * y * y
            x = isqrt(rest)
            if x * x == rest:
                for sx in {x, -x}:
                    for sy in {y, -y}:
                        for sz in {z, -z}:
                            out.append((sx, sy, sz))
            y += 1
        z += 1
    return sorted(out)


def _f_reps(n: int) -> list[tuple[int, int, int, int]]:
    """All integer v with F(v) = n, from the identity
    8F = (8x-4y-4z-u)^2 + 3(4y-u)^2 + 3(4z-u)^2 + 57u^2."""
    total = 8 * n
    out = set()
    u_max = isqrt(total // 57)
    for u in range(-u_max, u_max + 1):
        r1 = total - 57 * u * u
        y_lim = (isqrt(r1 // 3) + abs(u)) // 4 + 1
        for y in range(-y_lim, y_lim + 1):
            r2 = r1 - 3 * (4 * y - u) ** 2
            if r2 < 0:
                continue
            z_lim = (isqrt(r2 // 3) + abs(u)) // 4 + 1
            for z in range(-z_lim, z_lim + 1):
                r3 = r2 - 3 * (4 * z - u) ** 2
                if r3 < 0:
                    continue
                s = isqrt(r3)
                if s * s != r3:
                    continue
                for a in (s, -s):
                    num = a + 4 * y + 4 * z + u
                    if num % 8 == 0:
                        out.add((num // 8, y, z, u))
    return sorted(out)


def _f_value(v) -> int:
    x, y, z, u = v
    return ((8 * x - 4 * y - 4 * z - u) ** 2 + 3 * (4 * y - u) ** 2
            + 3 * (4 * z - u) ** 2 + 57 * u * u) // 8


def _hassett_upto(n_max: int) -> list[int]:
    return [n for n in range(8, n_max + 1) if n % 6 in (0, 2)]


# --- workloads ---


class Descent:
    """Q3 and G alternate; each input is a chord point with direction
    entries log-uniform in [1e6, 1e11]."""

    name = "descent"
    trace_ops = 600

    def inputs(self, seed: int):
        rng = _rng(self.name, seed)
        sizes = _Strata(rng)
        i = 0
        while True:
            form = "Q3" if i % 2 == 0 else "G"
            gram = _GRAMS[form]
            bound = _log_uniform(sizes.draw(), 1e6, 1e11)
            z = tuple(rng.randint(-4, 4) for _ in range(3))
            d = tuple(rng.randint(-bound, bound) for _ in range(3))
            t = _qform(gram, d)
            if t <= 1:
                continue
            w = sum(gram[a][b] * z[a] * d[b] for a in range(3) for b in range(3))
            v = tuple(t * zi - 2 * w * di for zi, di in zip(z, d))
            yield ("descend", form, v, t)
            i += 1

    def produce(self, lib, inp):
        _, form_name, v, t = inp
        form = lib.qforms.builtin_form(form_name)
        return lib.adc.descend(form, lib.adc.rational_point(form, v, t))

    def encode(self, lib, inp, result) -> str:
        return canonical(lib.adc.trace_to_dict(result))

    def verify(self, lib, inp, text, span) -> bool:
        with span("codec.decode"):
            trace = lib.adc.trace_from_dict(json.loads(text))
        form = lib.qforms.builtin_form(inp[1])
        return lib.adc.verify_trace(form, trace) and trace.terminal.t == 1

    def reference(self, inp, result, text) -> bool:
        _, form_name, v, t = inp
        d = json.loads(text)
        start = tuple(int(x) for x in d["start"]["v"])
        m = int(d["start"]["m"])
        end = tuple(int(x) for x in d["terminal"]["v"])
        gram = _GRAMS[form_name]
        return (start == v and int(d["start"]["t"]) == t
                and _qform(gram, v) == m * t * t
                and d["terminal"]["t"] == "1" and _qform(gram, end) == m)

    def step_counts(self, result) -> dict:
        counts: dict = {}
        for step in result.steps:
            counts[step.kind] = counts.get(step.kind, 0) + 1
        return counts

    def cli_cases(self, lib, inp):
        _, form_name, v, t = inp
        form = lib.qforms.builtin_form(form_name)
        expected = lib.adc.trace_to_dict(lib.adc.descend(form, lib.adc.rational_point(form, v, t)))
        argv = ["adc", "descend", f"--form={form_name.lower()}",
                "--num=" + ",".join(map(str, v)), f"--den={t}", "--json"]
        return [(argv, expected, ["adc", "descend"])]


class Represent:
    """Hassett members n log-uniform in [1e6, 1e11] after fixed edge members;
    each op is represent(n) then certify_global(k, precision=P), P in [3, 40]."""

    name = "represent"
    trace_ops = 600

    def inputs(self, seed: int):
        rng = _rng(self.name, seed)
        sizes, precisions = _Strata(rng), _Strata(rng)
        for n in EDGE_MEMBERS:
            yield ("represent", n, 3 + int(precisions.draw() * 38))
        while True:
            x = _log_uniform(sizes.draw(), 1e6, 1e11)
            n = 6 * (x // 6) + rng.choice((0, 2))
            yield ("represent", n, 3 + int(precisions.draw() * 38))

    def produce(self, lib, inp):
        _, n, precision = inp
        cert = lib.hassett_rep.represent(n)
        report = None
        if cert.k is not None:
            report = lib.local_global.certify_global(cert.k, precision=precision)
        return cert, report

    def encode(self, lib, inp, result) -> str:
        cert, report = result
        return canonical({
            "certificate": lib.hassett_rep.certificate_to_dict(cert),
            "report": None if report is None else lib.local_global.report_to_dict(report),
        })

    def verify(self, lib, inp, text, span) -> bool:
        with span("codec.decode"):
            d = json.loads(text)
            cert = lib.hassett_rep.certificate_from_dict(d["certificate"])
            report = None if d["report"] is None else lib.local_global.report_from_dict(d["report"])
        if not lib.hassett_rep.verify_certificate(cert):
            return False
        if report is None:
            return cert.branch == "special"
        return lib.local_global.verify_report(report) and report.k == cert.k

    def reference(self, inp, result, text) -> bool:
        _, n, precision = inp
        d = json.loads(text)
        v = tuple(int(c) for c in d["certificate"]["v"])
        if _f_value(v) != n or gcd(gcd(v[0], v[1]), gcd(v[2], v[3])) != 1:
            return False
        report = d["report"]
        if report is None:
            return n in (24, 42, 60)
        k = int(d["certificate"]["k"])
        return (report["overall"] == "solvable" and int(report["k"]) == k
                and all(c["precision"] == str(precision) for c in report["certificates"]))

    def cli_cases(self, lib, inp):
        _, n, precision = inp
        cert = lib.hassett_rep.represent(n)
        cases = [(["hassett", "represent", str(n), "--json"],
                  lib.hassett_rep.certificate_to_dict(cert), ["hassett", "represent"])]
        if cert.k is not None:
            report = lib.local_global.certify_global(cert.k, precision=precision)
            cases.append((["local", "certify", f"--k={cert.k}", f"--precision={precision}", "--json"],
                          lib.local_global.report_to_dict(report), ["local", "certify"]))
        return cases


class Enumerate:
    """A seeded mix per 10 ops: 6 representations of F (n in [8, 600]), 2 of
    Q3 or G (n log-uniform in [1e2, 1e4]), 1 primitive_image(F, N),
    N in [100, 400], and 1 adc_check(Q3|G, N), N log-uniform in [1e3, 2e4]."""

    name = "enumerate"
    trace_ops = 100
    # Six F ops to two Q3/G ops: two thirds of n in [8, 600] have no F
    # representation, so the median audit falls inside the narrow cluster of
    # empty outputs instead of on the edge between empty and full ones.
    _BLOCK = ["rep_F"] * 6 + ["rep_T"] * 2 + ["image", "adc"]

    def inputs(self, seed: int):
        rng = _rng(self.name, seed)
        # image and adc ops are 1 in 10, so their blocks of strata are shorter.
        strata = {kind: _Strata(rng, 8 if kind in ("image", "adc") else 32) for kind in set(self._BLOCK)}
        # Whether an output is empty depends on n mod 6 for F and n mod 9 for
        # Q3 and G, so residues are dealt in shuffled blocks too.
        residues = {"rep_F": _shuffled_blocks(rng, list(range(6))),
                    "rep_T": _shuffled_blocks(rng, list(range(9)))}
        turn = {"rep_T": 0, "adc": 0}
        for kind in _shuffled_blocks(rng, self._BLOCK):
            u = strata[kind].draw()
            if kind == "rep_F":
                yield ("representations", "F", _with_residue(8 + int(u * 593), 6, next(residues[kind]), 8))
            elif kind == "image":
                yield ("primitive_image", "F", 100 + int(u * 301))
            else:
                form = ("Q3", "G")[turn[kind] % 2]
                turn[kind] += 1
                if kind == "rep_T":
                    n = _with_residue(_log_uniform(u, 1e2, 1e4), 9, next(residues[kind]), 100)
                    yield ("representations", form, n)
                else:
                    yield ("adc_check", form, _log_uniform(u, 1e3, 2e4))

    def produce(self, lib, inp):
        kind, form_name, n = inp
        form = lib.qforms.builtin_form(form_name)
        if kind == "representations":
            return lib.qforms.representations(form, n)
        if kind == "primitive_image":
            return lib.qforms.primitive_image(form, n)
        return lib.adc.adc_check(form, n)

    def encode(self, lib, inp, result) -> str:
        if inp[0] == "representations":
            return canonical([[str(x) for x in v] for v in result])
        return canonical([str(x) for x in result])

    def verify(self, lib, inp, text, span) -> bool:
        """No program verifier exists for these ops. The audit decodes the
        output, confirms the form is positive definite (so the claimed set
        is finite) and re-evaluates every returned vector."""
        kind, form_name, n = inp
        with span("codec.decode"):
            d = json.loads(text)
            values = [[int(x) for x in v] for v in d] if kind == "representations" else [int(x) for x in d]
        if values != sorted(values):
            return False
        form = lib.qforms.builtin_form(form_name)
        if not lib.qforms.is_positive_definite(form):
            return False
        if kind == "representations":
            return all(lib.qforms.evaluate(form, v) == n for v in values)
        return all(0 < q <= n for q in values)

    def reference(self, inp, result, text) -> bool:
        kind, form_name, n = inp
        got = json.loads(text)
        if kind == "representations":
            want = _f_reps(n) if form_name == "F" else _diag_reps(_DIAG[form_name], n)
            return got == [[str(x) for x in v] for v in want]
        if kind == "primitive_image":
            return got == [str(x) for x in _hassett_upto(n)]
        return got == []

    def cli_cases(self, lib, inp):
        kind, form_name, n = inp
        if kind == "primitive_image":
            image = lib.qforms.primitive_image(lib.qforms.builtin_form(form_name), n)
            return [(["hassett", "verify", f"--max={n}", "--json"],
                     {"verified": True, "checked": [str(x) for x in image]}, None)]
        if kind == "adc_check":
            found = lib.adc.adc_check(lib.qforms.builtin_form(form_name), n)
            return [(["adc", "check", f"--form={form_name.lower()}", f"--max={n}", "--json"],
                     {"form": form_name, "max": str(n), "violations": [str(x) for x in found]}, None)]
        return []


class Geometry:
    """Configurations (a, b), each coordinate 0 with probability 1/2, else a
    signed rational with numerator and denominator log-uniform up to 1e6.
    One op in 4 is dims_report; the rest are random_cubic plus its replay."""

    name = "geometry"
    trace_ops = 100

    def inputs(self, seed: int):
        rng = _rng(self.name, seed)
        nums, dens = _Strata(rng), _Strata(rng)

        def coordinate(zero: bool) -> Fraction:
            if zero:
                return Fraction(0)
            sign = rng.choice((1, -1))
            return Fraction(sign * _log_uniform(nums.draw(), 1, 1e6), _log_uniform(dens.draw(), 1, 1e6))

        block = [(kind, alpha, beta) for alpha in (0, 1) for beta in (0, 1)
                 for kind in ("dims", "cubic", "cubic", "cubic")]
        for kind, alpha, beta in _shuffled_blocks(rng, block):
            yield (kind, coordinate(alpha == 1), coordinate(beta == 1), rng.randint(1, 10**6))

    def produce(self, lib, inp):
        kind, a, b, seed = inp
        config = lib.geometry.standard_config(a, b)
        if kind == "dims":
            return lib.geometry.dims_report(config)
        return config, lib.geometry.random_cubic(config, seed)

    def encode(self, lib, inp, result) -> str:
        if inp[0] == "dims":
            return canonical(result)
        config, cubic = result
        return canonical(lib.geometry.cubic_to_dict(cubic, config, inp[3]))

    def verify(self, lib, inp, text, span) -> bool:
        with span("codec.decode"):
            d = json.loads(text)
        if inp[0] == "dims":
            return d["methods_agree"] is True
        return lib.geometry.verify_cubic_dict(d)

    def reference(self, inp, result, text) -> bool:
        kind, a, b, seed = inp
        d = json.loads(text)
        if kind == "cubic":
            return (Fraction(d["a"]), Fraction(d["b"]), int(d["seed"])) == (a, b, seed)
        alpha, beta = int(a == 0), int(b == 0)
        return (d["alpha"] == alpha and d["beta"] == beta and d["methods_agree"] is True
                and d["fiber_dim"] == 23 + alpha + beta and d["orbit_dim"] == 28 - alpha - beta
                and d["total"] == 51)

    def cli_cases(self, lib, inp):
        kind, a, b, seed = inp
        config = lib.geometry.standard_config(a, b)
        coords = [f"--a={a}", f"--b={b}"]
        if kind == "dims":
            report = lib.geometry.dims_report(config)
            expected = {k: v if isinstance(v, bool) else str(v) for k, v in report.items()}
            return [(["geometry", "dims", *coords, "--json"], expected, None)]
        cubic = lib.geometry.random_cubic(config, seed)
        return [(["geometry", "cubic", *coords, f"--seed={seed}", "--json"],
                 lib.geometry.cubic_to_dict(cubic, config, seed), ["geometry", "cubic"])]


WORKLOADS = {w.name: w for w in (Descent(), Represent(), Enumerate(), Geometry())}
