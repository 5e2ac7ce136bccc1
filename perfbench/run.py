"""Certificate benchmark for hassettmax: one closed-loop client, one process.

    python3 perfbench/run.py --workload descent --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` the run measures for ``--seconds`` (and at least
``MIN_OPS`` ops) with no tracing and prints the end-to-end metrics. With
``--trace 1`` it runs a fixed number of ops twice, untraced in a child
process and traced in this one, and prints the per-layer metrics; every
count in that output repeats exactly for a given seed. The last line of
standard output is the result object; the line before it holds the output
digest and the sample counts. ``--workload all`` runs every workload both
ways at its default seed.

The library is imported from ``src/`` of the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"  # span files and CLI replay files

sys.path.insert(0, str(HERE))
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("arith", "linalg", "qforms", "adc", "hassett_rep", "local_global",
           "lattices", "geometry", "cli")
MIN_OPS = 100  # p90 needs at least 10 samples beyond it; also the digest length
SETUP_REPEATS = 5
FIRST_BLOCK = 64  # inputs generated during set-up; the rest as the loop goes
CLI_INPUTS = 2  # inputs per workload replayed through the CLI in the traced run
DEFAULT_SEED = 1
CALIBRATION_S = 1.5e-4  # calibrate() on the reference machine: 2-core x86-64, CPython 3.11
CALIBRATION_WINDOW = 4  # ops on each side whose calibrations set an op's speed factor

PER_LAYER = (
    "arith.factorize.calls", "arith.factorize.self_s", "arith.is_prime.calls", "arith.is_prime.self_s",
    "hassett_rep.represent.self_s", "hassett_rep.represent.factorize_calls",
    "hassett_rep.verify_certificate.self_s",
    "local_global.certify_global.self_s", "local_global.certify_local.calls",
    "local_global.verify_report.self_s", "local_global.rationally_representable_ternary.calls",
    "adc.descend.self_s", "adc.verify_trace.self_s", "adc.cube_bound.calls", "adc.adc_check.self_s",
    "adc.steps.secant", "adc.steps.trivial", "adc.steps.divide4", "adc.steps.torus",
    "adc.steps.enumerate",
    "qforms.representations.calls", "qforms.representations.self_s",
    "qforms.vectors_up_to.yielded", "qforms.vectors_up_to.self_s",
    "qforms.integer_image_upto.self_s", "qforms.evaluate.calls",
    "linalg.rref.calls", "linalg.rref.self_s", "linalg.det_bareiss.calls", "linalg.det_bareiss.self_s",
    "geometry.restriction_matrix.self_s", "geometry.cubics_through.self_s",
    "geometry.linear_system_dim_by_evaluation.self_s", "geometry.stabilizer_dim.self_s",
    "geometry.verify_cubic_dict.self_s",
    "codec.encode_s", "codec.decode_s", "codec.bytes",
    "cli.main.calls", "cli.main.self_s",
    "trace.overhead_ratio",
)


def calibrate() -> float:
    """Seconds taken by a fixed kernel of big-integer and Fraction arithmetic,
    the kind of work the library does. The shared machine's speed drifts by
    up to a third over seconds to minutes; each op's times are scaled by
    CALIBRATION_S over the median of the nearby kernel times, which cancels
    that drift and leaves the program's own speed."""
    t0 = time.perf_counter()
    x, m = 0x9E3779B97F4B7C15, (1 << 89) - 1
    for i in range(300):
        x = (x * x + i) % m
    f = Fraction(0)
    for i in range(1, 25):
        f += Fraction(x % 1000003, i * 7919)
    return time.perf_counter() - t0


def load_library() -> SimpleNamespace:
    importlib.import_module("hassettmax")
    return SimpleNamespace(**{m: importlib.import_module(f"hassettmax.{m}") for m in MODULES})


def setup(workload, seed: int):
    """Import the library and generate the first inputs, several times from
    a clean module table. Returns the last library, the input stream, and
    the median set-up time scaled by the calibration taken after each."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "hassettmax" or n.startswith("hassettmax.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        lib = load_library()
        stream = workload.inputs(seed)
        first = list(itertools.islice(stream, FIRST_BLOCK))
        elapsed = time.perf_counter() - t0
        speed = statistics.median(calibrate() for _ in range(2 * CALIBRATION_WINDOW + 1))
        times.append(elapsed * CALIBRATION_S / speed)
    return lib, itertools.chain(first, stream), statistics.median(times)


class Loop:
    """Outcome of running ops in input order. Times are as measured; the
    ``scaled_*`` methods give them at the reference machine speed."""

    def __init__(self):
        self.op_s: list[float] = []  # timed phase of each op: produce, encode, verify
        self.calibration: list[float] = []  # calibrate() just before each op
        self.samples: list[tuple[int, float, float]] = []  # (op, produce ms, verify ms)
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self.digest_ops = 0
        self.steps: dict[str, int] = {}
        self.inputs: list = []

    def fail(self, inp, why: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"perfbench: op {self.attempted - 1} {inp!r:.200} failed: {why}", file=sys.stderr)

    def factors(self) -> list[float]:
        cal, w = self.calibration, CALIBRATION_WINDOW
        return [CALIBRATION_S / statistics.median(cal[max(0, i - w):i + w + 1])
                for i in range(len(cal))]

    def scaled_timed_s(self) -> float:
        return sum(t * f for t, f in zip(self.op_s, self.factors()))

    def scaled_samples(self) -> tuple[list[float], list[float]]:
        f = self.factors()
        return ([ms * f[i] for i, ms, _ in self.samples],
                [ms * f[i] for i, _, ms in self.samples])


def run_ops(lib, workload, inputs, *, seconds: float, max_ops: float, tracer=None) -> Loop:
    span = tracer.span if tracer else (lambda name: nullcontext())
    clock = time.perf_counter
    loop = Loop()
    min_ops = min(MIN_OPS, max_ops)
    began = clock()
    for inp in inputs:
        if loop.attempted >= max_ops:
            break
        if loop.attempted >= min_ops and clock() - began >= seconds:
            break
        op = loop.attempted
        if tracer:
            tracer.op_id = op
        if op < CLI_INPUTS * 10:
            loop.inputs.append(inp)
        loop.attempted += 1
        loop.calibration.append(calibrate())
        text, ok, why = None, False, "verifier rejected the output"
        t0 = clock()
        try:
            with span("bench.produce"):
                result = workload.produce(lib, inp)
            t1 = clock()
            with span("codec.encode"):
                text = workload.encode(lib, inp, result)
            if tracer:
                tracer.count("codec.bytes", len(text.encode()))
            with span("bench.verify"):
                t2 = clock()
                ok = workload.verify(lib, inp, text, span)
                t3 = clock()
            loop.samples.append((op, (t1 - t0) * 1e3, (t3 - t2) * 1e3))
        except Exception:
            why = traceback.format_exc(limit=3)
        finally:
            loop.op_s.append(clock() - t0)
        if ok:
            why = "reference check disagreed"
            try:
                ok = workload.reference(inp, result, text)
            except Exception:
                ok, why = False, traceback.format_exc(limit=3)
        if ok and tracer and hasattr(workload, "step_counts"):
            for kind, n in workload.step_counts(result).items():
                loop.steps[kind] = loop.steps.get(kind, 0) + n
        if op < MIN_OPS:
            loop.digest.update((text if text is not None else "<error>").encode() + b"\n")
            loop.digest_ops += 1
        if not ok:
            loop.fail(inp, why)
    return loop


def p(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0] if values else math.nan
    return statistics.quantiles(values, n=100)[q - 1]


def detail(name: str, seed: int, trace: int, loop: Loop, **extra) -> dict:
    return {"workload": name, "seed": seed, "trace": trace,
            "digest": "sha256:" + loop.digest.hexdigest(), "digest_ops": loop.digest_ops,
            "samples": len(loop.samples), "timed_s": sum(loop.op_s),
            "speed_factor": statistics.median(loop.factors()), **extra}


def untraced(name: str, seed: int, seconds: float, max_ops: float):
    workload = WORKLOADS[name]
    lib, inputs, setup_s = setup(workload, seed)
    loop = run_ops(lib, workload, inputs, seconds=seconds, max_ops=max_ops)
    produce_ms, verify_ms = loop.scaled_samples()
    values = {
        "ops_per_s": (loop.attempted / loop.scaled_timed_s(), "1/s"),
        "produce_p50_ms": (p(produce_ms, 50), "ms"),
        "produce_p90_ms": (p(produce_ms, 90), "ms"),
        "verify_p50_ms": (p(verify_ms, 50), "ms"),
        "ok_ratio": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    info = detail(name, seed, 0, loop, produce_p99_ms=p(produce_ms, 99),
                  unscaled_ops_per_s=loop.attempted / sum(loop.op_s))
    return info, loop, metrics


def cli(lib, argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = lib.cli.main(argv)
    return code, out.getvalue()


def cli_guard(lib, workload, inputs, loop: Loop, tag: str) -> int:
    """Run the CLI's --json produce step and its --verify-file replay on the
    first inputs that have a CLI command; returns the number of checks."""
    WORK_DIR.mkdir(exist_ok=True)
    checks = 0
    used = 0
    for inp in inputs:
        if used == CLI_INPUTS:
            break
        cases = workload.cli_cases(lib, inp)
        used += bool(cases)
        for argv, expected, verify_argv in cases:
            checks += 1
            try:
                code, out = cli(lib, argv)
                ok = code == 0 and json.loads(out) == expected
                if ok and verify_argv:
                    path = WORK_DIR / f"cli-{tag}-{checks}.json"
                    path.write_text(out)
                    try:
                        code, _ = cli(lib, [*verify_argv, "--verify-file", str(path)])
                    finally:
                        path.unlink()
                    ok = code == 0
            except Exception:
                ok = False
            if not ok:
                loop.fail(inp, f"CLI disagreed: {' '.join(argv)}")
    return checks


def baseline(name: str, seed: int, ops: int) -> tuple[dict, dict]:
    """The same ops untraced, in a child process of their own."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--trace", "0", "--ops", str(ops)]
    child = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    lines = child.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def traced(name: str, seed: int, ops: int):
    workload = WORKLOADS[name]
    base_detail, base = baseline(name, seed, ops)
    lib, inputs, _ = setup(workload, seed)
    tracer = Tracer()
    tracer.install()
    try:
        loop = run_ops(lib, workload, inputs, seconds=math.inf, max_ops=ops, tracer=tracer)
        checks = cli_guard(lib, workload, loop.inputs, loop, f"{name}-{seed}")
    finally:
        tracer.uninstall()
    loop.attempted += checks
    traced_ops_per_s = ops / loop.scaled_timed_s()
    if "sha256:" + loop.digest.hexdigest() != base_detail["digest"]:
        loop.fail(name, "traced outputs differ from untraced outputs")
    tracer.write(WORK_DIR / f"spans-{name}-{seed}.tsv.gz")

    s = tracer.summary()
    row = lambda key: s.get(key, {"calls": 0, "self_s": 0.0})  # noqa: E731
    values = {}
    for metric in PER_LAYER:
        name_, field = metric.rsplit(".", 1)
        if name_ == "adc.steps":
            values[metric] = (loop.steps.get(field, 0), "count")
        elif name_ == "codec":
            values[metric] = ((tracer.counts.get(metric, 0), "bytes") if field == "bytes"
                              else (row(metric[:-2])["self_s"], "s"))
        elif metric == "trace.overhead_ratio":
            values[metric] = (traced_ops_per_s / base["metrics"]["ops_per_s"]["value"], "ratio")
        elif field == "factorize_calls":
            values[metric] = (tracer.calls_within("arith.factorize", name_), "count")
        elif field == "self_s":
            values[metric] = (row(name_)["self_s"], "s")
        else:  # calls, yielded
            values[metric] = (tracer.counts.get(metric, row(name_)["calls"]), "count")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    info = detail(name, seed, 1, loop, spans=len(tracer.start), cli_checks=checks,
                  traced_ops_per_s=traced_ops_per_s,
                  untraced_ops_per_s=base["metrics"]["ops_per_s"]["value"])
    return info, loop, metrics


def run_all(seconds: float) -> int:
    worst = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(DEFAULT_SEED), "--seconds", str(seconds), "--trace", str(trace)]
            child = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stderr.write(child.stderr)
            for line in child.stdout.strip().splitlines()[-2:]:
                print(line)
            worst = max(worst, child.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many ops (default: --seconds untraced, "
                             "a fixed count per workload traced)")
    args = parser.parse_args(argv)
    if not (SRC / "hassettmax" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC / 'hassettmax'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seconds)
    if args.trace:
        info, loop, metrics = traced(args.workload, args.seed, args.ops or WORKLOADS[args.workload].trace_ops)
    else:
        seconds = math.inf if args.ops else args.seconds
        info, loop, metrics = untraced(args.workload, args.seed, seconds, args.ops or math.inf)
    print(json.dumps(info))
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
