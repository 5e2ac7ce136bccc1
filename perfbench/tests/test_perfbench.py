"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture
def lib():
    return run.load_library()


def first(workload, seed, n=40):
    return list(itertools.islice(workload.inputs(seed), n))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_inputs(name):
    workload = WORKLOADS[name]
    assert first(workload, 7) == first(workload, 7)
    assert first(workload, 7) != first(workload, 8)


def test_self_time_of_a_span_nest():
    tracer = Tracer()
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds b [6, 7]
    for name, parent, start, end in (("a", -1, 0.0, 10.0), ("b", 0, 1.0, 4.0),
                                     ("c", 0, 5.0, 9.0), ("b", 2, 6.0, 7.0)):
        tracer.name_id.append(tracer._id(name))
        tracer.parent.append(parent)
        tracer.op.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
    assert tracer.self_times() == [3.0, 3.0, 3.0, 1.0]
    summary = tracer.summary()
    assert summary["a"] == {"calls": 1, "self_s": 3.0}
    assert summary["b"] == {"calls": 2, "self_s": 4.0}
    assert tracer.calls_within("b", "c") == 1
    assert tracer.calls_within("b", "a") == 2


def test_install_wraps_imported_names_and_uninstall_restores(lib):
    originals = (lib.arith.factorize, lib.qforms.evaluate, lib.linalg.rank)
    tracer = Tracer()
    tracer.install()
    try:
        assert lib.adc.factorize is lib.arith.factorize is lib.local_global.factorize
        assert lib.arith.factorize is not originals[0]
        assert lib.hassett_rep.evaluate is not originals[1]
        lib.arith.factorize(2**61 - 1)
        assert sorted(lib.qforms.vectors_up_to(lib.qforms.builtin_form("Q3"), 1)) != []
    finally:
        tracer.uninstall()
    assert (lib.arith.factorize, lib.qforms.evaluate, lib.linalg.rank) == originals
    assert lib.adc.factorize is originals[0]
    summary = tracer.summary()
    assert summary["arith.factorize"]["calls"] == 1
    assert tracer.counts["qforms.vectors_up_to.yielded"] == 5  # 0, (+-1, 0, 0), (0, +-1, 0)


class Tampered:
    """A workload whose output has one coordinate flipped before the audit."""

    def __init__(self, inner, path):
        self.inner, self.path = inner, path

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def encode(self, lib, inp, result):
        d = json.loads(self.inner.encode(lib, inp, result))
        node = d
        for key in self.path[:-1]:
            node = node[key]
        node[self.path[-1]] = str(Fraction(node[self.path[-1]]) + 1)
        return json.dumps(d)


@pytest.mark.parametrize("name, path", [
    ("descent", ("terminal", "v", 0)),
    ("represent", ("certificate", "v", 1)),
    ("geometry", ("coeffs", 0)),
])
def test_flipped_coordinate_is_a_failure(lib, name, path):
    workload = WORKLOADS[name]
    inputs = workload.inputs(3)
    if name == "geometry":
        inputs = (inp for inp in inputs if inp[0] == "cubic")
    loop = run.run_ops(lib, Tampered(workload, path), inputs, seconds=0, max_ops=2)
    assert (loop.attempted, loop.failed) == (2, 2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run(lib, name):
    loop = run.run_ops(lib, WORKLOADS[name], WORKLOADS[name].inputs(5), seconds=0, max_ops=3)
    assert (loop.attempted, loop.failed, len(loop.samples)) == (3, 0, 3)


def test_traced_counts_repeat():
    runs = [run.traced("descent", 2, 4) for _ in range(2)]
    counts = [{k: m["value"] for k, m in metrics.items() if m["unit"] in ("count", "bytes")}
              for _, _, metrics in runs]
    assert counts[0] == counts[1]
    assert counts[0]["arith.factorize.calls"] > 0
    assert counts[0]["cli.main.calls"] == 4
    assert [loop.failed for _, loop, _ in runs] == [0, 0]
    assert set(runs[0][2]) == set(run.PER_LAYER)
