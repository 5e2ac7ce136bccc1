"""Spans and counts recorded from outside the library, for the traced run.

``Tracer.install`` replaces each listed library function with a wrapper, at
every module attribute that holds it, so the names other modules imported
(``factorize`` in ``adc``, ``evaluate`` in ``hassett_rep``, ...) are traced
too. ``Tracer.uninstall`` puts every original back. A span is (name, start,
end, parent, op id); spans stay in memory until the run ends. A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from contextlib import contextmanager
from functools import wraps

# (module, function) pairs traced with one span per call.
SPANNED = (
    ("arith", "factorize"), ("arith", "is_prime"),
    ("linalg", "rref"), ("linalg", "det_bareiss"),
    ("qforms", "representations"), ("qforms", "integer_image_upto"),
    ("adc", "descend"), ("adc", "verify_trace"), ("adc", "cube_bound"), ("adc", "adc_check"),
    ("hassett_rep", "represent"), ("hassett_rep", "verify_certificate"),
    ("local_global", "certify_global"), ("local_global", "certify_local"),
    ("local_global", "verify_report"), ("local_global", "rationally_representable_ternary"),
    ("geometry", "restriction_matrix"), ("geometry", "cubics_through"),
    ("geometry", "linear_system_dim_by_evaluation"), ("geometry", "stabilizer_dim"),
    ("geometry", "verify_cubic_dict"),
    ("cli", "main"),
)
# Generators: one span per resumption, and a count of the values yielded.
GENERATORS = (("qforms", "vectors_up_to"),)
# Called too often for a span each; only counted.
COUNTED = (("qforms", "evaluate"),)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counts: dict[str, int] = {}
        self._patches: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    # --- wrappers ---

    def _spanned(self, name: str, fn):
        nid = self._id(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _generator(self, name: str, fn):
        nid = self._id(name)
        key = name + ".yielded"
        self.counts.setdefault(key, 0)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.counts[key] += 1
                    yield item
            finally:
                inner.close()

        return wrapper

    def _counted(self, name: str, fn):
        key = name + ".calls"
        self.counts.setdefault(key, 0)
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package: str = "hassettmax") -> None:
        """Wrap every listed function wherever a ``package`` module holds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        replace = {}
        for group, make in ((SPANNED, self._spanned), (GENERATORS, self._generator),
                            (COUNTED, self._counted)):
            for mod_name, fn_name in group:
                original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
                replace[id(original)] = (original, make(f"{mod_name}.{fn_name}", original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # --- analysis ---

    def self_times(self) -> list[float]:
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(n)]

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total self time, and calls nested in each
        other span name (``within``)."""
        selfs = self.self_times()
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i, nid in enumerate(self.name_id):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += selfs[i]
        return out

    def calls_within(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have a span called ``ancestor`` above them."""
        target, outer = self._ids.get(name), self._ids.get(ancestor)
        if target is None or outer is None:
            return 0
        inside = array("b", bytes(len(self.start)))
        total = 0
        for i, nid in enumerate(self.name_id):
            p = self.parent[i]
            inside[i] = nid == outer or (p >= 0 and inside[p])
            if nid == target and p >= 0 and inside[p]:
                total += 1
        return total

    def write(self, path) -> None:
        """Write every span as one tab-separated line: op, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\top\tparent\tname\tstart\tend\n")
            for i, nid in enumerate(self.name_id):
                out.write(f"{i}\t{self.op[i]}\t{self.parent[i]}\t{self.names[nid]}\t"
                          f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
