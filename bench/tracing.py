"""Tracing from the benchmark's side: spans around qks functions, counters on
hot methods.

A span wraps a function under the name it is looked up by (for example
`qks.scans.build_fiber`, which `azumaya_scan` calls through its own module
namespace), so the call sites the program really uses are the ones traced.
Patching a name that does not exist raises, and the benchmark checks after a
workload that every span it expects has fired.  Hot methods (`Cyclo`
multiply and inverse, `NCPoly` and `SkewElement` products, the group action
on monomials, `Echelon.add`) keep per-parent counts and totals in memory
instead of one span per call; the parent is the innermost open span.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

# (module, attribute looked up at the call site, span name)
SPANS = [
    ("qks.cli", "make_case", "catalog.make_case"),
    ("qks.cli", "azumaya_scan", "scans.azumaya_scan"),
    ("qks.cli", "freeness_scan", "scans.freeness_scan"),
    ("qks.cli", "auslander_check", "scans.auslander_check"),
    ("qks.cli", "center_report", "scans.center_report"),
    ("qks.cli", "invariants_report", "scans.invariants_report"),
    ("qks.cli", "series_check", "scans.series_check"),
    ("qks.cli", "emit_report", "cli.emit_report"),
    ("qks.scans", "sample_point", "catalog.sample_point"),
    ("qks.scans", "sample_za_values", "catalog.sample_za_values"),
    ("qks.scans", "recipe_for", "catalog.recipe_for"),
    ("qks.scans", "build_fiber", "fiber.build_fiber"),
    ("qks.fiber", "check_associativity", "fiber.check_associativity"),
    ("qks.scans", "matrix_algebra_certificate", "fiber.matrix_algebra_certificate"),
    ("qks.fiber", "trace_form_rank", "fiber.trace_form_rank"),
    ("qks.fiber", "center_dimension", "fiber.center_dimension"),
    ("qks.scans", "stabilizer_of_point", "skew.stabilizer_of_point"),
    ("qks.scans", "center_basis", "skew.center_basis"),
    ("qks.skew", "center_basis", "skew.center_basis"),
    ("qks.scans", "verify_generating_set", "skew.verify_generating_set"),
    ("qks.scans", "invariant_basis", "skew.invariant_basis"),
    ("qks.scans", "_invariant_algebra_generators", "scans.invariant_generators"),
    ("qks.scans", "_hom_dimension", "scans.hom_dimension"),
    ("qks.scans", "_natural_map_rank", "scans.natural_map_rank"),
    ("qks.scans", "molien_series", "series.molien_series"),
    ("qks.scans", "invariant_dimensions", "series.invariant_dimensions"),
    ("qks.scans", "compare_with_counts", "series.compare_with_counts"),
]

_COMMON = {"catalog.make_case", "cli.emit_report"}
_FIBER = {"catalog.sample_point", "catalog.recipe_for", "fiber.build_fiber",
          "fiber.check_associativity", "fiber.matrix_algebra_certificate",
          "fiber.trace_form_rank", "fiber.center_dimension", "scans.azumaya_scan"}

# spans that must fire on each workload
EXPECTED = {
    "scan-small": _COMMON | _FIBER | {"scans.freeness_scan", "catalog.sample_za_values",
                                      "skew.stabilizer_of_point"},
    "scan-large": _COMMON | _FIBER,
    "graded": _COMMON | {"scans.auslander_check", "scans.center_report",
                         "scans.invariants_report", "scans.series_check",
                         "scans.invariant_generators", "scans.hom_dimension",
                         "scans.natural_map_rank", "skew.center_basis",
                         "skew.verify_generating_set", "skew.invariant_basis",
                         "series.molien_series", "series.invariant_dimensions",
                         "series.compare_with_counts"},
}
# every workload multiplies in all three rings and reduces in linalg
COUNTERS = {"cyclotomic.mul", "cyclotomic.inv", "planes.mul", "planes.act",
            "skew.mul", "linalg.add"}

ROOT = "<benchmark>"


def _fiber_dims(args, fiber):
    ring, _point, recipe = args[:3]
    return fiber.dim, recipe.ku * recipe.kv * ring.group.order


# small summaries of return values, kept instead of the values themselves
SUMMARIES = {"fiber.build_fiber": _fiber_dims}


class Span:
    __slots__ = ("name", "parent", "start", "end", "ok", "summary")

    def __init__(self, name, parent):
        self.name, self.parent = name, parent
        self.start = self.end = 0.0
        self.ok = False
        self.summary = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and per-parent counters, kept in memory while installed."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.current = ROOT
        self.counts = defaultdict(lambda: defaultdict(int))  # counter -> parent -> n
        self.rational_muls = 0
        self.useful_adds = 0
        self.linalg_s = 0.0
        self._linalg_depth = 0
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def open(self, name) -> Span:
        span = Span(name, self.stack[-1] if self.stack else None)
        self.spans.append(span)
        self.stack.append(span)
        self.current = name
        span.start = perf_counter()
        return span

    def close(self, span: Span):
        span.end = perf_counter()
        self.stack.pop()
        self.current = self.stack[-1].name if self.stack else ROOT

    def _span_wrapper(self, name, fn):
        summarize = SUMMARIES.get(name)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                span.ok = True
                if summarize is not None:
                    span.summary = summarize(args, result)
                return result
            finally:
                self.close(span)
        return traced

    # -- counters ----------------------------------------------------------

    def _counter_wrapper(self, counter, fn):
        counts = self.counts[counter]

        def counted(*args, **kwargs):
            counts[self.current] += 1
            return fn(*args, **kwargs)
        return counted

    def _cyclo_mul_wrapper(self, fn):
        counts = self.counts["cyclotomic.mul"]

        def mul(a, b):
            counts[self.current] += 1
            c = getattr(b, "c", None)
            if not any(a.c[1:]) and (c is None or not any(c[1:])):
                self.rational_muls += 1
            return fn(a, b)
        return mul

    def _echelon_add_wrapper(self, fn):
        counts = self.counts["linalg.add"]

        def add(ech, vec):
            counts[self.current] += 1
            self._linalg_depth += 1
            t0 = perf_counter()
            try:
                grew = fn(ech, vec)
            finally:
                self._linalg_depth -= 1
                if not self._linalg_depth:
                    self.linalg_s += perf_counter() - t0
            self.useful_adds += bool(grew)
            return grew
        return add

    def _echelon_reduce_wrapper(self, fn):
        def reduce(ech, vec):
            if self._linalg_depth:
                return fn(ech, vec)
            self._linalg_depth += 1
            t0 = perf_counter()
            try:
                return fn(ech, vec)
            finally:
                self._linalg_depth -= 1
                self.linalg_s += perf_counter() - t0
        return reduce

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        original = getattr(owner, attr)   # raises when the name is gone
        if not callable(original):
            raise TypeError(f"{owner!r}.{attr} is not callable")
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def install(self):
        from qks.cyclotomic import Cyclo
        from qks.linalg import Echelon
        from qks.planes import NCPoly
        from qks.skew import SkewElement

        for module, attr, name in SPANS:
            self._patch(importlib.import_module(module), attr,
                        lambda fn, name=name: self._span_wrapper(name, fn))
        for attr in ("__mul__", "__rmul__"):
            self._patch(Cyclo, attr, self._cyclo_mul_wrapper)
            self._patch(NCPoly, attr, lambda fn: self._counter_wrapper("planes.mul", fn))
            self._patch(SkewElement, attr, lambda fn: self._counter_wrapper("skew.mul", fn))
        self._patch(Cyclo, "inverse", lambda fn: self._counter_wrapper("cyclotomic.inv", fn))
        for module in ("qks.planes", "qks.fiber", "qks.skew"):
            self._patch(importlib.import_module(module), "act_mono",
                        lambda fn: self._counter_wrapper("planes.act", fn))
        self._patch(Echelon, "add", self._echelon_add_wrapper)
        self._patch(Echelon, "reduce", self._echelon_reduce_wrapper)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summaries ---------------------------------------------------------

    def fired(self) -> set:
        return {s.name for s in self.spans} | {c for c, per in self.counts.items()
                                               if sum(per.values())}

    def total(self, name) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def self_time(self, name) -> float:
        """Sum over spans called `name` of duration minus their children's."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[id(s.parent)] += s.seconds
        return sum(s.seconds - child[id(s)] for s in self.spans if s.name == name)

    def count(self, counter) -> int:
        return sum(self.counts[counter].values())

    def by_parent(self, counter) -> dict:
        return dict(self.counts[counter])

    def fiber_latencies(self) -> list:
        """Seconds per fiber point: build_fiber plus the certificate that
        follows it under the same parent span."""
        out, pending = [], {}
        for s in self.spans:
            key = id(s.parent)
            if s.name == "fiber.build_fiber":
                if key in pending:
                    out.append(pending.pop(key))
                if s.ok:
                    pending[key] = s.seconds
                else:
                    out.append(s.seconds)
            elif s.name == "fiber.matrix_algebra_certificate" and key in pending:
                out.append(pending.pop(key) + s.seconds)
        out.extend(pending.values())
        return out

    def fibers(self) -> list:
        """(fiber dim, box dim ku*kv*|G|) for every fiber built."""
        return [s.summary for s in self.spans if s.name == "fiber.build_fiber" and s.ok]
