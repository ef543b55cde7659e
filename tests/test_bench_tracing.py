"""The names the benchmark's tracer patches exist in `qks`, and the
benchmark's frozen inputs still call `qks` in the shapes they were written
for.

`bench/tracing.py` patches functions under the module names their callers
look them up by, and raises when one is missing; installing and removing it
here finds a renamed or deleted target without running a workload.
`bench/frozen.py` calls `scans._hom_dimension` and
`scans._invariant_algebra_generators` positionally; recording its Hom
system here finds a changed signature.
"""

import importlib.util
import sys
from pathlib import Path

import qks.fiber
import qks.planes
import qks.skew

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench_module(monkeypatch, name: str):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_patched_name(monkeypatch):
    tracing = _load_bench_module(monkeypatch, "tracing")
    original = qks.planes.act_mono
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert qks.fiber.act_mono is not original and qks.skew.act_mono is not original
    finally:
        tracer.uninstall()
    assert qks.planes.act_mono is qks.fiber.act_mono is qks.skew.act_mono is original


def test_frozen_hom_system_records_its_rows(monkeypatch):
    frozen = _load_bench_module(monkeypatch, "frozen")
    rows = frozen.hom_system()
    assert rows and all(rows)
