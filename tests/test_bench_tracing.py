"""The names the benchmark's tracer patches exist in `qks`.

`bench/tracing.py` patches functions under the module names their callers
look them up by, and raises when one is missing; installing and removing it
here finds a renamed or deleted target without running a workload.
"""

import importlib.util
import sys
from pathlib import Path

import qks.fiber
import qks.planes
import qks.skew

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_installs_on_every_patched_name(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = qks.planes.act_mono
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert qks.fiber.act_mono is not original and qks.skew.act_mono is not original
    finally:
        tracer.uninstall()
    assert qks.planes.act_mono is qks.fiber.act_mono is qks.skew.act_mono is original
