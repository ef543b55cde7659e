#!/usr/bin/env python3
"""Smoke check of the benchmark itself (about two minutes):

    python3 bench/smoke.py

1. Runs every workload at the tiny scale, untraced and traced, and checks
   that the last line is the result object with exactly the metric names
   and units that BENCHMARK.json declares, and that every check passed.
2. Feeds the correctness gate forged expectations and forged reports and
   checks that each is counted as a failed operation.
3. Runs the benchmark in a directory that holds only BENCHMARK.json and
   bench/, and checks that it exits non-zero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path("bench") / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            done = _run(workload, trace)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["failed"] == 0, done.stdout
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            print(f"ok: {workload} trace {trace}: {len(got)} metrics with units")


def check_forgeries():
    sys.path.insert(0, str(BENCH))
    import run
    run.load_qks()
    from gate import Gate, expectation
    from workloads import commands

    plan = {cmd.name: (cmd, expectation(cmd)) for cmd in commands("scan-small", tiny=True)}

    def failures(name, forge_exp=None, forge_text=None, repeat_text=None) -> int:
        cmd, exp = plan[name]
        gate = Gate()
        rc, text, _seconds = run.run_command(cmd, 3, gate)
        assert gate.check(cmd, exp, rc, text, 3).failed == 0, gate.problems
        if repeat_text is not None:
            return gate.check(cmd, exp, rc, repeat_text(text), 3).failed
        exp = forge_exp(exp) if forge_exp else exp
        text = forge_text(text) if forge_text else text
        return Gate().check(cmd, exp, rc, text, 3).failed

    def edit(fn):
        def forge(text):
            report = json.loads(text)
            fn(report)
            return json.dumps(report, sort_keys=True, indent=2) + "\n"
        return forge

    def no_point(report):
        stabilized = report["points"][2]
        stabilized.update(values={}, fiber_dim=None, certificate="no-admissible-point",
                          witness="sampler gave up")
        stabilized.pop("d", None)

    forged = {
        "wrong expected d": failures(
            "scan-C3k2", forge_exp=lambda e: dataclasses.replace(e, expected_d=e.expected_d + 1)),
        "wrong Azumaya expectation": failures(
            "scan-S2torus", forge_exp=lambda e: dataclasses.replace(e, azumaya=True)),
        "wrong verdict": failures(
            "scan-C2k4", forge_text=edit(lambda r: r.update(verdict="inconsistent-rank"))),
        "wrong fiber dimension": failures(
            "scan-C2k4", forge_text=edit(lambda r: r["points"][0].update(fiber_dim=15))),
        "sampler give-up as witness": failures("scan-0none", forge_text=edit(no_point)),
        "stabilizer order": failures(
            "freeness-0none", forge_text=edit(lambda r: r["points"][0].update(stabilizer_order=2))),
        "malformed report": failures(
            "freeness-S2torus", forge_text=edit(lambda r: r["points"][1].pop("values"))),
        "bytes differ at the same seed": failures(
            "scan-C2k2", repeat_text=lambda text: text.replace('"seed": 3', '"seed": 3 ')),
    }
    for what, n in forged.items():
        assert n > 0, f"forged {what} was not counted as a failure"
        print(f"ok: forged {what}: {n} failed operation(s)")


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run("graded", 0, cwd=Path(tmp))
        assert done.returncode != 0 and '"metrics"' not in done.stdout, done.stdout
        print(f"ok: without src/ the benchmark exits {done.returncode}: {done.stderr.strip()}")


if __name__ == "__main__":
    check_forgeries()
    check_refuses_without_sources()
    check_metric_names()
    print("smoke check passed")
