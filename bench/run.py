#!/usr/bin/env python3
"""Benchmark of the qks workbench, end to end and layer by layer.

    python3 bench/run.py --workload scan-small --seed 1 --seconds 36 --trace 0

Runs a workload's fixed list of `qks` command lines in-process through
`qks.cli.main` (one process, one thread), checks every report with the
correctness gate, and prints a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (see END_TO_END).  The
workload is repeated in rounds (seeds: see `round_seed`) until `--seconds`
would be exceeded (at least two rounds); round times are scaled to a nominal
machine speed (see calibrate.py) and averaged over rounds.  With
`--trace 1` the metrics are the per-layer ones (see `layer_units`): one
untraced round, two traced rounds (the first at the same seed), then the
frozen L0/L1 inputs.

qks is imported from `src/` of the checkout that holds this file; without
those sources the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_ROUNDS = 2
SEED_STRIDE = 7919
SETUP_RUNS = 7
LATENCY_PCT = 75
TRACED_ROUNDS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def layer_units() -> dict:
    from workloads import all_command_names

    units = {f"scans.cmd_s.{name}": "s" for name in all_command_names()}
    units.update({
        "cli.emit_s": "s",
        "catalog.make_case_s": "s",
        "catalog.sample_s": "s",
        "catalog.recipe_s": "s",
        "fiber.build_self_s": "s",
        "fiber.assoc_s": "s",
        "fiber.trace_rank_s": "s",
        "fiber.center_dim_s": "s",
        "fiber.latency_ms.p50": "ms",
        f"fiber.latency_ms.p{LATENCY_PCT}": "ms",
        "fiber.count": "count",
        "fiber.witness_count": "count",
        "fiber.kept_ratio": "ratio",
        "skew.center_basis_s": "s",
        "skew.verify_s": "s",
        "skew.invariant_basis_s": "s",
        "skew.stabilizer_s": "s",
        "series.molien_s": "s",
        "series.counts_s": "s",
        "skew.mul_calls": "count",
        "planes.mul_calls": "count",
        "planes.act_calls": "count",
        "linalg.add_calls": "count",
        "linalg.add_useful_ratio": "ratio",
        "linalg.self_s": "s",
        "linalg.replay_ms.hom-ii": "ms",
        "linalg.replay_ms.trace-D3": "ms",
        "cyclotomic.mul_calls": "count",
        "cyclotomic.inv_calls": "count",
        "cyclotomic.mul_rational_share": "ratio",
    })
    from frozen import CONDUCTORS
    for n in CONDUCTORS:
        units[f"cyclotomic.mul_us.c{n}"] = "us"
        units[f"cyclotomic.inv_us.c{n}"] = "us"
    units["trace_overhead_ratio"] = "ratio"
    return units


class SourceMissing(RuntimeError):
    pass


def load_qks():
    """Put the checkout's src/ first on sys.path and import qks from it."""
    init = SRC / "qks" / "__init__.py"
    if not init.is_file():
        raise SourceMissing(f"no qks sources at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import qks

    if Path(qks.__file__).resolve() != init.resolve():
        raise SourceMissing(f"qks was imported from {qks.__file__}, not from src/")
    return qks


# ---------------------------------------------------------------------------
# set-up time, in fresh processes

_SETUP_CHILD = """
import statistics, sys, time
sys.path.insert(0, {bench!r})
from calibrate import reference_seconds
before = statistics.median(reference_seconds() for _ in range(3))
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import qks
from qks.catalog import make_case
for case_id, kwargs in {cases!r}:
    make_case(case_id, **kwargs)
seconds = time.perf_counter() - t0
after = statistics.median(reference_seconds() for _ in range(3))
print(repr(seconds), repr((before + after) / 2))
"""


def measure_setup(cases: list, runs: int = SETUP_RUNS) -> list:
    """(raw, scaled) seconds to import qks and construct every case, one
    fresh process each.  One unmeasured process runs first so that
    byte-compiled files exist."""
    from calibrate import scaled

    code = _SETUP_CHILD.format(bench=str(BENCH), src=str(SRC), cases=cases)
    times = []
    for i in range(runs + 1):
        done = subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        if i:
            seconds, reference = map(float, done.stdout.split())
            times.append((seconds, scaled(seconds, reference)))
    return times


# ---------------------------------------------------------------------------
# rounds


@dataclass
class Round:
    times: dict = field(default_factory=dict)   # command name -> seconds
    scaled: dict = field(default_factory=dict)  # the same at nominal speed
    ops: int = 0
    fibers: int = 0
    witnesses: int = 0

    @property
    def wall(self) -> float:
        return sum(self.times.values())

    @property
    def scaled_wall(self) -> float:
        return sum(self.scaled.values())


def run_command(cmd, seed: int, gate):
    """Run one command through qks.cli.main; returns (exit code, stdout, seconds)."""
    from qks.cli import main

    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(cmd.full_argv(seed))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed operation, not a benchmark crash
        rc = -1
        gate.problems.append(f"{cmd.name}: {traceback.format_exc(limit=3)}")
    return rc, out.getvalue(), perf_counter() - t0


def round_seed(seed: int, index: int) -> int:
    """Rounds 0 and 1 use the run's seed, so every command's bytes are
    compared once at the same seed; later rounds draw fresh points, so a run
    averages over more of the seeded inputs."""
    return seed + SEED_STRIDE * max(0, index - 1)


def run_round(plan, seed: int, gate, calibrated: bool = True) -> Round:
    """Every command once; with `calibrated`, the reference computation runs
    between commands and each command is scaled by the mean of the two
    reference times around it."""
    from calibrate import reference_seconds, scaled

    rnd = Round()
    reference = reference_seconds() if calibrated else None
    for cmd, exp in plan:
        rc, text, seconds = run_command(cmd, seed, gate)
        if calibrated:
            after = reference_seconds()
            rnd.scaled[cmd.name] = scaled(seconds, (reference + after) / 2)
            reference = after
        outcome = gate.check(cmd, exp, rc, text, seed)
        rnd.times[cmd.name] = seconds
        rnd.ops += outcome.attempted
        rnd.fibers += outcome.fibers
        rnd.witnesses += outcome.witnesses
    return rnd


def percentile(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


# ---------------------------------------------------------------------------
# the two modes


def end_to_end(args, plan, cases, gate) -> dict:
    setup = measure_setup(cases, runs=2 if args.tiny else SETUP_RUNS)
    rounds = []
    start = perf_counter()
    while True:
        rounds.append(run_round(plan, round_seed(args.seed, len(rounds)), gate))
        typical = statistics.median(r.wall for r in rounds)
        if len(rounds) >= MIN_ROUNDS and perf_counter() - start + typical > args.seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Mean, not median, over rounds: after round 1 every round draws other
    # points, so the mean averages over the seeded inputs, and calibration
    # has already taken out the machine's drift.
    wall = statistics.mean(r.scaled_wall for r in rounds)
    ops = statistics.mean(r.ops for r in rounds) / wall
    fibers = statistics.mean(r.fibers for r in rounds) / wall
    print("rounds: %d  wall per round, raw (s): %s  at nominal speed (s): %s" % (
        len(rounds), " ".join(f"{r.wall:.3f}" for r in rounds),
        " ".join(f"{r.scaled_wall:.3f}" for r in rounds)))
    print("setup per fresh process, raw (s): %s  at nominal speed (s): %s" % (
        " ".join(f"{raw:.4f}" for raw, _ in setup),
        " ".join(f"{nominal:.4f}" for _, nominal in setup)))
    if fibers:
        print(f"fibers_per_s: {fibers:.4f} 1/s at nominal speed "
              f"({rounds[0].fibers} fibers per round)")
    for name in rounds[0].times:
        print(f"  {name:<18} {statistics.mean(r.scaled[name] for r in rounds):9.4f} s")
    return {
        "setup_s": statistics.median(nominal for _, nominal in setup),
        "wall_s": wall,
        "ops_per_s": ops,
        "peak_rss_mb": rss_mb,
        "ok_ratio": 1 - gate.failed / gate.attempted,
    }


def per_layer(args, plan, gate) -> tuple:
    """Per-layer metrics and the names of expected spans that did not fire."""
    import frozen
    from tracing import COUNTERS, EXPECTED, Tracer
    from workloads import all_command_names

    plain = run_round(plan, args.seed, gate, calibrated=False)
    tracer = Tracer()
    with tracer:
        traced = [run_round(plan, round_seed(args.seed, 2 * r), gate, calibrated=False)
                  for r in range(TRACED_ROUNDS)]
    missing = sorted((EXPECTED[args.workload] | COUNTERS) - tracer.fired())

    m = {f"scans.cmd_s.{name}": plain.times.get(name, 0.0) for name in all_command_names()}
    t = tracer.total
    m["cli.emit_s"] = t("cli.emit_report")
    m["catalog.make_case_s"] = t("catalog.make_case")
    m["catalog.sample_s"] = t("catalog.sample_point") + t("catalog.sample_za_values")
    m["catalog.recipe_s"] = t("catalog.recipe_for")
    m["fiber.build_self_s"] = tracer.self_time("fiber.build_fiber")
    m["fiber.assoc_s"] = t("fiber.check_associativity")
    m["fiber.trace_rank_s"] = t("fiber.trace_form_rank")
    m["fiber.center_dim_s"] = t("fiber.center_dimension")
    lat = sorted(x * 1e3 for x in tracer.fiber_latencies())
    m["fiber.latency_ms.p50"] = percentile(lat, 50) if lat else 0.0
    m[f"fiber.latency_ms.p{LATENCY_PCT}"] = percentile(lat, LATENCY_PCT) if lat else 0.0
    dims = tracer.fibers()
    m["fiber.count"] = len(dims)
    m["fiber.witness_count"] = sum(r.witnesses for r in traced)
    m["fiber.kept_ratio"] = (sum(d for d, _ in dims) / sum(b for _, b in dims)) if dims else 0.0
    m["skew.center_basis_s"] = t("skew.center_basis")
    m["skew.verify_s"] = t("skew.verify_generating_set")
    m["skew.invariant_basis_s"] = t("skew.invariant_basis")
    m["skew.stabilizer_s"] = t("skew.stabilizer_of_point")
    m["series.molien_s"] = t("series.molien_series")
    m["series.counts_s"] = t("series.invariant_dimensions") + t("series.compare_with_counts")
    m["skew.mul_calls"] = tracer.count("skew.mul")
    m["planes.mul_calls"] = tracer.count("planes.mul")
    m["planes.act_calls"] = tracer.count("planes.act")
    adds = tracer.count("linalg.add")
    m["linalg.add_calls"] = adds
    m["linalg.add_useful_ratio"] = tracer.useful_adds / adds if adds else 0.0
    m["linalg.self_s"] = tracer.linalg_s
    muls = tracer.count("cyclotomic.mul")
    m["cyclotomic.mul_calls"] = muls
    m["cyclotomic.inv_calls"] = tracer.count("cyclotomic.inv")
    m["cyclotomic.mul_rational_share"] = tracer.rational_muls / muls if muls else 0.0
    m["trace_overhead_ratio"] = traced[0].wall / plain.wall
    m.update(frozen.linalg_timings(args.seed))
    m.update(frozen.cyclo_timings(args.seed))

    print(f"untraced round {plain.wall:.3f} s, traced rounds "
          + " ".join(f"{r.wall:.3f}" for r in traced) + " s")
    print(f"fiber latencies: {len(lat)} samples (p{LATENCY_PCT} has "
          f"{len(lat) - math.ceil(LATENCY_PCT / 100 * len(lat))} beyond it)")
    for counter in ("cyclotomic.mul", "planes.mul", "linalg.add"):
        top = sorted(tracer.by_parent(counter).items(), key=lambda kv: -kv[1])[:6]
        print(f"{counter} by parent span: "
              + ", ".join(f"{parent}={n}" for parent, n in top))
    absent = [name for name, value in m.items() if value == 0]
    if absent:
        print(f"absent on {args.workload} (no span of that layer runs here): "
              + ", ".join(absent))
    return m, missing


# ---------------------------------------------------------------------------


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smaller samples, windows and degrees (smoke check only)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_qks()
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from gate import Gate, expectation
    from workloads import cases, commands

    cmds = commands(args.workload, args.tiny)
    plan = [(cmd, expectation(cmd)) for cmd in cmds]
    gate = Gate()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    if args.trace:
        values, missing = per_layer(args, plan, gate)
        units = layer_units()
    else:
        values, missing = end_to_end(args, plan, cases(args.workload, args.tiny), gate), []
        units = END_TO_END
    print(f"operations attempted {gate.attempted}, failed {gate.failed}, "
          f"fail_ratio {gate.failed / gate.attempted}")
    for problem in gate.problems:
        print(f"MISMATCH {problem}")
    if missing:
        print("MISSING spans or counters: " + ", ".join(missing))
    result = {
        "correct": gate.failed == 0 and not missing,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
