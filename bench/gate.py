"""Correctness gate: every qks report is checked against the catalog.

An operation is one command or one fiber point inside a scan.  Each command
is checked for its exit code, verdict and pass flag; each scan point for its
certificate, fiber dimension and rank d.  Expectations come from the catalog
(`expected_d`, `azumaya_expected`) and, for the negative controls, from the
removed locus of the fully localized case: a point on that locus must be a
witness, a point off it must be central simple.  A `no-admissible-point` or
`build-failed` record is never accepted as a witness.  Witness text is not
compared.  Repeats of a command at the same seed must emit identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from qks.catalog import make_case
from qks.cyclotomic import parse_cyclo
from qks.scans import default_window


@dataclass(frozen=True)
class Expectation:
    kind: str                     # qks subcommand
    exit_code: int = 0
    passed: bool = True
    verdict: str | None = None    # None: derived from the points (freeness)
    expected_d: int | None = None
    azumaya: bool | None = None
    samples: int | None = None
    degree: int | None = None
    window: int | None = None
    guards: tuple | None = None
    group_order: int | None = None
    conductor: int = 1
    locus: tuple = ()             # removed-locus polynomials of the full case
    presentation: object = None   # presentation that evaluates them


def _option(argv, flag, default=None):
    argv = list(argv)
    if flag in argv:
        return int(argv[argv.index(flag) + 1])
    return default


def expectation(cmd) -> Expectation:
    """The catalog's expectation for one workload command."""
    kind = cmd.kind
    if kind == "molien":
        return Expectation(kind, verdict="match")
    case_id, kwargs = cmd.case
    case = make_case(case_id, **kwargs)
    base = Expectation(kind, conductor=case.conductor, expected_d=case.expected_d,
                       azumaya=case.azumaya_expected, group_order=case.ring.group.order)
    if kind in ("scan", "freeness"):
        locus, pres = (), None
        if case.azumaya_expected is False:
            full = make_case(case_id, **{**kwargs, "localization": "full"})
            locus, pres = tuple(full.presentation.localized_at), full.presentation
        verdict = None
        if kind == "scan":
            verdict = (f"azumaya-consistent({case.expected_d})" if case.azumaya_expected
                       else "not-azumaya(witnessed)")
        return replace(base, verdict=verdict, samples=_option(cmd.argv, "--samples"),
                       locus=locus, presentation=pres)
    if kind == "auslander":
        degree, guard = _option(cmd.argv, "--degree"), _option(cmd.argv, "--guard")
        return replace(base, verdict="agree", degree=degree,
                       guards=(degree + guard, degree + guard + 2))
    if kind == "center":
        window = _option(cmd.argv, "--degree", default_window(case))
        verdict = ("computed" if case.presentation is None
                   else "matches-catalog-generators")
        return replace(base, verdict=verdict, window=window)
    if kind == "invariants":
        return replace(base, verdict="computed", window=_option(cmd.argv, "--degree", 8))
    raise ValueError(f"no expectation for command {kind!r}")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    fibers: int = 0
    witnesses: int = 0


class Gate:
    """Counts operations and mismatches over a run; keeps the first bytes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self._first: dict = {}

    def _fail(self, out: Outcome, cmd_name: str, message: str):
        out.failed += 1
        if len(self.problems) < 50:
            self.problems.append(f"{cmd_name}: {message}")

    def check(self, cmd, exp: Expectation, rc: int, text: str, seed: int) -> Outcome:
        """Check one command's exit code and JSON report; returns its counts."""
        out = Outcome()
        self._check_command(cmd.name, exp, rc, text, seed, out)
        self.attempted += out.attempted
        self.failed += out.failed
        return out

    def _check_command(self, name, exp, rc, text, seed, out):
        out.attempted += 1
        key = (name, seed)
        first = self._first.setdefault(key, text)
        if first != text:
            self._fail(out, name, "JSON bytes differ from an earlier repeat at the same seed")
        if rc != exp.exit_code:
            self._fail(out, name, f"exit code {rc}, expected {exp.exit_code}")
        try:
            self._check_report(name, exp, json.loads(text), out)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            self._fail(out, name, f"malformed report: {exc!r}")

    def _check_report(self, name, exp, report, out):
        points = report.get("points") if exp.kind in ("scan", "freeness") else None
        verdict = exp.verdict
        if exp.kind == "freeness":
            verdict = self._freeness_points(name, exp, points or [], out)
        if report.get("verdict") != verdict or report.get("pass") is not exp.passed:
            self._fail(out, name, f"verdict {report.get('verdict')!r} pass "
                                  f"{report.get('pass')!r}, expected {verdict!r} {exp.passed!r}")
        if exp.kind == "scan":
            self._scan_points(name, exp, points or [], out)
        elif exp.kind == "auslander":
            self._auslander(name, exp, report, out)
        elif exp.kind == "center":
            if report.get("window") != exp.window or \
                    report.get("generators_verified") is not True:
                self._fail(out, name, "window or generator verification differs")
        elif exp.kind == "invariants":
            if report.get("window") != exp.window or \
                    sum(report.get("dims", {}).values()) != len(report.get("basis", [])):
                self._fail(out, name, "window or graded dimensions differ")
        elif exp.kind == "molien":
            if not (report.get("closed_form_equal") and report.get("counts_equal")):
                self._fail(out, name, "series comparison failed")

    def _scan_points(self, name, exp, points, out):
        if len(points) != exp.samples:
            self._fail(out, name, f"{len(points)} points, expected {exp.samples}")
        d = exp.expected_d
        for idx, rec in enumerate(points):
            out.attempted += 1
            cert = rec.get("certificate")
            if cert in ("central-simple", "not-central-simple"):
                out.fibers += 1
            want = "central-simple"
            if exp.azumaya is False and self._on_locus(exp, rec.get("values", {})):
                want = "not-central-simple"
            ok = cert == want and rec.get("fiber_dim") == d * d
            if want == "central-simple":
                ok = ok and rec.get("d") == d
            else:
                out.witnesses += cert == want
            if not ok:
                self._fail(out, name, f"point {idx}: {cert} dim {rec.get('fiber_dim')} "
                                      f"d {rec.get('d')}, expected {want} dim {d * d} d {d}")
        if exp.azumaya is False and out.witnesses == 0:
            self._fail(out, name, "negative control without a witness fiber")

    @staticmethod
    def _on_locus(exp, values: dict) -> bool:
        vals = {k: parse_cyclo(v, exp.conductor) for k, v in values.items()}
        if set(exp.presentation.names) - set(vals):
            return False    # no point was drawn: never a witness
        return any(exp.presentation.eval_namepoly_at(np_, vals).is_zero()
                   for np_ in exp.locus)

    def _freeness_points(self, name, exp, points, out) -> str:
        """Expected verdict from the points; each stabilizer is checked.

        The workload's freeness controls are swap actions (|G| = 2): a point
        (z0, z1) is stabilized exactly when z0 == z1."""
        if exp.group_order != 2 or len(points) != exp.samples:
            self._fail(out, name, "unexpected group or point count")
            return ""
        stabilized = 0
        for idx, rec in enumerate(points):
            z = [parse_cyclo(rec["values"][f"z{i}"], exp.conductor) for i in range(2)]
            want = 2 if z[0] == z[1] else 1
            stabilized += want == 2
            if rec.get("stabilizer_order") != want:
                self._fail(out, name, f"point {idx}: stabilizer order "
                                      f"{rec.get('stabilizer_order')}, expected {want}")
        return f"not-free({stabilized} stabilized points)" if stabilized else "free"

    def _auslander(self, name, exp, report, out):
        rows = report.get("degrees", [])
        ok = tuple(report.get("guards", ())) == exp.guards and len(rows) == exp.degree + 1
        for j, row in enumerate(rows):
            dim = (j + 1) * exp.group_order
            ok = ok and row.get("j") == j and row.get("stable") is True \
                and row.get("injective") is True \
                and row.get("dim_hom") == row.get("dim_skew_ring") == dim
        if not ok:
            self._fail(out, name, "graded endomorphism rows differ from dim (A#G)_j")
