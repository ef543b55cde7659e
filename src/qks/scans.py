"""Workbench operations: Azumaya scans, freeness scans, the graded
endomorphism check, Molien cross-checks, and deterministic reports.

Reports render to a fixed-width human table or to JSON with stable keys
{"case", "params", "seed", "conductor", "points", "verdict", "expected_d",
"pass"}; wall-clock timings are kept on the in-memory report only so that
emitted bytes are identical for identical inputs and seed.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from .catalog import (
    CaseSpec,
    CatalogError,
    recipe_for,
    sample_point,
    sample_za_values,
)
from .cyclotomic import Cyclo
from .fiber import FiberError, build_fiber, matrix_algebra_certificate
from .linalg import Echelon, acc
from .planes import apply_automorphism
from .series import (
    compare_with_counts,
    cyclic_diag_rep,
    dihedral_3dim_rep,
    dihedral_invariant_series,
    invariant_dimensions,
    kleinian_a_series,
    molien_series,
    series_expand,
)
from .skew import (
    center_basis,
    invariant_basis,
    stabilizer_of_point,
    subalgebra_basis_by_degree,
    verify_generating_set,
)


@dataclass
class Report:
    command: str
    case: str
    params: dict
    seed: int | None
    conductor: int
    body: dict
    verdict: str
    passed: bool | None
    timings: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {"case": self.case, "params": self.params, "seed": self.seed,
               "conductor": self.conductor}
        out.update(self.body)
        out["verdict"] = self.verdict
        out["pass"] = self.passed
        return out

    @property
    def exit_code(self) -> int:
        if self.passed is True:
            return 0
        if self.passed is False:
            return 1
        return 2


def _fmt_value(c: Cyclo) -> str:
    return c.to_str()


def _certify_point(case: CaseSpec, point) -> dict:
    """Build the point's fiber and certify it: the point's report record."""
    rec = {"values": {name: _fmt_value(v) for name, v in sorted(point.values.items())}}
    try:
        fiber = build_fiber(case.ring, point, recipe_for(case, point))
        cert = matrix_algebra_certificate(fiber)
    except FiberError as exc:
        rec.update(fiber_dim=None, certificate="build-failed", witness=str(exc))
        return rec
    rec["fiber_dim"] = fiber.dim
    if cert.central_simple:
        rec.update(certificate="central-simple", d=cert.d)
    else:
        rec.update(certificate="not-central-simple", witness=cert.witness)
    return rec


# ---------------------------------------------------------------------------
# Azumaya scan


def azumaya_scan(case: CaseSpec, samples: int, seed: int,
                 stabilized: bool = False) -> Report:
    """Sample admissible central points, build fibers, certify, aggregate."""
    t0 = time.perf_counter()
    if samples < 1:
        raise CatalogError("samples must be >= 1")
    if stabilized and not case.keeps_stabilized:
        raise CatalogError(f"stabilized sampling: {case.label} ({case.localization}) "
                           "removes stabilized points")
    base = {"expected_d": case.expected_d, "points": []}
    if case.azumaya_expected is None:
        return Report("scan", case.label, case.params(), seed, case.conductor,
                      base, f"not-applicable: {case.scan_reason}", None,
                      {"total_s": time.perf_counter() - t0})
    rng = random.Random(seed)
    mix = case.azumaya_expected is False and case.keeps_stabilized
    # a sampler give-up is no witness: it never counts as a failure
    points, ds, failures, giveups, drew_stabilized = [], set(), 0, 0, False
    for idx in range(samples):
        stab = stabilized or (mix and idx % 3 == 2)
        try:
            point = sample_point(case, rng, stabilized=stab)
        except CatalogError as exc:
            points.append({"values": {}, "fiber_dim": None,
                           "certificate": "no-admissible-point", "witness": str(exc)})
            giveups += 1
            continue
        drew_stabilized |= stab
        rec = _certify_point(case, point)
        if rec["certificate"] == "central-simple":
            ds.add(rec["d"])
        else:
            failures += 1
        points.append(rec)
    if failures:
        verdict = "not-azumaya(witnessed)"
        passed = not case.azumaya_expected
    elif giveups:
        verdict = f"inconclusive({giveups} of {samples} points not sampled)"
        passed = None
    elif case.azumaya_expected is False and not drew_stabilized:
        # a negative control's witnesses lie on the stabilized locus
        verdict = "inconclusive(no stabilized point drawn)"
        passed = None
    elif len(ds) == 1:
        d = next(iter(ds))
        verdict = f"azumaya-consistent({d})"
        if case.azumaya_expected:
            passed = case.expected_d is None or d == case.expected_d
        else:
            passed = False  # expected a witness against the Azumaya property
    else:
        verdict = "inconsistent-rank"
        passed = False
    base["points"] = points
    return Report("scan", case.label, case.params(), seed, case.conductor, base,
                  verdict, passed, {"total_s": time.perf_counter() - t0})


# ---------------------------------------------------------------------------
# freeness scan


def freeness_scan(case: CaseSpec, samples: int, seed: int) -> Report:
    """Sample Z(A) points (respecting the localization), report stabilizers.

    Verdict "free" iff all sampled stabilizers are trivial; cross-referenced
    against the case's Azumaya expectation (the two must agree for X-outer
    actions with an Azumaya coefficient ring)."""
    t0 = time.perf_counter()
    if samples < 1:
        raise CatalogError("samples must be >= 1")
    body = {"points": [], "azumaya_expected": case.azumaya_expected}
    if not case.x_outer or case.za_gens is None:
        reason = case.scan_reason or "the action is not X-outer on this localization"
        return Report("freeness", case.label, case.params(), seed, case.conductor,
                      body, f"not-applicable: {reason}", None,
                      {"total_s": time.perf_counter() - t0})
    rng = random.Random(seed)
    group = case.ring.group
    mix = case.keeps_stabilized
    witnesses, drew_stabilized = 0, False
    for idx in range(samples):
        stab_draw = mix and idx % 3 == 2
        drew_stabilized |= stab_draw
        values = sample_za_values(case, rng, stabilized=stab_draw)
        stab = stabilizer_of_point(case.ring.algebra, group, case.za_gens, values)
        rec = {"values": {f"z{i}": _fmt_value(v) for i, v in enumerate(values)},
               "stabilizer_order": len(stab),
               "stabilizer": [group.element_str(f) for f in stab]}
        if len(stab) > 1:
            witnesses += 1
        body["points"].append(rec)
    verdict = "free" if witnesses == 0 else f"not-free({witnesses} stabilized points)"
    if case.azumaya_expected is None:
        passed = None
    else:
        passed = (witnesses == 0) == bool(case.azumaya_expected)
    if case.azumaya_expected is False and not witnesses and not drew_stabilized:
        # as in azumaya_scan: a negative control's witnesses are stabilized draws
        verdict, passed = "inconclusive(no stabilized point drawn)", None
    return Report("freeness", case.label, case.params(), seed, case.conductor,
                  body, verdict, passed, {"total_s": time.perf_counter() - t0})


# ---------------------------------------------------------------------------
# graded endomorphism-ring check


def _graded_basis(algebra, d: int) -> list:
    return [(a, d - a) for a in range(d + 1)]


def _invariant_algebra_generators(algebra, group, upto: int):
    """Minimal homogeneous algebra generators of A^G up to the given degree."""
    gens: list = []
    subalgebra_basis_by_degree(algebra, gens, upto,
                               adopt=invariant_basis(algebra, group, upto))
    return gens


def _hom_dimension(algebra, group, gens, j: int, cap: int) -> int:
    """dim of degree-j truncated right-A^G-module endomorphisms of A_{<=cap}."""
    basis = {i: _graded_basis(algebra, i) for i in range(cap + max(g.degree() for g in gens) + j + 1)}
    # columns ordered by descending domain degree: equation rows express the
    # high-degree block phi(b s) through lower blocks, so pivoting there keeps
    # the elimination close to forward substitution
    offsets, total = {}, 0
    for i in range(cap, -1, -1):
        offsets[i] = total
        total += len(basis[i]) * len(basis[i + j])

    def col(i, b_idx, c_idx):
        return offsets[i] + b_idx * len(basis[i + j]) + c_idx

    ech = Echelon()
    for s in gens:
        t = s.degree()
        for i in range(cap - t + 1):
            target = basis[i + t + j]
            tindex = {m: x for x, m in enumerate(target)}
            mid = basis[i + t]
            mindex = {m: x for x, m in enumerate(mid)}
            for b_idx, b in enumerate(basis[i]):
                bs = algebra.monomial(*b) * s
                rows: dict = {}
                for mono, ce in bs.terms.items():
                    e_idx = mindex[mono]
                    for star in range(len(target)):
                        rows.setdefault(star, {})[col(i + t, e_idx, star)] = ce
                for c_idx, c in enumerate(basis[i + j]):
                    cs = algebra.monomial(*c) * s
                    for mono, coeff in cs.terms.items():
                        acc(rows.setdefault(tindex[mono], {}), col(i, b_idx, c_idx), -coeff)
                for row in rows.values():
                    if row:
                        ech.add(row)
    return total - ech.rank


def _natural_map_rank(algebra, group, j: int, cap: int) -> int:
    """Rank of (A#G)_j -> truncated endomorphisms, a f -> (x -> a (f.x))."""
    basis = {i: _graded_basis(algebra, i) for i in range(cap + j + 1)}
    ech = Echelon()
    for m in basis[j]:
        a_poly = algebra.monomial(*m)
        for f in group.elements():
            vec: dict = {}
            pos = 0
            for i in range(cap + 1):
                tindex = {mm: x for x, mm in enumerate(basis[i + j])}
                width = len(basis[i + j])
                for b in basis[i]:
                    image = a_poly * apply_automorphism(group, f, algebra.monomial(*b))
                    for mono, c in image.terms.items():
                        vec[pos + tindex[mono]] = c
                    pos += width
            ech.add(vec)
    return ech.rank


def auslander_check(case: CaseSpec, degree: int, guard: int) -> Report:
    """Compare dim (A#G)_j with the stable truncated dim Hom_{A^G}(A, A)_j.

    Dimensions are computed at truncation caps degree+guard and
    degree+guard+2; degrees whose value moves between the caps are flagged
    inconclusive rather than reported."""
    t0 = time.perf_counter()
    if case.localization != "none":
        raise CatalogError("the endomorphism check uses the graded, unlocalized ring")
    if degree < 0:
        raise CatalogError("degree must be >= 0")
    if guard < 0:
        raise CatalogError("guard must be >= 0")
    algebra, group = case.ring.algebra, case.ring.group
    caps = (degree + guard, degree + guard + 2)
    gens = _invariant_algebra_generators(algebra, group, caps[1])
    if not gens:
        raise CatalogError(f"A^G has no generators up to degree {caps[1]}; raise guard")
    rows = []
    any_unstable = False
    all_agree = True
    for j in range(degree + 1):
        dim_skew = (j + 1) * group.order
        hom_lo = _hom_dimension(algebra, group, gens, j, caps[0])
        hom_hi = _hom_dimension(algebra, group, gens, j, caps[1])
        stable = hom_lo == hom_hi
        injective = _natural_map_rank(algebra, group, j, caps[0]) == dim_skew
        row = {"j": j, "dim_skew_ring": dim_skew,
               "dim_hom": hom_lo if stable else None,
               "stable": stable, "injective": injective}
        rows.append(row)
        if not stable:
            any_unstable = True
        elif hom_lo != dim_skew or not injective:
            all_agree = False
    if any_unstable:
        verdict, passed = "inconclusive(truncation instability)", None
    elif all_agree:
        verdict, passed = "agree", True
    else:
        verdict, passed = "mismatch", False
    body = {"degrees": rows, "guards": list(caps),
            "invariant_generator_degrees": sorted(g.degree() for g in gens)}
    return Report("auslander", case.label, case.params(), None, case.conductor,
                  body, verdict, passed, {"total_s": time.perf_counter() - t0})


# ---------------------------------------------------------------------------
# Molien / series check


# case id -> (representation, closed-form Molien series, label), each of m
SERIES = {
    "i": (cyclic_diag_rep, kleinian_a_series, "C_{m} on 2 variables"),
    "iii": (dihedral_3dim_rep, dihedral_invariant_series, "D_{m} on 3 variables"),
}


def series_check(case_id: str, m: int, degree: int) -> Report:
    """Molien series of the catalog representation vs closed form vs counts."""
    t0 = time.perf_counter()
    case_id = str(case_id)
    entry = SERIES.get(case_id)
    if entry is None:
        raise CatalogError("series_check supports case ids i (cyclic) and iii (dihedral)")
    if degree < 0:
        raise CatalogError("degree (the series truncation) must be >= 0")
    rep_of, closed_of, label = entry
    rep, closed, label = rep_of(m), closed_of(m), label.format(m=m)
    mol = molien_series(rep)
    closed_ok = mol == closed
    counts = invariant_dimensions(rep, degree)
    counts_ok = compare_with_counts(mol, counts)
    expansion = [str(c.as_fraction()) for c in series_expand(mol, degree)]
    verdict = "match" if (closed_ok and counts_ok) else "mismatch"
    body = {"representation": label, "molien": repr(mol),
            "closed_form": repr(closed), "closed_form_equal": closed_ok,
            "invariant_counts": counts, "expansion": expansion,
            "counts_equal": counts_ok}
    return Report("series", f"case {case_id}", {"m": m, "degree": degree}, None,
                  max(m, 1), body, verdict, closed_ok and counts_ok,
                  {"total_s": time.perf_counter() - t0})


# ---------------------------------------------------------------------------
# direct center / invariant / single-fiber commands


def default_window(case: CaseSpec) -> int:
    """2 * (largest claimed generator degree) + 2, or 8 with no claim."""
    if case.presentation is None:
        return 8
    degs = [abs(g.degree()) for g in case.presentation.gens.values()]
    return 2 * max(degs) + 2


def _check_window(window: int):
    if window < 0:
        raise CatalogError("degree (the exponent window) must be >= 0")


def center_report(case: CaseSpec, window: int | None = None) -> Report:
    t0 = time.perf_counter()
    window = window if window is not None else default_window(case)
    _check_window(window)
    basis = center_basis(case.ring, window)
    dims: dict = {}
    for e in basis:
        dims[e.degree()] = dims.get(e.degree(), 0) + 1
    verified = None
    if case.presentation is not None:
        verified = verify_generating_set(case.presentation, window, center=basis)
    body = {"window": window,
            "dims": {str(d): dims[d] for d in sorted(dims)},
            "basis": [repr(e) for e in basis],
            "generators_verified": verified}
    if verified is None:
        verdict, passed = "computed", True
    elif verified:
        verdict, passed = "matches-catalog-generators", True
    else:
        verdict, passed = "catalog-generators-mismatch", False
    return Report("center", case.label, case.params(), None, case.conductor,
                  body, verdict, passed, {"total_s": time.perf_counter() - t0})


def invariants_report(case: CaseSpec, window: int | None = None) -> Report:
    t0 = time.perf_counter()
    window = window if window is not None else 8
    _check_window(window)
    basis = invariant_basis(case.ring.algebra, case.ring.group, window)
    dims: dict = {}
    for p in basis:
        dims[p.degree()] = dims.get(p.degree(), 0) + 1
    body = {"window": window,
            "dims": {str(d): dims[d] for d in sorted(dims)},
            "basis": [repr(p) for p in basis]}
    return Report("invariants", case.label, case.params(), None, case.conductor,
                  body, "computed", True, {"total_s": time.perf_counter() - t0})


def fiber_report(case: CaseSpec, values: dict) -> Report:
    t0 = time.perf_counter()
    if case.presentation is None:
        raise CatalogError(f"case {case.label} has no central presentation")
    names = case.presentation.names
    unknown = sorted(n for n in values if n not in names)
    if unknown:
        raise CatalogError(f"point names unknown generators {unknown}; "
                           f"the generators are {list(names)}")
    point = case.presentation.point(values)
    rec = _certify_point(case, point)
    if rec["certificate"] == "central-simple":
        verdict = f"central-simple({rec['d']})"
        passed = case.expected_d is None or rec["d"] == case.expected_d
    elif rec["certificate"] == "not-central-simple":
        verdict = f"not-central-simple: {rec['witness']}"
        passed = False if case.azumaya_expected else None
    else:
        verdict, passed = f"build-failed: {rec['witness']}", False
    body = {"expected_d": case.expected_d, "points": [rec]}
    return Report("fiber", case.label, case.params(), None, case.conductor,
                  body, verdict, passed, {"total_s": time.perf_counter() - t0})


# ---------------------------------------------------------------------------
# report emission


def emit_report(report: Report, fmt: str = "human", path: str | None = None) -> str:
    if fmt == "json":
        text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    elif fmt == "human":
        text = _human_text(report)
    else:
        raise CatalogError(f"unknown format {fmt!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _human_text(report: Report) -> str:
    lines = []
    title = f"{report.command}: {report.case}"
    lines.append(title)
    lines.append("=" * len(title))
    params = ", ".join(f"{k}={v}" for k, v in sorted(report.params.items()))
    lines.append(f"params: {params or '-'}   seed: {report.seed}   conductor: {report.conductor}")
    if "points" in report.body:
        rows = report.body["points"]
        lines.append(f"{'#':>3}  {'point':<44} {'dim':>5}  {'certificate':<20} {'d/witness':<30}")
        lines.append("-" * 106)
        for idx, rec in enumerate(rows):
            vals = rec.get("values", {})
            pv = ", ".join(f"{k}={v}" for k, v in vals.items())
            dim = rec.get("fiber_dim")
            cert = rec.get("certificate", rec.get("stabilizer_order", ""))
            extra = rec.get("d", rec.get("witness", ""))
            if "stabilizer_order" in rec:
                cert = f"stabilizer order {rec['stabilizer_order']}"
                extra = ",".join(rec["stabilizer"])
            lines.append(f"{idx:>3}  {pv[:44]:<44} {str(dim or ''):>5}  {str(cert):<20} {str(extra)[:30]:<30}")
    if "dims" in report.body:
        lines.append(f"window: {report.body['window']}")
        lines.append("degree : dimension")
        for d, count in report.body["dims"].items():
            lines.append(f"{d:>6} : {count}")
        for text_elt in report.body["basis"]:
            lines.append(f"  {text_elt}")
        if report.body.get("generators_verified") is not None:
            lines.append(f"catalog generators verified: {report.body['generators_verified']}")
    if "degrees" in report.body:
        lines.append(f"{'j':>3}  {'dim (A#G)_j':>12}  {'dim Hom_j':>10}  {'stable':>7}  {'injective':>9}")
        lines.append("-" * 50)
        for row in report.body["degrees"]:
            lines.append(f"{row['j']:>3}  {row['dim_skew_ring']:>12}  "
                         f"{str(row['dim_hom']):>10}  {str(row['stable']):>7}  {str(row['injective']):>9}")
        lines.append(f"guards: {report.body['guards']}")
    if "molien" in report.body:
        lines.append(f"representation: {report.body['representation']}")
        lines.append(f"molien      = {report.body['molien']}")
        lines.append(f"closed form = {report.body['closed_form']} "
                     f"(equal: {report.body['closed_form_equal']})")
        lines.append(f"counts      = {report.body['invariant_counts']} "
                     f"(equal: {report.body['counts_equal']})")
    if report.body.get("expected_d") is not None:
        lines.append(f"expected d: {report.body['expected_d']}")
    lines.append(f"verdict: {report.verdict}")
    lines.append(f"pass: {report.passed}")
    return "\n".join(lines) + "\n"
