"""Workbench operations: Azumaya scans, freeness scans, the graded
endomorphism check, Molien cross-checks, and deterministic reports.

Reports render to a fixed-width human table or to JSON with stable keys
{"case", "params", "seed", "conductor", "points", "verdict", "expected_d",
"pass"}, so that emitted bytes are identical for identical inputs and seed.
`cli` prints the elapsed time to stderr, the only side record.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cache

from .catalog import (
    CaseSpec,
    CatalogError,
    recipe_for,
    sample_point,
    sample_za_values,
)
from .fiber import FiberError, build_fiber, matrix_algebra_certificate
from .linalg import Echelon, span
from .series import (
    compare_with_counts,
    cyclic_diag_rep,
    dihedral_3dim_rep,
    dihedral_invariant_series,
    invariant_dimensions,
    kleinian_a_series,
    molien_series,
)
from .skew import (
    SkewRing,
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


def _certify_point(case: CaseSpec, point) -> dict:
    """Build the point's fiber and certify it: the point's report record."""
    rec = {"values": {name: v.to_str() for name, v in sorted(point.values.items())}}
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


def _stabilized_draws(case: CaseSpec, samples: int, stabilized: bool = False) -> list:
    """Which of the `samples` draws lie on the stabilized locus: all of them
    when `stabilized`, else every third for a negative control that keeps
    the locus.  A negative control's witnesses lie there, so one with no
    stabilized draw and no witness is inconclusive."""
    if samples < 1:
        raise CatalogError("samples must be >= 1")
    mix = case.azumaya_expected is False and case.keeps_stabilized
    return [stabilized or (mix and idx % 3 == 2) for idx in range(samples)]


def azumaya_scan(case: CaseSpec, samples: int, seed: int,
                 stabilized: bool = False) -> Report:
    """Sample admissible central points, build fibers, certify, aggregate."""
    draws = _stabilized_draws(case, samples, stabilized)
    if stabilized and not case.keeps_stabilized:
        raise CatalogError(f"stabilized sampling: {case.label} ({case.localization}) "
                           "removes stabilized points")
    base = {"expected_d": case.expected_d, "points": []}
    if case.azumaya_expected is None:
        return Report("scan", case.label, case.params(), seed, case.conductor,
                      base, f"not-applicable: {case.scan_reason}", None)
    rng = random.Random(seed)
    # a sampler give-up is no witness: it never counts as a failure
    points, ds, failures, giveups = [], set(), 0, 0
    for stab in draws:
        try:
            point = sample_point(case, rng, stabilized=stab)
        except CatalogError as exc:
            points.append({"values": {}, "fiber_dim": None,
                           "certificate": "no-admissible-point", "witness": str(exc)})
            giveups += 1
            continue
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
    elif case.azumaya_expected is False and not any(draws):
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
                  verdict, passed)


# ---------------------------------------------------------------------------
# freeness scan


def freeness_scan(case: CaseSpec, samples: int, seed: int) -> Report:
    """Sample Z(A) points (respecting the localization), report stabilizers.

    Not applicable with a scan reason, or else where the action's inner part
    N is not {e}.  Verdict "free" iff all sampled stabilizers are trivial;
    cross-referenced against the case's Azumaya expectation (the two must
    agree for X-outer actions with an Azumaya coefficient ring)."""
    draws = _stabilized_draws(case, samples)
    body = {"points": [], "azumaya_expected": case.azumaya_expected}
    if case.scan_reason or len(case.ring.inner_part()) > 1:
        reason = case.scan_reason or "the action is not X-outer on this localization"
        return Report("freeness", case.label, case.params(), seed, case.conductor,
                      body, f"not-applicable: {reason}", None)
    rng = random.Random(seed)
    group = case.ring.group
    witnesses = 0
    for stab_draw in draws:
        values = sample_za_values(case, rng, stabilized=stab_draw)
        stab = stabilizer_of_point(case.ring, values)
        rec = {"values": {f"z{i}": v.to_str() for i, v in enumerate(values)},
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
    if case.azumaya_expected is False and not witnesses and not any(draws):
        verdict, passed = "inconclusive(no stabilized point drawn)", None
    return Report("freeness", case.label, case.params(), seed, case.conductor,
                  body, verdict, passed)


# ---------------------------------------------------------------------------
# graded endomorphism-ring check


def _invariant_algebra_generators(algebra, group, upto: int):
    """Minimal homogeneous algebra generators of A^G up to the given degree,
    from a ring of its own: the benchmark's frozen inputs pass the pair."""
    gens: list = []
    subalgebra_basis_by_degree(algebra, gens, upto,
                               adopt=invariant_basis(SkewRing(algebra, group), upto))
    return gens


def _hom_layout(j: int, cap: int) -> tuple:
    """Columns of the degree-j maps phi on A_{<=cap}: (offsets, total).

    A_d has the d + 1 monomials u^x v^(d-x), indexed by x.  The coordinate
    of phi(b) at c, for b the b_idx-th monomial of A_i and c the c_idx-th of
    A_{i+j}, is column offsets[i] + b_idx * (i + j + 1) + c_idx.  Blocks
    run by descending domain degree, so for every c < cap the cap-c layout
    is the last blocks of this one, shifted by offsets[c]."""
    offsets, total = {}, 0
    for i in range(cap, -1, -1):
        offsets[i] = total
        total += (i + 1) * (i + j + 1)
    return offsets, total


def _hom_products(algebra, gens):
    """products(n, x, d): the terms (u-exponent, c, -c) of the product
    u^x v^(d-x) gens[n].  Each product is built once for the life of the
    memo: one auslander check owns one, across its degrees and targets."""

    @cache
    def products(n: int, x: int, d: int) -> list:
        return [(mono[0], c, -c)
                for mono, c in (algebra.monomial(x, d - x) * gens[n]).terms.items()]

    return products


def _hom_rows(algebra, gens, j: int, cap: int):
    """Equations phi(b s) = phi(b) s of the truncated Hom system, one row per
    (s, b, target monomial), by ascending target degree deg b + deg s."""
    offsets, _ = _hom_layout(j, cap)
    products = _hom_products(algebra, gens)
    for target in range(cap + 1):
        yield from _hom_target_rows(gens, j, offsets, target, products)


def _hom_target_rows(gens, j: int, offsets, target: int, products):
    """The rows of `_hom_rows` of one target degree, from the memo
    `products` of `_hom_products`.  A row holds phi(b s) in block `target`,
    which no row of a lower target touches, and phi(b) s in a lower block:
    added by ascending target, a pivot in block `target` is back-eliminated
    only from rows of the same target."""
    for n, s in enumerate(gens):
        i = target - s.degree()  # deg s >= 1: phi(b s), phi(b) in different blocks
        if i < 0:
            continue
        width = target + j + 1  # the monomials of A_{target+j}
        # -(c s) in target coordinates, for each c in A_{i+j}: the same
        # for every b
        minus_cs = [[(star, minus) for star, _c, minus in products(n, x, i + j)]
                    for x in range(i + j + 1)]
        for b_idx in range(i + 1):
            rows: dict = {}
            for mono_u, ce, _minus in products(n, b_idx, i):
                first = offsets[target] + mono_u * width
                for star in range(width):
                    rows.setdefault(star, {})[first + star] = ce
            first = offsets[i] + b_idx * (i + j + 1)
            for c_idx, entries in enumerate(minus_cs):
                for star, ce in entries:
                    rows.setdefault(star, {})[first + c_idx] = ce
            yield from rows.values()


def _hom_dimension(algebra, group, gens, j: int, cap: int, products=None,
                   lower=None, generated=None) -> list:
    """dims[c] = dim of degree-j truncated right-A^G-module endomorphisms of
    A_{<=c}, for every c <= cap, from one elimination: the rows of target
    degree <= c are the cap-c system in its columns shifted by offsets[c].
    `products` is the caller's `_hom_products` memo, or None for one of its
    own.

    `lower` (a proven lower bound on the exact dimension at `cap`, or None)
    and `generated` (`_generated_from` of `gens`) are given together, and
    stop the elimination at the first c >= generated with dims[c] == lower;
    every later cap is then exactly `lower`.  Three facts make it so:
    1. A_t = A_1 A_{t-1} on both planes, so A_t = sum_s A_{t-deg s} s holds
       at every t > generated once it holds at generated + 1;
    2. so past `generated` a solution on A_{<=t} is fixed by its values on
       A_{<t}, and the exact dimension cannot rise;
    3. `lower` is proven at `cap`, and an exact dimension at any
       c >= generated bounds the one at `cap` from above.
    So lower <= dims[cap] <= dims[c'] <= dims[c] for
    generated <= c <= c' <= cap, and a stop at c with dims[c] == lower
    pins every later cap.  With the defaults the elimination runs to
    `cap`."""
    offsets, total = _hom_layout(j, cap)
    if products is None:
        products = _hom_products(algebra, gens)
    ech, dims = Echelon(), []
    for c in range(cap + 1):
        for row in _hom_target_rows(gens, j, offsets, c, products):
            ech.add(row)
        dims.append(total - offsets[c] - ech.rank)
        if lower is not None and c >= generated and dims[c] == lower:
            return dims + [lower] * (cap - c)
    return dims


def _generated_from(gens, cap: int, products) -> int:
    """t0 = the largest degree t with A_t != sum_s A_{t-deg s} s, s running
    over the invariant generators `gens`, or `cap` when t0 >= cap: A is
    generated in degrees <= t0 as a right A^G-module.  Since A_t = A_1 A_{t-1},
    the first t whose products `products(n, x, t - deg s)` span A_t is
    t0 + 1."""
    for t in range(1, cap + 1):
        ech = span({mono_u: c for mono_u, c, _minus in products(n, x, t - s.degree())}
                   for n, s in enumerate(gens) for x in range(t - s.degree() + 1))
        if ech.rank == t + 1:
            return t - 1
    return cap


def _natural_map_images(ring, j: int, cap: int):
    """Images of the basis a f of (A#G)_j, x -> a (f.x), in the columns of
    `_hom_layout`; a (f.x) is the A-part of (a f)(x e)."""
    offsets, _ = _hom_layout(j, cap)
    for a in range(j + 1):
        for f in ring.group.elements():
            vec: dict = {}
            for i in range(cap + 1):
                for x in range(i + 1):
                    first = offsets[i] + x * (i + j + 1)
                    for mono, c in ring.mono_product((a, j - a), f, (x, i - x)).items():
                        vec[first + mono[0]] = c
            yield vec


def _natural_map_rank(ring, j: int, cap: int) -> int:
    """Rank of (A#G)_j -> truncated endomorphisms, a f -> (x -> a (f.x)).
    Each x -> sum c a (f.x) is right A^G-linear, so for cap >= t0 of
    `_generated_from` the kernel, and so the rank, is the same at every cap."""
    return span(_natural_map_images(ring, j, cap)).rank


def auslander_check(case: CaseSpec, degree: int, guard: int) -> Report:
    """Compare dim (A#G)_j with the stable truncated dim Hom_{A^G}(A, A)_j.

    Dimensions are computed at truncation caps degree+guard and
    degree+guard+2; degrees whose value moves between the caps are flagged
    inconclusive rather than reported.  Both are read at once from the
    degree t0 up to which A is generated over A^G (`_generated_from`):
    1. A_t = A_1 A_{t-1}, so A_t = sum_s A_{t-deg s} s for every t > t0;
    2. so past t0 a truncated Hom solution is fixed by its values on lower
       degrees, and its dimension cannot rise;
    3. dim (A#G)_j bounds it from below at the top cap when the natural map
       is injective, and the dimension at a cap c >= t0 bounds it from
       above; once the two meet at c, every cap from c up holds that value.
    The natural map a f -> (x -> a (f.x)) is right A^G-linear, so its
    kernel on A_{<=t0} is its kernel on all of A: injectivity is read at
    min(t0, degree+guard)."""
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
    products = _hom_products(algebra, gens)
    generated = _generated_from(gens, caps[1], products)
    for j in range(degree + 1):
        dim_skew = (j + 1) * group.order
        injective = _natural_map_rank(case.ring, j, min(generated, caps[0])) == dim_skew
        dims = _hom_dimension(algebra, group, gens, j, caps[1], products,
                              dim_skew if injective else None, generated)
        hom_lo, hom_hi = dims[caps[0]], dims[caps[1]]
        stable = hom_lo == hom_hi
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
                  body, verdict, passed)


# ---------------------------------------------------------------------------
# Molien / series check


# case id -> (representation, closed-form Molien series, label), each of m
SERIES = {
    "i": (cyclic_diag_rep, kleinian_a_series, "C_{m} on 2 variables"),
    "iii": (dihedral_3dim_rep, dihedral_invariant_series, "D_{m} on 3 variables"),
}


def series_check(case_id: str, m: int, degree: int) -> Report:
    """Molien series of the catalog representation vs closed form vs counts."""
    case_id = str(case_id)
    entry = SERIES.get(case_id)
    if entry is None:
        raise CatalogError("series_check supports case ids i (cyclic) and iii (dihedral)")
    if m < 1:
        raise CatalogError("m (the group parameter) must be >= 1")
    if degree < 0:
        raise CatalogError("degree (the series truncation) must be >= 0")
    rep_of, closed_of, label = entry
    rep, closed, label = rep_of(m), closed_of(m), label.format(m=m)
    mol = molien_series(rep)
    closed_ok = mol == closed
    counts = invariant_dimensions(rep, degree)
    counts_ok = compare_with_counts(mol, counts)
    expansion = [str(c.as_fraction()) for c in mol.expand(degree)]
    verdict = "match" if (closed_ok and counts_ok) else "mismatch"
    body = {"representation": label, "molien": repr(mol),
            "closed_form": repr(closed), "closed_form_equal": closed_ok,
            "invariant_counts": counts, "expansion": expansion,
            "counts_equal": counts_ok}
    return Report("series", f"case {case_id}", {"m": m, "degree": degree}, None,
                  m, body, verdict, closed_ok and counts_ok)


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
    """Z(T) over the window against the catalog's generators; a window that
    holds none of them would match vacuously, so it is an error."""
    window = window if window is not None else default_window(case)
    _check_window(window)
    if case.presentation is not None:
        degs = sorted(g.degree() for g in case.presentation.gens.values())
        if all(abs(d) > window for d in degs):
            raise CatalogError(f"the window {window} holds no claimed generator of "
                               f"Z(T) (degrees {degs}); raise degree")
    basis = center_basis(case.ring, window)
    verified = None
    if case.presentation is not None:
        verified = verify_generating_set(case.presentation, window, center=basis)
    body = _graded_body(window, basis)
    body["generators_verified"] = verified
    if verified is None:
        verdict, passed = "computed", True
    elif verified:
        verdict, passed = "matches-catalog-generators", True
    else:
        verdict, passed = "catalog-generators-mismatch", False
    return Report("center", case.label, case.params(), None, case.conductor,
                  body, verdict, passed)


def invariants_report(case: CaseSpec, window: int) -> Report:
    _check_window(window)
    basis = invariant_basis(case.ring, window)
    return Report("invariants", case.label, case.params(), None, case.conductor,
                  _graded_body(window, basis), "computed", True)


def _graded_body(window: int, basis: list) -> dict:
    """The window, the number of basis elements in each degree and the basis."""
    dims: dict = {}
    for x in basis:
        dims[x.degree()] = dims.get(x.degree(), 0) + 1
    return {"window": window,
            "dims": {str(d): dims[d] for d in sorted(dims)},
            "basis": [repr(x) for x in basis]}


def fiber_report(case: CaseSpec, values: dict) -> Report:
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
                  body, verdict, passed)


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
