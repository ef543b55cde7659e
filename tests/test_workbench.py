"""Catalog integrity, scan orchestration, reports and the CLI."""

import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from qks import scans
from qks.catalog import (
    CatalogError,
    make_case,
    matched_inner_pair,
    sample_point,
    sample_za_values,
)
from qks.cli import main
from qks.cyclotomic import Cyclo
from qks.fiber import FiberError, build_fiber
from qks.linalg import Echelon, span
from qks.planes import AlgebraError, Group, NCPoly
from qks.scans import (
    auslander_check,
    azumaya_scan,
    center_report,
    emit_report,
    fiber_report,
    freeness_scan,
    invariants_report,
    series_check,
)
from qks.skew import SkewRing


ALL_CASE_ARGS = [
    ("0", dict(localization="none")),
    ("0", dict(localization="full")),
    ("i", dict(n=2, k=2)),
    ("i", dict(n=3, k=2)),
    ("i", dict(n=2, k=4)),
    ("i", dict(n=2, k=2, localization="none")),
    ("ii", dict(localization="none")),
    ("ii", dict(localization="torus")),
    ("ii", dict(localization="full")),
    ("iii", dict(n=2)),
    ("iii", dict(n=3)),
    ("iii", dict(n=3, localization="torus")),
    ("iii", dict(n=4, localization="none")),
    ("iv", dict()),
]


@pytest.mark.parametrize("case_id,kwargs", ALL_CASE_ARGS)
def test_catalog_cases_construct(case_id, kwargs):
    case = make_case(case_id, **kwargs)
    assert case.ring is not None
    if case.presentation is not None:
        # construction already ran validate(); spot-check homogeneity
        assert all(g.is_homogeneous() for g in case.presentation.gens.values())


def test_catalog_rejects_bad_arguments():
    with pytest.raises(CatalogError):
        make_case("v")
    with pytest.raises(CatalogError):
        make_case("iii")
    with pytest.raises(CatalogError):
        make_case("i", n=2)
    with pytest.raises(CatalogError):
        make_case("0", localization="torus")
    with pytest.raises(CatalogError, match="n, k"):
        make_case("ii", localization="torus", n=7, k=9)


def _skew_terms(x):
    return {f: p.terms for f, p in x.comps.items()}


@pytest.mark.parametrize("localization", ["none", "torus", "full"])
def test_case_ii_is_case_iii_at_n1(localization):
    # S_2 = D_1: the same ring and claims, with s2 named q2n and the names swapped
    ii = make_case("ii", localization=localization)
    iii = make_case("iii", n=1, localization=localization)
    a2, a3 = ii.ring.algebra, iii.ring.algebra
    assert (a2.kind, a2.q, a2.inverted) == (a3.kind, a3.q, a3.inverted)
    assert ii.ring.group.elements() == iii.ring.group.elements()
    for attr in ("expected_d", "azumaya_expected", "keeps_stabilized", "conductor"):
        assert getattr(ii, attr) == getattr(iii, attr), attr
    assert ii.ring.inner_part() == iii.ring.inner_part() == [(0, 0)]
    assert [z.terms for z in a2.center_generators()] == [z.terms for z in a3.center_generators()]
    p2, p3 = ii.presentation, iii.presentation
    assert (p2.names, p3.names) == (("s2", "y"), ("y", "q2n"))
    assert _skew_terms(p2.gens["s2"]) == _skew_terms(p3.gens["q2n"])
    assert _skew_terms(p2.gens["y"]) == _skew_terms(p3.gens["y"])
    assert p2.invertible == p3.invertible
    assert p2.localized_at == [{expo[::-1]: c for expo, c in np_.items()}
                               for np_ in p3.localized_at]
    assert (ii.case_id, ii.label, iii.label) == ("ii", "k_{-1}[u,v]#S2", "k_{-1}[u,v]#D1")
    assert "n" not in ii.params() and iii.params() == {**ii.params(), "n": 1}


@pytest.mark.parametrize("case_id,kwargs", [("0", {}), ("ii", {})]
                         + [("iii", dict(n=n)) for n in (1, 3, 5)])
def test_removed_locus_is_the_square_of_the_denominator(case_id, kwargs):
    # each localized_at entry, evaluated at the generators, is d^2 for the d
    # the full localization inverts: u - v on case 0, u^2n - v^2n on D_n
    # (S2 = D1)
    case = make_case(case_id, localization="full", **kwargs)
    pres, ring = case.presentation, case.ring
    e = 1 if case_id == "0" else 2 * kwargs.get("n", 1)
    d = ring.algebra.u(e) - ring.algebra.v(e)
    assert pres.localized_at
    for entry in pres.localized_at:
        assert pres.eval_relation(entry) == ring.from_poly(d * d)


@pytest.mark.parametrize("case_id,kwargs", [("0", {}), ("ii", {})]
                         + [("iii", dict(n=n)) for n in (1, 3, 5)])
def test_za_samplers_draw_off_the_removed_locus(case_id, kwargs):
    # draw_za's own test (a != b, alpha^n != beta^n) keeps every localized_at
    # entry nonzero at the generator values of its draws
    case = make_case(case_id, localization="full", **kwargs)
    pres = case.presentation
    e = case.ring.group.identity()
    l = case.ring.algebra.center_generators()[0].degree()
    rng = random.Random(11)
    for _ in range(200):
        big_u, big_v = sample_za_values(case, rng)
        values = {}
        for name, gen in pres.gens.items():
            assert set(gen.comps) == {e}
            values[name] = sum((c * big_u ** (a // l) * big_v ** (b // l)
                                for (a, b), c in gen.comps[e].terms.items()), Cyclo.zero())
        for entry in pres.localized_at:
            assert not pres.eval_namepoly_at(entry, values).is_zero()


def test_presentation_refuses_a_zero_locus():
    # a localization cannot invert 0: an empty entry, or the even-n relation
    # x^2 y + y^(m+1) + z^2 stated as a locus
    pres = make_case("0", localization="full").presentation
    with pytest.raises(AlgebraError, match="removed locus"):
        replace(pres, localized_at=[{}]).validate()
    pres = make_case("iii", n=4, localization="torus").presentation
    with pytest.raises(AlgebraError, match="removed locus"):
        replace(pres, localized_at=pres.relations).validate()
    replace(pres, localized_at=[{(0, 1, 0): Cyclo.one()}]).validate()


def test_case_ii_rejects_n_and_bad_localizations():
    with pytest.raises(CatalogError) as err:
        make_case("ii", localization="bogus")
    assert str(err.value) == "case ii supports localizations none | torus | full"
    assert "n=" not in str(err.value)
    with pytest.raises(CatalogError, match="does not take n"):
        make_case("ii", n=1)


def test_sampling_is_deterministic():
    case = make_case("ii", localization="full")
    first, second = (sample_point(case, random.Random(5)).values for _ in range(2))
    assert first["s2"] == second["s2"] and first["y"] == second["y"]
    vals1 = sample_za_values(case, random.Random(9))
    vals2 = sample_za_values(case, random.Random(9))
    assert vals1 == vals2


def test_sampled_points_respect_localization():
    case = make_case("ii", localization="full")
    rng = random.Random(0)
    for _ in range(20):
        v = sample_point(case, rng).values
        assert not v["y"].is_zero()
        assert not (v["s2"] * v["s2"] - v["y"] * 4).is_zero()


@pytest.mark.parametrize("n", [2, 4])
def test_case_iii_even_samples_off_the_diagonal(n):
    # u^2 -> alpha, v^2 -> beta: z = (alpha^m - beta^m) rho tau / 2 is zero
    # exactly on the diagonal alpha^m = beta^m
    case = make_case("iii", n=n, localization="torus")
    points = [sample_point(case, random.Random(seed)) for seed in range(8)]
    assert any(not p.values["z"].is_zero() for p in points)


def test_case_iii_n6_torus_scan():
    rep = azumaya_scan(make_case("iii", n=6, localization="torus"), samples=1, seed=7)
    assert rep.verdict == "azumaya-consistent(12)"
    assert rep.passed is True


def test_stabilized_sampling_rejected_on_full_localization():
    case = make_case("ii", localization="full")
    with pytest.raises(CatalogError):
        sample_point(case, random.Random(0), stabilized=True)


def test_azumaya_scan_positive():
    case = make_case("0", localization="full")
    rep = azumaya_scan(case, samples=5, seed=2)
    assert rep.verdict == "azumaya-consistent(2)"
    assert rep.passed is True
    assert rep.exit_code == 0
    assert len(rep.body["points"]) == 5


def test_azumaya_scan_negative_control():
    rep = azumaya_scan(make_case("ii", localization="torus"), samples=6, seed=2)
    assert rep.verdict == "not-azumaya(witnessed)"
    assert rep.passed is True
    bad = [p for p in rep.body["points"] if p["certificate"] != "central-simple"]
    assert bad and all("witness" in p for p in bad)


def test_azumaya_scan_not_applicable():
    rep = azumaya_scan(make_case("iv"), samples=2, seed=0)
    assert rep.verdict.startswith("not-applicable")
    assert rep.exit_code == 2
    rep = azumaya_scan(make_case("i", n=2, q="2"), samples=2, seed=0)
    assert rep.verdict.startswith("not-applicable")


def test_stabilized_draws_policy():
    control = make_case("0", localization="none")
    assert scans._stabilized_draws(control, 6) == [False, False, True] * 2
    assert scans._stabilized_draws(control, 6, stabilized=True) == [True] * 6
    assert scans._stabilized_draws(make_case("i", n=2, k=2), 6) == [False] * 6
    with pytest.raises(CatalogError, match="samples must be >= 1"):
        scans._stabilized_draws(control, 0)


def test_freeness_cross_references_azumaya():
    # free action and constant matrix fibers co-occur on the X-outer cases,
    # sampled in both directions
    for case_id, kwargs in [("0", dict(localization="full")),
                            ("0", dict(localization="none")),
                            ("ii", dict(localization="full")),
                            ("ii", dict(localization="torus")),
                            ("iii", dict(n=3, localization="full")),
                            ("iii", dict(n=3, localization="torus"))]:
        case = make_case(case_id, **kwargs)
        free_rep = freeness_scan(case, samples=9, seed=4)
        scan_rep = azumaya_scan(case, samples=6, seed=4)
        assert free_rep.passed is True, (case.label, free_rep.verdict)
        assert scan_rep.passed is True, (case.label, scan_rep.verdict)
        assert (free_rep.verdict == "free") == scan_rep.verdict.startswith("azumaya-consistent")


def test_freeness_not_applicable_cases():
    assert freeness_scan(make_case("iii", n=2), 3, 0).exit_code == 2  # inner part
    assert freeness_scan(make_case("iv"), 3, 0).exit_code == 2


def _pi_case_table():
    """(case, the old stated x_outer, l = the order of q) over the PI catalog.

    The old catalog's rule: X-outer for cases 0 and ii, gcd(n, k) = 1 for
    case i and odd n for case iii.  It stated Z(A) = k[u^l, v^l] wherever no
    scan reason is set."""
    table = [(make_case("0", localization=loc), True, 1) for loc in ("none", "full")]
    for n in range(1, 7):
        for k in (1, 2, 3, 4, 6):
            for loc in ("none", "torus"):
                table.append((make_case("i", n=n, k=k, localization=loc), gcd(n, k) == 1, k))
    table += [(make_case("ii", localization=loc), True, 2) for loc in ("none", "torus", "full")]
    for n in range(1, 14):
        for loc in ("none", "torus", "full") if n % 2 else ("none", "torus"):
            table.append((make_case("iii", n=n, localization=loc), n % 2 == 1, 2))
    return table


def test_derived_x_outer_and_center_reproduce_the_old_catalog():
    table = _pi_case_table()
    assert len(table) == 98
    for case, x_outer, l in table:
        where = (case.label, case.localization)
        assert (len(case.ring.inner_part()) == 1) == x_outer, where
        A = case.ring.algebra
        assert [z.terms for z in A.center_generators()] == \
            [A.monomial(l, 0).terms, A.monomial(0, l).terms], where
    for case in (make_case("iv"), make_case("i", n=3, q=Fraction(2))):
        assert case.ring.algebra.center_generators() is None
        with pytest.raises(AlgebraError, match="not PI"):
            case.ring.inner_part()
        with pytest.raises(CatalogError, match="no freeness data"):
            sample_za_values(case, random.Random(0))


def test_expected_rank_is_l_times_the_outer_quotient():
    # d = l |G| / |N|: the stated oracle agrees with the derived inner part
    for case, _, l in _pi_case_table():
        assert case.expected_d == l * case.ring.group.order // len(case.ring.inner_part()), \
            (case.label, case.localization)


def test_freeness_reads_the_inner_part_off_the_ring():
    # C2 acting by -1 on the (-1)-torus fixes u^2 and v^2: conjugation by uv
    # realizes it, so freeness must refuse the ring as not X-outer
    case = make_case("ii", localization="torus")
    A = case.ring.algebra
    mutant = SkewRing(A, Group("cyclic", 2, Cyclo.rational(-1)))
    rep = freeness_scan(replace(case, ring=mutant), 3, 0)
    assert rep.verdict == "not-applicable: the action is not X-outer on this localization"
    assert freeness_scan(case, 3, 0).verdict != rep.verdict


def test_matched_inner_pair_ranks():
    rng = random.Random(12)
    ring_a, rec_a, ring_t, rec_t, point = matched_inner_pair(rng)
    fa = build_fiber(ring_a, None, rec_a)
    ft = build_fiber(ring_t, point, rec_t)
    assert fa.dim == ft.dim == 4


def test_json_reports_are_deterministic():
    case = make_case("ii", localization="full")
    texts = [emit_report(azumaya_scan(case, 4, seed=9), "json") for _ in range(2)]
    assert texts[0] == texts[1]
    parsed = json.loads(texts[0])
    assert set(parsed) == {"case", "params", "seed", "conductor", "points",
                           "verdict", "expected_d", "pass"}
    for rec in parsed["points"]:
        assert "values" in rec and "fiber_dim" in rec and "certificate" in rec
        assert "d" in rec or "witness" in rec


def test_emit_report_writes_file(tmp_path):
    case = make_case("0", localization="full")
    path = tmp_path / "scan.json"
    emit_report(azumaya_scan(case, 2, seed=1), "json", str(path))
    data = json.loads(path.read_text())
    assert data["pass"] is True


def test_center_report_catalog_cases():
    rep = center_report(make_case("ii", localization="none"), 8)
    assert rep.passed is True and rep.body["generators_verified"] is True
    assert rep.body["dims"] == {"0": 1, "2": 1, "4": 2, "6": 2, "8": 3}
    rep = center_report(make_case("i", n=2, k=2), None)
    assert rep.passed is True


def test_laurent_center_case_i_32():
    # Z(T') = k[u^{+-l}, ((uv)^{-l/n} g^{l/k})^{+-1}] for n=3, k=2, l=6,
    # certified over the window 2l
    from qks.skew import verify_generating_set
    case = make_case("i", n=3, k=2)
    assert verify_generating_set(case.presentation, 12)


def test_invariants_report():
    rep = invariants_report(make_case("ii", localization="none"), 4)
    assert rep.body["dims"] == {"0": 1, "1": 1, "2": 1, "3": 2, "4": 3}


def test_fiber_report_expected_rank():
    case = make_case("ii", localization="full")
    values = {n: v for n, v in zip(("s2", "y"),
              sample_point(case, random.Random(3)).values.values())}
    rep = fiber_report(case, sample_point(case, random.Random(3)).values)
    assert rep.passed is True and rep.verdict == "central-simple(4)"


def test_auslander_positive_small():
    for cid in ("ii", "iv"):
        rep = auslander_check(make_case(cid, localization="none"), degree=2, guard=4)
        assert rep.verdict == "agree"
        for row in rep.body["degrees"]:
            assert row["dim_hom"] == row["dim_skew_ring"] == 2 * (row["j"] + 1)
            assert row["stable"] and row["injective"]


@pytest.mark.parametrize("cid", ["ii", "iv", "0"])
def test_natural_map_images_solve_the_hom_system(cid):
    # the lower bound of the early stop: an injective natural map puts
    # dim (A#G)_j independent solutions into the Hom system, so every image
    # must satisfy every equation row exactly, in the same column layout
    case = make_case(cid, localization="none")
    algebra, group = case.ring.algebra, case.ring.group
    gens = scans._invariant_algebra_generators(algebra, group, 4)
    for j in range(3):
        for cap in range(min(g.degree() for g in gens), 5):
            rows = list(scans._hom_rows(algebra, gens, j, cap))
            images = list(scans._natural_map_images(case.ring, j, cap))
            assert rows and len(images) == (j + 1) * group.order
            for image in images:
                for row in rows:
                    assert sum((c * image[k] for k, c in row.items() if k in image),
                               Cyclo.zero()).is_zero(), (cid, j, cap)


@pytest.mark.parametrize("cid", ["ii", "iv", "0"])
def test_one_hom_elimination_gives_every_cap(cid):
    # the dimension at each truncation c, read off one elimination up to the
    # top cap, against the cap-c system solved on its own
    case = make_case(cid, localization="none")
    algebra, group = case.ring.algebra, case.ring.group
    cap = 5
    gens = scans._invariant_algebra_generators(algebra, group, cap)
    for j in range(3):
        dims = scans._hom_dimension(algebra, group, gens, j, cap)
        for c in range(min(g.degree() for g in gens), cap + 1):
            rank = span(scans._hom_rows(algebra, gens, j, c)).rank
            assert dims[c] == scans._hom_layout(j, c)[1] - rank, (cid, j, c)


# graded cases with t0, the largest degree t where A_t is not
# sum_s A_{t - deg s} s over the invariant generators s
GENERATING_DEGREES = [
    ("0", {}, 1),
    ("i", dict(n=2, k=2), 1),
    ("i", dict(n=3, k=2), 2),
    ("i", dict(n=4, k=2), 3),
    ("ii", {}, 2),
    ("iii", dict(n=2), 3),
    ("iii", dict(n=3), 4),
    ("iii", dict(n=4), 5),
    ("iv", {}, 1),
]
GENERATING_IDS = [f"{cid}{''.join(map(str, kw.values()))}" for cid, kw, _ in GENERATING_DEGREES]


def _graded_hom_inputs(cid, kwargs, cap):
    case = make_case(cid, localization="none", **kwargs)
    algebra, group = case.ring.algebra, case.ring.group
    gens = scans._invariant_algebra_generators(algebra, group, cap)
    return case, gens, scans._hom_products(algebra, gens)


@pytest.mark.parametrize("cid,kwargs,t0", GENERATING_DEGREES, ids=GENERATING_IDS)
def test_generated_from_against_ncpoly_products(cid, kwargs, t0):
    # the spans of A_t rebuilt from NCPoly products, not the check's memo:
    # A_t0 is not spanned, and every A_t above it up to the cap is
    cap = 10
    case, gens, products = _graded_hom_inputs(cid, kwargs, cap)
    algebra = case.ring.algebra

    def spanned(t):
        vecs = [{mono[0]: c for mono, c in (algebra.monomial(x, t - s.degree() - x) * s).terms.items()}
                for s in gens for x in range(t - s.degree() + 1)]
        return span(vecs).rank == t + 1

    assert not spanned(t0) and all(spanned(t) for t in range(t0 + 1, cap + 1))
    assert scans._generated_from(gens, cap, products) == t0
    assert scans._generated_from(gens, t0, products) == t0


def test_a_wrong_generating_degree_is_seen(monkeypatch):
    # read at cap 0, the natural map of the Jordan plane is not injective
    rep = auslander_check(make_case("iv"), degree=2, guard=4)
    assert rep.verdict == "agree"
    monkeypatch.setattr(scans, "_generated_from", lambda gens, cap, products: 0)
    wrong = auslander_check(make_case("iv"), degree=2, guard=4)
    assert not any(row["injective"] for row in wrong.body["degrees"])
    assert wrong.verdict == "mismatch"


@pytest.mark.parametrize("cid,kwargs,t0", GENERATING_DEGREES, ids=GENERATING_IDS)
def test_stopped_hom_elimination_matches_the_full_one(cid, kwargs, t0):
    # stopped at the first cap c >= t0 where it meets dim (A#G)_j, the
    # elimination reads the same dimension as the full one at every cap; the
    # natural map has the same rank at t0 as at the cap
    cap = 10
    case, gens, products = _graded_hom_inputs(cid, kwargs, cap)
    algebra, group = case.ring.algebra, case.ring.group
    for j in range(3):
        lower = (j + 1) * group.order
        rank = scans._natural_map_rank(case.ring, j, cap)
        assert scans._natural_map_rank(case.ring, j, min(t0, cap)) == rank == lower
        full = scans._hom_dimension(algebra, group, gens, j, cap, products)
        stopped = scans._hom_dimension(algebra, group, gens, j, cap, products, lower, t0)
        assert stopped == full, (cid, j)
        # the stop fires everywhere but on k[u,v] # S2, whose Hom is larger
        assert any(full[c] == lower for c in range(t0, cap + 1)) == (cid != "0")


def _count_hom_eliminations(monkeypatch) -> list:
    """A list that gets one entry per `_hom_dimension` call from then on."""
    calls = []
    hom_dimension = scans._hom_dimension
    monkeypatch.setattr(scans, "_hom_dimension",
                        lambda *args: calls.append(1) or hom_dimension(*args))
    return calls


@pytest.mark.parametrize("cid", ["ii", "iv"])
def test_auslander_stops_at_the_generating_degree(monkeypatch, cid):
    # A is generated over A^G in degree <= 2, so each Hom elimination stops
    # at a low cap: 634 (ii) and 483 (iv) `Echelon.add` calls per check,
    # against 7,947 and 11,775 with eliminations that run to the top cap
    added = []
    add = Echelon.add
    monkeypatch.setattr(Echelon, "add", lambda ech, vec: added.append(1) or add(ech, vec))
    eliminations = _count_hom_eliminations(monkeypatch)
    rep = auslander_check(make_case(cid, localization="none"), degree=4, guard=6)
    assert rep.verdict == "agree"
    assert len(eliminations) == 5
    assert len(added) < 1000


def test_auslander_negative_control_takes_the_exact_path(monkeypatch):
    # k[u,v]#S2: the reflection makes Hom larger than A#G, so the dimension
    # never meets the lower bound and every system runs to the top cap, one
    # elimination per degree giving both caps
    eliminations = _count_hom_eliminations(monkeypatch)
    rep = auslander_check(make_case("0", localization="none"), degree=2, guard=4)
    assert rep.verdict == "mismatch" and rep.exit_code == 1
    assert [row["dim_hom"] for row in rep.body["degrees"]] == [3, 5, 7]
    assert all(row["injective"] for row in rep.body["degrees"])
    assert len(eliminations) == 3


@pytest.mark.parametrize("cid", ["ii", "iv", "0"])
def test_auslander_builds_each_hom_product_once(monkeypatch, cid):
    # the monomial-times-generator products of the Hom systems, across the
    # degrees and the target degrees, come from one memo of the check
    real_gens, real_mul = scans._invariant_algebra_generators, NCPoly.__mul__
    products = []

    def gens_first(*args):
        gens = real_gens(*args)
        monkeypatch.setattr(NCPoly, "__mul__", counted)
        return gens

    def counted(x, y):
        products.append((tuple(x.terms), id(y)))
        return real_mul(x, y)

    monkeypatch.setattr(scans, "_invariant_algebra_generators", gens_first)
    eliminations = _count_hom_eliminations(monkeypatch)
    auslander_check(make_case(cid, localization="none"), degree=2, guard=4)
    assert products and len(products) == len(set(products))
    assert len(eliminations) == 3


def test_auslander_requires_graded_case():
    with pytest.raises(CatalogError):
        auslander_check(make_case("ii", localization="full"), 2, 4)


def test_series_check_cases():
    assert series_check("iii", 2, 10).passed is True
    assert series_check("i", 2, 10).passed is True
    with pytest.raises(CatalogError):
        series_check("iv", 2, 10)


# -- CLI ----------------------------------------------------------------------

def test_cli_center(capsys):
    code = main(["center", "--case", "iii", "--n", "3", "--localization", "none",
                 "--degree", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "matches-catalog-generators" in out


def test_cli_scan_json(capsys):
    code = main(["scan", "--case", "0", "--localization", "full", "--samples", "3",
                 "--seed", "7", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "azumaya-consistent(2)"
    assert data["pass"] is True


def test_cli_fiber_point_parsing(capsys):
    code = main(["fiber", "--case", "0", "--localization", "full",
                 "--point", "s=3,m=2"])
    assert code == 0
    assert "central-simple" in capsys.readouterr().out


def test_cli_molien(capsys):
    code = main(["molien", "--case", "iii", "--m", "2", "--degree", "8"])
    assert code == 0
    assert "match" in capsys.readouterr().out


def test_cli_invariants_and_auslander(capsys):
    code = main(["invariants", "--case", "i", "--n", "3", "--k", "2",
                 "--localization", "none", "--degree", "4"])
    assert code == 0
    assert "degree : dimension" in capsys.readouterr().out
    code = main(["auslander", "--case", "iv", "--degree", "2", "--guard", "4"])
    assert code == 0
    assert "agree" in capsys.readouterr().out


def test_cli_exit_codes(capsys):
    # not-applicable scan: inconclusive exit status
    assert main(["scan", "--case", "iv", "--samples", "2", "--seed", "0"]) == 2
    capsys.readouterr()
    # malformed point: error path
    assert main(["fiber", "--case", "0", "--point", "nonsense"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_freeness_negative(capsys):
    code = main(["freeness", "--case", "0", "--localization", "none",
                 "--samples", "9", "--seed", "4"])
    out = capsys.readouterr().out
    assert code == 0  # expected-not-free is a pass for the negative control
    assert "not-free" in out


def test_cli_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["scan", "--case", "0", "--localization", "full", "--samples", "2",
                 "--seed", "1", "--format", "json", "--out", str(path)])
    assert code == 0
    assert json.loads(path.read_text())["pass"] is True


def test_cli_prints_elapsed_time_to_stderr(capsys):
    code = main(["molien", "--case", "i", "--m", "2", "--degree", "4", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["verdict"] == "match"
    assert re.fullmatch(r"elapsed: \d+\.\d{3}s\n", captured.err)


# -- inputs that must end in exit status 2, never a traceback or a vacuous pass

@pytest.mark.parametrize("out", [lambda tmp: tmp / "missing" / "x.json", lambda tmp: tmp],
                         ids=["missing-directory", "directory"])
def test_cli_unwritable_out_is_an_error(tmp_path, capsys, out):
    path = str(out(tmp_path))
    assert main(["center", "--case", "ii", "--localization", "none", "--degree", "2",
                 "--out", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and f"--out {path}" in captured.err


def test_cli_point_division_by_zero_is_an_error(capsys):
    assert main(["fiber", "--case", "0", "--point", "s=1/0,m=2"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("value", ["z^", "2*z^x"])
def test_cli_point_malformed_power_is_an_error(capsys, value):
    assert main(["fiber", "--case", "0", "--localization", "full",
                 "--point", f"s={value},m=2"]) == 2
    assert capsys.readouterr().err == f"error: malformed power in {value!r}\n"


def test_cli_fiber_without_a_central_simple_fiber(capsys):
    # the graded D3 ring at y=1, q2n=2: no Azumaya claim, so no verdict
    assert main(["fiber", "--case", "iii", "--n", "3", "--localization", "none",
                 "--point", "y=1,q2n=2", "--format", "json"]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "not-central-simple: trace form rank 72 < 144"
    assert data["pass"] is None


def test_cli_fiber_build_failure_fails(capsys, monkeypatch):
    def fail(*args):
        raise FiberError("recipe is inconsistent")

    monkeypatch.setattr(scans, "build_fiber", fail)
    assert main(["fiber", "--case", "ii", "--localization", "full", "--point", "s2=5,y=3",
                 "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "build-failed: recipe is inconsistent"
    assert data["pass"] is False


def test_cli_point_rejects_unknown_names(capsys):
    assert main(["fiber", "--case", "0", "--point", "s=3,m=2,zz=1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "zz" in err


def test_cli_point_rejects_repeated_names(capsys):
    assert main(["fiber", "--case", "0", "--point", "s=3,m=2,s=5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'s'" in err


@pytest.mark.parametrize("args,verdict", [
    # even n: the fiber builds from the generators x, y, z alone
    (["--n", "4", "--localization", "torus", "--point", "x=97/2*z,y=36,z=-195"],
     "central-simple(8)"),
    # the graded ring has no u^-1, so v takes the swapped u-rule
    (["--n", "3", "--localization", "none", "--point", "y=2,q2n=3"], "central-simple(12)"),
], ids=["D4-torus", "D3-graded"])
def test_cli_dihedral_fiber_certifies(capsys, args, verdict):
    assert main(["fiber", "--case", "iii", *args, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == verdict


def test_cli_point_rejects_underscore_names(capsys):
    assert main(["fiber", "--case", "iii", "--n", "4", "--localization", "torus",
                 "--point", "x=97/2*z,y=36,z=-195,_s=3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "_s" in err


@pytest.mark.parametrize("argv,name", [
    (["freeness", "--case", "0", "--localization", "full", "--samples", "0"], "samples"),
    (["center", "--case", "ii", "--localization", "none", "--degree", "-1"], "degree"),
    (["invariants", "--case", "ii", "--localization", "none", "--degree", "-2"], "degree"),
    (["auslander", "--case", "ii", "--localization", "none", "--degree", "-1",
      "--guard", "2"], "degree"),
    (["auslander", "--case", "iv", "--guard", "-5"], "guard"),
    # D3 has no invariants below degree 3, so caps (0, 2) leave A^G ungenerated
    (["auslander", "--case", "iii", "--n", "3", "--localization", "none",
      "--degree", "0", "--guard", "0"], "guard"),
    (["molien", "--case", "i", "--m", "4", "--degree", "-1"], "degree"),
    (["molien", "--case", "iii", "--m", "-1", "--degree", "2"], "m"),
    (["molien", "--case", "i", "--m", "0", "--degree", "2"], "m"),
    (["center", "--case", "i", "--n", "2", "--q", "2/0"], "q"),
    (["scan", "--case", "i", "--n", "2", "--k", "-3"], "k >= 1"),
    (["scan", "--case", "i", "--n", "2", "--q", "-1"], "--k"),
    (["scan", "--case", "i", "--n", "2", "--q", "1"], "--k"),
    (["scan", "--case", "i", "--n", "0", "--k", "2"], "n >= 1"),
    (["center", "--case", "i", "--n", "-2", "--k", "2", "--degree", "2"], "n >= 1"),
    (["center", "--case", "i", "--n", "0", "--q", "2", "--degree", "2"], "n >= 1"),
    (["center", "--case", "iii", "--n", "-3", "--localization", "none",
      "--degree", "2"], "n >= 1"),
    (["scan", "--case", "iii", "--n", "0"], "n >= 1"),
])
def test_cli_rejects_empty_inputs(capsys, argv, name):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err


@pytest.mark.parametrize("argv,name", [
    (["center", "--case", "iv", "--localization", "full"], "localization"),
    (["scan", "--case", "ii", "--localization", "torus", "--n", "7", "--k", "9"], "n, k"),
    (["scan", "--case", "i", "--n", "2", "--k", "2", "--q", "2"], "q"),
])
def test_cli_rejects_arguments_the_case_does_not_use(capsys, argv, name):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err


def test_cli_scan_control_without_stabilized_draw_is_inconclusive(capsys):
    # one sample never reaches the every-third stabilized draw
    code = main(["scan", "--case", "ii", "--localization", "torus", "--samples", "1",
                 "--seed", "1", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 2
    assert data["verdict"] == "inconclusive(no stabilized point drawn)"
    assert data["pass"] is None


def test_cli_freeness_control_without_stabilized_draw_is_inconclusive(capsys):
    # one sample never reaches the every-third stabilized draw
    code = main(["freeness", "--case", "0", "--localization", "none", "--samples", "1",
                 "--seed", "1", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 2
    assert data["verdict"] == "inconclusive(no stabilized point drawn)"
    assert data["pass"] is None


def test_cli_scan_stabilized_rejected_where_removed(capsys):
    assert main(["scan", "--case", "0", "--localization", "full", "--stabilized",
                 "--samples", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "stabilized" in err


def _give_up_on(indices, monkeypatch):
    """Make qks.scans.sample_point give up on the given call indices."""
    import qks.scans

    real, calls = qks.scans.sample_point, []

    def sampler(case, rng, stabilized=False):
        calls.append(stabilized)
        if len(calls) - 1 in indices:
            raise CatalogError("no admissible point found within the retry budget")
        return real(case, rng, stabilized=stabilized)

    monkeypatch.setattr(qks.scans, "sample_point", sampler)


def test_cli_scan_sampler_giveups_are_inconclusive(capsys, monkeypatch):
    _give_up_on({0, 1, 2}, monkeypatch)
    code = main(["scan", "--case", "ii", "--localization", "torus", "--samples", "3",
                 "--seed", "2", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 2
    assert data["verdict"].startswith("inconclusive(") and data["pass"] is None
    assert {p["certificate"] for p in data["points"]} == {"no-admissible-point"}


def test_scan_sampler_giveup_is_not_a_witness(monkeypatch):
    # positive case: one give-up among central-simple points stays inconclusive
    _give_up_on({0}, monkeypatch)
    rep = azumaya_scan(make_case("0", localization="full"), samples=3, seed=2)
    assert rep.verdict.startswith("inconclusive(") and rep.exit_code == 2
    # negative control: the stabilized third point is a real witness
    _give_up_on({0}, monkeypatch)
    rep = azumaya_scan(make_case("ii", localization="torus"), samples=3, seed=2)
    assert rep.verdict == "not-azumaya(witnessed)" and rep.passed is True
    assert any(p["certificate"] == "not-central-simple" for p in rep.body["points"])


def test_cli_auslander_truncation_instability_is_inconclusive(capsys):
    code = main(["auslander", "--case", "0", "--localization", "none", "--degree", "0",
                 "--guard", "0", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 2
    assert data["verdict"] == "inconclusive(truncation instability)" and data["pass"] is None


def test_azumaya_scan_inconsistent_ranks_fail(monkeypatch):
    ds = iter([2, 4, 2])
    monkeypatch.setattr(scans, "_certify_point",
                        lambda case, point: {"certificate": "central-simple", "d": next(ds)})
    rep = azumaya_scan(make_case("0", localization="full"), samples=3, seed=2)
    assert rep.verdict == "inconsistent-rank"
    assert rep.passed is False and rep.exit_code == 1


def test_azumaya_scan_control_without_witness_fails(monkeypatch):
    # a negative control whose stabilized draw certifies central simple
    monkeypatch.setattr(scans, "_certify_point",
                        lambda case, point: {"certificate": "central-simple", "d": 4})
    rep = azumaya_scan(make_case("ii", localization="torus"), samples=3, seed=2)
    assert rep.verdict == "azumaya-consistent(4)"
    assert rep.passed is False and rep.exit_code == 1


@pytest.mark.parametrize("degree", ["0", "3"])
def test_cli_center_window_without_a_generator_is_an_error(capsys, degree):
    # the D3 generators have degrees 4 and 6: no claim fits, so no vacuous pass
    assert main(["center", "--case", "iii", "--n", "3", "--localization", "full",
                 "--degree", degree]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"window {degree}" in err and "[4, 6]" in err


def test_cli_center_window_with_a_generator_passes(capsys):
    assert main(["center", "--case", "iii", "--n", "3", "--localization", "full",
                 "--degree", "4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "matches-catalog-generators"


def test_center_report_generator_mismatch_fails(monkeypatch):
    monkeypatch.setattr(scans, "verify_generating_set", lambda *args, **kwargs: False)
    rep = center_report(make_case("ii", localization="none"), 4)
    assert rep.verdict == "catalog-generators-mismatch"
    assert rep.body["generators_verified"] is False and rep.exit_code == 1


def test_emit_report_rejects_unknown_format():
    rep = invariants_report(make_case("ii", localization="none"), 2)
    with pytest.raises(CatalogError, match="unknown format"):
        emit_report(rep, "xml")


def test_readme_library_block(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(block, {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["144 central-simple(12)", "100 5 central-simple(10)"]
    assert [line.split()[0] for line in lines[2:]] == ["0", "2", "4", "4", "6", "6"]
