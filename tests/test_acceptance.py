"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every expected value here is either verified against the
source formulas symbolically or was computed by an independent oracle
(brute-force enumeration, invariant counting, polynomial division).
"""

import random
import time
from fractions import Fraction
from math import lcm

from qks.catalog import make_case, matched_inner_pair, recipe_for, sample_point
from qks.cyclotomic import Cyclo, root_of_unity
from qks.fiber import (
    build_fiber,
    center_dimension,
    check_associativity,
    jacobson_radical_dim,
    matrix_algebra_certificate,
    semisimple_quotient,
    trace_form_rank,
)
from qks.planes import Algebra, Group, apply_automorphism
from qks.scans import auslander_check, azumaya_scan, freeness_scan
from qks.series import (
    compare_with_counts,
    cyclic_diag_rep,
    dihedral_3dim_rep,
    dihedral_invariant_series,
    invariant_dimensions,
    molien_series,
    trivial_rep,
)
from qks.skew import center_basis, is_central, verify_generating_set


class _Budget:
    def __init__(self, name, seconds):
        self.name, self.seconds = name, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name}: {elapsed:.1f}s over budget"
            print(f"[acceptance] {self.name}: PASS in {elapsed:.2f}s")
        return False


def test_criterion_1_example_dichotomy():
    with _Budget("criterion 1 (central fiber dichotomy at the swap example)", 1.0):
        case = make_case("0", localization="none")
        good = case.presentation.point({"s": Cyclo.rational(3), "m": Cyclo.rational(2)})
        fiber = build_fiber(case.ring, good, recipe_for(case, good))
        cert = matrix_algebra_certificate(fiber)
        assert fiber.dim == 4 and cert.central_simple and cert.d == 2
        bad = case.presentation.point({"s": Cyclo.rational(2), "m": Cyclo.rational(1)})
        fiber = build_fiber(case.ring, bad, recipe_for(case, bad))
        assert fiber.dim == 4
        assert trace_form_rank(fiber) == 2
        assert jacobson_radical_dim(fiber) == 2
        ss = semisimple_quotient(fiber)
        assert ss.dim == 2 and center_dimension(ss) == 2


def test_criterion_2_centers_window_8():
    rings = [
        ("ii", dict(localization="none"), 8),
        ("iii", dict(n=3, localization="none"), 8),
        ("iii", dict(n=4, localization="none"), 8),
    ]
    for case_id, kwargs, window in rings:
        case = make_case(case_id, **kwargs)
        with _Budget(f"criterion 2 ({case.label}, window {window})", 30.0):
            assert verify_generating_set(case.presentation, window)
    with _Budget("criterion 2 (k_J[u,v]#C2: trivial center, window 8)", 30.0):
        case = make_case("iv")
        basis = center_basis(case.ring, 8)
        assert len(basis) == 1 and basis[0].degree() == 0
        ((f, poly),) = basis[0].comps.items()
        assert f == (0, 0) and set(poly.terms) == {(0, 0)}
    with _Budget("criterion 2 (inner C2 on the torus: Laurent center, window 8)", 30.0):
        from qks.skew import Presentation, SkewRing
        A = Algebra("quantum", q=Cyclo.rational(-1), inverted={"u", "v"})
        T = SkewRing(A, Group("cyclic", 2, Cyclo.rational(-1)))
        pres = Presentation(
            ring=T, names=("x", "y", "w"),
            gens={"x": T.monomial(2, 0), "y": T.monomial(0, 2),
                  "w": T.monomial(1, 1, (1, 0))},
            relations=[{(0, 0, 2): Cyclo.one(), (1, 1, 0): Cyclo.one()}],
            invertible=frozenset({"x", "y", "w"}),
        )
        assert verify_generating_set(pres, 8)


def test_criterion_3_dihedral_center_pipeline():
    with _Budget("criterion 3 (Molien + hypersurface relation, m = 2 and 3)", 60.0):
        for m in (2, 3):
            rep = dihedral_3dim_rep(m)
            mol = molien_series(rep)
            assert mol == dihedral_invariant_series(m)
            assert compare_with_counts(mol, invariant_dimensions(rep, 12))
            case = make_case("iii", n=2 * m, localization="none")
            pres = case.presentation
            for name in ("x", "y", "z"):
                assert is_central(pres.gens[name])
            (relation,) = pres.relations
            assert pres.eval_relation(relation).is_zero()


def test_criterion_4_azumaya_scans():
    with _Budget("criterion 4 (25-point Azumaya scans across the catalog)", 300.0):
        scans = [
            make_case("i", n=2, k=2),
            make_case("i", n=3, k=2),
            make_case("i", n=2, k=4),
            make_case("ii", localization="full"),
            make_case("iii", n=2, localization="torus"),
            make_case("iii", n=3, localization="full"),
        ]
        for case in scans:
            rep = azumaya_scan(case, samples=25, seed=20260808)
            assert rep.verdict == f"azumaya-consistent({case.expected_d})", \
                (case.label, rep.verdict)
            assert rep.passed is True
            assert all(p["certificate"] == "central-simple" for p in rep.body["points"])
            if len(case.ring.inner_part()) == 1:  # X-outer
                d = case.expected_d
                assert d * d == (case.ring.group.order ** 2) * (case.k ** 2)
            if case.case_id == "i":
                assert case.expected_d == lcm(case.n, case.k)


def test_criterion_5_negative_controls():
    with _Budget("criterion 5 (freeness failure implies certificate failure)", 30.0):
        for case in (make_case("0", localization="none"),
                     make_case("ii", localization="torus")):
            free_rep = freeness_scan(case, samples=9, seed=5)
            assert free_rep.verdict.startswith("not-free")
            scan_rep = azumaya_scan(case, samples=9, seed=5)
            assert scan_rep.verdict == "not-azumaya(witnessed)"
            failed = [p for p in scan_rep.body["points"]
                      if p["certificate"] != "central-simple"]
            assert failed
            # and the localized versions restore both properties
            fixed = make_case(case.case_id, localization="full")
            assert freeness_scan(fixed, samples=9, seed=5).verdict == "free"
            good = azumaya_scan(fixed, samples=9, seed=5)
            assert good.verdict.startswith("azumaya-consistent")


def test_criterion_6_inner_rank_equality():
    with _Budget("criterion 6 (matched fibers of A and A#C2 share their rank)", 30.0):
        rng = random.Random(20260808)
        for _ in range(10):
            ring_a, rec_a, ring_t, rec_t, point = matched_inner_pair(rng)
            fa = build_fiber(ring_a, None, rec_a)
            ft = build_fiber(ring_t, point, rec_t)
            assert fa.dim == ft.dim


def test_criterion_7_endomorphism_dimensions():
    with _Budget("criterion 7 (graded endomorphism check, cases ii and iv)", 300.0):
        for case_id in ("ii", "iv"):
            rep = auslander_check(make_case(case_id, localization="none"),
                                  degree=4, guard=6)
            assert rep.verdict == "agree", (case_id, rep.verdict)
            assert rep.body["guards"] == [10, 12]
            for row in rep.body["degrees"]:
                assert row["stable"] and row["injective"]
                assert row["dim_hom"] == row["dim_skew_ring"]


def test_criterion_8_kernel_property_suites():
    with _Budget("criterion 8 (randomized kernel suites, fixed seeds)", 120.0):
        # field axioms over conductors up to 24
        rng = random.Random(20260808)
        from qks.cyclotomic import euler_phi
        for _ in range(1000):
            n = rng.choice([1, 2, 3, 4, 6, 8, 12, 24])
            a, b, c = (Cyclo(n, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                      for _ in range(euler_phi(n)))) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not b.is_zero():
                assert (a / b) * b == a
        # rewrite associativity, 500 triples per algebra
        specs = [Algebra("quantum", q=Cyclo.one()),
                 Algebra("quantum", q=Cyclo.rational(2)),
                 Algebra("quantum", q=root_of_unity(1, 4), conductor=4),
                 Algebra("quantum", q=Cyclo.rational(-1), inverted={"u", "v"}),
                 Algebra("jordan"),
                 Algebra("jordan", inverted={"u"})]
        for A in specs:
            rng = random.Random(99)
            lo = -2 if A.inverted else 0
            for _ in range(500):
                polys = []
                for _k in range(3):
                    terms = {}
                    for _t in range(rng.randint(1, 3)):
                        a_e = rng.randint(lo, 3)
                        b_e = rng.randint(lo if "v" in A.inverted else 0, 3)
                        terms[(a_e, b_e)] = A.scalar(rng.randint(-3, 3))
                    polys.append(A.poly(terms))
                x, y, z = polys
                assert (x * y) * z == x * (y * z)
        # automorphism multiplicativity on D4 and C6
        cases = [(Algebra("quantum", q=Cyclo.rational(-1), conductor=4),
                  Group("dihedral", 4, root_of_unity(1, 4))),
                 (Algebra("quantum", q=root_of_unity(1, 6), conductor=6),
                  Group("cyclic", 6, root_of_unity(1, 6)))]
        for A, G in cases:
            rng = random.Random(7)
            for _ in range(60):
                f1, f2 = rng.choice(G.elements()), rng.choice(G.elements())
                terms = {(rng.randint(0, 3), rng.randint(0, 3)): A.scalar(rng.randint(-3, 3))
                         for _t in range(2)}
                x = A.poly(terms)
                assert (apply_automorphism(G, f1, apply_automorphism(G, f2, x))
                        == apply_automorphism(G, G.mul(f1, f2), x))
        # Molien nonnegativity on the catalog groups
        for rep in (cyclic_diag_rep(2), cyclic_diag_rep(4), cyclic_diag_rep(6),
                    dihedral_3dim_rep(2), dihedral_3dim_rep(3), trivial_rep(3)):
            for coeff in molien_series(rep).expand(20):
                value = coeff.as_fraction()
                assert value.denominator == 1 and value >= 0
        # fiber associativity, complete on a small and on a large fiber
        rng = random.Random(3)
        case = make_case("ii", localization="full")
        point = sample_point(case, rng)
        fiber = build_fiber(case.ring, point, recipe_for(case, point))
        assert fiber.dim <= 40 and check_associativity(fiber)
        case = make_case("iii", n=3)
        point = sample_point(case, rng)
        fiber = build_fiber(case.ring, point, recipe_for(case, point))
        assert fiber.dim > 40 and check_associativity(fiber)
