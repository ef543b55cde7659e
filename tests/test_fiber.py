"""Fiber construction and the central-simple certificate machinery."""

import random
from dataclasses import replace
from functools import cache
from math import gcd, lcm

import pytest

from qks import cyclotomic
from qks import fiber as fiber_module
from qks.cyclotomic import Cyclo
from qks.fiber import (
    Certificate,
    FiberError,
    FiberRecipe,
    FiniteDimAlgebra,
    _close,
    _quotient,
    _reduce_terms,
    build_fiber,
    center_dimension,
    check_associativity,
    check_frame,
    dual_numbers_algebra,
    identity_component,
    jacobson_radical_dim,
    matrix_algebra_certificate,
    matrix_units_algebra,
    semisimple_quotient,
    trace_form_matrix,
    trace_form_rank,
)
from qks.catalog import make_case, recipe_for, sample_point
from qks.linalg import Echelon, acc, kernel, span
from qks.planes import Algebra, Group
from qks.skew import Presentation, SkewRing


def commutative_s2_ring():
    return SkewRing(Algebra("quantum", q=Cyclo.one()), Group("dihedral"))


def example_presentation(T):
    s = T.monomial(1, 0) + T.monomial(0, 1)
    m = T.monomial(1, 1)
    return Presentation(ring=T, names=("s", "m"), gens={"s": s, "m": m})


def example_recipe(T, s, m):
    A = T.algebra
    s_c, m_c = A.scalar(s), A.scalar(m)
    return FiberRecipe(
        ku=2, kv=1,
        u_pow=A.poly({(1, 0): s_c, (0, 0): -m_c}),
        v_pow=A.poly({(0, 0): s_c, (1, 0): -A.scalar(1)}),
    )


def test_matrix_units_reference():
    M2 = matrix_units_algebra(2)
    assert check_associativity(M2)
    assert trace_form_rank(M2) == 4
    assert center_dimension(M2) == 1
    assert jacobson_radical_dim(M2) == 0
    cert = matrix_algebra_certificate(M2)
    assert cert.central_simple and cert.d == 2


def test_dual_numbers_reference():
    D = dual_numbers_algebra()
    assert check_associativity(D)
    assert trace_form_rank(D) == 1
    assert jacobson_radical_dim(D) == 1
    cert = matrix_algebra_certificate(D)
    assert not cert.central_simple


def test_split_semisimple_center():
    # k x k: central idempotents e1, e2
    one = Cyclo.rational(1)
    kxk = FiniteDimAlgebra(2, lambda i, j: {i: one} if i == j else {}, unit={0: one, 1: one})
    assert center_dimension(kxk) == 2
    assert trace_form_rank(kxk) == 2


def test_example_fiber_generic_point():
    T = commutative_s2_ring()
    pres = example_presentation(T)
    point = pres.point({"s": Cyclo.rational(3), "m": Cyclo.rational(2)})
    fiber = build_fiber(T, point, example_recipe(T, 3, 2))
    assert fiber.dim == 4
    cert = matrix_algebra_certificate(fiber)
    assert cert.central_simple and cert.d == 2
    assert center_dimension(fiber) == 1


def test_example_fiber_degenerate_point():
    # alpha^2 = 4 beta: dim 4, trace rank 2, radical 2, two simple blocks
    T = commutative_s2_ring()
    pres = example_presentation(T)
    point = pres.point({"s": Cyclo.rational(2), "m": Cyclo.rational(1)})
    fiber = build_fiber(T, point, example_recipe(T, 2, 1))
    assert fiber.dim == 4
    assert trace_form_rank(fiber) == 2
    assert jacobson_radical_dim(fiber) == 2
    cert = matrix_algebra_certificate(fiber)
    assert not cert.central_simple and "trace form" in cert.witness
    ss = semisimple_quotient(fiber)
    assert ss.dim == 2
    assert center_dimension(ss) == 2
    assert check_associativity(ss)


def test_quantum_torus_fiber_trivial_group():
    A = Algebra("quantum", q=Cyclo.rational(-1), inverted={"u", "v"})
    T = SkewRing(A, Group("cyclic", 1))
    alpha, beta = A.scalar(2), A.scalar(3)
    recipe = FiberRecipe(
        ku=2, kv=2,
        u_pow=A.poly({(0, 0): alpha}), v_pow=A.poly({(0, 0): beta}),
        u_inv=A.poly({(0, 0): alpha.inverse()}), v_inv=A.poly({(0, 0): beta.inverse()}),
    )
    fiber = build_fiber(T, None, recipe)
    assert fiber.dim == 4
    cert = matrix_algebra_certificate(fiber)
    assert cert.central_simple and cert.d == 2


def test_residual_closure_kills_group_directions():
    # inner C2 on the (-1)-torus: killing uvg - gamma halves the dimension
    A = Algebra("quantum", q=Cyclo.rational(-1), conductor=4, inverted={"u", "v"})
    T = SkewRing(A, Group("cyclic", 2, Cyclo.rational(-1)))
    from qks.cyclotomic import root_of_unity
    i = root_of_unity(1, 4)
    alpha, beta = A.scalar(4), A.scalar(9)
    gamma = i * 6  # gamma^2 = -36 = -alpha*beta
    recipe = FiberRecipe(
        ku=2, kv=2,
        u_pow=A.poly({(0, 0): alpha}), v_pow=A.poly({(0, 0): beta}),
        u_inv=A.poly({(0, 0): alpha.inverse()}), v_inv=A.poly({(0, 0): beta.inverse()}),
        residuals=[T.monomial(1, 1, (1, 0)) - T.one() * gamma],
    )
    fiber = build_fiber(T, None, recipe)
    assert fiber.dim == 4
    cert = matrix_algebra_certificate(fiber)
    assert cert.central_simple and cert.d == 2


def test_a_residual_that_is_not_central_is_refused():
    # u - 2 on the C2 (-1)-torus: g u = -u g and v u = -u v, so u (B * G)
    # is not a two-sided ideal and the fiber is not T/mT
    A = Algebra("quantum", q=Cyclo.rational(-1), conductor=4, inverted={"u", "v"})
    T = SkewRing(A, Group("cyclic", 2, Cyclo.rational(-1)))
    alpha, beta = A.scalar(4), A.scalar(9)
    recipe = FiberRecipe(
        ku=2, kv=2,
        u_pow=A.poly({(0, 0): alpha}), v_pow=A.poly({(0, 0): beta}),
        u_inv=A.poly({(0, 0): alpha.inverse()}), v_inv=A.poly({(0, 0): beta.inverse()}),
        residuals=[T.monomial(1, 0) - T.one() * 2],
    )
    with pytest.raises(FiberError, match="not central"):
        build_fiber(T, None, recipe)


def test_inconsistent_point_collapses():
    # wrong gamma (gamma^2 != -alpha*beta) collapses the fiber to 0
    A = Algebra("quantum", q=Cyclo.rational(-1), inverted={"u", "v"})
    T = SkewRing(A, Group("cyclic", 2, Cyclo.rational(-1)))
    alpha, beta = A.scalar(4), A.scalar(9)
    recipe = FiberRecipe(
        ku=2, kv=2,
        u_pow=A.poly({(0, 0): alpha}), v_pow=A.poly({(0, 0): beta}),
        u_inv=A.poly({(0, 0): alpha.inverse()}), v_inv=A.poly({(0, 0): beta.inverse()}),
        residuals=[T.monomial(1, 1, (1, 0)) - T.one() * 5],
    )
    with pytest.raises(FiberError, match="collapse"):
        build_fiber(T, None, recipe)


def test_inverse_power_rule():
    # the orbit recipe's closed-form u^-4m is the inverse of u^4m modulo its
    # own rules, for odd and even m and on the full and torus localizations
    for case_id, kwargs in [("ii", dict(localization="full")),
                            ("iii", dict(n=3, localization="full")),
                            ("iii", dict(n=4, localization="torus"))]:
        case = make_case(case_id, **kwargs)
        recipe = recipe_for(case, sample_point(case, random.Random(1)))
        A = case.ring.algebra
        one = {(0, 0): Cyclo.one(A.conductor)}
        assert _reduce_terms(A, recipe, (recipe.u_pow * recipe.u_inv).terms) == one
        # and the reducer inverts single u factors consistently
        assert _reduce_terms(A, recipe, (A.u(-1) * A.u(1)).terms) == one


def test_certificate_reports_a_split_center():
    # k^4 by orthogonal idempotents: dim 4 = 2^2 and a nondegenerate trace
    # form, so only the center test fails
    one = Cyclo.rational(1)
    k4 = FiniteDimAlgebra(4, lambda i, j: {i: one} if i == j else {},
                          unit={i: one for i in range(4)})
    assert trace_form_rank(k4) == 4
    assert str(matrix_algebra_certificate(k4)) == "not-central-simple: center has dimension 4"


def _table(F):
    """A fresh copy of F's structure table, sc[i][j] = basis_i * basis_j."""
    return [[dict(F.product(i, j)) for j in range(F.dim)] for i in range(F.dim)]


def test_complete_associativity_rejects_a_doubled_table_above_40():
    # M_7 with e_ij e_jk doubled for i != j != k: products with the unit are
    # untouched, but (e_01 e_10) e_02 = 2 e_02 and e_01 (e_10 e_02) = 4 e_02;
    # above dim 40 the check is as complete as below it
    d = 7
    M7 = matrix_units_algebra(d)
    assert M7.dim > 40 and check_associativity(M7)
    sc = _table(M7)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if i != j and j != k:
                    sc[i * d + j][j * d + k] = {i * d + k: Cyclo.rational(2)}
    doubled = replace(M7, product=lambda i, j: sc[i][j])
    assert check_frame(doubled)  # unit and generation hold
    assert not check_associativity(doubled)


def test_certificate_str():
    assert str(Certificate(True, d=3)) == "central-simple(3)"
    assert "witness" not in str(Certificate(False, witness="trace form rank 2 < 4"))


# -- the generator path: u, v and the group generators stand for the basis

def _catalog_fiber(case_id, kwargs, seed=1):
    case = make_case(case_id, **kwargs)
    point = sample_point(case, random.Random(seed))
    return build_fiber(case.ring, point, recipe_for(case, point))


@pytest.mark.parametrize("case_id,kwargs", [
    ("0", dict(localization="none")),
    ("0", dict(localization="full")),
    ("i", dict(n=3, k=2)),
    ("ii", dict(localization="full")),
    ("iii", dict(n=2, localization="torus")),
])
def test_generator_path_matches_whole_basis(case_id, kwargs):
    fiber = _catalog_fiber(case_id, kwargs)
    whole = replace(fiber, gens=None)  # the default gens: every basis vector
    assert len(fiber.gens) < len(whole.gens) == fiber.dim
    assert check_associativity(fiber) is check_associativity(whole) is True
    assert center_dimension(fiber) == center_dimension(whole)


def test_generator_check_rejects_perturbed_tables():
    fiber = _catalog_fiber("ii", dict(localization="full"))
    assert fiber.dim <= 40
    rng = random.Random(4)
    verdicts = []
    for _ in range(12):
        sc = _table(fiber)
        i, j, l = (rng.randrange(fiber.dim) for _ in range(3))
        acc(sc[i][j], l, Cyclo.rational(1))
        # a perturbed table is no longer graded
        perturbed = replace(fiber, product=lambda x, y: sc[x][y], degree=None)
        verdict = check_associativity(perturbed)
        assert verdict is check_associativity(replace(perturbed, gens=None))
        verdicts.append(verdict)
    assert not any(verdicts)


def test_gens_that_do_not_generate_fail_the_check():
    M2 = matrix_units_algebra(2)
    assert not check_associativity(replace(M2, gens=[M2.unit]))


# -- the structure table against an independent product route

def _box_vector(ring, recipe, index, x):
    """The SkewElement x with each component reduced into the box."""
    out = {}
    for f, poly in x.comps.items():
        for (a, b), c in _reduce_terms(ring.algebra, recipe, poly.terms).items():
            acc(out, index[(a, b, f)], c)
    return out


def _oracle_product(ring, recipe, index, m1, m2):
    """ring.monomial(*m1) * ring.monomial(*m2) through SkewElement
    multiplication, each component reduced into the box."""
    return _box_vector(ring, recipe, index, ring.monomial(*m1) * ring.monomial(*m2))


@pytest.mark.parametrize("case_id,kwargs,pairs", [
    ("i", dict(n=3, k=2), None),
    ("ii", dict(localization="full"), None),
    ("iii", dict(n=3, localization="full"), 3000),  # D3: the order f1 f2 matters
])
def test_structure_table_matches_skew_products(case_id, kwargs, pairs):
    case = make_case(case_id, **kwargs)
    point = sample_point(case, random.Random(3))
    # without the residual relations nothing is killed, so the fiber's
    # products are the raw box products
    recipe = replace(recipe_for(case, point), residuals=[])
    ring, group = case.ring, case.ring.group
    fiber = build_fiber(ring, point, recipe)
    basis = [(a, b, f) for f in group.elements()
             for a in range(recipe.ku) for b in range(recipe.kv)]
    assert fiber.dim == len(basis)
    index = {m: i for i, m in enumerate(basis)}
    if pairs is None:
        checked = [(i, j) for i in range(fiber.dim) for j in range(fiber.dim)]
    else:
        group_monos = [index[(0, 0, f)] for f in group.elements()]
        rng = random.Random(11)
        checked = [(i, j) for i in group_monos for j in group_monos]
        checked += [(rng.randrange(fiber.dim), rng.randrange(fiber.dim))
                    for _ in range(pairs)]
    for i, j in checked:
        assert fiber.product(i, j) == _oracle_product(ring, recipe, index, basis[i], basis[j])


# -- the graded path: a fiber on which nothing is killed is B * G

@pytest.mark.parametrize("case_id,kwargs,ranks", [
    ("0", dict(localization="none"), (4, 2)),
    ("ii", dict(localization="torus"), (16, 8)),
    ("iii", dict(n=3, localization="torus"), (144, 72)),
])
def test_graded_trace_form_matches_the_dense_one(case_id, kwargs, ranks):
    case = make_case(case_id, **kwargs)
    for stabilized, rank in zip((False, True), ranks):
        point = sample_point(case, random.Random(1), stabilized=stabilized)
        fiber = build_fiber(case.ring, point, recipe_for(case, point))
        assert len(set(fiber.degree)) == case.ring.group.order > 1
        dense = trace_form_matrix(replace(fiber, degree=None))
        assert trace_form_matrix(fiber) == dense  # the matrix does not read degrees
        assert trace_form_rank(fiber) == span(dense).rank == rank
        # degree lists that lie: the degree of the unit, of a group
        # generator and of a basis vector in neither, swapped with another
        used = set(fiber.unit).union(*fiber.gens)
        plain = next(j for j in range(fiber.dim) if j not in used)
        for i in (min(fiber.unit), max(fiber.gens[-1]), plain):
            lie = list(fiber.degree)
            k = max(j for j, f in enumerate(lie) if f != lie[i])
            lie[i], lie[k] = lie[k], lie[i]
            assert not check_associativity(replace(fiber, degree=lie))


# the identity rank T_F = |H| rank T_F_e against the dense form, with the
# number of degrees |H| and the rank: stabilized points are rank-deficient,
# and the mixed-residual quotients (i (2, 2) and (4, 2), even-n iii) are
# trivially graded
_GRADED_POINTS = [
    ("0", dict(localization="none"), 1, False, 2, 4),
    ("0", dict(localization="none"), 1, True, 2, 2),
    ("0", dict(localization="none"), 2101, False, 2, 2),  # s^2 = 4m there
    ("0", dict(localization="full"), 1, False, 2, 4),
    ("ii", dict(localization="none"), 1, False, 2, 16),
    ("ii", dict(localization="none"), 1, True, 2, 8),
    ("ii", dict(localization="torus"), 2, True, 2, 8),
    ("ii", dict(localization="full"), 1, False, 2, 16),
    ("iii", dict(n=3, localization="none"), 1, False, 6, 144),
    ("iii", dict(n=3, localization="torus"), 1, True, 6, 72),
    ("iii", dict(n=3, localization="torus"), 2101, True, 6, 72),
    ("iii", dict(n=3, localization="full"), 2101, False, 6, 144),
    ("iii", dict(n=4, localization="none"), 1, False, 1, 64),
    ("iii", dict(n=4, localization="torus"), 2, False, 1, 64),
    ("iii", dict(n=5, localization="full"), 1, False, 10, 400),
    ("i", dict(n=2, k=2), 1, False, 1, 4),
    ("i", dict(n=4, k=2), 3, False, 1, 16),
    ("i", dict(n=3, k=2), 1, False, 3, 36),
    ("i", dict(n=3, k=2), 2101, False, 3, 36),
    ("i", dict(n=5, k=2), 2, False, 5, 100),
    ("i", dict(n=7, k=3), 1, False, 7, 441),
]


@cache
def _point_fiber(case_id, kwargs_items, seed, stabilized):
    """The fiber at a sampled point, built once for every test that reads it."""
    case = make_case(case_id, **dict(kwargs_items))
    point = sample_point(case, random.Random(seed), stabilized=stabilized)
    return build_fiber(case.ring, point, recipe_for(case, point))


@pytest.mark.parametrize("case_id,kwargs,seed,stabilized,degrees,rank", _GRADED_POINTS)
def test_trace_rank_is_the_identity_component_rank_times_the_degrees(
        case_id, kwargs, seed, stabilized, degrees, rank):
    fiber = _point_fiber(case_id, tuple(kwargs.items()), seed, stabilized)
    assert len(set(fiber.degree)) == degrees
    assert trace_form_rank(fiber) == span(trace_form_matrix(replace(fiber, degree=None))).rank == rank
    F_e = identity_component(fiber)
    assert F_e.dim * degrees == fiber.dim
    assert degrees * trace_form_rank(F_e) == rank


def _one_system_center_dimension(F):
    """dim of the commutant of the gens as one `kernel` system over every gen
    at once, rows keyed by (gen, l): the reference for the staged center."""
    def entries():
        for n, g in enumerate(F.gens):
            for j in range(F.dim):
                for l, c in F.left_mul(j, g).items():
                    yield (n, l), j, c
                for l, m in F.right_mul(g, j).items():
                    yield (n, l), j, -m

    return len(kernel(entries(), F.dim))


@pytest.mark.parametrize("case_id,kwargs,seed,stabilized",
                         [point[:4] for point in _GRADED_POINTS])
def test_staged_center_is_the_one_system_center(case_id, kwargs, seed, stabilized):
    fiber = _point_fiber(case_id, tuple(kwargs.items()), seed, stabilized)
    assert center_dimension(fiber) == _one_system_center_dimension(fiber)


def test_staged_center_of_the_reference_algebras():
    one = Cyclo.rational(1)
    T = commutative_s2_ring()
    point = example_presentation(T).point({"s": Cyclo.rational(2), "m": Cyclo.rational(1)})
    degenerate = semisimple_quotient(build_fiber(T, point, example_recipe(T, 2, 1)))
    split = [FiniteDimAlgebra(d, lambda i, j: {i: one} if i == j else {},
                              unit={i: one for i in range(d)}) for d in (2, 4)]
    algebras = [degenerate, *split, dual_numbers_algebra(), matrix_units_algebra(3)]
    assert [center_dimension(F) for F in algebras] == [2, 2, 4, 2, 1]
    assert [_one_system_center_dimension(F) for F in algebras] == [2, 2, 4, 2, 1]


def test_staged_center_bounds_its_eliminations(monkeypatch):
    # the seed-1 D3 full fiber, dim 144: the one system over u, v and G's
    # generators added 526 rows, the staged one adds at most 300
    fiber = _catalog_fiber("iii", dict(n=3, localization="full"))
    added = []
    add = Echelon.add
    monkeypatch.setattr(Echelon, "add", lambda ech, vec: added.append(1) or add(ech, vec))
    assert center_dimension(fiber) == 1
    assert len(added) <= 300


def test_a_grading_without_homogeneous_unit_gens_is_refused():
    # the dual numbers k[x]/x^2 with x in degree g of C2: products keep
    # their degrees, but x is not a unit, so the grading is not strong and
    # 2 rank T_F_e = 2 would misstate the rank 1 of the trace form
    D = dual_numbers_algebra()
    graded = replace(D, degree=[(0, 0), (1, 0)], group=Group("cyclic", 2, Cyclo.rational(-1)))
    assert check_associativity(D)
    assert not check_associativity(graded)
    # the gen 1 + x generates and is a unit, but it is not homogeneous
    one = Cyclo.rational(1)
    assert check_associativity(replace(D, gens=[{0: one, 1: one}]))
    assert not check_associativity(replace(graded, gens=[{0: one, 1: one}]))
    assert trace_form_rank(D) == span(trace_form_matrix(graded)).rank == 1


def test_graded_fiber_computes_fewer_than_a_quarter_of_the_products():
    # the D3 full fiber, dim 144: the old structure table built all
    # 144^2 = 20,736 products; build plus certificate compute each product
    # they ask for once, and the trace form reads only F_e, 24^2 of them
    fiber = _catalog_fiber("iii", dict(n=3, localization="full"))
    assert str(matrix_algebra_certificate(fiber)) == "central-simple(12)"
    assert fiber.product.cache_info().misses < fiber.dim ** 2 // 4 == 5_184


# -- the killed ideal: each residual is central, so one pass spans it

def _generator_closure(crossed, residuals):
    """The span of `residuals` closed under left and right multiplication
    by the generators: the two-sided ideal they generate, found without
    using that they are central."""
    ech = Echelon()
    frontier = [r for r in residuals if ech.add(r)]
    tables = [[crossed.right_mul(g, i) for i in range(crossed.dim)] for g in crossed.gens]
    tables += [[crossed.left_mul(i, g) for i in range(crossed.dim)] for g in crossed.gens]
    _close(ech, frontier, tables)
    return ech


@pytest.mark.parametrize("case_id,kwargs,dims", [
    ("i", dict(n=2, k=2), (8, 4)),
    ("i", dict(n=6, k=3), (108, 36)),
    ("i", dict(n=4, k=4), (64, 16)),
    ("i", dict(n=2, k=4), (32, 16)),
    ("i", dict(n=4, k=2), (32, 16)),
    ("iii", dict(n=2, localization="torus"), (32, 16)),
    ("iii", dict(n=4, localization="torus"), (128, 64)),
    ("ii", dict(localization="none"), (32, 16)),
])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_pass_kills_the_ideal_of_the_generator_closure(case_id, kwargs, dims, seed):
    case = make_case(case_id, **kwargs)
    point = sample_point(case, random.Random(seed))
    recipe = recipe_for(case, point)
    ring = case.ring
    crossed = build_fiber(ring, point, replace(recipe, residuals=[]))
    basis = [(a, b, f) for f in ring.group.elements()
             for a in range(recipe.ku) for b in range(recipe.kv)]
    index = {m: i for i, m in enumerate(basis)}
    residuals = [_box_vector(ring, recipe, index, r) for r in recipe.residuals]
    closure = _generator_closure(crossed, residuals)
    one_pass = span(crossed.right_mul(r, k) for r in residuals for k in range(crossed.dim))
    assert one_pass.rows == closure.rows
    fiber = build_fiber(ring, point, recipe)
    assert (crossed.dim, fiber.dim) == dims == (crossed.dim, crossed.dim - closure.rank)
    # the built fiber is the quotient by the closure, product for product
    reference = _quotient(crossed, closure)
    assert (fiber.unit, fiber.gens) == (reference.unit, reference.gens)
    assert all(fiber.product(i, j) == reference.product(i, j)
               for i in range(fiber.dim) for j in range(fiber.dim))
    # the quotient keeps the G-degrees exactly when each killed row is
    # homogeneous: at case ii none the residuals lie in degree e, while in
    # case i with gcd(n, k) > 1 and even-n case iii they mix group components
    graded = all(crossed.degree[l] == crossed.degree[p]
                 for p, tail in closure.rows.items() for l in tail)
    assert graded is (case_id == "ii")
    kept = [crossed.degree[i] for i in range(crossed.dim) if i not in closure.rows]
    if graded:
        assert fiber.degree == kept and len(set(kept)) == ring.group.order
        dense = trace_form_matrix(replace(fiber, degree=None))
        assert trace_form_rank(fiber) == span(dense).rank
    else:
        assert len(set(fiber.degree)) == 1
        # the degrees of the kept columns do not grade a mixed quotient
        assert not check_associativity(replace(fiber, degree=kept, group=ring.group))


def test_the_c5_fiber_computes_fewer_products_than_a_third_of_its_table():
    # C5 k=2, dim 100, B * G on a 10 x 2 box: a written-out table holds
    # 100^2 = 10,000 products; build plus certificate ask for fewer than
    # 3,000 of them, the trace form 20^2 on F_e
    fiber = _catalog_fiber("i", dict(n=5, k=2))
    assert str(matrix_algebra_certificate(fiber)) == "central-simple(10)"
    assert fiber.product.cache_info().misses <= 3_000 < fiber.dim ** 2


# -- every fiber: certified on the box algebra B and the action

SMALL_CONFIGS = ([("0", dict(localization=loc)) for loc in ("none", "full")]
                 + [("i", dict(n=n, k=k)) for n, k in [(2, 2), (3, 2), (2, 3), (2, 4), (4, 2),
                                                       (3, 3), (4, 4), (2, 6), (6, 2)]]
                 + [("ii", dict(localization=loc)) for loc in ("none", "torus", "full")]
                 + [("iii", dict(n=1, localization=loc)) for loc in ("none", "torus", "full")]
                 + [("iii", dict(n=2, localization=loc)) for loc in ("none", "torus")])


def _spy_checks(monkeypatch):
    """Record each `check_associativity` call of `build_fiber` as (dim,
    verdict) and each `check_frame` call as ("frame", verdict)."""
    calls = []
    for name, tag in (("check_associativity", None), ("check_frame", "frame")):
        real = getattr(fiber_module, name)

        def spy(F, *args, real=real, tag=tag):
            verdict = real(F, *args)
            calls.append((tag or F.dim, verdict))
            return verdict

        monkeypatch.setattr(fiber_module, name, spy)
    return calls


@pytest.mark.parametrize("case_id,kwargs", SMALL_CONFIGS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_box_certificate_agrees_with_the_complete_check(monkeypatch, case_id, kwargs, seed):
    _certificate_agrees_with_the_complete_check(monkeypatch, case_id, kwargs, seed)


# the benchmark's fibers above dim 40: D3 full and torus (144), C5 k=2 (100)
@pytest.mark.parametrize("case_id,kwargs", [("iii", dict(n=3, localization="full")),
                                            ("iii", dict(n=3, localization="torus")),
                                            ("i", dict(n=5, k=2))])
def test_box_certificate_agrees_with_the_complete_check_above_40(monkeypatch, case_id, kwargs):
    _certificate_agrees_with_the_complete_check(monkeypatch, case_id, kwargs, 1)


def _certificate_agrees_with_the_complete_check(monkeypatch, case_id, kwargs, seed):
    case = make_case(case_id, **kwargs)
    for stabilized in (False, True) if case.keeps_stabilized else (False,):
        point = sample_point(case, random.Random(seed), stabilized=stabilized)
        recipe = recipe_for(case, point)
        calls = _spy_checks(monkeypatch)
        fiber = build_fiber(case.ring, point, recipe)
        monkeypatch.undo()
        box_dim = recipe.ku * recipe.kv
        assert box_dim <= fiber.dim
        # the certificate ran on B, then the frame on the fiber, and held
        assert calls == [(box_dim, True), ("frame", True)]
        assert check_associativity(fiber) is True  # the generic complete check


def _perturb_mono_product(monkeypatch, at):
    """SkewRing.mono_product with 1 added to the first coefficient of its
    value at the arguments `at` = (m1, f1, m2)."""
    real = SkewRing.mono_product

    def perturbed(ring, m1, f1, m2):
        out = real(ring, m1, f1, m2)
        if (m1, f1, m2) == at:
            out = dict(out)
            acc(out, next(iter(out)), Cyclo.rational(1))
        return out

    monkeypatch.setattr(SkewRing, "mono_product", perturbed)


def _small_fiber_inputs(case_id, kwargs, seed=1):
    case = make_case(case_id, **kwargs)
    point = sample_point(case, random.Random(seed))
    return case.ring, point, recipe_for(case, point)


@pytest.mark.parametrize("case_id,kwargs,at,refused_by,complete", [
    # a product of B, f = e: (a) refuses B; the C6 k=3 quotient (dim
    # 108 -> 36) reads it too, through the products m1 alpha_f(m2)
    ("ii", dict(localization="full"), ((1, 0), (0, 0), (1, 1)), "a", "refuses"),
    ("i", dict(n=6, k=3), ((0, 1), (0, 0), (1, 0)), "a", "refuses"),
    # an entry alpha_s(m) = red(mono_product(1, s, m)) of a generator s: (b)
    # or (c)
    ("i", dict(n=6, k=3), ((0, 0), (1, 0), (1, 0)), "bc", 36),
    ("ii", dict(localization="torus"), ((0, 0), (0, 1), (1, 1)), "bc", "refuses"),
    # an entry of alpha_f for f = s^2, not a generator: the killed ideal
    # reads it, since w = (uv)^-1 s^2 has its component at s^2, and then
    # holds 1
    ("i", dict(n=6, k=3), ((0, 0), (2, 0), (1, 1)), "collapse", "collapse"),
    # an entry of alpha_s whose reflected image leaves the box (u^2 -> v^2
    # in case ii, u -> v in case 0, u^5 -> v^5 in D3)
    ("ii", dict(localization="full"), ((0, 0), (0, 1), (2, 0)), "bc", "refuses"),
    ("0", dict(localization="full"), ((0, 0), (0, 1), (1, 0)), "bc", "refuses"),
    ("iii", dict(n=3, localization="full"), ((0, 0), (0, 1), (5, 0)), "bc", "refuses"),
])
def test_box_certificate_refuses_a_perturbed_product(monkeypatch, case_id, kwargs, at,
                                                     refused_by, complete):
    ring, point, recipe = _small_fiber_inputs(case_id, kwargs)
    _perturb_mono_product(monkeypatch, at)
    calls = _spy_checks(monkeypatch)
    messages = {"refuses": "quotient multiplication is not associative; recipe is inconsistent",
                "collapse": "reductions collapse 1 to 0; the point violates a hidden constraint"}
    with pytest.raises(FiberError, match=messages["collapse" if refused_by == "collapse"
                                                  else "refuses"]):
        build_fiber(ring, point, recipe)
    box_dim = recipe.ku * recipe.kv
    # refused by (a): B fails; by (b) or (c): B holds and the certificate
    # fails before the fiber's frame is tested; a collapse stops the build
    # before the certificate
    assert calls == {"a": [(box_dim, False)], "bc": [(box_dim, True)], "collapse": []}[refused_by]
    # the complete check on the fiber: where nothing is killed the fiber is
    # B * G and it refuses too; the C6 k=3 quotient loses the perturbed
    # alpha_s entry, so that check passes its fiber, while the certificate
    # asks alpha to be an action
    reference = _reference_build(monkeypatch, ring, point, recipe)
    assert reference == messages.get(complete, complete)


@pytest.mark.parametrize("case_id,kwargs,at", [
    # m1 alpha_f(m2) with m1 != 1 and f != e, whose reflected image leaves
    # the box: B #_alpha G never reads mono_product there
    ("ii", dict(localization="full"), ((1, 0), (0, 1), (2, 0))),
    ("0", dict(localization="full"), ((1, 0), (0, 1), (1, 0))),
])
def test_a_mixed_product_is_not_read(monkeypatch, case_id, kwargs, at):
    ring, point, recipe = _small_fiber_inputs(case_id, kwargs)
    fiber = build_fiber(ring, point, recipe)
    _perturb_mono_product(monkeypatch, at)
    perturbed = build_fiber(ring, point, recipe)
    assert perturbed.dim == fiber.dim
    assert all(perturbed.product(i, j) == fiber.product(i, j)
               for i in range(fiber.dim) for j in range(fiber.dim))


def _mono_product_reads(monkeypatch, build):
    """build() and the list of (m1, f1, m2) at which it calls
    SkewRing.mono_product, one entry per call."""
    reads = []
    real = SkewRing.mono_product

    def spy(ring, m1, f1, m2):
        reads.append((m1, f1, m2))
        return real(ring, m1, f1, m2)

    with monkeypatch.context() as m:
        m.setattr(SkewRing, "mono_product", spy)
        return build(), reads


@pytest.mark.parametrize("n,calls", [(3, 720), (5, 2_000), (7, 3_920)])
def test_the_fiber_reads_mono_product_on_b_and_alpha_alone(monkeypatch, n, calls):
    # B's products (m1, e, m2) and the entries alpha_f(m) = (1, f, m), each
    # read once: dim_B^2 + |G| dim_B calls, where red(mono_product(m1, f, m2))
    # read each of the dim_B^2 |G| box products that B * G asks for
    ring, point, recipe = _small_fiber_inputs("iii", dict(n=n, localization="full"))
    group, e = ring.group, ring.group.identity()
    box = {(a, b) for a in range(recipe.ku) for b in range(recipe.kv)}
    fiber, reads = _mono_product_reads(monkeypatch, lambda: build_fiber(ring, point, recipe))
    assert str(matrix_algebra_certificate(fiber)) == f"central-simple({4 * n})"
    assert all(m2 in box and (f == e and m1 in box or m1 == (0, 0)) for m1, f, m2 in reads)
    assert len(reads) == len(box) ** 2 + group.order * len(box) == calls


def test_the_certificate_refuses_an_action_the_quotient_check_passes(monkeypatch):
    # D4 torus: B * G of dim 128 on an 8 x 2 box, killed to a fiber of dim
    # 64.  The fiber reads the same values of mono_product with or without
    # the certificate, but the complete check of the quotient passes an
    # entry of alpha at the reflection (1, 1) perturbed, which is not an
    # action of G any more; the certificate refuses it
    ring, point, recipe = _small_fiber_inputs("iii", dict(n=4, localization="torus"))
    assert recipe.ku * recipe.kv * ring.group.order == 128
    dim, reference_reads = _mono_product_reads(
        monkeypatch, lambda: _reference_build(monkeypatch, ring, point, recipe))
    fiber, reads = _mono_product_reads(monkeypatch, lambda: build_fiber(ring, point, recipe))
    assert dim == fiber.dim == 64
    assert set(reads) == set(reference_reads)
    for at in (((0, 0), (1, 1), (0, 0)), ((0, 0), (1, 1), (6, 0))):
        with monkeypatch.context() as m:
            _perturb_mono_product(m, at)
            assert _reference_build(m, ring, point, recipe) == 64
            with pytest.raises(FiberError, match="not associative"):
                build_fiber(ring, point, recipe)


def _reduced_skew_product(ring, recipe, index, x, y):
    """basis_x basis_y as red(mono_product(m1, f1, m2)) laid at f1 f2, for
    x = m1 f1 and y = m2 f2: the product B #_alpha G must agree with."""
    (a1, b1, f1), (a2, b2, f2) = x, y
    poly = ring.algebra.poly(ring.mono_product((a1, b1), f1, (a2, b2)))
    return _box_vector(ring, recipe, index, ring.from_poly(poly, ring.group.mul(f1, f2)))


def _crossed_product_agrees_with_the_skew_product(case_id, kwargs, seed):
    case = make_case(case_id, **kwargs)
    ring = case.ring
    for stabilized in (False, True) if case.keeps_stabilized else (False,):
        point = sample_point(case, random.Random(seed), stabilized=stabilized)
        # without the residual relations nothing is killed: B #_alpha G itself
        recipe = replace(recipe_for(case, point), residuals=[])
        crossed = build_fiber(ring, point, recipe)
        basis = [(a, b, f) for f in ring.group.elements()
                 for a in range(recipe.ku) for b in range(recipe.kv)]
        index = {m: i for i, m in enumerate(basis)}
        assert crossed.dim == len(basis)
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                assert crossed.product(i, j) == _reduced_skew_product(ring, recipe, index, x, y)


@pytest.mark.parametrize("case_id,kwargs", SMALL_CONFIGS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_crossed_product_is_the_reduced_skew_product(case_id, kwargs, seed):
    _crossed_product_agrees_with_the_skew_product(case_id, kwargs, seed)


@pytest.mark.parametrize("case_id,kwargs", [("iii", dict(n=3, localization="full")),
                                            ("iii", dict(n=3, localization="torus")),
                                            ("i", dict(n=5, k=2))])
def test_crossed_product_is_the_reduced_skew_product_above_40(case_id, kwargs):
    _crossed_product_agrees_with_the_skew_product(case_id, kwargs, 1)


def test_an_inconsistent_v_rule_is_refused_on_the_box_path():
    # case 0 with the constant of v^Kv raised by 1: B stays associative (it
    # is commutative) and the swap still squares to the identity and meets
    # (d), but it is no longer an endomorphism of B, which (b) refuses
    ring, point, recipe = _small_fiber_inputs("0", dict(localization="full"))
    A = ring.algebra
    bad = replace(recipe, v_pow=recipe.v_pow + A.scalar(1))
    assert build_fiber(ring, point, recipe).dim == 4
    with pytest.raises(FiberError, match="not associative"):
        build_fiber(ring, point, bad)


def test_the_certificate_asks_alpha_e_to_be_the_identity():
    # B = k x k, G = S2: the swap is an action, while the idempotent
    # endomorphism P(x1, x2) = (x1, x1) as alpha_e and alpha_s passes (b) and
    # alpha_s alpha_f = alpha_sf, but is no action
    one = Cyclo.rational(1)
    B = FiniteDimAlgebra(2, lambda i, j: {i: one} if i == j else {}, {0: one, 1: one})
    group = Group("dihedral")
    e, s = group.elements()
    identity, swap, P = [{0: one}, {1: one}], [{1: one}, {0: one}], [{0: one, 1: one}, {}]
    assert fiber_module._crossed_product_certified(group, B, {e: identity, s: swap})
    assert not fiber_module._crossed_product_certified(group, B, {e: P, s: P})


def _reference_build(monkeypatch, ring, point, recipe):
    """build_fiber with the generic complete check on the fiber in place of
    the box certificate: its outcome, a fiber dim or an error message."""
    with monkeypatch.context() as m:
        m.setattr(fiber_module, "_crossed_product_certified", lambda *args: True)
        m.setattr(fiber_module, "check_frame", fiber_module.check_associativity)
        return _outcome(ring, point, recipe)


def _complete_reference(monkeypatch, ring, point, recipe):
    """The generic complete check of B * G itself (the recipe without its
    residuals) and of the fiber: the fiber's outcome, unless the fiber passes
    and B * G does not, which the box certificate refuses too."""
    fiber = _reference_build(monkeypatch, ring, point, recipe)
    if isinstance(fiber, int):
        whole = _reference_build(monkeypatch, ring, point, replace(recipe, residuals=[]))
        if not isinstance(whole, int):
            return whole
    return fiber


def _outcome(ring, point, recipe):
    try:
        return build_fiber(ring, point, recipe).dim
    except FiberError as err:
        return str(err)


def _recipe_mutations(recipe, A):
    """Recipes with one rule changed: a constant raised, a coefficient
    doubled, an inverse rule scaled."""
    one = A.scalar(1)
    out = [replace(recipe, u_pow=recipe.u_pow + one), replace(recipe, v_pow=recipe.v_pow + one),
           replace(recipe, u_pow=recipe.u_pow * 2), replace(recipe, v_pow=recipe.v_pow * 2)]
    if recipe.u_inv is not None:
        out.append(replace(recipe, u_inv=recipe.u_inv * 2))
    if recipe.v_inv is not None:
        out.append(replace(recipe, v_inv=recipe.v_inv * 2))
    return out


def test_recipe_mutations_end_as_with_the_complete_check(monkeypatch):
    outcomes = []
    for case_id, kwargs in [("0", dict(localization="none")), ("0", dict(localization="full")),
                            ("i", dict(n=2, k=2)), ("i", dict(n=3, k=3)),
                            ("ii", dict(localization="full")),
                            ("iii", dict(n=2, localization="torus"))]:
        ring, point, recipe = _small_fiber_inputs(case_id, kwargs)
        for bad in _recipe_mutations(recipe, ring.algebra):
            outcome = _outcome(ring, point, bad)
            assert outcome == _complete_reference(monkeypatch, ring, point, bad), (case_id, kwargs)
            outcomes.append(outcome)
    # most mutations stop at the collapse or centrality tests; some are
    # consistent recipes at another point, and some reach the certificate.
    # In case i a u-rule that disagrees with its inverse rule (three
    # mutations each at (2, 2) and (3, 3)) makes B * G non-associative, while
    # its quotient, of dim 2 or 3, passes the complete check
    assert len(outcomes) == 32
    assert outcomes.count("quotient multiplication is not associative; recipe is inconsistent") == 12
    assert sum(isinstance(o, int) for o in outcomes) == 4


def test_left_mul_by_a_unit_vector_makes_no_multiply(monkeypatch):
    # an exact one scales nothing, at conductor 1 (unit vectors) and at the
    # algebra's conductor (the gens of a D3 torus fiber carry 1 at 3)
    d2 = _catalog_fiber("iii", dict(n=2, localization="torus"))
    d3 = _catalog_fiber("iii", dict(n=3, localization="torus"))
    calls = [(d2, 3, {k: Cyclo.rational(1)}) for k in range(d2.dim)]
    calls += [(d3, x, g) for x in range(d3.dim) for g in d3.gens]
    want = [F.left_mul(x, vec) for F, x, vec in calls]  # products now cached
    assert all(want) and {c.n for g in d3.gens for c in g.values()} == {3}
    convolutions = []
    real = cyclotomic._mul_nums
    monkeypatch.setattr(cyclotomic, "_mul_nums",
                        lambda *args: convolutions.append(1) or real(*args))
    assert [F.left_mul(x, vec) for F, x, vec in calls] == want
    assert not convolutions


# -- case i's rule: w^g = (uv)^-k, g = gcd(n, k), fixes v^k at the point

def test_case_i_w_to_the_gcd_is_a_power_of_uv():
    for n in range(1, 7):
        for k in (1, 2, 3, 4, 6):
            case = make_case("i", n=n, k=k)
            ring = case.ring
            w = case.presentation.gens["w"]
            assert w ** gcd(n, k) == ring.from_poly(ring.algebra.monomial(1, 1) ** -k), (n, k)


def _l_by_l_recipe(case, point):
    """Case i's rule on the l x l box: v^l -> b, with b read off the scalar
    u^l w^n v^l at the point, and the residual w - c."""
    T, A = case.ring, case.ring.algebra
    n, l = case.n, lcm(case.n, case.k)
    x_elt, w_elt = case.presentation.gens["x"], case.presentation.gens["w"]
    a, c = point.values["x"], point.values["w"]
    ((f0, poly),) = (x_elt * w_elt ** n * T.monomial(0, l)).comps.items()
    assert f0 == T.group.identity() and set(poly.terms) == {(0, 0)}
    b = poly.terms[(0, 0)] * (a * c ** n).inverse()
    return FiberRecipe(ku=l, kv=l, u_pow=A.poly({(0, 0): a}), v_pow=A.poly({(0, 0): b}),
                       u_inv=A.poly({(0, 0): a.inverse()}), v_inv=A.poly({(0, 0): b.inverse()}),
                       residuals=[w_elt - T.one() * c])


def _l_by_k_recipe(case, point, q_exponent):
    """Case i's rule on the l x k box, v^k -> s u^-k with
    s = (c^g q^q_exponent)^-1; the catalog's q_exponent is k(k-1)/2."""
    T, A = case.ring, case.ring.algebra
    n, k = case.n, case.k
    a, c = point.values["x"], point.values["w"]
    s = (c ** gcd(n, k) * A.q ** q_exponent).inverse()
    return FiberRecipe(ku=lcm(n, k), kv=k, u_pow=A.poly({(0, 0): a}), v_pow=A.poly({(-k, 0): s}),
                       u_inv=A.poly({(0, 0): a.inverse()}), v_inv=A.poly({(k, 0): s.inverse()}),
                       residuals=[case.presentation.gens["w"] - T.one() * c])


def _fiber_summary(F):
    return F.dim, trace_form_rank(F), center_dimension(F), str(matrix_algebra_certificate(F))


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4), (5, 2)])
def test_case_i_rule_gives_the_fiber_of_the_l_by_l_box(n, k):
    case = make_case("i", n=n, k=k)
    for seed in (1, 2, 2101):
        point = sample_point(case, random.Random(seed))
        recipe = recipe_for(case, point)
        assert recipe == _l_by_k_recipe(case, point, k * (k - 1) // 2)
        new = build_fiber(case.ring, point, recipe)
        old = build_fiber(case.ring, point, _l_by_l_recipe(case, point))
        assert _fiber_summary(new) == _fiber_summary(old)
        # v^k -> s u^-k with the q exponent off by one is another point's
        # rule, at which w - c is a unit
        with pytest.raises(FiberError, match="collapse"):
            build_fiber(case.ring, point, _l_by_k_recipe(case, point, k * (k - 1) // 2 + 1))
