"""Skew group ring arithmetic, windowed centers, generating-set certificates."""

import random
from fractions import Fraction
from math import lcm

import pytest

from qks.catalog import make_case
from qks.cyclotomic import Cyclo, root_of_unity
from qks.linalg import acc, kernel, spans_equal, nullspace
from qks.planes import (
    Algebra,
    AlgebraError,
    Group,
    NCPoly,
    apply_automorphism,
    check_inner_by,
)
from qks.skew import (
    Presentation,
    SkewElement,
    SkewRing,
    _degree_range,
    _monomials_of_degree,
    _skew_coords,
    center_basis,
    invariant_basis,
    is_central,
    stabilizer_of_point,
    verify_generating_set,
    verify_invariant_generating_set,
)


def ring_case_i(n, conductor=None):
    w = root_of_unity(1, n)
    A = Algebra("quantum", q=w, conductor=conductor or n)
    return SkewRing(A, Group("cyclic", n, w))


def ring_case_ii():
    return SkewRing(Algebra("quantum", q=Cyclo.rational(-1)), Group("dihedral"))


def ring_case_iii(n):
    A = Algebra("quantum", q=Cyclo.rational(-1), conductor=n)
    return SkewRing(A, Group("dihedral", n, root_of_unity(1, n)))


def ring_case_iv():
    return SkewRing(Algebra("jordan"), Group("cyclic", 2, Cyclo.rational(-1)))


def ring_commutative_s2():
    return SkewRing(Algebra("quantum", q=Cyclo.one()), Group("dihedral"))


def ring_inner_torus():
    A = Algebra("quantum", q=Cyclo.rational(-1), inverted={"u", "v"})
    return SkewRing(A, Group("cyclic", 2, Cyclo.rational(-1)))


def test_skew_multiply_rule():
    for n in (2, 3, 5):
        T = ring_case_i(n)
        w = T.group.omega
        ug = T.monomial(1, 0, (1, 0))
        ve = T.monomial(0, 1)
        assert ug * ve == T.monomial(1, 1, (1, 0), w ** -1)


def test_reflection_squares_to_identity():
    T = ring_case_ii()
    h = T.group_element((0, 1))
    assert h * h == T.one()


def test_skew_multiply_hand_expansion():
    T = ring_case_ii()
    vh = T.monomial(0, 1, (0, 1))
    uh = T.monomial(1, 0, (0, 1))
    # (v h)(u h) = v (h.u) h^2 = v^2 e
    assert vh * uh == T.monomial(0, 2)


def test_unit_inverses():
    T = ring_inner_torus()
    x = T.monomial(1, 1, (1, 0), Cyclo.rational(Fraction(2, 3)))
    assert x * x ** -1 == T.one()
    assert x ** -1 * x == T.one()


def _unit_monomials():
    """A root of unity, a unit monomial of the quantum torus at q = zeta_3,
    and a unit monomial of the (-1)-torus # D3 with group part g h."""
    w = root_of_unity(1, 3)
    A = Algebra("quantum", q=w, conductor=3, inverted={"u", "v"})
    T = SkewRing(Algebra("quantum", q=Cyclo.rational(-1), conductor=3, inverted={"u", "v"}),
                 Group("dihedral", 3, w))
    coeff = Cyclo.rational(Fraction(-2, 3))
    return [(root_of_unity(5, 12), Cyclo.one()),
            (A.monomial(2, -1, coeff), A.one()),
            (T.monomial(1, -2, (1, 1), coeff), T.one())]


@pytest.mark.parametrize("x, one", _unit_monomials())
def test_integer_powers_of_units(x, one):
    for a in range(-4, 5):
        assert x ** a * x ** -a == one
        for b in range(-4, 5):
            assert x ** a * x ** b == x ** (a + b)


def test_only_unit_monomials_invert():
    A = Algebra("quantum", q=Cyclo.rational(-1), inverted={"u", "v"})
    G = Group("cyclic", 2, Cyclo.rational(-1))
    T = SkewRing(A, G)
    with pytest.raises(AlgebraError, match="only unit monomials"):
        (A.u() + A.v()).inverse()
    for x in (T.monomial(1, 0) + T.monomial(0, 1),
              T.monomial(1, 0) + T.group_element((1, 0))):
        with pytest.raises(AlgebraError, match="only unit monomials"):
            x.inverse_of_unit()
    with pytest.raises(AlgebraError, match="only unit monomials"):
        check_inner_by(A, G, (1, 0), A.u() + A.v())
    with pytest.raises(AlgebraError, match="negative power of u"):
        Algebra("quantum", q=Cyclo.rational(-1)).u().inverse()


def test_is_central_examples():
    T0 = ring_commutative_s2()
    assert is_central(T0.monomial(1, 1))
    Tq = ring_case_i(3)
    assert not is_central(Tq.monomial(1, 0))
    # the degree-6 central generator for D_4 (n even, m = 2)
    T = ring_case_iii(4)
    i = root_of_unity(1, 4)
    half_i = i * Cyclo.rational(Fraction(1, 2))
    z = (T.monomial(5, 1, (2, 0)) - T.monomial(1, 5, (2, 0))) * half_i
    assert is_central(z)
    assert is_central(T.monomial(2, 2))
    x = (T.monomial(4, 0) + T.monomial(0, 4)) * half_i
    assert is_central(x)


def test_prop_d4_center_relation():
    # x^2 y + y^(m+1) + z^2 = 0 exactly for n = 4, m = 2
    T = ring_case_iii(4)
    i = root_of_unity(1, 4)
    half_i = i * Cyclo.rational(Fraction(1, 2))
    x = (T.monomial(4, 0) + T.monomial(0, 4)) * half_i
    y = T.monomial(2, 2)
    z = (T.monomial(5, 1, (2, 0)) - T.monomial(1, 5, (2, 0))) * half_i
    assert (x * x * y + y * y * y + z * z).is_zero()


def _dims_by_degree(elements):
    dims = {}
    for e in elements:
        dims[e.degree()] = dims.get(e.degree(), 0) + 1
    return dims


def test_center_commutative_s2_window2():
    T = ring_commutative_s2()
    basis = center_basis(T, 2)
    assert _dims_by_degree(basis) == {0: 1, 1: 1, 2: 2}
    index = {}
    got = [_skew_coords(e, index) for e in basis]
    s = T.monomial(1, 0) + T.monomial(0, 1)
    m = T.monomial(1, 1)
    expected = [T.one(), s, s * s, m]
    exp = [_skew_coords(e, index) for e in expected]
    assert spans_equal(got, exp)


def test_center_case_ii_matches_invariant_theory():
    # Z(T) = k[u^2 + v^2, u^2 v^2]: dims 1,0,1,0,2,0,2,0,3 in degrees 0..8,
    # and in particular no degree-1 central element
    T = ring_case_ii()
    dims = _dims_by_degree(center_basis(T, 8))
    assert dims == {0: 1, 2: 1, 4: 2, 6: 2, 8: 3}


def test_center_case_iii_odd():
    T = ring_case_iii(3)
    dims = _dims_by_degree(center_basis(T, 8))
    assert dims == {0: 1, 4: 1, 6: 1, 8: 1}
    basis4 = center_basis(T, 4)
    assert _dims_by_degree(basis4) == {0: 1, 4: 1}
    # the degree-4 element is a multiple of u^2 v^2
    (elt,) = [e for e in basis4 if e.degree() == 4]
    index = {}
    assert spans_equal([_skew_coords(elt, index)],
                       [_skew_coords(T.monomial(2, 2), index)])


def test_center_case_iii_even():
    T = ring_case_iii(4)
    dims = _dims_by_degree(center_basis(T, 8))
    assert dims == {0: 1, 4: 2, 6: 1, 8: 3}


def test_center_case_iv_trivial():
    T = ring_case_iv()
    dims = _dims_by_degree(center_basis(T, 8))
    assert dims == {0: 1}


def test_center_elements_are_central_and_window_stable():
    for T in (ring_case_ii(), ring_case_iii(3), ring_case_iv()):
        basis8 = center_basis(T, 8)
        assert all(is_central(e) for e in basis8)
        dims8 = _dims_by_degree(basis8)
        dims4 = _dims_by_degree(center_basis(T, 4))
        for d in range(0, 5):
            assert dims4.get(d, 0) == dims8.get(d, 0)


def test_center_inner_torus_contains_small_window():
    T = ring_inner_torus()
    basis4 = center_basis(T, 4)
    assert all(is_central(e) for e in basis4)
    basis2 = center_basis(T, 2)
    index = {}
    big = {}
    for e in basis4:
        big.setdefault(e.degree(), []).append(_skew_coords(e, index))
    for e in basis2:
        vec = _skew_coords(e, index)
        from qks.linalg import Echelon
        ech = Echelon()
        for v in big.get(e.degree(), []):
            ech.add(v)
        assert not ech.reduce(vec)


def test_inner_action_centre_formula():
    # Z(A # C_2) = Z(A)[(uvg)^{+-1}] for the inner action on the (-1)-torus
    T = ring_inner_torus()
    pres = Presentation(
        ring=T,
        names=("x", "y", "w"),
        gens={"x": T.monomial(2, 0), "y": T.monomial(0, 2), "w": T.monomial(1, 1, (1, 0))},
        relations=[{(0, 0, 2): Cyclo.one(), (1, 1, 0): Cyclo.one()}],  # w^2 + x y = 0
        invertible=frozenset({"x", "y", "w"}),
        localized_at=[],
    )
    assert verify_generating_set(pres, 4)


def test_outer_action_centre_is_invariant_subring():
    # X-outer cases: Z(T) coincides degree by degree with Z(A)^G
    cases = [ring_case_ii(), ring_case_iii(3), ring_case_iv()]
    for T in cases:
        A, G = T.algebra, T.group
        # Z(A) is the center of A # C1
        za = [x.comps[(0, 0)] for x in center_basis(SkewRing(A, Group("cyclic", 1)), 8)]
        za_by_deg = {}
        for p in za:
            za_by_deg.setdefault(p.degree(), []).append(p)
        center = center_basis(T, 8)
        center_by_deg = {}
        for e in center:
            center_by_deg.setdefault(e.degree(), []).append(e)
        for d in range(0, 9):
            polys = za_by_deg.get(d, [])
            # invariant subspace of Z(A)_d under G
            index = {}
            cols = []
            from qks.planes import apply_automorphism
            rows = {}
            for j, p in enumerate(polys):
                cols.append(p)
                for gi, f in enumerate(G.generators()):
                    diff = apply_automorphism(G, f, p) - p
                    for mono, c in diff.terms.items():
                        row = rows.setdefault((gi, mono), {})
                        cur = row.get(j)
                        cur = c if cur is None else cur + c
                        if cur.is_zero():
                            row.pop(j, None)
                        else:
                            row[j] = cur
            fixed = []
            for sol in nullspace(rows.values(), len(polys)):
                combo = A.zero()
                for j, c in sol.items():
                    combo = combo + polys[j] * c
                fixed.append(combo)
            cvecs = []
            fvecs = []
            vindex = {}
            for e in center_by_deg.get(d, []):
                assert set(e.comps) == {(0, 0)}  # X-outer: support only at e
                cvecs.append(_skew_coords(e, vindex))
            for p in fixed:
                fvecs.append(_skew_coords(T.from_poly(p), vindex))
            assert spans_equal(cvecs, fvecs)


def test_invariant_basis_examples():
    # degree-0 component is always spanned by 1
    for n in (2, 3):
        T = ring_case_i(n)
        inv = invariant_basis(T, 4)
        deg0 = [p for p in inv if p.degree() == 0]
        assert len(deg0) == 1
    # k_q^{C_n}: u^i v^j fixed iff i = j mod n; degree 2 component is spanned by uv
    T = ring_case_i(3)
    inv2 = [p for p in invariant_basis(T, 3) if p.degree() == 2]
    assert len(inv2) == 1
    assert set(inv2[0].terms) == {(1, 1)}


def test_invariant_basis_rejects_a_group_that_does_not_act():
    # invariant_basis takes a ring, and the swap u <-> v, which does not
    # respect the Jordan relation vu = uv + u^2, makes none
    with pytest.raises(AlgebraError, match="does not act"):
        SkewRing(Algebra("jordan"), Group("dihedral"))


def test_invariant_generating_set_dihedral_plane():
    # k[a,b]^{D_n} = k[ab, a^n + b^n] for the standard dihedral action
    for n in (2, 3):
        A = Algebra("quantum", q=Cyclo.one(), conductor=n)
        G = Group("dihedral", n, root_of_unity(1, n))
        gens = [A.monomial(1, 1), A.monomial(n, 0) + A.monomial(0, n)]
        assert verify_invariant_generating_set(SkewRing(A, G), gens, n + 2)


def test_verify_generating_set_example_outer():
    T = ring_commutative_s2()
    s = T.monomial(1, 0) + T.monomial(0, 1)
    m = T.monomial(1, 1)
    pres = Presentation(ring=T, names=("s", "m"), gens={"s": s, "m": m})
    assert verify_generating_set(pres, 5)
    # dropping a generator shrinks the span
    smaller = Presentation(ring=T, names=("s",), gens={"s": s})
    assert not verify_generating_set(smaller, 5)


def test_verify_generating_set_reports_bad_relation():
    T = ring_commutative_s2()
    s = T.monomial(1, 0) + T.monomial(0, 1)
    pres = Presentation(ring=T, names=("s",), gens={"s": s},
                        relations=[{(2,): Cyclo.one()}])  # claims s^2 = 0
    with pytest.raises(Exception, match="relation"):
        verify_generating_set(pres, 3)


def test_central_point_validation():
    T = ring_inner_torus()
    pres = Presentation(
        ring=T, names=("x", "y", "w"),
        gens={"x": T.monomial(2, 0), "y": T.monomial(0, 2), "w": T.monomial(1, 1, (1, 0))},
        relations=[{(0, 0, 2): Cyclo.one(), (1, 1, 0): Cyclo.one()}],
        invertible=frozenset({"x", "y", "w"}),
    )
    i = root_of_unity(1, 4)
    pres.point({"x": Cyclo.rational(1), "y": Cyclo.rational(4), "w": i * 2})
    with pytest.raises(Exception, match="relation"):
        pres.point({"x": Cyclo.rational(1), "y": Cyclo.rational(4), "w": Cyclo.rational(2)})
    with pytest.raises(Exception, match="nonzero"):
        pres.point({"x": Cyclo.rational(0), "y": Cyclo.rational(4), "w": i * 2})


def test_stabilizer_commutative_swap():
    A = Algebra("quantum", q=Cyclo.one())
    G = Group("dihedral")
    T = SkewRing(A, G)
    assert [z.terms for z in A.center_generators()] == [A.u().terms, A.v().terms]
    assert stabilizer_of_point(T, [Cyclo.rational(2), Cyclo.rational(3)]) == [(0, 0)]
    assert stabilizer_of_point(T, [Cyclo.rational(2), Cyclo.rational(2)]) == [(0, 0), (0, 1)]


def test_stabilizer_torus_dihedral():
    n = 3
    A = Algebra("quantum", q=Cyclo.rational(-1), conductor=n, inverted={"u", "v"})
    G = Group("dihedral", n, root_of_unity(1, n))
    T = SkewRing(A, G)
    assert [z.terms for z in A.center_generators()] == \
        [A.monomial(2, 0).terms, A.monomial(0, 2).terms]
    w = root_of_unity(1, n)
    # alpha = w^i beta gives a reflection in the stabilizer
    stab = stabilizer_of_point(T, [w, Cyclo.one(3)])
    assert len(stab) > 1
    assert all(f in G.elements() for f in stab)
    # generic rational point: trivial
    stab = stabilizer_of_point(T, [Cyclo.rational(1), Cyclo.rational(2)])
    assert stab == [(0, 0)]
    # closure under multiplication
    for x in stab:
        for y in stab:
            assert G.mul(x, y) in stab


def test_stabilizer_needs_a_pi_algebra():
    T = SkewRing(Algebra("jordan"), Group("cyclic", 2, Cyclo.rational(-1)))
    with pytest.raises(AlgebraError, match="not PI"):
        stabilizer_of_point(T, [Cyclo.rational(1), Cyclo.rational(2)])


_TORUS_CASES = ([("i", dict(n=n, k=k)) for n in (2, 3, 4, 6) for k in (2, 3, 4, 6)]
                + [("iii", dict(n=n, localization="torus")) for n in range(1, 9)]
                + [("ii", dict(localization="torus"))])


@pytest.mark.parametrize("case_id,kwargs", _TORUS_CASES)
def test_inner_part_is_skolem_noether(case_id, kwargs):
    # N (f fixing Z(A) pointwise) equals the f that conjugation by a unit
    # monomial u^a v^b realizes, 0 <= a, b < l: the inner automorphisms of
    # the torus, up to the central u^l, v^l
    ring = make_case(case_id, **kwargs).ring
    A, G = ring.algebra, ring.group
    l = A.center_generators()[0].degree()
    realized = [f for f in G.elements()
                if any(check_inner_by(A, G, f, A.monomial(a, b))
                       for a in range(l) for b in range(l))]
    assert ring.inner_part() == realized


def test_inner_part_flags_an_action_that_fixes_the_center():
    # C2 acting by -1 on the (-1)-torus fixes u^2 and v^2: X-inner, by uv
    A = Algebra("quantum", q=Cyclo.rational(-1), inverted={"u", "v"})
    G = Group("cyclic", 2, Cyclo.rational(-1))
    assert SkewRing(A, G).inner_part() == [(0, 0), (1, 0)]
    assert check_inner_by(A, G, (1, 0), A.monomial(1, 1))
    # the C2 swap (S2) moves u^2, so it stays X-outer
    assert SkewRing(A, Group("dihedral", 1)).inner_part() == [(0, 0)]


def _random_skew(rng, T, max_terms=2):
    A = T.algebra
    lo = -2 if A.inverted else 0
    comps = {}
    for _ in range(rng.randint(1, 2)):
        f = rng.choice(T.group.elements())
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            a = rng.randint(lo, 2)
            b = rng.randint(lo if "v" in A.inverted else 0, 2)
            terms[(a, b)] = A.scalar(rng.randint(-2, 2))
        comps[f] = A.poly(terms)
    return SkewElement(T, comps)


@pytest.mark.parametrize("make", [
    lambda: ring_case_i(3),
    lambda: ring_case_ii(),
    lambda: ring_case_iii(3),
    lambda: ring_case_iii(4),
    lambda: ring_case_iv(),
    lambda: ring_inner_torus(),
    lambda: ring_commutative_s2(),
])
def test_skew_associativity_randomized(make):
    T = make()
    rng = random.Random(20260808)
    one = T.one()
    for _ in range(500):
        x, y, z = (_random_skew(rng, T) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * one == x and one * x == x


def _exact_terms(parts: dict) -> list:
    """{f: {mono: Cyclo}} as an ordered list that also pins each conductor."""
    return [(f, [(m, c.n, c.c, c.den) for m, c in terms.items()]) for f, terms in parts.items()]


SIX_RINGS = pytest.mark.parametrize("case", [
    ("0", {}),
    ("i", {"n": 3, "k": 2}),
    ("ii", {"localization": "full"}),
    ("iii", {"n": 3, "localization": "full"}),
    ("iii", {"n": 4, "localization": "torus"}),
    ("iv", {}),
], ids=["0", "C3k2", "S2full", "D3full", "D4torus", "jordan"])


@SIX_RINGS
@pytest.mark.parametrize("whole_group", [True, False], ids=["G", "e"])
def test_mono_product_matches_the_definition(case, whole_group):
    """m1 (f1.m2) from `SkewRing.mono_product`, against NCPoly(m1) *
    (f1.NCPoly(m2)), in the same order and at the same conductors, for every
    window-4 monomial m1, f1 in the support, and m2 a window-4 monomial of
    degree at most 2."""
    T = make_case(case[0], **case[1]).ring
    A, group = T.algebra, T.group
    support = group.elements() if whole_group else [group.identity()]
    monos = [m for d in _degree_range(A, 4) for m in _monomials_of_degree(A, d, 4)]
    checked = 0
    for m1 in monos:
        for f1 in support:
            for m2 in (m for m in monos if abs(sum(m)) <= 2):
                oracle = A.monomial(*m1) * apply_automorphism(group, f1, A.monomial(*m2))
                terms = T.mono_product(m1, f1, m2)
                assert _exact_terms({f1: terms}) == _exact_terms({f1: oracle.terms}), (m1, f1, m2)
                checked += 1
                # mutation: one coefficient with its sign flipped
                m, c = next(iter(terms.items()))
                assert _exact_terms({f1: {**terms, m: -c}}) != _exact_terms({f1: oracle.terms})
    assert checked >= 25 * len(support)


def _old_product(x, y) -> dict:
    """x * y by the rule as first written: x1 * (f1.x2) at f1 f2, summed."""
    group = x.ring.group
    out: dict = {}
    for f1, x1 in x.comps.items():
        for f2, x2 in y.comps.items():
            acc(out, group.mul(f1, f2), x1 * apply_automorphism(group, f1, x2))
    return {f: poly.terms for f, poly in out.items()}


@SIX_RINGS
def test_skew_products_match_the_old_formula(case):
    """Seeded products of multi-term elements, exact to the conductor of
    every coefficient; on the Jordan ring `mono_mul` gives several terms."""
    T = make_case(case[0], **case[1]).ring
    rng = random.Random(20261019)
    several = 0
    for _ in range(150):
        x, y = _random_skew(rng, T, max_terms=4), _random_skew(rng, T, max_terms=4)
        product = {f: poly.terms for f, poly in (x * y).comps.items()}
        assert _exact_terms(product) == _exact_terms(_old_product(x, y))
        several += any(len(T.algebra.mono_mul(m1, m2)) > 1
                       for x1 in x.comps.values() for m1 in x1.terms
                       for x2 in y.comps.values() for m2 in x2.terms)
    assert (several > 0) == (case[0] == "iv")


def _one_system_commutant(ring, window, gens, support) -> list:
    """The commutant as one system: [x, w] = 0 for every w of `gens` at once,
    over every candidate u^a v^b f of each degree (the builder before the
    commutants were intersected one generator at a time)."""
    algebra = ring.algebra
    gmul, product = ring.group.mul, ring.mono_product
    n0 = algebra.conductor
    out = []
    for d in _degree_range(algebra, window):
        cands = [(mono, f) for mono in _monomials_of_degree(algebra, d, window)
                 for f in support]

        def entries():
            for col, (mono, f) in enumerate(cands):
                for gi, (m2, f2) in enumerate(gens):
                    for m, k in product(mono, f, m2).items():
                        yield (gi, m, gmul(f, f2)), col, k
                    for m, k in product(m2, f2, mono).items():
                        yield (gi, m, gmul(f2, f)), col, -k

        for sol in kernel(entries(), len(cands)):
            comps: dict = {}
            for col, coeff in sorted(sol.items()):
                mono, f = cands[col]
                comps.setdefault(f, {})[mono] = coeff.coerce(lcm(coeff.n, n0))
            out.append(SkewElement(ring, {f: NCPoly(algebra, terms)
                                          for f, terms in comps.items()}))
    return out


COMMUTANT_RINGS = [
    ("0", {"localization": "none"}, 8),
    ("0", {"localization": "full"}, 4),
    ("i", {"n": 2, "k": 2}, 4),
    ("i", {"n": 3, "k": 2}, 4),
    ("i", {"n": 4, "k": 2}, 4),
    ("ii", {"localization": "none"}, 8),
    ("ii", {"localization": "torus"}, 4),
    ("ii", {"localization": "full"}, 4),
    ("iii", {"n": 2, "localization": "none"}, 8),
    ("iii", {"n": 2, "localization": "torus"}, 4),
    ("iii", {"n": 3, "localization": "none"}, 8),
    ("iii", {"n": 3, "localization": "torus"}, 4),
    ("iii", {"n": 3, "localization": "full"}, 4),
    ("iii", {"n": 4, "localization": "none"}, 8),
    ("iii", {"n": 4, "localization": "torus"}, 4),
    ("iv", {}, 8),
]


@pytest.mark.parametrize("case_id, kwargs, window", COMMUTANT_RINGS,
                         ids=[f"{c}-{'-'.join(map(str, kw.values()))}" for c, kw, _ in COMMUTANT_RINGS])
def test_staged_commutant_equals_one_system(case_id, kwargs, window):
    """`center_basis` and `invariant_basis`, stage by stage, give the one
    system's basis element by element, to the conductor of every term.
    (Even-n case iii has no `full` localization.)"""
    T = make_case(case_id, **kwargs).ring
    e = T.group.identity()
    center = center_basis(T, window)
    ref_center = _one_system_commutant(T, window, T.commutation_generators(),
                                       T.group.elements())
    fixed = invariant_basis(T, window)
    ref_fixed = [x.comps[e] for x in _one_system_commutant(
        T, window, [((0, 0), f) for f in T.group.generators()], [e])]
    assert center and fixed
    assert [_exact_terms({f: x.terms for f, x in z.comps.items()}) for z in center] \
        == [_exact_terms({f: x.terms for f, x in z.comps.items()}) for z in ref_center]
    assert [_exact_terms({e: p.terms}) for p in fixed] \
        == [_exact_terms({e: p.terms}) for p in ref_fixed]


def test_staged_center_builds_few_products(monkeypatch):
    """The u and v stages leave few of the 3,786 window-14 candidates of D3
    full, so the later systems are small: one system over every candidate
    made 30,288 monomial products here."""
    T = make_case("iii", n=3, localization="full").ring
    calls = []
    product = SkewRing.mono_product
    monkeypatch.setattr(SkewRing, "mono_product",
                        lambda ring, *args: calls.append(args) or product(ring, *args))
    assert len(center_basis(T, 14)) == 31
    assert len(calls) <= 12_000
