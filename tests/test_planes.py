"""Rewrite system, group law, actions and inner-conjugation certificates."""

import random
from fractions import Fraction
from math import lcm

import pytest

from qks.catalog import make_case
from qks.cyclotomic import Cyclo, _make, _mul_nums, root_of_unity
from qks.linalg import acc
from qks.planes import (
    ActionError,
    Algebra,
    AlgebraError,
    Group,
    act_mono,
    apply_automorphism,
    check_action_well_defined,
    check_inner_by,
    is_central_in_algebra,
)
from qks.skew import SkewRing


def quantum(q, conductor=1, inverted=()):
    return Algebra("quantum", q=q, conductor=conductor, inverted=inverted)


def minus_one_plane(inverted=()):
    return Algebra("quantum", q=Cyclo.rational(-1), inverted=inverted)


def test_quantum_rewrite():
    q = root_of_unity(1, 3)
    A = quantum(q)
    assert A.v() * A.u() == A.monomial(1, 1, q)


def test_jordan_rewrite():
    A = Algebra("jordan")
    vu = A.v() * A.u()
    assert vu == A.monomial(1, 1) + A.monomial(2, 0)


def test_jordan_laurent_rewrite():
    A = Algebra("jordan", inverted={"u"})
    got = A.v() * A.u(-1)
    assert got == A.monomial(-1, 1) - A.one()


def test_jordan_power_shift():
    A = Algebra("jordan")
    # v u^a = u^a v + a u^{a+1}
    for a in range(1, 5):
        assert A.v() * A.u(a) == A.monomial(a, 1) + A.monomial(a + 1, 0, a)


def test_graded_component():
    A = Algebra("quantum", q=Cyclo.one())
    x = A.monomial(1, 1) + A.monomial(3, 0)
    assert x.graded_component(2) == A.monomial(1, 1)
    assert x.graded_component(1).is_zero()


def test_jordan_relation_homogeneous():
    A = Algebra("jordan")
    prod = A.v() * A.u()
    assert prod.graded_component(2) == prod


def test_mismatched_algebras_rejected():
    A = Algebra("quantum", q=Cyclo.one())
    B = Algebra("jordan")
    with pytest.raises(AlgebraError):
        A.u() * B.u()


def test_inverted_constraints():
    A = Algebra("quantum", q=Cyclo.rational(2))
    with pytest.raises(AlgebraError):
        A.monomial(-1, 0)
    with pytest.raises(AlgebraError):
        Algebra("jordan", inverted={"v"})


def test_group_multiply_dihedral():
    G = Group("dihedral", 3, root_of_unity(1, 3))
    assert G.mul((1, 1), (1, 0)) == (0, 1)


def test_group_multiply_cyclic():
    G = Group("cyclic", 4, root_of_unity(1, 4))
    assert G.mul((3, 0), (2, 0)) == (1, 0)


def test_identity_exhaustive_d4():
    G = Group("dihedral", 4, root_of_unity(1, 4))
    e = G.identity()
    for x in G.elements():
        assert G.mul(e, x) == x
        assert G.mul(x, e) == x
        assert G.mul(x, G.inv(x)) == e


def test_apply_automorphism_cyclic():
    for n in (2, 3, 5):
        w = root_of_unity(1, n)
        A = quantum(w, conductor=n)
        G = Group("cyclic", n, w)
        x = A.monomial(2, 1)
        # g.(u^2 v) = w^2 w^-1 u^2 v = w u^2 v
        assert apply_automorphism(G, (1, 0), x) == A.monomial(2, 1, w)


def test_apply_automorphism_swap_minus_one():
    A = minus_one_plane()
    G = Group("dihedral")
    # h.(uv) = vu = -uv
    assert apply_automorphism(G, (0, 1), A.monomial(1, 1)) == A.monomial(1, 1, -1)


def test_identity_acts_trivially():
    A = minus_one_plane()
    G = Group("dihedral", 3, root_of_unity(1, 3).coerce(3))
    rng = random.Random(5)
    for _ in range(20):
        x = _random_poly(rng, A)
        assert apply_automorphism(G, G.identity(), x) == x


def test_action_well_defined_catalog():
    for n in (2, 3, 4):
        w = root_of_unity(1, n)
        assert check_action_well_defined(quantum(root_of_unity(1, 6), conductor=lcm(6, n)),
                                         Group("cyclic", n, w))
        assert check_action_well_defined(minus_one_plane(), Group("dihedral", n, w))
    assert check_action_well_defined(minus_one_plane(), Group("dihedral"))
    assert check_action_well_defined(Algebra("jordan"), Group("cyclic", 2, Cyclo.rational(-1)))


def test_action_not_well_defined():
    # swap on k_q needs q^2 = 1
    assert not check_action_well_defined(quantum(Cyclo.rational(2)), Group("dihedral"))
    assert not check_action_well_defined(quantum(root_of_unity(1, 4), conductor=4), Group("dihedral"))
    # h does not respect the Jordan relation vu = uv + u^2
    assert not check_action_well_defined(Algebra("jordan"), Group("dihedral"))
    # C_3 on the Jordan plane would need w^2 = 1
    assert not check_action_well_defined(Algebra("jordan"),
                                         Group("cyclic", 3, root_of_unity(1, 3)))


def test_action_must_follow_the_group_law():
    # the action reads f.(g.x) = (fg).x off Group.mul: a law that disagrees
    # with act_mono is rejected, though every relation word still acts trivially
    d3 = Group("dihedral", 3, root_of_unity(1, 3))
    d3.mul = lambda x, y: ((x[0] + y[0]) % 3, (x[1] + y[1]) % 2)  # abelian
    assert not check_action_well_defined(minus_one_plane(), d3)
    c3 = Group("cyclic", 3, root_of_unity(1, 3))
    c3.mul = lambda x, y: ((x[0] + 2 * y[0]) % 3, 0)
    assert not check_action_well_defined(quantum(root_of_unity(1, 6), conductor=6), c3)


def test_inner_torus_minus_one():
    A = minus_one_plane(inverted={"u", "v"})
    G = Group("cyclic", 2, Cyclo.rational(-1))
    c = A.monomial(1, 1) ** -1
    assert check_inner_by(A, G, (1, 0), c)


def test_inner_quantum_torus_general():
    # q of order k, C_n: g^(l/k) is conjugation by (uv)^(l/n), l = lcm(n, k)
    for n, k in ((2, 2), (2, 4)):
        l = lcm(n, k)
        eps = root_of_unity(1, l)
        q = eps ** (l // k)
        w = eps ** (l // n)
        A = quantum(q, conductor=l, inverted={"u", "v"})
        G = Group("cyclic", n, w)
        c = A.monomial(1, 1) ** (l // n)
        assert check_inner_by(A, G, (l // k % n, 0), c)


def test_not_inner_jordan():
    A = Algebra("jordan", inverted={"u"})
    G = Group("cyclic", 2, Cyclo.rational(-1))
    for k in (1, 2, 3):
        assert not check_inner_by(A, G, (1, 0), A.u(k))


def _random_poly(rng, A, span=3):
    terms = {}
    lo = -2 if A.inverted else 0
    for _ in range(rng.randint(1, span)):
        a, b = rng.randint(lo, 3), rng.randint(lo if "v" in A.inverted else 0, 3)
        terms[(a, b)] = A.scalar(rng.randint(-3, 3))
    return A.poly(terms)


@pytest.mark.parametrize("make", [
    lambda: Algebra("quantum", q=Cyclo.one()),
    lambda: quantum(Cyclo.rational(2)),
    lambda: quantum(root_of_unity(1, 4), conductor=4),
    lambda: minus_one_plane(inverted={"u", "v"}),
    lambda: Algebra("jordan"),
    lambda: Algebra("jordan", inverted={"u"}),
])
def test_multiplication_associative_randomized(make):
    A = make()
    rng = random.Random(42)
    one = A.one()
    for _ in range(500):
        x, y, z = (_random_poly(rng, A) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * one == x and one * x == x
        assert x * (y + z) == x * y + x * z


def test_automorphism_composition_and_products():
    cases = [
        (minus_one_plane(), Group("dihedral", 4, root_of_unity(1, 4))),
        (quantum(root_of_unity(1, 6), conductor=6), Group("cyclic", 6, root_of_unity(1, 6))),
    ]
    rng = random.Random(11)
    for A, G in cases:
        for _ in range(40):
            f1 = rng.choice(G.elements())
            f2 = rng.choice(G.elements())
            x = _random_poly(rng, A)
            y = _random_poly(rng, A)
            lhs = apply_automorphism(G, f1, apply_automorphism(G, f2, x))
            rhs = apply_automorphism(G, G.mul(f1, f2), x)
            assert lhs == rhs
            assert (apply_automorphism(G, f1, x * y)
                    == apply_automorphism(G, f1, x) * apply_automorphism(G, f1, y))


def test_grading_cauchy_product():
    A = minus_one_plane()
    rng = random.Random(13)
    for _ in range(50):
        x, y = _random_poly(rng, A), _random_poly(rng, A)
        prod = x * y
        for d in range(0, 9):
            expected = A.zero()
            for i in range(0, d + 1):
                expected = expected + x.graded_component(i) * y.graded_component(d - i)
            assert prod.graded_component(d) == expected


def test_denominator_validation():
    loc = Algebra("quantum", q=Cyclo.one(), denominators=[{(1, 0): 1, (0, 1): -1}])
    assert [d.terms for d in loc.denominators] == [(loc.u() - loc.v()).terms]
    with pytest.raises(AlgebraError):
        Algebra("quantum", q=Cyclo.rational(2), denominators=[{(1, 0): 1}])


def test_denominators_must_be_group_stable():
    swap = Group("dihedral")
    bad = Algebra("quantum", q=Cyclo.one(), denominators=[{(1, 0): 1}])
    assert check_action_well_defined(bad, swap) is False
    with pytest.raises(AlgebraError):
        SkewRing(bad, swap)
    good = Algebra("quantum", q=Cyclo.one(), denominators=[{(1, 0): 1, (0, 1): -1}])
    assert check_action_well_defined(good, swap) is True
    SkewRing(good, swap)
    # the full localizations record the one central element they invert
    for case_id, kwargs in (("0", {}), ("ii", {}), ("iii", {"n": 3})):
        assert len(make_case(case_id, **kwargs).ring.algebra.denominators) == 1


def test_central_check():
    A = minus_one_plane()
    assert is_central_in_algebra(A.monomial(2, 0))
    assert not is_central_in_algebra(A.u())


def test_memoized_powers_match_plain_powers():
    for q in (Cyclo.rational(Fraction(3, 2)), root_of_unity(1, 5)):
        A = quantum(q, inverted=("u", "v"))
        for e in range(-6, 7):
            assert A.qpow(e) == q ** e
    for G in (Group("cyclic", 5, root_of_unity(1, 5)), Group("dihedral", 4, root_of_unity(1, 4))):
        for e in range(-2 * G.n, 2 * G.n + 1):
            assert G.wpow(e) == G.omega ** (e % G.n)


def test_commutative_plane_is_the_quantum_plane_at_one():
    # case 0's k[u,v] and case i's k_q[u,v] at ord q = 1 multiply alike
    a0 = make_case("0").ring.algebra
    a1 = make_case("i", n=2, k=1).ring.algebra
    grid = [(a, b) for a in range(4) for b in range(4)]
    for m1 in grid:
        for m2 in grid:
            assert a0.mono_mul(m1, m2) == a1.mono_mul(m1, m2) == {
                (m1[0] + m2[0], m1[1] + m2[1]): Cyclo.one()}


def test_only_the_quantum_and_jordan_planes_and_cyclic_and_dihedral_groups():
    with pytest.raises(AlgebraError, match="unknown algebra kind"):
        Algebra("commutative")
    with pytest.raises(AlgebraError, match="unknown group kind"):
        Group("sym2")
    assert repr(Group("dihedral")) == "D1" and repr(Group("cyclic")) == "C1"


def test_reflection_reads_the_plane_relation():
    # on k_{-1}: h.(u^a v^b) = v^a u^b = (-1)^{ab} u^b v^a
    A, h = minus_one_plane(inverted={"u", "v"}), (0, 1)
    for a in range(-3, 4):
        for b in range(-3, 4):
            assert act_mono(A, Group("dihedral"), h, (a, b)) == ((b, a), Cyclo.rational((-1) ** (a * b)))
    # on the Jordan plane h still swaps u and v, but vu = uv + u^2 has no monomial image
    J = Algebra("jordan")
    assert act_mono(J, Group("dihedral"), h, (1, 0)) == ((0, 1), Cyclo.one())
    with pytest.raises(ActionError):
        act_mono(J, Group("dihedral"), h, (1, 1))


def _long_product(a: Cyclo, b: Cyclo) -> Cyclo:
    """a b as the full convolution at the lcm of the conductors, with no
    shortcut for a factor 1."""
    a, b = a._pair(b)
    return _make(a.n, _mul_nums(a.n, a.c, b.c), a.den * b.den)


def test_products_skip_exact_ones_only_at_their_own_conductor():
    """NCPoly products against every multiply written out in full (c1 c2
    times the rewrite factor, summed in the same order), to the conductor
    of each term.  The coefficients sit at conductors 1, 3, 4 and 12 in
    algebras of conductor 3 and 1, so a factor 1 at the algebra's conductor
    is not always 1 at the coefficient's."""
    w3 = root_of_unity(1, 3)
    scalars = [Cyclo.rational(Fraction(-2, 3)), Cyclo.one(), Cyclo.one(3), w3,
               root_of_unity(1, 4), root_of_unity(5, 12)]
    rng = random.Random(2026)
    skipped = 0
    for A in (quantum(w3, conductor=3, inverted=("u", "v")), Algebra("jordan")):
        lo = -2 if A.inverted else 0
        for _ in range(60):
            x, y = ({(rng.randint(lo, 2), rng.randint(lo, 2)): rng.choice(scalars)
                     for _ in range(rng.randint(1, 3))} for _ in range(2))
            want: dict = {}
            for m1, c1 in x.items():
                for m2, c2 in y.items():
                    c12 = _long_product(c1, c2)
                    for mono, factor in A.mono_mul(m1, m2).items():
                        acc(want, mono, _long_product(c12, factor))
                    skipped += c2.den == 1 and c2.c[0] == 1 and not any(c2.c[1:])
            got = (A.poly(x) * A.poly(y)).terms
            assert [(m, c.n, c.c, c.den) for m, c in got.items()] \
                == [(m, c.n, c.c, c.den) for m, c in want.items()]
    assert skipped > 0
