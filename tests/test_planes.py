"""Rewrite system, group law, actions and inner-conjugation certificates."""

import random
from fractions import Fraction
from math import lcm

import pytest

from qks.catalog import make_case
from qks.cyclotomic import Cyclo, root_of_unity
from qks.planes import (
    Algebra,
    AlgebraError,
    Group,
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
    A = Algebra("commutative")
    x = A.monomial(1, 1) + A.monomial(3, 0)
    assert x.graded_component(2) == A.monomial(1, 1)
    assert x.graded_component(1).is_zero()


def test_jordan_relation_homogeneous():
    A = Algebra("jordan")
    prod = A.v() * A.u()
    assert prod.graded_component(2) == prod


def test_mismatched_algebras_rejected():
    A = Algebra("commutative")
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
    G = Group("sym2")
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
    assert check_action_well_defined(minus_one_plane(), Group("sym2"))
    assert check_action_well_defined(Algebra("jordan"), Group("cyclic", 2, Cyclo.rational(-1)))


def test_action_not_well_defined():
    # swap on k_q needs q^2 = 1
    assert not check_action_well_defined(quantum(Cyclo.rational(2)), Group("sym2"))
    assert not check_action_well_defined(quantum(root_of_unity(1, 4), conductor=4), Group("sym2"))
    # reflections never act on the Jordan plane
    assert not check_action_well_defined(Algebra("jordan"), Group("sym2"))
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
    lambda: Algebra("commutative"),
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
    A = Algebra("commutative")
    loc = Algebra("commutative", denominators=[A.u() - A.v()])
    assert len(loc.denominators) == 1
    with pytest.raises(AlgebraError):
        Algebra("quantum", q=Cyclo.rational(2), denominators=[quantum(Cyclo.rational(2)).u()])


def test_denominators_must_be_group_stable():
    A = Algebra("commutative")
    swap = Group("sym2")
    bad = Algebra("commutative", denominators=[A.u()])
    assert check_action_well_defined(bad, swap) is False
    with pytest.raises(AlgebraError):
        SkewRing(bad, swap)
    good = Algebra("commutative", denominators=[A.u() - A.v()])
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
