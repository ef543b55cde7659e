"""Field arithmetic in Q(zeta_N): spec'd examples plus randomized axioms."""

import random
from fractions import Fraction

import pytest

from qks.cyclotomic import (
    Cyclo,
    cyclotomic_polynomial,
    euler_phi,
    multiplicative_order,
    parse_cyclo,
    root_of_unity,
)


def test_phi_and_cyclotomic_polys():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    # Phi_4 = t^2 + 1, Phi_3 = t^2 + t + 1, Phi_6 = t^2 - t + 1
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_zeta4_squares_to_minus_one():
    i = root_of_unity(1, 4)
    assert i * i == Cyclo.rational(-1)


def test_zeta3_plus_zeta3_squared():
    w = root_of_unity(1, 3)
    assert w + w * w == Cyclo.rational(-1)


def test_scalar_division_identity():
    z8 = root_of_unity(1, 8)
    half = Cyclo.rational(Fraction(1, 2))
    assert (half * z8) / z8 == half


def test_primitive_roots_basic():
    assert root_of_unity(1, 1) == Cyclo.rational(1)
    assert root_of_unity(1, 2) == Cyclo.rational(-1)
    # zeta_8^2 is a primitive 4th root: its square is -1
    i = root_of_unity(2, 8)
    assert i * i == Cyclo.rational(-1)


def test_root_powers_wrap():
    z = root_of_unity(1, 12)
    assert z ** 12 == Cyclo.rational(1)
    assert z ** 13 == z
    assert z ** -1 == root_of_unity(11, 12)


def test_multiplicative_orders_exhaustive():
    for n in range(1, 13):
        for j in range(n):
            from math import gcd
            assert multiplicative_order(root_of_unity(j, n)) == n // gcd(j, n)


def test_coerce_conductor_roundtrip():
    one = Cyclo.rational(1)
    assert one.coerce(12).n == 12
    assert one.coerce(12) == one
    z2 = root_of_unity(1, 2)
    z2_at_6 = z2.coerce(6)
    assert z2_at_6 == root_of_unity(3, 6)
    with pytest.raises(ValueError):
        root_of_unity(1, 4).coerce(6)


def _random_cyclo(rng, n):
    phi = euler_phi(n)
    return Cyclo(n, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(phi)))


def test_field_axioms_randomized():
    rng = random.Random(20260808)
    conductors = [1, 2, 3, 4, 6, 8, 12, 24]
    for _ in range(1000):
        n = rng.choice(conductors)
        a, b, c = (_random_cyclo(rng, n) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not b.is_zero():
            assert (a / b) * b == a
        assert a - a == Cyclo.zero(n)


def test_mixed_conductor_products_randomized():
    rng = random.Random(7)
    for _ in range(200):
        na, nb = rng.choice([2, 3, 4, 6]), rng.choice([2, 3, 4, 8])
        a, b = _random_cyclo(rng, na), _random_cyclo(rng, nb)
        from math import lcm
        m = lcm(na, nb)
        assert a * b == a.coerce(m) * b.coerce(m)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Cyclo.rational(1) / Cyclo.zero(4)


def test_equality_is_canonical():
    rng = random.Random(99)
    for _ in range(100):
        a = _random_cyclo(rng, 12)
        b = _random_cyclo(rng, 12)
        assert (a == b) == (a - b).is_zero()


def test_inverse_of_generic_element():
    a = root_of_unity(1, 5) + Cyclo.rational(2)
    assert a * a.inverse() == Cyclo.rational(1)


def test_str_and_parse_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        a = _random_cyclo(rng, 12)
        assert parse_cyclo(a.to_str(), 12) == a
    assert parse_cyclo("1/2 + z^2", 12) == Cyclo.rational(Fraction(1, 2)) + root_of_unity(2, 12)
    assert parse_cyclo("-z", 4) == -root_of_unity(1, 4)
    assert Cyclo.zero(4).to_str() == "0"
