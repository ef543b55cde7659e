"""Field arithmetic in Q(zeta_N): spec'd examples plus randomized axioms."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from qks import cyclotomic
from qks.cyclotomic import (
    Cyclo,
    _make,
    _mul_nums,
    cyclotomic_polynomial,
    euler_phi,
    multiplicative_order,
    parse_cyclo,
    power,
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


class _Counted:
    """An integer under multiplication that counts every product taken."""

    products = 0

    def __init__(self, value):
        self.value = value

    def __mul__(self, other):
        _Counted.products += 1
        return _Counted(self.value * other.value)


def test_power_squares_only_while_bits_remain():
    # one multiply per set bit of k after the first, which starts the
    # product, and one squaring per later bit; `one` is used only at k = 0
    for k in range(17):
        _Counted.products = 0
        assert power(_Counted(3), k, _Counted(1)).value == 3 ** k
        assert _Counted.products == max(bin(k).count("1") - 1, 0) + max(k.bit_length() - 1, 0)


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


# -- reference oracle: the power-basis arithmetic on plain Fraction vectors --

ORACLE_CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 10, 12, 24]


def _ref_reduce(n, poly):
    """A Fraction coefficient list reduced mod Phi_n, as a phi(n)-vector."""
    f, phi = cyclotomic_polynomial(n), euler_phi(n)
    poly = list(poly) + [Fraction(0)] * max(0, phi - len(poly))
    for e in range(len(poly) - 1, phi - 1, -1):
        c, poly[e] = poly[e], 0
        for j in range(phi):
            poly[e - phi + j] -= c * f[j]
    return poly[:phi]


def _ref_mul(n, a, b):
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return _ref_reduce(n, conv)


def _ref_coerce(n, a, m):
    poly = [Fraction(0)] * ((len(a) - 1) * (m // n) + 1)
    for j, x in enumerate(a):
        poly[j * (m // n)] += x
    return _ref_reduce(m, poly)


def _ref_inverse(n, a):
    """Solve a * x = 1 by Gaussian elimination on the multiplication matrix."""
    phi = len(a)
    cols = [_ref_mul(n, a, [Fraction(int(i == k)) for i in range(phi)]) for k in range(phi)]
    rows = [[cols[k][i] for k in range(phi)] + [Fraction(int(i == 0))] for i in range(phi)]
    for k in range(phi):
        p = next(i for i in range(k, phi) if rows[i][k])
        rows[k], rows[p] = rows[p], rows[k]
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for i in range(phi):
            if i != k and rows[i][k]:
                rows[i] = [x - rows[i][k] * y for x, y in zip(rows[i], rows[k])]
    return [r[phi] for r in rows]


def _ref_str(a):
    parts = []
    for e, c in enumerate(a):
        if c:
            zpow = "" if e == 0 else ("z" if e == 1 else f"z^{e}")
            body = str(abs(c)) if not zpow else zpow if abs(c) == 1 else f"{abs(c)}*{zpow}"
            parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in parts[1:])


def _as_ref(x):
    """The value's coordinates as Fractions, after checking the canonical form."""
    assert len(x.c) == euler_phi(x.n) and all(type(v) is int for v in x.c)
    assert type(x.den) is int and x.den > 0
    assert gcd(x.den, *x.c) == 1
    if not any(x.c):
        assert x.den == 1
    return [Fraction(v, x.den) for v in x.c]


def _ref_value(rng, n):
    phi = euler_phi(n)
    kind = rng.random()
    if kind < 0.15:  # zero, rational and sparse values exercise the edge paths
        return [Fraction(0)] * phi
    if kind < 0.3:
        return [Fraction(rng.randint(-20, 20), rng.randint(1, 12))] + [Fraction(0)] * (phi - 1)
    return [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) if rng.random() < 0.8
            else Fraction(0) for _ in range(phi)]


def test_cyclo_matches_fraction_reference():
    rng = random.Random(12)
    for trial in range(400):
        na, nb = rng.choice(ORACLE_CONDUCTORS), rng.choice(ORACLE_CONDUCTORS)
        if trial % 2:
            nb = na
        m = lcm(na, nb)
        ra, rb = _ref_value(rng, na), _ref_value(rng, nb)
        a, b = Cyclo(na, ra), Cyclo(nb, rb)
        assert _as_ref(a) == ra and _as_ref(b) == rb
        ca, cb = _ref_coerce(na, ra, m), _ref_coerce(nb, rb, m)
        assert _as_ref(a.coerce(m)) == ca and _as_ref(b.coerce(m)) == cb
        for got, want in ((a + b, [x + y for x, y in zip(ca, cb)]),
                          (a - b, [x - y for x, y in zip(ca, cb)]),
                          (-a, [-x for x in ra]),
                          (a * b, _ref_mul(m, ca, cb))):
            assert _as_ref(got) == want
        assert (a == b) == (ca == cb)
        assert a.to_str() == _ref_str(ra)
        assert parse_cyclo(a.to_str(), na) == a
        if any(ra) and euler_phi(na) <= 8:
            assert _as_ref(a.inverse()) == _ref_inverse(na, ra)


def test_cyclo_inverse_matches_reference_at_mixed_conductors():
    rng = random.Random(5)
    for _ in range(20):
        na, nb = rng.sample([3, 4, 5, 8, 10, 12], 2)
        m = lcm(na, nb)
        a = Cyclo(na, _ref_value(rng, na)) + Cyclo(nb, _ref_value(rng, nb))
        if a.is_zero():
            continue
        assert a.n == m
        assert _as_ref(a.inverse()) == _ref_inverse(m, _as_ref(a))
        assert a * a.inverse() == 1


# -- the parts of the representation that bench/frozen.py and bench/tracing.py use --

def test_public_constructor_takes_rationals_and_checks_length():
    rng = random.Random(21)
    for n in ORACLE_CONDUCTORS:
        coeffs = [rng.choice([Fraction(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(-9, 9)])
                  for _ in range(euler_phi(n))]
        built = Cyclo.zero(n)
        for j, c in enumerate(coeffs):
            built = built + Cyclo.rational(c) * root_of_unity(j, n)
        assert Cyclo(n, coeffs) == built
        assert Cyclo(n, coeffs).n == built.n == n
        with pytest.raises(ValueError):
            Cyclo(n, coeffs + [1])
        if len(coeffs) > 1:
            with pytest.raises(ValueError):
                Cyclo(n, coeffs[:-1])


def test_rationality_read_from_numerator_slots():
    rng = random.Random(22)
    for _ in range(300):
        n = rng.choice(ORACLE_CONDUCTORS)
        x = Cyclo(n, _ref_value(rng, n))
        if rng.random() < 0.5:
            x = x * x
        assert (not any(x.c[1:])) == x.is_rational()


def test_multiplying_by_an_exact_one_is_the_long_product_without_convolving(monkeypatch):
    """x * 1 and 1 * x equal the product written out at the lcm, conductor
    included, and make no convolution exactly when the one's conductor
    divides x's."""
    rng = random.Random(23)
    xs = [x for n in (1, 3, 4, 12) for x in (Cyclo.zero(n), _random_cyclo(rng, n),
                                             _random_cyclo(rng, n) * root_of_unity(1, n))]
    ones = [Cyclo.one(n) for n in (1, 2, 3, 4, 12)]
    ones += [Cyclo(4, [Fraction(3, 3), 0]), root_of_unity(1, 3) ** 3]
    convolutions = []
    monkeypatch.setattr(cyclotomic, "_mul_nums",
                        lambda *args: convolutions.append(1) or _mul_nums(*args))
    for x in xs:
        for one in ones:
            a, b = x._pair(one)
            want = _make(a.n, _mul_nums(a.n, a.c, b.c), a.den * b.den)
            for y in (x * one, one * x):
                assert (y.n, y.c, y.den) == (want.n, want.c, want.den)
            assert (not convolutions) == (x.n % one.n == 0)
            convolutions.clear()
