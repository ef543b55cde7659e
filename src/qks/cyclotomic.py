"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value holds its coordinates in the power basis 1, z, ..., z^(phi(N)-1) of
Q(zeta_N), reduced modulo the N-th cyclotomic polynomial, as integer
numerators over one positive denominator with no common factor.
Representations are canonical: two values at the same conductor are equal iff
their numerators and denominators are equal, and mixed conductors are coerced
to the lcm before comparing.  Since Phi_N is monic over Z, products are
integer convolutions folded through an integer power table; an inverse is the
product of the other Galois conjugates over the norm, which is an integer.
`Fraction` appears only at the boundary: the public constructor, `rational`
and the rational operands it converts, `as_fraction`, `to_str` and parsing;
the cyclotomic polynomials are computed over the integers.

Values are immutable; all operations return new objects.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm


@cache
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("conductor must be positive")
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


# ---------------------------------------------------------------------------
# dense integer polynomial helpers (internal)

def _poly_divmod(num: list[int], divisor: list[int]):
    """Quotient and remainder of integer polynomials by a monic divisor."""
    num = list(num)
    q = [0] * max(1, len(num) - len(divisor) + 1)
    for i in range(len(num) - len(divisor), -1, -1):
        c = num[i + len(divisor) - 1]
        if c:
            q[i] = c
            for j, dj in enumerate(divisor):
                num[i + j] -= c * dj
    while len(num) > 1 and not num[-1]:
        num.pop()
    return q, num


@cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    # Phi_n = (x^n - 1) / prod of Phi_d for proper divisors d
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n):
        if d < n:
            poly, rem = _poly_divmod(poly, list(cyclotomic_polynomial(d)))
            assert rem == [0], "cyclotomic division must be exact"
    return tuple(poly)


@cache
def _power_table(n: int) -> list[tuple[int, ...]]:
    """x^e reduced mod Phi_n, for e = 0 .. n-1, as integer phi(n)-vectors.

    Phi_n is monic with integer coefficients, so every row is integral."""
    phi = euler_phi(n)
    f = cyclotomic_polynomial(n)
    rows: list[tuple[int, ...]] = []
    cur = [1] + [0] * (phi - 1)
    for _ in range(n):
        rows.append(tuple(cur))
        # multiply by x, fold the overflow using x^phi = -(f_0 + ... + f_{phi-1} x^{phi-1})
        top = cur[phi - 1]
        nxt = [0] + cur[: phi - 1]
        if top:
            for j in range(phi):
                nxt[j] -= top * f[j]
        cur = nxt
    return rows


def _mul_nums(n: int, a, b) -> list[int]:
    """Product of two integer power-basis vectors at conductor n, mod Phi_n."""
    phi = len(a)
    if phi == 1:
        return [a[0] * b[0]]
    if phi == 2:
        # z^2 = r0 + r1 z
        (a0, a1), (b0, b1) = a, b
        r0, r1 = _power_table(n)[2]
        t = a1 * b1
        return [a0 * b0 + t * r0, a0 * b1 + a1 * b0 + t * r1]
    conv = [0] * (2 * phi - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                conv[j] += x * y
    out = conv[:phi]
    table = _power_table(n)
    for e in range(phi, 2 * phi - 1):
        ce = conv[e]
        if ce:
            for k, r in enumerate(table[e % n]):
                out[k] += ce * r
    return out


def _power_map(m: int, a, j: int) -> list[int]:
    """sum_k a_k z^(j k) at conductor m, for an integer power-basis vector a.

    With j = m / n this re-expresses a conductor-n vector at m; with m = n and
    gcd(j, n) = 1 it is the Galois conjugate sigma_j: z -> z^j."""
    table = _power_table(m)
    out = [0] * euler_phi(m)
    for k, x in enumerate(a):
        if x:
            for i, r in enumerate(table[j * k % m]):
                out[i] += x * r
    return out


_new = object.__new__


def _make(n: int, nums, den: int) -> "Cyclo":
    """The canonical value nums/den at conductor n (den > 0); no length check."""
    g = gcd(den, *nums)
    if g != 1:
        den //= g
        nums = [x // g for x in nums]
    value = _new(Cyclo)
    value.n = n
    value.c = tuple(nums)
    value.den = den
    return value


class Cyclo:
    """An exact element of Q(zeta_n).

    Stored as a tuple `c` of integer numerators, one per power-basis slot
    1, z, ..., z^(phi(n)-1), over one denominator `den`.  The form is
    canonical: den > 0, gcd(den, *c) == 1, and zero is (0, ..., 0) over 1,
    so equality at one conductor is a tuple compare.  Products convolve the
    integer vectors and fold through the power table of the monic Phi_n; a
    non-rational inverse is den * P / N(a), with P the product of the other
    Galois conjugates of the integral numerator a and N(a) = a * P its norm.

    Use `Cyclo.rational` and `root_of_unity` to construct values, and ordinary
    operators for field arithmetic.  `Cyclo(n, coeffs)` takes a vector of
    rationals.  Operands at different conductors are coerced to the lcm, so
    scalars built at conductor 1 mix freely with genuine roots of unity.
    """

    __slots__ = ("n", "c", "den")

    def __init__(self, n: int, coeffs):
        coeffs = [Fraction(x) for x in coeffs]
        if len(coeffs) != euler_phi(n):
            raise ValueError("coefficient vector has wrong length for conductor")
        # the lcm of reduced denominators shares no factor with every numerator
        den = lcm(*(x.denominator for x in coeffs))
        self.n = n
        self.c = tuple(x.numerator * (den // x.denominator) for x in coeffs)
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(value, conductor: int = 1) -> "Cyclo":
        rest = (0,) * (euler_phi(conductor) - 1)
        if type(value) is int:
            return _make(conductor, (value,) + rest, 1)
        r = Fraction(value)
        return _make(conductor, (r.numerator,) + rest, r.denominator)

    @staticmethod
    def zero(conductor: int = 1) -> "Cyclo":
        return Cyclo.rational(0, conductor)

    @staticmethod
    def one(conductor: int = 1) -> "Cyclo":
        return Cyclo.rational(1, conductor)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.c)

    def is_rational(self) -> bool:
        return not any(self.c[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.c[0], self.den)

    # -- conductor handling ------------------------------------------------

    def coerce(self, m: int) -> "Cyclo":
        """Re-express at conductor m; requires n | m."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError(f"conductor {self.n} does not divide {m}")
        return _make(m, _power_map(m, self.c, m // self.n), self.den)

    def _pair(self, other: "Cyclo"):
        if self.n == other.n:
            return self, other
        m = lcm(self.n, other.n)
        return self.coerce(m), other.coerce(m)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._pair(other)
        da, db = a.den, b.den
        if da == db:
            return _make(a.n, [x + y for x, y in zip(a.c, b.c)], da)
        return _make(a.n, [x * db + y * da for x, y in zip(a.c, b.c)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.n, [-x for x in self.c], self.den)

    def __sub__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if other.__class__ is not Cyclo:
            other = _as_cyclo(other)
            if other is NotImplemented:
                return NotImplemented
        # x * 1 is x: an exact one at a conductor dividing x's would come
        # back as x, at x's conductor, from the full product too
        if other.den == 1 and other.c[0] == 1 and self.n % other.n == 0 and not any(other.c[1:]):
            return self
        if self.den == 1 and self.c[0] == 1 and other.n % self.n == 0 and not any(self.c[1:]):
            return other
        a, b = self._pair(other)
        return _make(a.n, _mul_nums(a.n, a.c, b.c), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        n, nums, den = self.n, self.c, self.den
        if not any(nums[1:]):
            a = nums[0]
            if not a:
                raise ZeroDivisionError("division by zero in Q(zeta)")
            return _make(n, (den if a > 0 else -den,) + nums[1:], abs(a))
        # self = nums/den with nums integral, and nums * P = N(nums) is an
        # integer, positive since Q(zeta_n) with phi(n) > 1 is totally imaginary
        prod = None
        for j in range(2, n):
            if gcd(j, n) == 1:
                conj = _power_map(n, nums, j)
                prod = conj if prod is None else _mul_nums(n, prod, conj)
        norm = _mul_nums(n, nums, prod)[0]
        return _make(n, [den * x for x in prod], norm)

    def __truediv__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, Cyclo.one(self.n))

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._pair(other)
        return a.c == b.c and a.den == b.den

    __hash__ = None  # no cross-conductor canonical form; not hashable

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"Cyclo({self.n}, {self.to_str()})"

    # -- formatting --------------------------------------------------------

    def to_str(self) -> str:
        """Render as 'c0 + c1*z + c2*z^2 + ...' with zero terms dropped."""
        parts = []
        for e, num in enumerate(self.c):
            if not num:
                continue
            coeff = Fraction(num, self.den)
            if e == 0:
                parts.append(str(coeff))
                continue
            zpow = "z" if e == 1 else f"z^{e}"
            if coeff == 1:
                parts.append(zpow)
            elif coeff == -1:
                parts.append(f"-{zpow}")
            else:
                parts.append(f"{coeff}*{zpow}")
        if not parts:
            return "0"
        text = parts[0]
        for p in parts[1:]:
            text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return text


def _as_cyclo(x):
    if isinstance(x, Cyclo):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclo.rational(x)
    return NotImplemented


def power(x, k: int, one):
    """x^k for k >= 0 by square-and-multiply, starting from the first factor
    (`one` is returned only for k = 0)."""
    result = None
    while k:
        if k & 1:
            result = x if result is None else result * x
        k >>= 1
        if k:
            x = x * x
    return one if result is None else result


def root_of_unity(j: int, n: int) -> Cyclo:
    """zeta_n^j at conductor n; its multiplicative order is n/gcd(j, n)."""
    if n < 1:
        raise ValueError("order must be positive")
    return _make(n, _power_table(n)[j % n], 1)


def multiplicative_order(a: Cyclo, bound: int = 10_000) -> int:
    acc = a
    one = Cyclo.one(a.n)
    for k in range(1, bound + 1):
        if acc == one:
            return k
        acc = acc * a
    raise ValueError("order exceeds bound (element may not be a root of unity)")


# -- string parsing (CLI / JSON boundary) -----------------------------------

def parse_cyclo(text: str, conductor: int) -> Cyclo:
    """Parse 'c0 + c1*z + c2*z^2' (rationals as p/q) at the given conductor."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty cyclotomic literal")
    terms, cur = [], ""
    for ch in s:
        if ch in "+-" and cur and cur[-1] not in "+-*/^":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    total = Cyclo.zero(conductor)
    for term in terms:
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if not term:
            raise ValueError(f"malformed term in {text!r}")
        if "z" in term:
            coeff_part, _, zpart = term.partition("z")
            coeff_part = coeff_part.rstrip("*")
            coeff = Fraction(coeff_part) if coeff_part else Fraction(1)
            try:
                exp = int(zpart[1:]) if zpart.startswith("^") else (1 if not zpart else None)
            except ValueError:
                exp = None
            if exp is None:
                raise ValueError(f"malformed power in {text!r}")
            total = total + Cyclo.rational(sign * coeff) * root_of_unity(exp, conductor)
        else:
            total = total + Cyclo.rational(sign * Fraction(term), conductor)
    return total.coerce(conductor) if total.n != conductor else total
