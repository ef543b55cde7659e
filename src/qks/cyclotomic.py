"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is a vector of rationals of length phi(N) giving its coordinates in
the power basis 1, z, ..., z^(phi(N)-1) of Q(zeta_N), reduced modulo the N-th
cyclotomic polynomial.  Representations are canonical: two values at the same
conductor are equal iff their coordinate vectors are equal, and mixed
conductors are coerced to the lcm before comparing.

Values are immutable; all operations return new objects.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_ZERO = Fraction(0)
_ONE = Fraction(1)


_phi_cache: dict[int, int] = {}


def euler_phi(n: int) -> int:
    cached = _phi_cache.get(n)
    if cached is not None:
        return cached
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
    _phi_cache[n] = result
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
# dense polynomial helpers over Fraction (internal)

def _poly_divmod(num: list[Fraction], divisor: list[Fraction]):
    num = list(num)
    q = [_ZERO] * max(1, len(num) - len(divisor) + 1)
    inv_lead = 1 / divisor[-1]
    for i in range(len(num) - len(divisor), -1, -1):
        c = num[i + len(divisor) - 1] * inv_lead
        if c:
            q[i] = c
            for j, dj in enumerate(divisor):
                num[i + j] -= c * dj
    while len(num) > 1 and not num[-1]:
        num.pop()
    return q, num


_cyclo_poly_cache: dict[int, tuple[Fraction, ...]] = {}


def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n in _cyclo_poly_cache:
        return _cyclo_poly_cache[n]
    # Phi_n = (x^n - 1) / prod of Phi_d for proper divisors d
    poly = [-_ONE] + [_ZERO] * (n - 1) + [_ONE]
    for d in divisors(n):
        if d < n:
            poly, rem = _poly_divmod(poly, list(cyclotomic_polynomial(d)))
            assert rem == [_ZERO], "cyclotomic division must be exact"
    result = tuple(poly)
    _cyclo_poly_cache[n] = result
    return result


_power_table_cache: dict[int, list[tuple[Fraction, ...]]] = {}


def _power_table(n: int) -> list[tuple[Fraction, ...]]:
    """x^e reduced mod Phi_n, for e = 0 .. n-1, as phi(n)-vectors."""
    if n in _power_table_cache:
        return _power_table_cache[n]
    phi = euler_phi(n)
    f = cyclotomic_polynomial(n)
    rows: list[tuple[Fraction, ...]] = []
    cur = [_ONE] + [_ZERO] * (phi - 1)
    for _ in range(n):
        rows.append(tuple(cur))
        # multiply by x, fold the overflow using x^phi = -(f_0 + ... + f_{phi-1} x^{phi-1})
        top = cur[phi - 1]
        nxt = [_ZERO] + cur[: phi - 1]
        if top:
            for j in range(phi):
                nxt[j] -= top * f[j]
        cur = nxt
    _power_table_cache[n] = rows
    return rows


def _xgcd_poly(a: list[Fraction], b: list[Fraction]):
    """Extended gcd in Q[x]: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = list(a), list(b)
    s0, s1 = [_ONE], [_ZERO]
    t0, t1 = [_ZERO], [_ONE]

    def _sub_mul(p, q, quo):
        # p - q * quo
        out = list(p) + [_ZERO] * max(0, len(q) + len(quo) - 1 - len(p))
        for i, qi in enumerate(q):
            if qi:
                for j, cj in enumerate(quo):
                    if cj:
                        out[i + j] -= qi * cj
        while len(out) > 1 and not out[-1]:
            out.pop()
        return out

    while len(r1) > 1 or r1[0]:
        quo, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _sub_mul(s0, s1, quo)
        t0, t1 = t1, _sub_mul(t0, t1, quo)
    return r0, s0, t0


class Cyclo:
    """An exact element of Q(zeta_n).

    Use `Cyclo.rational` and `root_of_unity` to construct values, and ordinary
    operators for field arithmetic.  Operands at different conductors are
    coerced to the lcm, so scalars built at conductor 1 mix freely with
    genuine roots of unity.
    """

    __slots__ = ("n", "c")

    def __init__(self, n: int, coeffs):
        self.n = n
        self.c = tuple(coeffs)
        if len(self.c) != euler_phi(n):
            raise ValueError("coefficient vector has wrong length for conductor")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(value, conductor: int = 1) -> "Cyclo":
        r = Fraction(value)
        phi = euler_phi(conductor)
        return Cyclo(conductor, (r,) + (_ZERO,) * (phi - 1))

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
        return self.c[0]

    # -- conductor handling ------------------------------------------------

    def coerce(self, m: int) -> "Cyclo":
        """Re-express at conductor m; requires n | m."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError(f"conductor {self.n} does not divide {m}")
        step = m // self.n
        table = _power_table(m)
        phi_m = euler_phi(m)
        out = [_ZERO] * phi_m
        for j, cj in enumerate(self.c):
            if cj:
                row = table[(j * step) % m]
                for k in range(phi_m):
                    if row[k]:
                        out[k] += cj * row[k]
        return Cyclo(m, out)

    def _pair(self, other: "Cyclo"):
        if self.n == other.n:
            return self, other
        m = self.n * other.n // gcd(self.n, other.n)
        return self.coerce(m), other.coerce(m)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._pair(other)
        return Cyclo(a.n, tuple(x + y for x, y in zip(a.c, b.c)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.n, tuple(-x for x in self.c))

    def __sub__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._pair(other)
        return Cyclo(a.n, tuple(x - y for x, y in zip(a.c, b.c)))

    def __rsub__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._pair(other)
        n, phi = a.n, len(a.c)
        if phi == 1:
            return Cyclo(n, (a.c[0] * b.c[0],))
        conv = [_ZERO] * (2 * phi - 1)
        for i, x in enumerate(a.c):
            if x:
                for j, y in enumerate(b.c):
                    if y:
                        conv[i + j] += x * y
        out = list(conv[:phi])
        table = _power_table(n)
        for e in range(phi, 2 * phi - 1):
            if conv[e]:
                row = table[e % n]
                ce = conv[e]
                for k in range(phi):
                    if row[k]:
                        out[k] += ce * row[k]
        return Cyclo(n, out)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta)")
        if self.is_rational():
            return Cyclo(self.n, (1 / self.c[0],) + (_ZERO,) * (len(self.c) - 1))
        a = list(self.c)
        while len(a) > 1 and not a[-1]:
            a.pop()
        g, s, _t = _xgcd_poly(a, list(cyclotomic_polynomial(self.n)))
        # g is a nonzero constant since Phi_n is irreducible over Q
        ginv = 1 / g[0]
        phi = euler_phi(self.n)
        table = _power_table(self.n)
        out = [_ZERO] * phi
        for e, ce in enumerate(s):
            if ce:
                row = table[e % self.n]
                for k in range(phi):
                    if row[k]:
                        out[k] += ce * ginv * row[k]
        return Cyclo(self.n, out)

    def __truediv__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyclo.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._pair(other)
        return a.c == b.c

    __hash__ = None  # no cross-conductor canonical form; not hashable

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"Cyclo({self.n}, {self.to_str()})"

    # -- formatting --------------------------------------------------------

    def to_str(self) -> str:
        """Render as 'c0 + c1*z + c2*z^2 + ...' with zero terms dropped."""
        parts = []
        for e, coeff in enumerate(self.c):
            if not coeff:
                continue
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


def root_of_unity(j: int, n: int) -> Cyclo:
    """zeta_n^j at conductor n; its multiplicative order is n/gcd(j, n)."""
    if n < 1:
        raise ValueError("order must be positive")
    return Cyclo(n, _power_table(n)[j % n])


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
    terms, cur, depth = [], "", 0
    for ch in s:
        if ch in "+-" and cur and cur[-1] not in "+-*/^" and depth == 0:
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
            exp = int(zpart[1:]) if zpart.startswith("^") else (1 if not zpart else None)
            if exp is None:
                raise ValueError(f"malformed power in {text!r}")
            total = total + Cyclo.rational(sign * coeff) * root_of_unity(exp, conductor)
        else:
            total = total + Cyclo.rational(sign * Fraction(term), conductor)
    return total.coerce(conductor) if total.n != conductor else total
