"""Normal-form arithmetic in the base algebras and their finite group actions.

Supported coefficient rings: the quantum plane k_q[u,v] (vu = q uv), whose
member at q = 1 is the commutative plane k[u,v], and the Jordan plane
k_J[u,v] (vu = uv + u^2), each optionally with inverted generators (Laurent
versions; the Jordan plane admits inverting u only).  An algebra may also
declare central denominators, as {(a, b): coeff} term dicts: the elements a
localization inverts (such as u^2 - v^2).  They are validated (nonzero,
central, and carried to scalar multiples of one another by the group) and
recorded on the algebra, but no element carries one; every element is a
Laurent polynomial.  An algebra is one object: elements of two separately
built algebras do not mix, even when their presentations agree.

Elements are kept in the PBW normal form sum c_{ab} u^a v^b.  Products are
normalized eagerly: the quantum plane commutes exponents through a power of q,
and the Jordan plane uses v u^a = u^a v + a u^{a+1} (valid for all integer a).

Groups are the cyclic groups C_n and the dihedral groups D_n (S_2 is D_1)
acting by g.u = w u, g.v = w^{-1} v, h.u = v, h.v = u for a fixed primitive
root w; h carries u^a v^b to v^a u^b, renormalized by the plane relation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm, prod

from .cyclotomic import Cyclo, multiplicative_order, power
from .linalg import acc

Mono = tuple  # (exponent of u, exponent of v)
GroupElt = tuple  # (power of g mod n, power of h mod 2)


class AlgebraError(ValueError):
    pass


class ActionError(ValueError):
    pass


class Algebra:
    """Presentation data for one coefficient algebra (an AlgebraSpec)."""

    def __init__(self, kind: str, q: Cyclo | None = None, conductor: int = 1,
                 inverted=frozenset(), denominators=()):
        if kind not in ("quantum", "jordan"):
            raise AlgebraError(f"unknown algebra kind {kind!r}")
        if kind == "quantum":
            if q is None or q.is_zero():
                raise AlgebraError("quantum plane needs a nonzero parameter q")
        elif q is not None:
            raise AlgebraError("q is only meaningful for the quantum plane")
        inverted = frozenset(inverted)
        if not inverted <= {"u", "v"}:
            raise AlgebraError("inverted must be a subset of {u, v}")
        if kind == "jordan" and "v" in inverted:
            raise AlgebraError("the Jordan plane only admits inverting u")
        self.kind = kind
        self.q = q.coerce(lcm(q.n, conductor)) if q is not None else None
        self.conductor = conductor if q is None else lcm(q.n, conductor)
        self.inverted = inverted
        self.denominators: tuple[NCPoly, ...] = ()
        # memos that live as long as the algebra; qpow(e) = q ** e
        if self.q is not None:
            self.qpow = cache(self.q.__pow__)
        self._jordan_shift = cache(self._jordan_shift)
        for d in denominators:
            self._adjoin_denominator(d)

    def _adjoin_denominator(self, terms: dict):
        poly = NCPoly(self, {mono: self.scalar(c) for mono, c in terms.items()})
        if poly.is_zero():
            raise AlgebraError("denominator is zero")
        if not is_central_in_algebra(poly):
            raise AlgebraError(f"denominator {poly} is not central")
        self.denominators = self.denominators + (poly,)

    def __repr__(self):
        tag = {"quantum": "k_q[u,v]", "jordan": "k_J[u,v]"}[self.kind]
        if self.inverted:
            tag += " localized at " + ",".join(sorted(self.inverted))
        return f"Algebra({tag})"

    # -- coefficient helpers -------------------------------------------------

    def scalar(self, value) -> Cyclo:
        if isinstance(value, Cyclo):
            return value
        return Cyclo.rational(Fraction(value), self.conductor)

    def _check_mono(self, mono: Mono):
        a, b = mono
        if a < 0 and "u" not in self.inverted:
            raise AlgebraError("negative power of u in a ring without u^-1")
        if b < 0 and "v" not in self.inverted:
            raise AlgebraError("negative power of v in a ring without v^-1")

    # -- element constructors -------------------------------------------------

    def poly(self, terms: dict) -> "NCPoly":
        return NCPoly(self, terms)

    def monomial(self, a: int, b: int, coeff=1) -> "NCPoly":
        return NCPoly(self, {(a, b): self.scalar(coeff)})

    def one(self) -> "NCPoly":
        return self.monomial(0, 0)

    def zero(self) -> "NCPoly":
        return NCPoly(self, {})

    def u(self, e: int = 1) -> "NCPoly":
        return self.monomial(e, 0)

    def v(self, e: int = 1) -> "NCPoly":
        return self.monomial(0, e)

    def center_generators(self) -> list | None:
        """[u^l, v^l], l the order of q: generators of Z(A), localized or not;
        None on the planes that are not PI (Jordan, q no root of unity): Z(A) = k."""
        if self.kind == "jordan":
            return None
        try:
            l = multiplicative_order(self.q, bound=2 * self.q.n)
        except ValueError:
            return None
        return [self.u(l), self.v(l)]

    # -- monomial products (the rewrite system) --------------------------------

    def mono_mul(self, m1: Mono, m2: Mono) -> dict:
        """u^a1 v^b1 * u^a2 v^b2 in normal form, as {mono: Cyclo}."""
        a1, b1 = m1
        a2, b2 = m2
        if self.kind == "quantum":
            return {(a1 + a2, b1 + b2): self.qpow(b1 * a2)}
        # Jordan: move v^b1 across u^a2, one v at a time
        shifted = self._jordan_shift(b1, a2)
        return {(a1 + j, k + b2): coeff for (j, k), coeff in shifted.items()}

    def _jordan_shift(self, b: int, a: int) -> dict:
        """Normal form of v^b u^a in the Jordan plane (b >= 0); each instance
        caches it."""
        cur = {(a, 0): Cyclo.one(self.conductor)}
        for _ in range(b):
            nxt: dict = {}
            for (j, k), coeff in cur.items():
                # v u^j = u^j v + j u^{j+1}
                acc(nxt, (j, k + 1), coeff)
                if j:
                    acc(nxt, (j + 1, k), coeff * Cyclo.rational(j))
            cur = nxt
        return cur

    def mono_inverse(self, mono: Mono, coeff: Cyclo):
        """(coeff u^a v^b)^(-1) as a (mono, coeff) pair; raises if not a unit."""
        a, b = mono
        inv_mono = (-a, -b)
        self._check_mono(inv_mono)
        # v^-b u^-a = (extra scalar) u^-a v^-b
        extra = self.mono_mul((0, -b), (-a, 0))
        ((_m, s),) = extra.items()
        return inv_mono, s * coeff.inverse()


class NCPoly:
    """Normal-form Laurent polynomial in one of the base algebras.

    The algebra's declared denominators are never attached to an element.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms: dict):
        self.algebra = algebra
        cleaned = {}
        for mono, coeff in terms.items():
            if not coeff.is_zero():
                algebra._check_mono(mono)
                cleaned[mono] = coeff
        self.terms = cleaned

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self):
        return sorted({a + b for a, b in self.terms})

    def degree(self):
        degs = self.degrees()
        if len(degs) != 1:
            raise AlgebraError("element is zero or not homogeneous")
        return degs[0]

    # -- arithmetic --------------------------------------------------------

    def _coerce_other(self, other):
        if isinstance(other, NCPoly):
            if other.algebra is not self.algebra:
                raise AlgebraError("operands live in different algebras")
            return other
        if isinstance(other, (int, Fraction, Cyclo)):
            return NCPoly(self.algebra, {(0, 0): self.algebra.scalar(other)})
        return NotImplemented

    def __add__(self, other):
        other = self._coerce_other(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            acc(out, m, c)
        return NCPoly(self.algebra, out)

    __radd__ = __add__

    def __neg__(self):
        return NCPoly(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce_other(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            s = self.algebra.scalar(other)
            return NCPoly(self.algebra, {m: c * s for m, c in self.terms.items()})
        other = self._coerce_other(other)
        if other is NotImplemented:
            return NotImplemented
        return NCPoly(self.algebra, _dict_mul(self.algebra, self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, self.algebra.one())

    def inverse(self) -> "NCPoly":
        """Inverse of a unit monomial coeff * u^a v^b; raises for anything else."""
        if len(self.terms) != 1:
            raise AlgebraError("only unit monomials can be inverted")
        ((mono, coeff),) = self.terms.items()
        inv_mono, inv_coeff = self.algebra.mono_inverse(mono, coeff)
        return NCPoly(self.algebra, {inv_mono: inv_coeff})

    def __eq__(self, other):
        other = self._coerce_other(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def graded_component(self, d: int) -> "NCPoly":
        return NCPoly(self.algebra, {m: c for m, c in self.terms.items() if m[0] + m[1] == d})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (a, b) in sorted(self.terms):
            c = self.terms[(a, b)]
            mono = "*".join(s for s in (_pow_str("u", a), _pow_str("v", b)) if s)
            cs = c.to_str()
            if mono:
                cs = mono if cs == "1" else (f"-{mono}" if cs == "-1" else f"({cs})*{mono}")
            bits.append(cs)
        return " + ".join(bits)


def _pow_str(name, e):
    if e == 0:
        return ""
    return name if e == 1 else f"{name}^{e}"


def _dict_mul(algebra: Algebra, t1: dict, t2: dict) -> dict:
    out: dict = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            c12 = c1 * c2
            for mono, factor in algebra.mono_mul(m1, m2).items():
                acc(out, mono, c12 * factor)
    return out


def is_central_in_algebra(x: NCPoly) -> bool:
    """True iff x commutes with u and v."""
    A = x.algebra
    return (x * A.u() == A.u() * x) and (x * A.v() == A.v() * x)


# ---------------------------------------------------------------------------
# groups


class Group:
    """Cyclic group C_n or dihedral group D_n with its fixed action data."""

    def __init__(self, kind: str, n: int = 1, omega: Cyclo | None = None):
        if kind not in ("cyclic", "dihedral"):
            raise AlgebraError(f"unknown group kind {kind!r}")
        if n < 1:
            raise AlgebraError("rotation order must be positive")
        if omega is None:
            if n > 1:
                raise AlgebraError("a primitive root of unity is required when n > 1")
            omega = Cyclo.one()
        if multiplicative_order(omega, bound=4 * n + 4) != n:
            raise AlgebraError(f"omega must have multiplicative order exactly {n}")
        self.kind = kind
        self.n = n
        self.omega = omega
        self._omega_pow = cache(omega.__pow__)

    @property
    def has_reflection(self) -> bool:
        return self.kind == "dihedral"

    @property
    def order(self) -> int:
        return self.n * (2 if self.has_reflection else 1)

    def identity(self) -> GroupElt:
        return (0, 0)

    def elements(self) -> list:
        js = (0, 1) if self.has_reflection else (0,)
        return [(i, j) for j in js for i in range(self.n)]

    def generators(self) -> list:
        gens = []
        if self.n > 1:
            gens.append((1, 0))
        if self.has_reflection:
            gens.append((0, 1))
        return gens

    def mul(self, x: GroupElt, y: GroupElt) -> GroupElt:
        i1, j1 = x
        i2, j2 = y
        i = (i1 - i2) % self.n if j1 else (i1 + i2) % self.n
        return (i, (j1 + j2) % 2)

    def inv(self, x: GroupElt) -> GroupElt:
        i, j = x
        return (i % self.n, j) if j else ((-i) % self.n, 0)

    def wpow(self, e: int) -> Cyclo:
        return self._omega_pow(e % self.n)

    def __repr__(self):
        return f"{'D' if self.has_reflection else 'C'}{self.n}"

    def element_str(self, f: GroupElt) -> str:
        i, j = f
        bits = []
        if i:
            bits.append("g" if i == 1 else f"g^{i}")
        if j:
            bits.append("h")
        return "*".join(bits) if bits else "e"


def act_mono(algebra: Algebra, group: Group, f: GroupElt, mono: Mono):
    """Image of a monomial under f, as (monomial, scalar); raises ActionError
    when the image is not one monomial."""
    i, j = f
    a, b = mono
    scalar = Cyclo.one(algebra.conductor)
    if j:
        # h: u^a v^b -> v^a u^b, in normal form by the plane relation
        image = algebra.mono_mul((0, a), (b, 0))
        if len(image) != 1:
            raise ActionError(f"h does not carry u^{a} v^{b} to a monomial")
        (((a, b), scalar),) = image.items()
    if i:
        scalar = scalar * group.wpow(i * (a - b))
    return (a, b), scalar


def apply_automorphism(group: Group, f: GroupElt, x: NCPoly) -> NCPoly:
    A = x.algebra
    out: dict = {}
    for mono, coeff in x.terms.items():
        new_mono, scalar = act_mono(A, group, f, mono)
        acc(out, new_mono, coeff * scalar)
    return NCPoly(A, out)


def _scalar_multiple_of(x: NCPoly, y: NCPoly):
    """Return c with x == c*y, or None."""
    if x.is_zero() or y.is_zero():
        return None
    if set(x.terms) != set(y.terms):
        return None
    mono = next(iter(y.terms))
    c = x.terms[mono] * y.terms[mono].inverse()
    return c if x == y * c else None


def check_action_well_defined(algebra: Algebra, group: Group) -> bool:
    """True iff `act_mono` is a homomorphism G -> Aut(A), so that A # G is
    associative.

    For each generator f of G, with fu = f.u and fv = f.v: fv fu is the
    normal form of vu (`Algebra.mono_mul`) evaluated at (fu, fv); fu and fv
    are units where u and v are inverted; f carries each denominator to a
    scalar multiple of one; and f.(g.x) = (fg).x, by `Group.mul`, for every
    g in G and x in {u, v}."""
    vu = algebra.mono_mul((0, 1), (1, 0))
    try:
        # g.u and g.v as (monomial, scalar), for every g
        images = {g: [act_mono(algebra, group, g, x) for x in ((1, 0), (0, 1))]
                 for g in group.elements()}
        for f in group.generators():
            fu, fv = (algebra.monomial(*m, s) for m, s in images[f])
            if fv * fu != sum((prod([fu] * a + [fv] * b, start=c) for (a, b), c in vu.items()),
                              algebra.zero()):
                return False
            for name, image in (("u", fu), ("v", fv)):
                if name in algebra.inverted:
                    image.inverse()  # raises AlgebraError unless a unit
            for d in algebra.denominators:
                image = apply_automorphism(group, f, d)
                if all(_scalar_multiple_of(image, t) is None for t in algebra.denominators):
                    return False
            for g in group.elements():
                for (gx, s), fgx in zip(images[g], images[group.mul(f, g)]):
                    y, t = act_mono(algebra, group, f, gx)
                    if (y, s * t) != fgx:
                        return False
    except (ActionError, AlgebraError):
        return False
    return True


def check_inner_by(algebra: Algebra, group: Group, f: GroupElt, c: NCPoly) -> bool:
    """True iff conjugation by the unit c realizes the action of f."""
    c.inverse()  # raises if c is not a unit monomial
    fu = apply_automorphism(group, f, algebra.u())
    fv = apply_automorphism(group, f, algebra.v())
    return (c * algebra.u() == fu * c) and (c * algebra.v() == fv * c)
