"""Skew group rings T = A # G and their graded center machinery.

Elements are finite maps from group elements to coefficients in A, multiplied
by the rule (r g)(s h) = r (g.s) gh.  The rule is written once, on monomials,
as `SkewRing.mono_product`: element products, the commutator rows, the fiber
products and the natural map all go through it.  The center Z(T), the
invariant ring A^G and the center Z(A) are all commutants in T, computed
degree by degree over a bounded exponent window by `linalg.commutant`, one
generator at a time: the commutant of u, then of v within it, then of each
generator of G, each an exact nullspace whose columns are the survivors of
the stages before; claimed generating sets are certified by comparing spans
against those windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, reduce
from math import lcm
from operator import mul

from .cyclotomic import Cyclo, power
from .linalg import Echelon, acc, commutant, spans_equal
from .planes import (
    Algebra,
    AlgebraError,
    Group,
    GroupElt,
    NCPoly,
    _pow_str,
    _scalar_multiple_of,
    act_mono,
    apply_automorphism,
    check_action_well_defined,
)


class SkewRing:
    """The pair (A, G) together with elementwise arithmetic in A # G."""

    def __init__(self, algebra: Algebra, group: Group):
        if not check_action_well_defined(algebra, group):
            raise AlgebraError(f"{group} does not act on {algebra}")
        self.algebra = algebra
        self.group = group
        # f.mono as (image, scalar), for the life of the ring
        self._act = cache(lambda f, mono: act_mono(algebra, group, f, mono))

    def mono_product(self, m1, f1, m2) -> dict:
        """m1 (f1.m2) as {mono: coeff}: the A-part of the product
        (m1 f1)(m2 f2) of coefficient-1 monomials, which lies at f1 f2
        whatever f2 is.

        f1.m2 is read from the ring's action memo."""
        image, s = self._act(f1, m2)
        return {m: s * k for m, k in self.algebra.mono_mul(m1, image).items()}

    # -- constructors -------------------------------------------------------

    def zero(self) -> "SkewElement":
        return SkewElement(self, {})

    def one(self) -> "SkewElement":
        return self.from_poly(self.algebra.one())

    def from_poly(self, x: NCPoly, f: GroupElt = (0, 0)) -> "SkewElement":
        return SkewElement(self, {f: x})

    def monomial(self, a: int, b: int, f: GroupElt = (0, 0), coeff=1) -> "SkewElement":
        return self.from_poly(self.algebra.monomial(a, b, coeff), f)

    def group_element(self, f: GroupElt) -> "SkewElement":
        return self.from_poly(self.algebra.one(), f)

    def commutation_generators(self) -> list:
        """The generators u, v and those of G, as monomials (mono, f)."""
        e = self.group.identity()
        return [((1, 0), e), ((0, 1), e)] + [((0, 0), f) for f in self.group.generators()]

    def inner_part(self) -> list:
        """N = {f in G : f fixes Z(A) pointwise}: on the prime PI algebra A the
        action is X-outer iff N = {e} (Montgomery, LNM 818; Skolem-Noether)."""
        gens = self.algebra.center_generators()
        if gens is None:
            raise AlgebraError(f"{self.algebra} is not PI: Z(A) = k does not decide X-outerness")
        return [f for f in self.group.elements()
                if all(apply_automorphism(self.group, f, z) == z for z in gens)]


class SkewElement:
    """Finite map group element -> NCPoly; zero components are dropped."""

    __slots__ = ("ring", "comps")

    def __init__(self, ring: SkewRing, comps: dict):
        self.ring = ring
        self.comps = {f: x for f, x in comps.items() if not x.is_zero()}

    def is_zero(self) -> bool:
        return not self.comps

    def _check(self, other):
        if not isinstance(other, SkewElement):
            return NotImplemented
        if other.ring is not self.ring:
            raise AlgebraError("operands live in different skew group rings")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.comps)
        for f, x in other.comps.items():
            acc(out, f, x)
        return SkewElement(self.ring, out)

    def __neg__(self):
        return SkewElement(self.ring, {f: -x for f, x in self.comps.items()})

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Cyclo)):
            return SkewElement(self.ring, {f: x * other for f, x in self.comps.items()})
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        gmul, product = ring.group.mul, ring.mono_product
        out: dict = {}
        for f1, x1 in self.comps.items():
            for f2, x2 in other.comps.items():
                part = out.setdefault(gmul(f1, f2), {})
                for m1, c1 in x1.terms.items():
                    for m2, c2 in x2.terms.items():
                        c12 = c1 * c2
                        for m, k in product(m1, f1, m2).items():
                            acc(part, m, c12 * k)
        return SkewElement(ring, {f: NCPoly(ring.algebra, t) for f, t in out.items()})

    def __rmul__(self, other):
        if isinstance(other, (int, Cyclo)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse_of_unit() ** (-k)
        return power(self, k, self.ring.one())

    def inverse_of_unit(self) -> "SkewElement":
        """Inverse of coeff * u^a v^b * f; raises for anything else."""
        if len(self.comps) != 1:
            raise AlgebraError("only unit monomials can be inverted")
        ((f, x),) = self.comps.items()
        group = self.ring.group
        finv = group.inv(f)
        # (x f)^{-1} = f^{-1} x^{-1} = (f^{-1} . x^{-1}) f^{-1}
        return self.ring.from_poly(apply_automorphism(group, finv, x.inverse()), finv)

    def __eq__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def degrees(self):
        return sorted({d for x in self.comps.values() for d in x.degrees()})

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int:
        degs = self.degrees()
        if len(degs) != 1:
            raise AlgebraError("element is zero or not homogeneous")
        return degs[0]

    def __repr__(self):
        if not self.comps:
            return "0"
        bits = []
        for f in sorted(self.comps):
            x = self.comps[f]
            fs = self.ring.group.element_str(f)
            bits.append(f"({x!r})*{fs}" if fs != "e" else f"({x!r})")
        return " + ".join(bits)


def is_central(x: SkewElement) -> bool:
    ring = x.ring
    gens = [ring.monomial(*mono, f) for mono, f in ring.commutation_generators()]
    return all(x * w == w * x for w in gens)


# ---------------------------------------------------------------------------
# windowed bases: commutants in A # G


def _exponent_range(algebra: Algebra, var: str, window: int):
    lo = -window if var in algebra.inverted else 0
    return range(lo, window + 1)


def _degree_range(algebra: Algebra, window: int):
    lo = -window if algebra.inverted else 0
    return range(lo, window + 1)


def _monomials_of_degree(algebra: Algebra, d: int, window: int):
    out = []
    for a in _exponent_range(algebra, "u", window):
        b = d - a
        if b in _exponent_range(algebra, "v", window):
            out.append((a, b))
    return out


def _skew_coords(x, index: dict) -> dict:
    """Coordinates of x (a SkewElement, or an NCPoly read as its identity
    component) over an arbitrary (a, b, f) index map, extending it."""
    comps = x.comps if isinstance(x, SkewElement) else {(0, 0): x}
    return {index.setdefault((a, b, f), len(index)): c
            for f, poly in comps.items() for (a, b), c in poly.terms.items()}


def _commutant(ring: SkewRing, window: int, gens: list, support) -> list:
    """Basis of the elements of T that commute with every monomial (mono, f)
    of `gens`, homogeneous, with exponents in the window and group part in
    `support`: degree by degree, `linalg.commutant` over the candidates
    u^a v^b f, f in support, intersecting in the order of `gens`.  Most
    candidates fail u or v, so the later systems have few columns.  For
    Laurent algebras the degrees and both exponents run over
    [-window, window]."""
    algebra = ring.algebra
    n0 = algebra.conductor
    gmul, product = ring.group.mul, ring.mono_product
    out = []
    for d in _degree_range(algebra, window):
        cands = [(mono, f) for mono in _monomials_of_degree(algebra, d, window)
                 for f in support]

        def bracket(y, w):
            # [y, w] = y w - w y over the candidates, from mono_product
            m2, f2 = w
            for col, c in y.items():
                mono, f = cands[col]
                for m, k in product(mono, f, m2).items():
                    yield (m, gmul(f, f2)), c * k
                for m, k in product(m2, f2, mono).items():
                    yield (m, gmul(f2, f)), -(c * k)

        for y in commutant(len(cands), gens, bracket):
            comps: dict = {}
            for col, coeff in y.items():
                mono, f = cands[col]
                comps.setdefault(f, {})[mono] = coeff.coerce(lcm(coeff.n, n0))
            out.append(SkewElement(ring, {f: NCPoly(algebra, terms)
                                          for f, terms in comps.items()}))
    return out


def center_basis(ring: SkewRing, window: int) -> list:
    """Basis of Z(T) over the window: the commutant of u, v and G.  Z(A) is
    the center of A # C1."""
    return _commutant(ring, window, ring.commutation_generators(), ring.group.elements())


def invariant_basis(ring: SkewRing, window: int) -> list:
    """Basis of the fixed ring A^G over the window: the part of A in the
    ring T = A # G that commutes with G."""
    gens = [((0, 0), f) for f in ring.group.generators()]
    identity = ring.group.identity()
    return [x.comps[identity] for x in _commutant(ring, window, gens, [identity])]


# ---------------------------------------------------------------------------
# central presentations, points, generating-set certificates

NamePoly = dict  # exponent tuple (aligned with Presentation.names) -> Cyclo


@dataclass
class Presentation:
    """Claimed generators of Z(T) with relations and nonvanishing loci; each
    `localized_at` entry, a polynomial in them, is central and nonzero in T."""

    ring: SkewRing
    names: tuple
    gens: dict
    relations: list = field(default_factory=list)
    invertible: frozenset = frozenset()
    localized_at: list = field(default_factory=list)

    def validate(self):
        for name in self.names:
            g = self.gens[name]
            if not g.is_homogeneous():
                raise AlgebraError(f"generator {name} is not homogeneous")
            if not is_central(g):
                raise AlgebraError(f"generator {name} is not central")
        for rel in self.relations:
            value = self.eval_relation(rel)
            if not value.is_zero():
                raise AlgebraError(f"relation {self.relation_str(rel)} does not vanish: {value!r}")
        for np_ in self.localized_at:
            if self.eval_relation(np_).is_zero():
                raise AlgebraError(f"removed locus {self.relation_str(np_) or '0'} is zero in T")
        return self

    def eval_relation(self, rel: NamePoly) -> SkewElement:
        return self._evaluate(rel, self.gens, self.ring.zero(), self.ring.one())

    def eval_namepoly_at(self, np_: NamePoly, values: dict) -> Cyclo:
        return self._evaluate(np_, values, Cyclo.zero(), Cyclo.one())

    def _evaluate(self, np_: NamePoly, values: dict, zero, one):
        """np_ with each generator name replaced by values[name]."""
        total = zero
        for expo, coeff in np_.items():
            term = one * coeff
            for name, e in zip(self.names, expo):
                if e:
                    term = term * (values[name] ** e)
            total = total + term
        return total

    def relation_str(self, rel: NamePoly) -> str:
        bits = []
        for expo, coeff in sorted(rel.items()):
            mono = "*".join(_pow_str(n, e) for n, e in zip(self.names, expo) if e) or "1"
            cs = coeff.to_str()
            bits.append(mono if cs == "1" else f"({cs})*{mono}")
        return " + ".join(bits)

    def point(self, values: dict) -> "CentralPoint":
        return CentralPoint(self, values).validate()


@dataclass
class CentralPoint:
    """A maximal ideal of the claimed center, as generator values."""

    presentation: Presentation
    values: dict

    def validate(self):
        pres = self.presentation
        missing = [n for n in pres.names if n not in self.values]
        if missing:
            raise AlgebraError(f"point misses values for {missing}")
        for name in pres.invertible:
            if self.values[name].is_zero():
                raise AlgebraError(f"value of invertible generator {name} must be nonzero")
        for rel in pres.relations:
            if not pres.eval_namepoly_at(rel, self.values).is_zero():
                raise AlgebraError(f"point violates relation {pres.relation_str(rel)}")
        for np_ in pres.localized_at:
            if pres.eval_namepoly_at(np_, self.values).is_zero():
                raise AlgebraError(f"point lies on the removed locus {pres.relation_str(np_)}")
        return self


def _enumerate_products(pres: Presentation, window: int):
    """Evaluated monomials in the generators whose support fits the window."""
    algebra = pres.ring.algebra
    names = pres.names
    bounds = []
    for name in names:
        deg = abs(pres.gens[name].degree())
        hi = (2 * window) // max(deg, 1) + 1
        lo = -hi if name in pres.invertible else 0
        bounds.append(range(lo, hi + 1))
    gen_power = cache(lambda idx, e: pres.gens[names[idx]] ** e)

    lo_deg = -window if algebra.inverted else 0
    results = []
    expos = [[]]
    for rng in bounds:
        expos = [e + [k] for e in expos for k in rng]
    for expo in expos:
        deg = sum(e * pres.gens[names[i]].degree() for i, e in enumerate(expo))
        if not (lo_deg <= deg <= window):
            continue
        factors = [gen_power(i, e) for i, e in enumerate(expo) if e] or [pres.ring.one()]
        prod = reduce(mul, factors)
        if prod.is_zero():
            continue
        ok = all(lo_deg <= a <= window and lo_deg <= b <= window
                 for poly in prod.comps.values() for (a, b) in poly.terms)
        if ok:
            results.append((deg, prod))
    return results


def verify_generating_set(pres: Presentation, window: int,
                          center: list | None = None) -> bool:
    """True iff monomials in the claimed generators span the computed center
    degree by degree over the window (relations and centrality are checked
    first and raise on failure)."""
    pres.validate()
    if center is None:
        center = center_basis(pres.ring, window)
    return _spans_match_by_degree([(x.degree(), x) for x in center],
                                  _enumerate_products(pres, window))


def _spans_match_by_degree(have: list, claim: list) -> bool:
    """True iff the (degree, element) pairs of `have` and of `claim` span the
    same space in every degree."""
    index: dict = {}
    by_deg: dict = {}
    for side, pairs in enumerate((have, claim)):
        for deg, x in pairs:
            by_deg.setdefault(deg, ([], []))[side].append(_skew_coords(x, index))
    return all(spans_equal(a, b) for a, b in by_deg.values())


def subalgebra_basis_by_degree(algebra: Algebra, gens: list, window: int,
                               adopt=()) -> dict:
    """Graded basis of the unital subalgebra generated by homogeneous `gens`.

    Built degree by degree: every word ends in a generator, so independent
    products of lower degree times the generators span each graded piece.
    An element of `adopt` (homogeneous) that is independent of the products
    of its degree is appended to `gens` as a new generator; with `adopt` a
    basis of a graded subalgebra, `gens` ends as a minimal generating set of
    it up to the window."""
    adopt_by_deg: dict = {}
    for p in adopt:
        adopt_by_deg.setdefault(p.degree(), []).append(p)
    index: dict = {}
    basis = {0: [algebra.one()]}
    for d in range(1, window + 1):
        ech = Echelon()
        keep = []
        for g in gens:
            t = g.degree()
            if t > d:
                continue
            for p in basis.get(d - t, []):
                prod = p * g
                if not prod.is_zero() and ech.add(_skew_coords(prod, index)):
                    keep.append(prod)
        for p in adopt_by_deg.get(d, []):
            if ech.add(_skew_coords(p, index)):
                gens.append(p)
                keep.append(p)
        if keep:
            basis[d] = keep
    return basis


def verify_invariant_generating_set(ring: SkewRing, gens: list, window: int) -> bool:
    """True iff the subalgebra generated by `gens` matches A^G in the degrees
    0..window, for the ring A # G."""
    fixed = invariant_basis(ring, window)
    prods = subalgebra_basis_by_degree(ring.algebra, gens, window)
    return _spans_match_by_degree([(x.degree(), x) for x in fixed if x.degree() >= 0],
                                  [(d, x) for d, xs in prods.items() for x in xs])


def stabilizer_of_point(ring: SkewRing, values: list) -> list:
    """{f in G : f fixes the maximal ideal <z_i - values_i> of Z(A)}, for the
    ring A # G and the generators z_i of `Algebra.center_generators`.

    Requires the action to permute those generators up to scalars."""
    gens = ring.algebra.center_generators()
    if gens is None:
        raise AlgebraError(f"{ring.algebra} is not PI: Z(A) = k has no points to stabilize")

    def fixes(f) -> bool:
        for gen, p in zip(gens, values):
            image = apply_automorphism(ring.group, f, gen)
            for target, p_target in zip(gens, values):
                lam = _scalar_multiple_of(image, target)
                if lam is not None:
                    break
            else:
                raise AlgebraError(f"action does not permute the generators (f={f}, gen={gen!r})")
            # f.(z - p) = lam (z' - p/lam): fixed iff p' = p/lam
            if p_target != p * lam.inverse():
                return False
        return True

    return [f for f in ring.group.elements() if fixes(f)]
