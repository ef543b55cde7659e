"""Finite-dimensional central fibers T/mT and their structure certificates.

A fiber is built in two stages.  First the coefficient algebra is collapsed
onto the monomial box [0,Ku) x [0,Kv) by per-variable reduction rules
u^Ku -> r_u(u), v^Kv -> r_v (with inverse rules for Laurent coefficients);
the rules come from central elements at the sampled point, so the rewriting
presents a genuine two-sided quotient B of the coefficient algebra, the box
algebra, and the skew ring of the quotient is the crossed product B * G on
the box-times-group basis.  In
(u^a1 v^b1 f1)(u^a2 v^b2 f2) = u^a1 v^b1 f1(u^a2 v^b2) f1f2 the A-part,
`SkewRing.mono_product`, is independent of f2, so `build_fiber` caches its
reduction into the box as `box(a1, b1, f1, a2, b2)`, beside `reduce_mono`,
and lays it out at the group index f1f2: the product of basis elements of
degrees f1 and f2 lies in degree f1f2.  Second, each residual r = z - z(m)
of a central generator z is killed: r is central in B * G (its `commutator`
with each generator is 0), so it generates the two-sided ideal r (B * G),
and mT, the sum of these, is spanned in one pass by the products r basis_k.

An algebra is its product on demand, `product(i, j)`, with `left_mul`,
`right_mul` and `commutator` built on it, and every algebra is graded by a
group: `degree[i]` is the degree of basis_i (the trivial group when none is
known).  A fiber computes each product it is asked for once and holds no
dim x dim table.  Where nothing is killed (case 0, case i with
gcd(n, k) = 1, the localized odd-n (-1)-plane cases) it is B * G itself with
its G-degrees.  Where something is killed it is the quotient on a complement
of the killed span, and it keeps the G-degrees when each killed row is
homogeneous, as for the (-1)-plane cases ii and odd-n iii at localization
none, whose residuals lie in degree e; a residual mixing group components
(case i with gcd(n, k) > 1, even-n case iii) leaves it trivially graded.
A graded fiber is strongly graded, with a unit in every degree f (the image
of f), so its trace form is read on the identity component F_e: for
x = beta f in F_f and y = f^-1 gamma in F_f^-1 (beta, gamma in F_e),
tr_F(xy) = |G| tr_F_e(beta gamma), and every other degree pair pairs to 0,
so rank T_F = |G| rank T_F_e.

The fiber keeps u, v and the group generators as its `gens`.  They generate
it: each box monomial u^a v^b f (a < Ku, b < Kv) is the left-normed word
((u...u) v...v) f, and the quotient by an ideal keeps this; `check_frame`
verifies it at run time, with the unit and the grading.  So the center is
the commutant of the gens, which `linalg.commutant` intersects in their
order, u, then v, then G's, as for Z(T); and `check_associativity` checks
associativity at them, since the middle nucleus {g : (x g) y = x (g y)} is
a subalgebra.

Every fiber is proved associative on B and the action instead of on all of
B * G.  B is the box algebra: the box monomials with x * y = box(x, e, y),
unit u^0 v^0 and generators red(u), red(v), the reductions of u and v into
the box; alpha_f(x) = box(0, 0, f, x).  A crossed
product B #_alpha G, with (x f)(y h) = x alpha_f(y) fh, is associative when
B is and alpha is an action by automorphisms (Passman, Infinite Crossed
Products; Montgomery, LNM 818).  `_crossed_product_certified` checks:
(a) B is associative and red(u), red(v) generate it: `check_associativity(B)`.
    Its unit test gives alpha_e = id.
(b) For each generator s of G, alpha_s fixes 1 and
    alpha_s(x g) = alpha_s(x) alpha_s(g) for every box monomial x and
    g in {red(u), red(v)}.  The g for which this holds for all x form a
    subalgebra, so by (a) alpha_s is a unital algebra endomorphism.
(c) alpha_s alpha_f = alpha_sf on every box monomial, for each generator s
    and each f in G.  So each alpha_f is a product of alpha_s's, hence an
    endomorphism, alpha_fh = alpha_f alpha_h, and alpha_f is invertible
    (alpha_f^|f| = alpha_e).  Checking u and v alone would not do: that
    extends to B only once alpha_sf is known to be multiplicative.
(d) box(m1, f, m2) = m1 * alpha_f(m2), so that B * G's product is
    B #_alpha G's.  Where f.m2 is a scalar c times a box monomial m', this
    holds by construction: `SkewRing.mono_product` is the action memo
    followed by `Algebra.mono_mul`, so box(m1, f, m2) reduces c m1 m', while
    alpha_f(m2) = c m' and the reduction is linear.  Where m' leaves the box
    (the reflection in case 0, in case ii, and in case iii with Ku != Kv) it
    is checked for every box monomial m1, image by image: alpha_f(m2) against
    c red(m') and box(m1, f, m2) against c (m1 * red(m')), so B's left
    products are taken once per distinct m', and by the linearity of B's
    product that is m1 * alpha_f(m2).  Each such box(m1, f, m2) is read, so
    a wrong product there is refused.
So B * G is associative.  B and G's generators generate it, so a residual
that commutes with the generators is central, r (B * G) is a two-sided ideal
and the quotient fiber is associative.  The fiber still takes `check_frame`,
on which the trace rank and the center rely.

Recognition works over the non-closed ground field: an algebra is certified
"central simple of degree d" when dim = d^2, the trace form is nondegenerate
and the center is one-dimensional, which base-changes to a matrix algebra
over the algebraic closure.  In characteristic zero the trace-form kernel is
the Jacobson radical, which powers the radical/semisimplification helpers.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cache
from math import isqrt

from .cyclotomic import Cyclo
from .linalg import Echelon, acc, axpy, combine, commutant, nullspace, span
from .planes import Group, NCPoly, act_mono  # act_mono: not called; bench/tracing.py patches it
from .skew import CentralPoint, SkewElement, SkewRing


class FiberError(ValueError):
    pass


@dataclass
class FiberRecipe:
    """Per-case reduction data for building T/mT on a finite monomial box."""

    ku: int
    kv: int
    u_pow: NCPoly                 # value of u^ku
    v_pow: NCPoly                 # value of v^kv
    u_inv: NCPoly | None = None   # value of u^(-ku), for Laurent coefficients
    v_inv: NCPoly | None = None
    residuals: list = field(default_factory=list)  # central SkewElements to kill (checked)

    def validate(self):
        if self.ku < 1 or self.kv < 1:
            raise FiberError("reduction exponents must be >= 1")
        if any(b >= self.kv for (_a, b) in self.v_pow.terms):
            raise FiberError("v-rule must strictly lower the v-exponent")
        if any(b for (_a, b) in self.u_pow.terms) or any(a >= self.ku for (a, _b) in self.u_pow.terms):
            raise FiberError("u-rule must be a u-only polynomial below u^ku")
        return self


def swap_uv(poly: NCPoly) -> NCPoly:
    """Exchange exponent roles (u-only polynomial <-> v-only); helper for rules."""
    return NCPoly(poly.algebra, {(b, a): c for (a, b), c in poly.terms.items()})


def _reduce_terms(algebra, recipe: FiberRecipe, terms: dict) -> dict:
    """`terms`, a coefficient polynomial, normalized into the recipe's box."""
    r = recipe
    out: dict = {}
    work = list(terms.items())
    guard = 0
    while work:
        guard += 1
        if guard > 200_000:
            raise FiberError("reduction did not terminate; recipe is not confluent")
        (a, b), c = work.pop()
        if c.is_zero():
            continue
        if 0 <= a < r.ku and 0 <= b < r.kv:
            acc(out, (a, b), c)
            continue
        if b >= r.kv:
            contrib = algebra.monomial(a, b - r.kv, c) * r.v_pow
        elif b < 0:
            if r.v_inv is None:
                raise FiberError("negative v-exponent but no inverse rule")
            contrib = algebra.monomial(a, b + r.kv, c) * r.v_inv
        elif a >= r.ku:
            contrib = (r.u_pow * c) * algebra.monomial(a - r.ku, b)
        else:
            if r.u_inv is None:
                raise FiberError("negative u-exponent but no inverse rule")
            contrib = (r.u_inv * c) * algebra.monomial(a + r.ku, b)
        work.extend(contrib.terms.items())
    return out


_TRIVIAL = Group("cyclic")


@dataclass
class FiniteDimAlgebra:
    """A finite-dimensional unital algebra, given by its products on demand.

    `product(i, j)` is the sparse vector basis_i * basis_j; callers read it
    and never change it.  `left_mul` and `right_mul` multiply a vector by a
    basis element through it.  `gens` are coordinate vectors generating the
    algebra (left unset: the whole basis); a fiber's are u, v and the group
    generators, which generate every box monomial u^a v^b f as the
    left-normed word ((u...u) v...v) f.

    The algebra is graded: `degree[i]` is the element of `group` that
    basis_i lies over, and basis_i * basis_j lies in degree
    degree[i] degree[j].  A fiber keeps its G-degrees wherever they survive
    the quotient; left unset, `degree` is the trivial grading.  The grading
    is taken to be strong: the unit lies in degree e, each gen is
    homogeneous, and each degree f != e of a gen holds a gen that is a unit,
    so the degrees present form a subgroup H, each holding a unit.
    `check_frame` tests this, and `trace_form_rank` relies on it.
    """

    dim: int
    product: Callable
    unit: dict        # coordinates of 1
    gens: list | None = None
    degree: list | None = None
    group: Group | None = None

    def __post_init__(self):
        if self.gens is None:
            self.gens = [{i: Cyclo.rational(1)} for i in range(self.dim)]
        if self.degree is None:
            self.group = _TRIVIAL
            self.degree = [_TRIVIAL.identity()] * self.dim

    def left_mul(self, i: int, vec: dict) -> dict:
        """basis_i * vec."""
        out: dict = {}
        product = self.product
        for l, c in vec.items():
            axpy(out, c, product(i, l))
        return out

    def right_mul(self, vec: dict, k: int) -> dict:
        """vec * basis_k."""
        out: dict = {}
        product = self.product
        for l, c in vec.items():
            axpy(out, c, product(l, k))
        return out

    def commutator(self, y: dict, g: dict) -> dict:
        """y g - g y."""
        out = combine(g, {k: self.right_mul(y, k) for k in g})
        for l, c in combine(g, {k: self.left_mul(k, y) for k in g}).items():
            acc(out, l, -c)
        return out


def _close(ech: Echelon, frontier: list, tables: list) -> None:
    """Grow the span of `ech` until it is closed under w -> combine(w, rows)
    for rows in `tables`, starting from the vectors of `frontier`; each new
    vector's products are added in order and empty ones are skipped."""
    while frontier:
        frontier = [p for w in frontier for rows in tables
                    if (p := combine(w, rows)) and ech.add(p)]


def _quotient(F: FiniteDimAlgebra, ech: Echelon) -> FiniteDimAlgebra:
    """F modulo the ideal that is the row space of `ech`, on the non-pivot
    columns, each product computed once when first asked for (F's own
    product when the ideal is zero).  It keeps F's degrees when each row of
    `ech` is homogeneous, so that reducing a homogeneous vector keeps its
    degree, and is trivially graded otherwise."""
    if not ech.rows:
        return replace(F, product=cache(F.product))
    keep = [i for i in range(F.dim) if i not in ech.rows]
    new_index = {old: new for new, old in enumerate(keep)}

    def project(vec: dict) -> dict:
        return {new_index[i]: c for i, c in ech.reduce(vec).items()}

    @cache
    def product(i, j) -> dict:
        return project(F.product(keep[i], keep[j]))

    graded = all(F.degree[l] == F.degree[p] for p, tail in ech.rows.items() for l in tail)
    degree, group = ([F.degree[i] for i in keep], F.group) if graded else (None, None)
    return FiniteDimAlgebra(len(keep), product, project(F.unit), [project(g) for g in F.gens],
                            degree, group)


def build_fiber(ring: SkewRing, point: CentralPoint | None, recipe: FiberRecipe) -> FiniteDimAlgebra:
    """The quotient of T at the recipe's reductions and residual relations,
    proved associative as the module docstring says."""
    if point is not None:
        point.validate()
    recipe.validate()
    group = ring.group
    algebra = ring.algebra
    n0 = algebra.conductor
    reduce_mono = cache(lambda mono: _reduce_terms(algebra, recipe, {mono: Cyclo.one(n0)}))

    monos = [(a, b) for a in range(recipe.ku) for b in range(recipe.kv)]
    basis = [(a, b, f) for f in group.elements() for (a, b) in monos]
    index = {m: i for i, m in enumerate(basis)}
    dim = len(basis)

    @cache
    def box(a1, b1, f1, a2, b2) -> dict:
        # box part of (u^a1 v^b1 f1)(u^a2 v^b2 f2), the same for every f2
        out: dict = {}
        for mono, c in ring.mono_product((a1, b1), f1, (a2, b2)).items():
            for red_mono, rc in reduce_mono(mono).items():
                acc(out, red_mono, c * rc)
        return out

    def product(i, j) -> dict:
        (a1, b1, f1), (a2, b2, f2) = basis[i], basis[j]
        f12 = group.mul(f1, f2)
        return {index[(a, b, f12)]: c for (a, b), c in box(a1, b1, f1, a2, b2).items()}

    def skew_to_vec(x: SkewElement) -> dict:
        out: dict = {}
        for f, poly in x.comps.items():
            for mono, c in _reduce_terms(algebra, recipe, poly.terms).items():
                acc(out, index[(mono[0], mono[1], f)], c)
        return out

    residuals = [vec for vec in map(skew_to_vec, recipe.residuals) if vec]
    unit = {index[(0, 0, group.identity())]: Cyclo.rational(1)}
    crossed = FiniteDimAlgebra(dim, product, unit,
                               [skew_to_vec(ring.monomial(*mono, f))
                                for mono, f in ring.commutation_generators()],
                               degree=[f for (_a, _b, f) in basis], group=group)
    # a central r generates the two-sided ideal r (B * G); mT is their sum
    if any(crossed.commutator(r, g) for r in residuals for g in crossed.gens):
        raise FiberError("a residual relation is not central in the fiber")
    killed = span(crossed.right_mul(r, k) for r in residuals for k in range(dim))
    if not killed.reduce(unit):
        raise FiberError("reductions collapse 1 to 0; the point violates a hidden constraint")

    fiber = _quotient(crossed, killed)
    if not (_crossed_product_certified(ring, monos, box, reduce_mono) and check_frame(fiber)):
        raise FiberError("quotient multiplication is not associative; recipe is inconsistent")
    return fiber


class _Ungraded(Exception):
    """A product read under `_degree_checked` left its degree."""


def _degree_checked(F: FiniteDimAlgebra, test: Callable) -> bool:
    """test(F), with F's products raising _Ungraded when they leave their
    degree degree[i] degree[j]; False when one does."""
    group, degree = F.group, F.degree
    e = group.identity()
    if any(f != e for f in degree):
        product = F.product

        @cache
        def graded(i, j) -> dict:
            p = product(i, j)
            f = group.mul(degree[i], degree[j])
            for l in p:
                if degree[l] != f:
                    raise _Ungraded
            return p

        F = replace(F, product=graded)
    try:
        return test(F)
    except _Ungraded:
        return False


def check_frame(F: FiniteDimAlgebra) -> bool:
    """The unit, the grading and generation by F.gens: the tests of
    `check_associativity` that come before associativity itself."""
    return _degree_checked(F, lambda G: _frame_rows(G) is not None)


def check_associativity(F: FiniteDimAlgebra) -> bool:
    """`check_frame`, then associativity.

    The middle nucleus {g : (x g) y = x (g y) for all x, y} is a
    subalgebra, and the frame shows that F.gens generate F, so checking each
    generator g against all basis x, y is complete.  A fiber is certified on
    its box algebra and the group action instead (see the module docstring),
    which calls this on B."""
    def test(G: FiniteDimAlgebra) -> bool:
        right = _frame_rows(G)
        return right is not None and _associative(G, right)

    return _degree_checked(F, test)


def _frame_rows(F: FiniteDimAlgebra) -> list | None:
    """right[n][x] = basis_x g_n for the gens g_n, or None when a frame test
    fails, on an F whose products raise _Ungraded when they leave their
    degree.

    Every basis product read here must lie in degree degree[i] degree[j],
    which puts the unit in degree e; each gen must be homogeneous, and each
    degree f != e of a gen must hold a gen g that is a unit, tested as 1 in
    g F.  The left-normed words in the gens, from the unit, must span F; so
    the degrees present are the subgroup generated by the gens' degrees,
    and each holds a unit (a product of unit gens)."""
    group, degree = F.group, F.degree
    e = group.identity()
    one = Cyclo.rational(1)
    if not all(F.right_mul(F.unit, i) == {i: one} == F.left_mul(i, F.unit) for i in range(F.dim)):
        return None
    of_degree: dict = {}
    for g in F.gens:
        if g:
            f = degree[next(iter(g))]
            if any(degree[l] != f for l in g):
                return None
            of_degree.setdefault(f, []).append(g)

    def is_unit(g, f) -> bool:
        # 1 lies in g F_f^-1, so g has a right inverse, hence is a unit
        f_inv = group.inv(f)
        return not span(F.right_mul(g, k) for k in range(F.dim) if degree[k] == f_inv).reduce(F.unit)

    if not all(f == e or any(is_unit(g, f) for g in gs) for f, gs in of_degree.items()):
        return None
    right = [[F.left_mul(x, g) for x in range(F.dim)] for g in F.gens]
    words = span([F.unit])
    _close(words, [F.unit], right)
    return right if words.rank == F.dim else None


def _associative(F: FiniteDimAlgebra, right: list) -> bool:
    """Associativity of F, whose frame holds, with `right` from `_frame_rows`:
    (x g) y = x (g y) for each gen g and all basis x, y."""
    pairs = [(x, y) for x in range(F.dim) for y in range(F.dim)]
    for g, xg in zip(F.gens, right):
        gy = [F.right_mul(g, y) for y in range(F.dim)]
        if any(F.right_mul(xg[x], y) != F.left_mul(x, gy[y]) for x, y in pairs):
            return False
    return True


def _crossed_product_certified(ring: SkewRing, monos: list, box: Callable,
                               reduce_mono: Callable) -> bool:
    """Parts (a) to (d) of the module docstring: B * G, with B the box
    algebra on the box monomials `monos`, is B #_alpha G for an action
    alpha_f(x) = box(0, 0, f, x) of G on B by automorphisms."""
    group = ring.group
    e = group.identity()
    index = {m: i for i, m in enumerate(monos)}

    def vec(terms: dict) -> dict:
        return {index[m]: c for m, c in terms.items()}

    B = FiniteDimAlgebra(len(monos), cache(lambda i, j: vec(box(*monos[i], e, *monos[j]))),
                         {index[(0, 0)]: Cyclo.rational(1)},
                         [vec(reduce_mono((1, 0))), vec(reduce_mono((0, 1)))])
    # (a)
    if not check_associativity(B):
        return False

    def times(x: dict, y: dict) -> dict:
        return combine(y, {k: B.right_mul(x, k) for k in y})

    alpha = {f: [vec(box(0, 0, f, *m)) for m in monos] for f in group.elements()}
    for s in group.generators():
        alpha_s = alpha[s]
        # (b) alpha_s fixes 1 and alpha_s(x g) = alpha_s(x) alpha_s(g)
        if alpha_s[index[(0, 0)]] != B.unit:
            return False
        for g in B.gens:
            alpha_g = combine(g, alpha_s)
            if any(combine(B.left_mul(x, g), alpha_s) != times(alpha_s[x], alpha_g)
                   for x in range(B.dim)):
                return False
        # (c) alpha_s alpha_f = alpha_sf
        for f, alpha_f in alpha.items():
            alpha_sf = alpha[group.mul(s, f)]
            if any(combine(y, alpha_s) != alpha_sf[x] for x, y in enumerate(alpha_f)):
                return False
    # (d) where f.m2 = sum c m' leaves the box: alpha_f(m2) = sum c red(m')
    # and box(m1, f, m2) = sum c (m1 * red(m')), the products taken once per m'
    red = cache(lambda m: vec(reduce_mono(m)))
    left_by = cache(lambda m: [B.left_mul(i, red(m)) for i in range(B.dim)])
    for f, alpha_f in alpha.items():
        for m2, y in zip(monos, alpha_f):
            image = ring.mono_product((0, 0), f, m2)
            if all(m in index for m in image):
                continue
            if y != combine(image, {m: red(m) for m in image}):
                return False
            if any(vec(box(*m1, f, *m2)) != combine(image, {m: left_by(m)[i] for m in image})
                   for i, m1 in enumerate(monos)):
                return False
    return True


def _trace_vector(F: FiniteDimAlgebra) -> dict:
    """{j: tau_j} over the j with tau_j, the trace of left multiplication by
    basis_j, nonzero."""
    tau = {}
    for j in range(F.dim):
        t = _sum(F.product(j, k).get(k) for k in range(F.dim))
        if t is not None and not t.is_zero():
            tau[j] = t
    return tau


def _sum(terms):
    """Sum of the terms that are not None, or None if there are none; it
    starts from the first term, not from a conductor-1 zero."""
    total = None
    for x in terms:
        if x is not None:
            total = x if total is None else total + x
    return total


def trace_form_matrix(F: FiniteDimAlgebra) -> list:
    """Rows of the trace form, tr(basis_i basis_j), with its nonzero entries
    in ascending j; it reads every product and not the grading."""
    tau = _trace_vector(F)
    rows = []
    for i in range(F.dim):
        row = {}
        for j in range(F.dim):
            t = _sum(c * tau[l] for l, c in F.product(i, j).items() if l in tau)
            if t is not None and not t.is_zero():
                row[j] = t
        rows.append(row)
    return rows


def identity_component(F: FiniteDimAlgebra) -> FiniteDimAlgebra:
    """F_e, the span of the basis vectors of degree e, a trivially graded
    subalgebra whose products are F's, reindexed; F itself when every
    basis vector has degree e."""
    e = F.group.identity()
    keep = [i for i, f in enumerate(F.degree) if f == e]
    if len(keep) == F.dim:
        return F
    new_index = {old: new for new, old in enumerate(keep)}

    def product(i, j) -> dict:
        return {new_index[l]: c for l, c in F.product(keep[i], keep[j]).items()}

    return FiniteDimAlgebra(len(keep), product, {new_index[l]: c for l, c in F.unit.items()})


def trace_form_rank(F: FiniteDimAlgebra) -> int:
    """rank of the trace form: |H| rank T_F_e, H the degrees present.  Each
    degree f holds a unit, so the block of T_F on F_f x F_f^-1 is
    |H| T_F_e between invertible changes of basis, and the other blocks are
    0 (see the module docstring)."""
    return len(set(F.degree)) * span(trace_form_matrix(identity_component(F))).rank


def jacobson_radical_dim(F: FiniteDimAlgebra) -> int:
    """dim of the trace-form kernel = Jacobson radical in characteristic 0."""
    return F.dim - trace_form_rank(F)


def center_dimension(F: FiniteDimAlgebra) -> int:
    """dim of the commutant of the gens, x g = g x: the center of F when the
    gens generate it, which check_frame verifies."""
    return len(commutant(F.dim, F.gens, lambda y, g: F.commutator(y, g).items()))


def semisimple_quotient(F: FiniteDimAlgebra) -> FiniteDimAlgebra:
    """F modulo its radical, the trace-form kernel."""
    return _quotient(F, span(nullspace(trace_form_matrix(F), F.dim)))


@dataclass
class Certificate:
    central_simple: bool
    d: int | None = None
    witness: str | None = None

    def __str__(self):
        if self.central_simple:
            return f"central-simple({self.d})"
        return f"not-central-simple: {self.witness}"


def matrix_algebra_certificate(F: FiniteDimAlgebra) -> Certificate:
    """CentralSimple(d) iff dim = d^2, trace form nondegenerate, center 1-dim.

    Over the algebraic closure this is exactly "the fiber is M_d"; any failed
    test is reported as the witness.
    """
    d = isqrt(F.dim)
    if d * d != F.dim:
        return Certificate(False, witness=f"dim {F.dim} is not a perfect square")
    rk = trace_form_rank(F)
    if rk != F.dim:
        return Certificate(False, witness=f"trace form rank {rk} < {F.dim}")
    zdim = center_dimension(F)
    if zdim != 1:
        return Certificate(False, witness=f"center has dimension {zdim}")
    return Certificate(True, d=d)


def matrix_units_algebra(d: int) -> FiniteDimAlgebra:
    """M_d on the matrix units e_ij = basis_(i d + j) (reference object for
    tests): e_ij e_kl is e_il when j = k and 0 otherwise."""
    one = Cyclo.rational(1)

    def product(x, y) -> dict:
        (i, j), (k, l) = divmod(x, d), divmod(y, d)
        return {i * d + l: one} if j == k else {}

    return FiniteDimAlgebra(d * d, product, {i * d + i: one for i in range(d)})


def dual_numbers_algebra() -> FiniteDimAlgebra:
    """k[t]/t^2 on the basis 1, t (reference object for tests)."""
    one = Cyclo.rational(1)
    return FiniteDimAlgebra(2, lambda i, j: {i + j: one} if i + j < 2 else {}, {0: one})
