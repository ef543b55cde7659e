"""The case catalog: Table-1 pairs, their localizations, claimed centers,
point samplers and fiber recipes.

Case ids
  0    k[u,v] # S_2           (k_q at q = 1 with S_2 = D_1; the motivating
                              commutative example)
  i    k_q[u,v] # C_n         (q of root-of-unity order k, or a non-root rational)
  ii   k_{-1}[u,v] # S_2      (case iii at n = 1, since S_2 = D_1)
  iii  k_{-1}[u,v] # D_n
  iv   k_J[u,v] # C_2

Localizations: "none" (the graded ring), "torus" (u, v inverted), "full"
(the torus, or case 0's plane, with Delta = (u - v)^2, (u^2 - v^2)^2 or
(u^{2n} - v^{2n})^2 inverted: Delta is stated once, as the presentation's
`localized_at` in the center's generators, and draw_za draws off its zeros).
Expected fiber ranks were filled in from the brute-force fiber oracle and
agree with the crossed-product rank bookkeeping: d = lcm(n, k) in (i), 2|G|
in (ii) and odd (iii), else |G|, that is l|G|/|N| for l the order of q.  No
case states Z(A) = k[u^l, v^l] or the inner part N of its action: both are
read off the ring.

Samplers draw from a fixed pool of small rationals (and conductor roots of
unity where the center is a Laurent ring), rejecting inadmissible points;
everything is driven by a seeded rng, so scans are reproducible.

The (-1)-plane cases share one builder; case ii is its n = 1 member under its
own names.  Every fiber follows one rule, the orbit polynomial of U = u^2
under G.  Its coefficients sigma = U^m + V^m and y^m = (UV)^m are symmetric
in the orbit, hence G-invariant elements of Z(A); so they lie in Z(A)^G,
which is central in T, and the point gives them values.  Odd n has sigma =
q2n (s2 in case ii) and m = n; even n has sigma = u^n + v^n = -2i x, m = n/2.

Case i's fiber rule: with l = lcm(n, k) and g = gcd(n, k), Z(T) is generated
by x = u^l and w = (uv)^(-l/n) g^((l/k) mod n), and w^g = (uv)^-k lies in A.
So at x = a, w = c the point fixes v^k = s u^-k, s = (c^g q^(k(k-1)/2))^-1,
and the box is l x k: u^l -> a, v^k -> s u^-k, with the inverse rules a^-1
and s^-1 u^k.  The residual w - c is kept; it reduces to 0 when g = 1.

Each case is one builder returning a CaseSpec that carries, next to its
presentation, the point sampler `draw`, the fiber `recipe` and the Z(A)
sampler `draw_za` (a sampler returns None to reject a draw); `sample_point`,
`recipe_for` and `sample_za_values` add the shared checks and retry loops.
To add a case, write a builder `_case_<id>(...)` taking only the `make_case`
keywords it reads, and add one line to `CASES`; `make_case` rejects any other
keyword it is given.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable

from .cyclotomic import Cyclo, root_of_unity
from .fiber import FiberRecipe, swap_uv
from .planes import Algebra, AlgebraError, Group
from .skew import CentralPoint, Presentation, SkewRing


RATIONAL_POOL = [Fraction(x) for x in (1, 2, 3, 5, -1, -2, -3)] + [
    Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(5, 3), Fraction(-2, 3)]


class CatalogError(ValueError):
    pass


@dataclass
class CaseSpec:
    case_id: str
    label: str
    n: int | None
    k: int | None
    q_value: Fraction | None
    localization: str
    ring: SkewRing
    presentation: Presentation | None
    expected_d: int | None
    azumaya_expected: bool | None    # None: no pointwise claim to scan
    scan_reason: str | None          # set when scans are not applicable
    keeps_stabilized: bool = False   # does the localization keep stabilized points?
    draw: Callable | None = None     # (rng, stabilized) -> generator values or None
    recipe: Callable | None = None   # CentralPoint -> FiberRecipe
    draw_za: Callable | None = None  # (rng, stabilized) -> Z(A) generator values or None

    @property
    def conductor(self) -> int:
        return lcm(self.ring.algebra.conductor, self.ring.group.omega.n)

    def params(self) -> dict:
        out = {"localization": self.localization}
        if self.n is not None:
            out["n"] = self.n
        if self.k is not None:
            out["k"] = self.k
        if self.q_value is not None:
            out["q"] = str(self.q_value)
        return out


def make_case(case_id: str, n: int | None = None, k: int | None = None,
              q: Fraction | None = None, localization: str | None = None) -> CaseSpec:
    case_id = str(case_id)
    builder = CASES.get(case_id)
    if builder is None:
        raise CatalogError(f"unknown case id {case_id!r}")
    given = {key: value for key, value in
             dict(n=n, k=k, q=q, localization=localization).items() if value is not None}
    takes = inspect.signature(builder).parameters
    unused = [key for key in given if key not in takes]
    if unused:
        raise CatalogError(f"case {case_id} does not take {', '.join(unused)}")
    return builder(**given)


# ---------------------------------------------------------------------------
# shared sampling and recipe pieces


def _pool_value(rng, conductor: int, allow_roots: bool = False) -> Cyclo:
    """A nonzero pool rational at the conductor, times a random root of unity
    with probability 0.3 when `allow_roots` (and conductor > 2)."""
    r = Cyclo.rational(rng.choice(RATIONAL_POOL), conductor)
    if allow_roots and conductor > 2 and rng.random() < 0.3:
        r = r * root_of_unity(rng.randrange(conductor), conductor)
    return r


def _pool_pair(rng, conductor: int, stabilized: bool, allow_roots: bool = False) -> list:
    """Values for the Z(A) generators (u^j, v^j); equal on the stabilized locus."""
    a = _pool_value(rng, conductor, allow_roots)
    return [a, a if stabilized else _pool_value(rng, conductor, allow_roots)]


def _orbit_recipe(pres: Presentation, point: CentralPoint, sigma: Cyclo, m: int) -> FiberRecipe:
    """The fiber rule of the (-1)-plane cases: the orbit polynomial of U = u^2.

    U has m rotation images and V = v^2 as many, so the orbit polynomial is
    (X^m - U^m)(X^m - V^m) = X^2m - sigma X^m + y^m and u^4m = sigma u^2m - y^m.
    With u inverted v^2 = y u^-2, and u^2m (sigma - u^2m) = y^m gives
    u^-4m = ((sigma^2 - y^m) - sigma u^2m) / y^2m; otherwise v takes the
    swapped u-rule."""
    A = pres.ring.algebra
    y = point.values["y"]
    ym = y ** m
    u_pow = A.poly({(2 * m, 0): sigma, (0, 0): -ym})
    residuals = [pres.gens[name] - pres.ring.one() * point.values[name] for name in pres.names]
    if "u" not in A.inverted:
        return FiberRecipe(ku=4 * m, kv=4 * m, u_pow=u_pow, v_pow=swap_uv(u_pow),
                           residuals=residuals)
    y2m_inv = (ym * ym).inverse()
    return FiberRecipe(
        ku=4 * m, kv=2, u_pow=u_pow, v_pow=A.poly({(-2, 0): y}),
        u_inv=A.poly({(2 * m, 0): -sigma * y2m_inv, (0, 0): (sigma * sigma - ym) * y2m_inv}),
        v_inv=A.poly({(2, 0): y.inverse()}),
        residuals=residuals,
    )


# ---------------------------------------------------------------------------
# case 0: the commutative pair


def _case_zero(localization: str | None = None) -> CaseSpec:
    localization = localization or "full"
    if localization not in ("none", "full"):
        raise CatalogError("case 0 supports localizations none | full")
    A = Algebra("quantum", q=Cyclo.one())
    T = SkewRing(A, Group("dihedral", 1))
    one = Cyclo.one()
    pres = Presentation(
        ring=T, names=("s", "m"),
        gens={"s": T.monomial(1, 0) + T.monomial(0, 1), "m": T.monomial(1, 1)},
        localized_at=[{(2, 0): one, (0, 1): Cyclo.rational(-4)}] if localization == "full" else [],
    ).validate()

    def draw_za(rng, stabilized):
        a, b = _pool_pair(rng, 1, stabilized)
        return None if localization == "full" and a == b else [a, b]

    def draw(rng, stabilized):
        ab = draw_za(rng, stabilized)
        return None if ab is None else {"s": ab[0] + ab[1], "m": ab[0] * ab[1]}

    def recipe(point):
        s, m = point.values["s"], point.values["m"]
        return FiberRecipe(
            ku=2, kv=1,
            u_pow=A.poly({(1, 0): s, (0, 0): -m}),
            v_pow=A.poly({(0, 0): s, (1, 0): -A.scalar(1)}),
        )

    return CaseSpec(
        case_id="0", label="k[u,v]#S2", n=None, k=None, q_value=None,
        localization=localization, ring=T, presentation=pres,
        expected_d=2, azumaya_expected=(localization == "full"), scan_reason=None,
        keeps_stabilized=(localization == "none"),
        draw=draw, recipe=recipe, draw_za=draw_za,
    )


# ---------------------------------------------------------------------------
# case i: quantum plane with a cyclic group


def _case_i(n=None, k=None, q: Fraction | None = None,
            localization: str | None = None) -> CaseSpec:
    localization = localization or "torus"
    if n is None:
        raise CatalogError("case i needs n")
    if n < 1:
        raise CatalogError(f"case i needs n >= 1 (the order of the cyclic group), not {n}")
    if localization not in ("none", "torus"):
        raise CatalogError("case i supports localizations none | torus")
    if q is not None:
        # q not a root of unity: not PI, no pointwise scan
        if k is not None:
            raise CatalogError("case i takes k (order of q) or a rational q, not both")
        if q in (1, -1):
            raise CatalogError(f"q = {q} is a root of unity: give its order with --k")
        A = Algebra("quantum", q=Cyclo.rational(q),
                    inverted=frozenset({"u", "v"}) if localization == "torus" else frozenset())
        T = SkewRing(A, Group("cyclic", n, root_of_unity(1, n)))
        return CaseSpec(
            case_id="i", label=f"k_q[u,v]#C{n} (q={q})", n=n, k=None, q_value=q,
            localization=localization, ring=T, presentation=None,
            expected_d=None, azumaya_expected=None,
            scan_reason="q is not a root of unity: T is not finite over its centre, "
                        "no pointwise fiber scan applies",
        )
    if k is None:
        raise CatalogError("case i needs k (order of q) or an explicit rational q")
    if k < 1:
        raise CatalogError(f"case i needs k >= 1 (the order of q), not {k}")
    l = lcm(n, k)
    eps = root_of_unity(1, l)
    omega = eps ** (l // n)
    qq = eps ** (l // k)
    inverted = frozenset({"u", "v"}) if localization == "torus" else frozenset()
    A = Algebra("quantum", q=qq, conductor=l, inverted=inverted)
    T = SkewRing(A, Group("cyclic", n, omega))
    pres = draw = recipe = None
    if localization == "torus":
        x_elt = T.monomial(l, 0)
        w_elt = T.from_poly(A.monomial(1, 1) ** (-(l // n)), ((l // k) % n, 0))
        pres = Presentation(
            ring=T, names=("x", "w"), gens={"x": x_elt, "w": w_elt},
            invertible=frozenset({"x", "w"}),
        ).validate()

        def draw(rng, stabilized):
            return {"x": _pool_value(rng, l), "w": _pool_value(rng, l, allow_roots=True)}

        def recipe(point):
            # v^k = s u^-k, from w^gcd(n, k) = (uv)^-k (the module docstring)
            a, c = point.values["x"], point.values["w"]
            s = (c ** gcd(n, k) * qq ** (k * (k - 1) // 2)).inverse()
            return FiberRecipe(
                ku=l, kv=k,
                u_pow=A.poly({(0, 0): a}), v_pow=A.poly({(-k, 0): s}),
                u_inv=A.poly({(0, 0): a.inverse()}), v_inv=A.poly({(k, 0): s.inverse()}),
                residuals=[w_elt - T.one() * c],
            )

    return CaseSpec(
        case_id="i", label=f"k_q[u,v]#C{n} (ord q = {k})", n=n, k=k, q_value=None,
        localization=localization, ring=T, presentation=pres,
        expected_d=l, azumaya_expected=(True if localization == "torus" else None),
        scan_reason=None if localization == "torus" else
        "the unlocalized quantum plane is not Azumaya; scan the torus localization",
        draw=draw, recipe=recipe,
        draw_za=lambda rng, stabilized: _pool_pair(rng, l, stabilized),
    )


# ---------------------------------------------------------------------------
# cases ii and iii: (-1)-plane with S_2 = D_1 or a dihedral group


def _case_ii(localization: str | None = None) -> CaseSpec:
    localization = localization or "full"
    if localization not in ("none", "torus", "full"):
        raise CatalogError("case ii supports localizations none | torus | full")
    return _minus_one_plane("ii", 1, localization, ("s2", "y"))


def _case_iii(n=None, localization: str | None = None) -> CaseSpec:
    if n is None:
        raise CatalogError("case iii needs n")
    if n < 1:
        raise CatalogError(f"case iii needs n >= 1 (the dihedral group has order 2n), not {n}")
    allowed = ("none", "torus", "full") if n % 2 else ("none", "torus")
    if localization is None:
        localization = allowed[-1]
    if localization not in allowed:
        raise CatalogError(f"case iii with n={n} supports localizations {allowed}")
    return _minus_one_plane("iii", n, localization, ("y", "q2n"))


def _minus_one_plane(case_id: str, n: int, localization: str, names: tuple) -> CaseSpec:
    """k_{-1}[u,v] # G for G = D_n, or for S_2 = D_1 at n = 1 (case ii).

    For odd n, `names` orders the generators y = u^2 v^2 and sigma =
    u^{2n} + v^{2n} of Z(T): the exponent tuples of the removed loci and the
    draws of a point follow it."""
    odd = n % 2 == 1
    conductor = n if odd else lcm(n, 4)
    inverted = frozenset() if localization == "none" else frozenset({"u", "v"})
    A = Algebra("quantum", q=Cyclo.rational(-1), conductor=conductor, inverted=inverted)
    T = SkewRing(A, Group("dihedral", n, root_of_unity(1, n).coerce(conductor)))
    one = Cyclo.one()
    if odd:
        (sigma,) = set(names) - {"y"}

        def at(name, e):  # the exponent tuple of name^e
            return tuple(e if other == name else 0 for other in names)

        pres = Presentation(
            ring=T, names=names,
            gens={"y": T.monomial(2, 2), sigma: T.monomial(2 * n, 0) + T.monomial(0, 2 * n)},
            invertible=frozenset({"y"}) if localization != "none" else frozenset(),
            # (u^{2n} - v^{2n})^2 = sigma^2 - 4 y^n != 0
            localized_at=[{at(sigma, 2): one, at("y", n): Cyclo.rational(-4)}]
            if localization == "full" else [],
        ).validate()
        expected = 4 * n
        azu = {"none": None, "torus": False, "full": True}[localization]

        def draw(rng, stabilized):
            if stabilized:
                w = _pool_value(rng, conductor)
                return {"y": w * w, sigma: (w ** n) * 2}
            return {name: _pool_value(rng, conductor) for name in names}

        def recipe(point):
            return _orbit_recipe(pres, point, point.values[sigma], n)
    else:
        # Z(T) = k[x,y,z]/(x^2 y + y^{m+1} + z^2), m = n/2
        m = n // 2
        i_unit = root_of_unity(1, 4).coerce(conductor)
        half_i = i_unit * Fraction(1, 2)
        x_elt = (T.monomial(n, 0) + T.monomial(0, n)) * half_i
        z_elt = (T.monomial(n + 1, 1, (m, 0)) - T.monomial(1, n + 1, (m, 0))) * half_i
        relation = {  # x^2 y + y^(m+1) + z^2
            (2, 1, 0): one.coerce(conductor),
            (0, m + 1, 0): one.coerce(conductor),
            (0, 0, 2): one.coerce(conductor),
        }
        pres = Presentation(
            ring=T, names=("x", "y", "z"),
            gens={"x": x_elt, "y": T.monomial(2, 2), "z": z_elt},
            relations=[relation],
            invertible=frozenset({"y"}) if localization != "none" else frozenset(),
        ).validate()
        expected = 2 * n
        azu = {"none": None, "torus": True}[localization]

        def draw(rng, stabilized):
            # u^2 -> alpha = rho^2, v^2 -> beta = tau^2
            rho, tau = _pool_value(rng, conductor), _pool_value(rng, conductor)
            alpha, beta = rho * rho, tau * tau
            sign = Cyclo.rational(rng.choice((1, -1)), conductor)
            half = Cyclo.rational(Fraction(1, 2), conductor)
            return {
                "x": i_unit * half * (alpha ** m + beta ** m),
                "y": alpha * beta,
                "z": half * (alpha ** m - beta ** m) * (rho * tau * sign),
            }

        def recipe(point):
            # sigma = u^n + v^n = -2i x
            return _orbit_recipe(pres, point, point.values["x"] * (i_unit * (-2)), m)

    def draw_za(rng, stabilized):
        alpha, beta = _pool_pair(rng, conductor, stabilized, allow_roots=True)
        return None if localization == "full" and alpha ** n == beta ** n else [alpha, beta]

    return CaseSpec(
        case_id=case_id, label="k_{-1}[u,v]#" + ("S2" if case_id == "ii" else f"D{n}"),
        n=None if case_id == "ii" else n, k=2, q_value=None,  # S_2 takes no n
        localization=localization, ring=T, presentation=pres,
        expected_d=expected, azumaya_expected=azu,
        scan_reason="the unlocalized ring is not Azumaya; scan a localization"
        if localization == "none" else None,
        keeps_stabilized=odd and localization != "full",
        draw=draw, recipe=recipe, draw_za=draw_za,
    )


# ---------------------------------------------------------------------------
# case iv: Jordan plane


def _case_iv(localization: str = "none") -> CaseSpec:
    if localization != "none":
        raise CatalogError("case iv supports localization none")
    A = Algebra("jordan")
    T = SkewRing(A, Group("cyclic", 2, Cyclo.rational(-1)))
    return CaseSpec(
        case_id="iv", label="k_J[u,v]#C2", n=2, k=None, q_value=None,
        localization="none", ring=T, presentation=None,
        expected_d=None, azumaya_expected=None,
        scan_reason="center too small for a pointwise scan: the Jordan plane is "
                    "not PI and Z(T) = k",
    )


CASES = {"0": _case_zero, "i": _case_i, "ii": _case_ii, "iii": _case_iii, "iv": _case_iv}


# ---------------------------------------------------------------------------
# sampling and recipes: the shared checks and retry loops


def sample_point(case: CaseSpec, rng, stabilized: bool = False) -> CentralPoint:
    """One admissible point of the case's claimed center (seeded, reproducible).

    With stabilized=True the point is drawn on the stabilized locus the
    localization would normally remove; the case must keep such points."""
    if case.presentation is None:
        raise CatalogError(f"case {case.label} has no central presentation to sample")
    if stabilized and not case.keeps_stabilized:
        raise CatalogError(f"{case.label} ({case.localization}) removes stabilized points")
    for _ in range(200):
        try:
            values = case.draw(rng, stabilized)
            if values is not None:
                return case.presentation.point(values)
        except AlgebraError:
            continue
    raise CatalogError("no admissible point found within the retry budget")


def recipe_for(case: CaseSpec, point: CentralPoint) -> FiberRecipe:
    if case.recipe is None:
        raise CatalogError(f"no fiber recipe for case {case.label}")
    return case.recipe(point)


def sample_za_values(case: CaseSpec, rng, stabilized: bool = False) -> list:
    """Values for the Z(A) generators (`Algebra.center_generators`),
    honoring the localization."""
    if case.draw_za is None:
        raise CatalogError(f"case {case.label} has no freeness data")
    for _ in range(200):
        values = case.draw_za(rng, stabilized)
        if values is not None:
            return values
    raise CatalogError("no admissible Z(A) point found within the retry budget")


# ---------------------------------------------------------------------------
# matched fibers for the inner-action rank comparison


def matched_inner_pair(rng):
    """One matched point on the (-1)-torus and on its C_2 skew ring.

    The skew-ring point (u^2 -> a, uvg-side generator -> c) determines the
    torus point (u^2 -> a, v^2 -> derived); returns (recipe_A, ring_A,
    recipe_T, ring_T, case) ready for build_fiber."""
    case = make_case("i", n=2, k=2, localization="torus")
    point = sample_point(case, rng)
    recipe_t = recipe_for(case, point)
    A = case.ring.algebra
    ring_a = SkewRing(A, Group("cyclic", 1))
    recipe_a = FiberRecipe(
        ku=2, kv=2,
        u_pow=recipe_t.u_pow, v_pow=recipe_t.v_pow,
        u_inv=recipe_t.u_inv, v_inv=recipe_t.v_inv,
    )
    return ring_a, recipe_a, case.ring, recipe_t, point
