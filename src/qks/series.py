"""Exact rational-function series in t: Molien's formula and expansions.

Rational functions are kept as numerator/denominator pairs of polynomials
over Q(zeta_N), normalized only so that the denominator has constant term 1;
equality is tested by cross-multiplication.  The independent oracle for
Molien output is a brute-force count of invariants: the common fixed space,
degree by degree, of a generating subset of the same matrices, with each
degree's monomial images built from the last degree's; it keeps its own
sparse sums and takes only `nullspace` from `linalg`.
"""

from __future__ import annotations

from .cyclotomic import Cyclo
from .linalg import nullspace


class SeriesError(ValueError):
    pass


# -- polynomials in t over Q(zeta), dense, low to high -----------------------

def pt_trim(coeffs) -> tuple:
    out = list(coeffs)
    while out and out[-1].is_zero():
        out.pop()
    return tuple(out)


def pt_add(a, b) -> tuple:
    n = max(len(a), len(b))
    zero = Cyclo.zero()
    return pt_trim([(a[i] if i < len(a) else zero) + (b[i] if i < len(b) else zero)
                    for i in range(n)])


def pt_mul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [Cyclo.zero() for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if not y.is_zero():
                out[i + j] = out[i + j] + x * y
    return pt_trim(out)


def pt_scale(a, c: Cyclo) -> tuple:
    return pt_trim([x * c for x in a])


def pt_one() -> tuple:
    return (Cyclo.one(),)


def one_minus_t_pow(k: int) -> tuple:
    """1 - t^k."""
    out = [Cyclo.zero()] * (k + 1)
    out[0] = Cyclo.one()
    out[k] = Cyclo.rational(-1)
    return tuple(out)


class RationalSeries:
    """num(t)/denom(t) with denom(0) != 0, normalized to denom(0) = 1."""

    __slots__ = ("num", "denom")

    def __init__(self, num, denom):
        num, denom = pt_trim(num), pt_trim(denom)
        if not denom or denom[0].is_zero():
            raise SeriesError("denominator must have nonzero constant term")
        c = denom[0].inverse()
        self.num = pt_scale(num, c)
        self.denom = pt_scale(denom, c)

    def __eq__(self, other):
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return pt_mul(self.num, other.denom) == pt_mul(other.num, self.denom)

    __hash__ = None

    def expand(self, d: int) -> list:
        """First d+1 power-series coefficients, exact."""
        num, denom = self.num, self.denom
        zero = Cyclo.zero()
        coeffs = []
        for k in range(d + 1):
            c = num[k] if k < len(num) else zero
            for i in range(1, min(k, len(denom) - 1) + 1):
                c = c - denom[i] * coeffs[k - i]
            coeffs.append(c)
        return coeffs

    def __repr__(self):
        def fmt(p):
            bits = []
            for e, c in enumerate(p):
                if c.is_zero():
                    continue
                t = "1" if e == 0 else ("t" if e == 1 else f"t^{e}")
                cs = c.to_str()
                bits.append(t if cs == "1" else f"({cs})*{t}")
            return " + ".join(bits) if bits else "0"
        return f"({fmt(self.num)}) / ({fmt(self.denom)})"


def compare_with_counts(f: RationalSeries, counts) -> bool:
    got = f.expand(len(counts) - 1)
    return all(c == Cyclo.rational(want) for c, want in zip(got, counts))


# -- matrices over Q(zeta) ----------------------------------------------------

def mat_mul(a, b):
    """a * b, skipping products with a zero factor (an entry with none is 0)."""
    n = len(a)
    return tuple(tuple(sum((x * b[k][j] for k, x in enumerate(row)
                            if not (x.is_zero() or b[k][j].is_zero())), Cyclo.zero())
                       for j in range(n)) for row in a)


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _det_one_minus_t(alpha) -> tuple:
    """det(I - alpha t) as a polynomial in t, by cofactor expansion."""

    def minor(rows, cols):
        # expand along the first row over the remaining columns
        if not rows:
            return pt_one()
        i, total = rows[0], ()
        for k, j in enumerate(cols):
            entry = pt_trim((Cyclo.one() if i == j else Cyclo.zero(), -alpha[i][j]))
            if entry:
                term = pt_mul(entry, minor(rows[1:], cols[:k] + cols[k + 1:]))
                total = pt_add(total, pt_scale(term, Cyclo.rational(-1)) if k % 2 else term)
        return total

    indices = tuple(range(len(alpha)))
    return minor(indices, indices)


def molien_series(matrices) -> RationalSeries:
    """(1/|G|) * sum over the group of 1/det(I - alpha t), exactly.

    The list must be a matrix group: closed under products, all invertible.
    """
    if not matrices:
        raise SeriesError("empty matrix list")
    n = len(matrices[0])
    dets = []
    for m in matrices:
        if len(m) != n or any(len(row) != n for row in m):
            raise SeriesError("matrices must be square and of one size")
        dets.append(_det_one_minus_t(m))
        if len(dets[-1]) <= n:  # its t^n coefficient is (-1)^n det m
            raise SeriesError("singular matrix in the list")
    _generating_subset(matrices)  # raises unless the list is closed under products
    num, denom = (), pt_one()
    for d in dets:
        # num/denom + 1/d = (num*d + denom)/(denom*d)
        num = pt_add(pt_mul(num, d), denom)
        denom = pt_mul(denom, d)
    scale = Cyclo.rational(1) / Cyclo.rational(len(matrices))
    return RationalSeries(pt_scale(num, scale), denom)


# -- catalog representations and closed forms ---------------------------------

def cyclic_diag_rep(m: int) -> list:
    """C_m on a 2-dim space by diag(eps^i, eps^-i)."""
    from .cyclotomic import root_of_unity
    zero = Cyclo.zero()
    return [((root_of_unity(i, m), zero), (zero, root_of_unity(-i, m)))
            for i in range(m)]


def dihedral_3dim_rep(m: int) -> list:
    """D_m on 3 variables: rotations diag(eps^i, eps^-i, 1) and reflections
    swapping the first two coordinates and negating the third."""
    from .cyclotomic import root_of_unity
    zero, one = Cyclo.zero(), Cyclo.one()
    mats = []
    for i in range(m):
        e, einv = root_of_unity(i, m), root_of_unity(-i, m)
        mats.append(((e, zero, zero), (zero, einv, zero), (zero, zero, one)))
    for i in range(m):
        e, einv = root_of_unity(i, m), root_of_unity(-i, m)
        mats.append(((zero, e, zero), (einv, zero, zero), (zero, zero, -one)))
    return mats


def trivial_rep(dim: int) -> list:
    zero, one = Cyclo.zero(), Cyclo.one()
    return [tuple(tuple(one if i == j else zero for j in range(dim)) for i in range(dim))]


def kleinian_a_series(m: int) -> RationalSeries:
    """(1 - t^(2m)) / ((1 - t^2)(1 - t^m)^2)."""
    denom = pt_mul(one_minus_t_pow(2), pt_mul(one_minus_t_pow(m), one_minus_t_pow(m)))
    return RationalSeries(one_minus_t_pow(2 * m), denom)


def dihedral_invariant_series(m: int) -> RationalSeries:
    """(1 - t^(2(m+1))) / ((1 - t^2)^2 (1 - t^m)(1 - t^(m+1)))."""
    denom = pt_mul(pt_mul(one_minus_t_pow(2), one_minus_t_pow(2)),
                   pt_mul(one_minus_t_pow(m), one_minus_t_pow(m + 1)))
    return RationalSeries(one_minus_t_pow(2 * (m + 1)), denom)


# -- brute-force invariant counting (the independent oracle) ------------------

def invariant_dimensions(matrices, upto: int) -> list:
    """dim of degree-d invariants of Sym(V) for d = 0..upto, by linear algebra.

    `matrices` lists a finite matrix group.  The equations g.x = x are imposed
    for a generating subset of it only (`_generating_subset`): a vector fixed
    by every generator is fixed by the group they generate.  The monomial
    images come from the degree recurrence `_images_by_degree`.
    """
    n = len(matrices[0])
    gens = _generating_subset(matrices)
    zero, minus_one = Cyclo.zero(), Cyclo.rational(-1)
    dims = []
    for _, (monos, images) in zip(range(upto + 1), _images_by_degree(gens, n)):
        rows = []
        for imgs in images:
            for col in range(len(monos)):
                row = {**imgs[col], col: imgs[col].get(col, zero) + minus_one}
                if row[col].is_zero():
                    del row[col]
                if row:
                    rows.append(row)
        dims.append(len(nullspace(rows, len(monos))))
    return dims


def _generating_subset(matrices) -> list:
    """Generators of the group listed in `matrices`, picked greedily in list
    order: the identity and every matrix already in the closure of those
    picked are skipped.  The closure is kept as positions in the list, so a
    product outside the list raises `SeriesError` instead of looping."""
    identity = trivial_rep(len(matrices[0]))[0]

    def position(a) -> int:
        for i, c in enumerate(matrices):
            if mat_eq(a, c):
                return i
        raise SeriesError("matrix list is not multiplicatively closed")

    gens, closure = [], set()
    for i, g in enumerate(matrices):
        if i in closure or mat_eq(g, identity):
            continue
        gens.append(g)
        closure, frontier = set(), list(gens)
        while frontier:
            a = frontier.pop()
            for s in gens:
                j = position(mat_mul(a, s))
                if j not in closure:
                    closure.add(j)
                    frontier.append(matrices[j])
    return gens


def _monomials(n: int, d: int) -> list:
    if n == 1:
        return [(d,)]
    out = []
    for e in range(d + 1):
        out.extend((e,) + rest for rest in _monomials(n - 1, d - e))
    return out


def _images_by_degree(gens, n: int):
    """Yield (monos, images) for d = 0, 1, 2, ...: `monos` lists the degree-d
    monomials and images[g][k] is the image of x^monos[k] under x_i ->
    sum_j gens[g][j][i] x_j, as {position in monos: coeff}.  As x^m is
    x^(m - e_i) x_i, i the first variable of m, its image is one linear-form
    product on the previous degree's image, and only those are kept."""
    monos, images = [(0,) * n], [{0: {0: Cyclo.one()}} for _ in gens]
    while True:
        yield monos, images
        nxt = _monomials(n, sum(monos[0]) + 1)
        index = {m: k for k, m in enumerate(nxt)}
        up = [[index[m[:j] + (m[j] + 1,) + m[j + 1:]] for j in range(n)] for m in monos]
        # x^monos[k] x_i has first variable i when monos[k] has none before i
        steps = [(k, i) for k, m in enumerate(monos) for i in range(n) if not any(m[:i])]
        new_images = []
        for alpha, imgs in zip(gens, images):
            forms = [[(j, r[i]) for j, r in enumerate(alpha) if not r[i].is_zero()] for i in range(n)]
            out = {}
            for k, i in steps:
                img: dict = {}
                for col, c in imgs[k].items():
                    for j, a in forms[i]:
                        cur = img.get(up[col][j])
                        img[up[col][j]] = c * a if cur is None else cur + c * a
                out[up[k][i]] = {key: c for key, c in img.items() if not c.is_zero()}
            new_images.append(out)
        monos, images = nxt, new_images
