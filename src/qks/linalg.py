"""Sparse linear algebra over Q(zeta_N), on exact `Cyclo` values.

Vectors are dicts mapping column index -> scalar with no zero entries.  The
accumulate kernels are `acc` (one entry) and `axpy` (a scaled vector);
every sparse sum goes through them except those in `series`, whose
invariant counts stay an independent oracle for the code here.  The
workhorse is `Echelon`, an incrementally built reduced row echelon basis;
rows go in through `span(vectors)`, and everything else (rank, nullspace,
span comparison, reduction modulo a subspace, and `commutant`, the one
builder of commutants, one `kernel` system per generator) is phrased
through it.  `Echelon` keeps an index from each column to the rows that
may hold it, so a new pivot's back-elimination visits only those rows
instead of sweeping the whole basis.
"""

from __future__ import annotations

from .cyclotomic import Cyclo

Vec = dict


def acc(vec: Vec, key, value) -> None:
    """vec[key] += value, dropping the entry when the sum is zero."""
    cur = vec.get(key)
    if cur is not None:
        value = cur + value
    if value.is_zero():
        vec.pop(key, None)
    else:
        vec[key] = value


def axpy(out: Vec, c, vec: Vec) -> None:
    """out += c * vec, in place."""
    for k, x in vec.items():
        acc(out, k, c * x)


class Echelon:
    """Reduced row echelon basis of a growing family of sparse vectors.

    The row with pivot p is e_p - rows[p]: only its negated tail is stored,
    and no pivot column occurs in any tail.  Eliminating a pivot hit is then
    one multiply and one add per entry, with no negation.

    A new pivot is back-eliminated only from the rows listed for its column
    in `_holders` (column -> pivots whose tail may hold it).  A row is listed
    under each key of its tail when stored and under each key that
    back-elimination adds to it later, and is not unlisted when an entry
    cancels.  Each row gets the same updates in the same order as a sweep of
    all rows would give it, so `rows`, key order included, is unchanged.
    """

    def __init__(self):
        self.rows: dict = {}  # pivot column -> negated tail of its row
        self._holders: dict = {}  # column -> pivots whose tail may hold it

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Vec) -> Vec:
        """Residue of `vec` modulo the current row space (canonical)."""
        out = dict(vec)
        # full RREF: pivot columns occur only in their own rows, so one pass
        # over the pivot hits is enough
        for col in [c for c in out if c in self.rows]:
            axpy(out, out.pop(col), self.rows[col])
        return out

    def add(self, vec: Vec) -> bool:
        """Insert `vec`; returns True if it enlarged the row space."""
        res = self.reduce(vec)
        if not res:
            return False
        pivot = min(res)
        lead = res.pop(pivot)
        # a row with no tail scales nothing, so its pivot needs no inverse
        scale = -lead.inverse() if res else None
        tail = {k: scale * x for k, x in res.items()}
        # back-eliminate the new pivot from the rows that may hold it; a
        # holder whose entry cancelled since it was registered is a miss
        rows, holders = self.rows, self._holders
        for p in holders.pop(pivot, ()):
            r = rows[p]
            c = r.pop(pivot, None)
            if c is not None:
                fresh = tail.keys() - r.keys()
                axpy(r, c, tail)
                for k in fresh:
                    holders.setdefault(k, []).append(p)
        rows[pivot] = tail
        for k in tail:
            holders.setdefault(k, []).append(pivot)
        return True


def span(vectors) -> Echelon:
    """The echelon of `vectors`, added in order."""
    ech = Echelon()
    for vec in vectors:
        ech.add(vec)
    return ech


def nullspace(equations, ncols: int) -> list:
    """Basis of solutions x (sparse dicts) of the homogeneous system.

    `equations` is an iterable of sparse rows over columns 0..ncols-1.
    """
    ech = span(equations)
    basis = []
    for free in range(ncols):
        if free in ech.rows:
            continue
        sol = {free: Cyclo.rational(1)}
        for piv, tail in ech.rows.items():
            c = tail.get(free)
            if c is not None:
                sol[piv] = c
        basis.append(sol)
    return basis


def kernel(entries, ncols: int) -> list:
    """`nullspace` of the system given as (row key, column, coefficient)
    triples, summed per cell.  Rows enter the elimination in the order their
    keys first appear, which drives fill-in, so callers keep their order; a
    row whose entries all cancel never enters it."""
    rows: dict = {}
    for key, col, c in entries:
        acc(rows.setdefault(key, {}), col, c)
    return nullspace(filter(None, rows.values()), ncols)


def combine(vec: Vec, rows) -> Vec:
    """sum of c * rows[l] over the entries (l, c) of vec: the image of vec
    under the linear map whose value at basis_l is rows[l]."""
    out: Vec = {}
    for l, c in vec.items():
        axpy(out, c, rows[l])
    return out


def commutant(ncols: int, gens, bracket) -> list:
    """Basis of the x over columns 0..ncols-1 with [x, w] = 0 for every w
    of `gens`, each vector's keys ascending; `bracket(y, w)` gives [y, w],
    linear in the vector y, as (row key, coefficient) pairs, summed per cell.

    The commutants are intersected one generator at a time, in the order of
    `gens`: the basis starts as the unit vectors, and for each w,
    [y, w] = 0 over the current basis vectors y is one `kernel` system,
    whose solutions are combined into vectors over the columns.  Once the
    first generators have cut the basis down, the later systems have few
    columns.

    The result is the basis one `kernel` system over every generator would
    give.  Each `kernel` vector has a 1 at its own free column, 0 at every
    other free column, and no entry after its free column: the reduced
    echelon basis of the solution space in reversed column order, which
    the space alone determines.  Combining such a basis of the next
    stage's solutions keeps those properties over the columns (free
    columns ascending give ascending last columns), so composing the stages
    gives the same canonical basis of the intersection."""
    one = Cyclo.one()
    basis = [{col: one} for col in range(ncols)]
    for w in gens:
        entries = ((key, j, c) for j, y in enumerate(basis) for key, c in bracket(y, w))
        basis = [combine(sol, basis) for sol in kernel(entries, len(basis))]
    return [dict(sorted(y.items())) for y in basis]


def spans_equal(vectors_a, vectors_b) -> bool:
    """Exact: a reduced row echelon basis whose pivots are its rows' least
    columns is determined by the span alone."""
    return span(vectors_a).rows == span(vectors_b).rows
