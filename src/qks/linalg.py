"""Sparse exact linear algebra over Q(zeta_N).

Vectors are dicts mapping column index -> Cyclo with no zero entries.  The
accumulate kernels are `acc` (one entry) and `axpy` (a scaled vector); every
sparse sum goes through them except those in `series`, whose invariant
counts stay an independent oracle for the code here.  The workhorse is
`Echelon`, an incrementally built reduced row echelon basis; everything else
(rank, nullspace, span comparison, reduction modulo a subspace, and the
`kernel` builder for commutator and fixed-point systems) is phrased through
it.
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
    """

    def __init__(self):
        self.rows: dict = {}  # pivot column -> negated tail of its row

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
        scale = -res.pop(pivot).inverse()
        tail = {k: scale * x for k, x in res.items()}
        # back-eliminate the new pivot from existing rows
        for r in self.rows.values():
            c = r.pop(pivot, None)
            if c is not None:
                axpy(r, c, tail)
        self.rows[pivot] = tail
        return True

    def contains(self, vec: Vec) -> bool:
        return not self.reduce(vec)


def nullspace(equations, ncols: int) -> list:
    """Basis of solutions x (sparse dicts) of the homogeneous system.

    `equations` is an iterable of sparse rows over columns 0..ncols-1.
    """
    ech = Echelon()
    for row in equations:
        ech.add(row)
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
    keys first appear, which drives fill-in, so callers keep their order."""
    rows: dict = {}
    for key, col, c in entries:
        acc(rows.setdefault(key, {}), col, c)
    return nullspace(rows.values(), ncols)


def spans_equal(vectors_a, vectors_b) -> bool:
    ech_a, ech_b = Echelon(), Echelon()
    for v in vectors_a:
        ech_a.add(v)
    for v in vectors_b:
        ech_b.add(v)
    if ech_a.rank != ech_b.rank:
        return False
    return all(ech_a.contains(v) for v in vectors_b)
