"""The field parameter of `Echelon` (GF(p) ranks against exact ranks) and its
column index (against a full sweep of the stored rows)."""

import random
from fractions import Fraction

import pytest

from qks.cyclotomic import Cyclo, root_of_unity
from qks.linalg import CYCLO, GF, Echelon, NotReducible, commutant, kernel, span, spans_equal

BIG = GF(2**31 - 1)


def _rank(rows, field=CYCLO) -> int:
    ech = Echelon(field)
    for row in rows:
        ech.add({k: r for k, x in row.items() if (r := field.from_cyclo(x))})
    return ech.rank


def _matrix(entries) -> list:
    """Sparse Cyclo rows of an integer matrix given as nested lists."""
    return [{k: Cyclo.rational(x) for k, x in enumerate(row) if x} for row in entries]


def _random_matrix(rng, nrows, ncols, rank) -> list:
    """A seeded small-integer nrows x ncols matrix of rank at most `rank`."""
    left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rank)]
    return _matrix([[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                    for row in left])


def test_default_field_is_exact():
    assert Echelon().field is CYCLO


def test_gf_ranks_agree_with_exact_on_random_integer_matrices():
    rng = random.Random(20261018)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rows = _random_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
        assert _rank(rows, BIG) == _rank(rows)


def test_gf_rank_never_exceeds_exact_rank_at_small_primes():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(40):
            rows = _random_matrix(rng, 5, 5, rng.randint(1, 5))
            assert _rank(rows, GF(p)) <= _rank(rows)


def test_rank_drops_mod_a_prime_dividing_the_determinant():
    rows = _matrix([[1, 2], [3, 1]])   # determinant -5
    assert _rank(rows) == 2
    assert _rank(rows, GF(5)) == 1
    assert _rank(rows, GF(7)) == 2


def test_gf_echelon_reduces_to_canonical_residues():
    f = GF(7)
    ech = Echelon(f)
    assert ech.add({0: 2, 1: 3})
    assert ech.add({1: 1, 2: 5})
    assert not ech.add({0: 4, 1: 6})          # twice the first row
    assert not ech.reduce({0: 2, 1: 4, 2: 5})   # first plus second
    residue = ech.reduce({2: 1, 3: 6})
    assert residue == {2: 1, 3: 6}
    assert all(0 < x < 7 for row in ech.rows.values() for x in row.values())


def test_residues_of_p_integral_rationals():
    f = GF(7)
    assert f.from_cyclo(Cyclo.rational(Fraction(3, 2))) == 3 * 4 % 7
    assert f.from_cyclo(Cyclo.rational(-1)) == 6
    assert f.from_cyclo(Cyclo.rational(14)) == 0
    # a rational scalar at a higher conductor is still rational
    assert f.from_cyclo(Cyclo.rational(Fraction(1, 3), 4)) == 5


@pytest.mark.parametrize("value", [
    root_of_unity(1, 3),                      # not rational
    Cyclo.rational(Fraction(1, 14)),          # 7 divides the denominator
    Cyclo.rational(Fraction(5, 49), 4),
])
def test_values_without_a_residue_are_refused(value):
    with pytest.raises(NotReducible):
        GF(7).from_cyclo(value)


def _sweep_rows(vectors, field) -> dict:
    """Reference `Echelon.add` loop: back-eliminate each new pivot from every
    stored row, with no column index."""
    ech = Echelon(field)   # only its `reduce` is used, which reads `rows`
    rows = ech.rows
    for vec in vectors:
        res = ech.reduce(vec)
        if not res:
            continue
        pivot = min(res)
        tail = field.scaled(field.neg_inverse(res.pop(pivot)), res)
        for r in rows.values():
            c = r.pop(pivot, None)
            if c is not None:
                field.axpy(r, c, tail)
        rows[pivot] = tail
    return rows


def _random_sparse(rng, field, conductor, nvec, ncols) -> list:
    """Seeded sparse vectors, some of them sums of earlier ones so that
    back-elimination both fills rows and cancels entries."""
    def scalar():
        x = rng.choice([-3, -2, -1, 1, 2, 3])
        if field is CYCLO:
            return Cyclo.rational(x) * root_of_unity(rng.randrange(conductor), conductor)
        return x % field.p

    out = []
    for _ in range(nvec):
        if out and rng.random() < 0.3:
            a, b = rng.sample(out, 2) if len(out) > 1 else (out[0], out[0])
            vec = dict(a)
            field.axpy(vec, scalar(), b)
        else:
            cols = rng.sample(range(ncols), rng.randint(1, 4))
            vec = {k: scalar() for k in cols}
        vec = {k: x for k, x in vec.items() if x}
        if vec:
            out.append(vec)
    return out


@pytest.mark.parametrize("field, conductor", [(CYCLO, 1), (CYCLO, 3), (GF(7), 1)])
def test_holders_index_matches_a_full_sweep(field, conductor):
    rng = random.Random(1300 + conductor)
    for _ in range(25):
        vectors = _random_sparse(rng, field, conductor, rng.randint(4, 24), rng.randint(4, 16))
        ech = Echelon(field)
        for vec in vectors:
            ech.add(vec)
        want = _sweep_rows(vectors, field)
        assert ech.rows == want
        assert list(ech.rows) == list(want)
        assert [list(r) for r in ech.rows.values()] == [list(r) for r in want.values()]
        assert all(k not in ech.rows for r in ech.rows.values() for k in r)
        for p, r in ech.rows.items():
            assert all(p in ech._holders[k] for k in r)


def _unit(rng, field, conductor):
    x = rng.choice([-3, -2, -1, 1, 2, 3])
    if field is CYCLO:
        return Cyclo.rational(x) * root_of_unity(rng.randrange(conductor), conductor)
    return x % field.p


def _recombined(rng, field, conductor, vectors) -> list:
    """Another spanning set of the same space: the vectors shuffled, each one
    scaled by a unit plus multiples of those before it (a triangular change
    of basis with an invertible diagonal)."""
    vs = list(vectors)
    rng.shuffle(vs)
    out = []
    for i, v in enumerate(vs):
        w = field.scaled(_unit(rng, field, conductor), v)
        for u in rng.sample(vs[:i], min(i, 2)):
            field.axpy(w, _unit(rng, field, conductor), u)
        out.append(w)
    return out


@pytest.mark.parametrize("field, conductor", [(CYCLO, 1), (CYCLO, 3), (GF(7), 1)])
def test_echelon_rows_are_determined_by_the_span(field, conductor):
    rng = random.Random(1700 + conductor)
    for _ in range(25):
        vectors = _random_sparse(rng, field, conductor, rng.randint(4, 24), rng.randint(4, 16))
        other = _recombined(rng, field, conductor, vectors)
        assert span(vectors, field).rows == span(other, field).rows
        if field is CYCLO:
            assert spans_equal(vectors, other)


def test_spans_of_equal_rank_differ():
    one = Cyclo.rational(1)
    assert not spans_equal([{0: one}], [{1: one}])
    # the same pivot columns, different tails
    assert not spans_equal([{0: one, 2: one}, {1: one}], [{0: one}, {1: one, 2: one}])
    assert spans_equal([{0: one, 2: one}, {1: one}], [{1: one}, {0: one, 2: one}])


def test_kernel_skips_rows_whose_entries_cancel(monkeypatch):
    # row "x" is 1 - 1 in column 0, as a commuting pair's x w and -(w x) are:
    # the basis is the one without it, and no empty row reaches the echelon
    one = Cyclo.rational(1)
    added = []
    add = Echelon.add
    monkeypatch.setattr(Echelon, "add", lambda ech, vec: added.append(vec) or add(ech, vec))
    live = [("y", 0, one), ("y", 1, -one), ("z", 2, one)]
    with_cancelled = kernel([("x", 0, one), ("x", 0, -one)] + live, 3)
    assert added == [{0: one, 1: -one}, {2: one}]
    assert with_cancelled == kernel(live, 3) == [{1: one, 0: one}]


def _random_bracket(rng, conductor, ncols) -> dict:
    """A seeded sparse linear map as column -> [(row key, coefficient)], on
    fewer rows than columns, with some cells given twice so that `kernel`
    sums them, and some of those sums cancelling."""
    out: dict = {}
    for row in range(rng.randint(1, 3)):
        for col in rng.sample(range(ncols), rng.randint(1, 4)):
            c = _unit(rng, CYCLO, conductor)
            out.setdefault(col, []).append((row, c))
            if rng.random() < 0.3:
                out[col].append((row, rng.choice([-c, c])))
    return out


@pytest.mark.parametrize("conductor", [1, 3])
def test_staged_commutant_is_the_one_system_basis(conductor):
    # the stages give what one kernel over every generator's entries gives:
    # the same vectors, in the same order, each with its keys ascending
    rng = random.Random(3100 + conductor)
    for _ in range(40):
        ncols = rng.randint(4, 12)
        gens = [_random_bracket(rng, conductor, ncols) for _ in range(rng.randint(1, 3))]

        def bracket(y, w):
            return [(key, c * k) for col, c in y.items() for key, k in w.get(col, ())]

        staged = commutant(ncols, gens, bracket)
        whole = kernel([((n, key), col, k) for n, w in enumerate(gens)
                        for col in range(ncols) for key, k in w.get(col, ())], ncols)
        assert [list(y.items()) for y in staged] == [sorted(y.items()) for y in whole]


def test_commutant_of_no_generators_is_every_column():
    one = Cyclo.rational(1)
    assert commutant(3, [], lambda y, w: ()) == [{0: one}, {1: one}, {2: one}]


class _CountingField:
    """`CYCLO` with its `neg_inverse` calls counted."""

    def __init__(self):
        self.axpy, self.scaled = CYCLO.axpy, CYCLO.scaled
        self.inverses = 0

    def neg_inverse(self, x):
        self.inverses += 1
        return CYCLO.neg_inverse(x)


def test_rows_with_no_tail_take_no_inverse():
    # six rows enlarge the span, and only the third and the fifth keep a
    # tail once reduced: the others are (or reduce to) one entry
    z, one, two = root_of_unity(1, 3), Cyclo.rational(1), Cyclo.rational(2)
    vectors = [{4: two * z}, {1: two, 4: one}, {0: one, 2: z}, {2: two},
               {0: z, 3: one, 5: one}, {5: one}]
    field = _CountingField()
    ech = span(vectors, field)
    plain = span(vectors)
    assert ech.rank == 6 and field.inverses == 2
    assert ech.rows == plain.rows
    assert list(ech.rows) == list(plain.rows)
    assert [list(r) for r in ech.rows.values()] == [list(r) for r in plain.rows.values()]


def test_gf_is_a_value():
    # memos keyed by the field find GF(p) built again
    assert GF(7) == GF(7) and hash(GF(7)) == hash(GF(7))
    assert GF(7) != GF(5) and GF(7) != CYCLO
