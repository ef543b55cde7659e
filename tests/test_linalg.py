"""`Echelon`'s column index (against a full sweep of the stored rows), its
canonical rows, and the staged commutant."""

import random

import pytest

from qks.cyclotomic import Cyclo, root_of_unity
from qks.linalg import Echelon, axpy, commutant, kernel, span, spans_equal


def _sweep_rows(vectors) -> dict:
    """Reference `Echelon.add` loop: back-eliminate each new pivot from every
    stored row, with no column index."""
    ech = Echelon()   # only its `reduce` is used, which reads `rows`
    rows = ech.rows
    for vec in vectors:
        res = ech.reduce(vec)
        if not res:
            continue
        pivot = min(res)
        scale = -res.pop(pivot).inverse()
        tail = {k: scale * x for k, x in res.items()}
        for r in rows.values():
            c = r.pop(pivot, None)
            if c is not None:
                axpy(r, c, tail)
        rows[pivot] = tail
    return rows


def _unit(rng, conductor):
    x = rng.choice([-3, -2, -1, 1, 2, 3])
    return Cyclo.rational(x) * root_of_unity(rng.randrange(conductor), conductor)


def _random_sparse(rng, conductor, nvec, ncols) -> list:
    """Seeded sparse vectors, some of them sums of earlier ones so that
    back-elimination both fills rows and cancels entries."""
    out = []
    for _ in range(nvec):
        if out and rng.random() < 0.3:
            a, b = rng.sample(out, 2) if len(out) > 1 else (out[0], out[0])
            vec = dict(a)
            axpy(vec, _unit(rng, conductor), b)
        else:
            cols = rng.sample(range(ncols), rng.randint(1, 4))
            vec = {k: _unit(rng, conductor) for k in cols}
        if vec:
            out.append(vec)
    return out


@pytest.mark.parametrize("conductor", [1, 3])
def test_holders_index_matches_a_full_sweep(conductor):
    rng = random.Random(1300 + conductor)
    for _ in range(25):
        vectors = _random_sparse(rng, conductor, rng.randint(4, 24), rng.randint(4, 16))
        ech = span(vectors)
        want = _sweep_rows(vectors)
        assert ech.rows == want
        assert list(ech.rows) == list(want)
        assert [list(r) for r in ech.rows.values()] == [list(r) for r in want.values()]
        assert all(k not in ech.rows for r in ech.rows.values() for k in r)
        for p, r in ech.rows.items():
            assert all(p in ech._holders[k] for k in r)


def _recombined(rng, conductor, vectors) -> list:
    """Another spanning set of the same space: the vectors shuffled, each one
    scaled by a unit plus multiples of those before it (a triangular change
    of basis with an invertible diagonal)."""
    vs = list(vectors)
    rng.shuffle(vs)
    out = []
    for i, v in enumerate(vs):
        c = _unit(rng, conductor)
        w = {k: c * x for k, x in v.items()}
        for u in rng.sample(vs[:i], min(i, 2)):
            axpy(w, _unit(rng, conductor), u)
        out.append(w)
    return out


@pytest.mark.parametrize("conductor", [1, 3])
def test_echelon_rows_are_determined_by_the_span(conductor):
    rng = random.Random(1700 + conductor)
    for _ in range(25):
        vectors = _random_sparse(rng, conductor, rng.randint(4, 24), rng.randint(4, 16))
        other = _recombined(rng, conductor, vectors)
        assert span(vectors).rows == span(other).rows
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
            c = _unit(rng, conductor)
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


def test_rows_with_no_tail_take_no_inverse(monkeypatch):
    # six rows enlarge the span, and only the third and the fifth keep a
    # tail once reduced: the others are (or reduce to) one entry
    z, one, two = root_of_unity(1, 3), Cyclo.rational(1), Cyclo.rational(2)
    vectors = [{4: two * z}, {1: two, 4: one}, {0: one, 2: z}, {2: two},
               {0: z, 3: one, 5: one}, {5: one}]
    plain = span(vectors)
    inverses = []
    inverse = Cyclo.inverse
    monkeypatch.setattr(Cyclo, "inverse", lambda x: inverses.append(x) or inverse(x))
    ech = span(vectors)
    assert ech.rank == 6 and len(inverses) == 2
    assert ech.rows == plain.rows
    assert list(ech.rows) == list(plain.rows)
    assert [list(r) for r in ech.rows.values()] == [list(r) for r in plain.rows.values()]
