"""Molien series against closed forms and brute-force invariant counts."""

import ast
import inspect
from fractions import Fraction
from itertools import islice

import pytest

from qks.cyclotomic import Cyclo, root_of_unity
from qks.linalg import nullspace
from qks.series import (
    RationalSeries,
    SeriesError,
    compare_with_counts,
    cyclic_diag_rep,
    dihedral_3dim_rep,
    dihedral_invariant_series,
    invariant_dimensions,
    kleinian_a_series,
    molien_series,
    one_minus_t_pow,
    pt_mul,
    pt_one,
    trivial_rep,
    _generating_subset,
    _images_by_degree,
    _monomials,
    mat_eq,
    mat_mul,
)


def free_series(dim: int) -> RationalSeries:
    """1/(1-t)^dim."""
    denom = pt_one()
    for _ in range(dim):
        denom = pt_mul(denom, one_minus_t_pow(1))
    return RationalSeries(pt_one(), denom)


def test_trivial_group():
    for dim in (1, 2, 3):
        assert molien_series(trivial_rep(dim)) == free_series(dim)


def test_cyclic_rep_closed_form():
    for m in (2, 3, 4, 6):
        assert molien_series(cyclic_diag_rep(m)) == kleinian_a_series(m)


def test_dihedral_rep_closed_form():
    for m in (2, 3):
        assert molien_series(dihedral_3dim_rep(m)) == dihedral_invariant_series(m)


def test_expand_geometric():
    f = RationalSeries(pt_one(), one_minus_t_pow(1))
    assert f.expand(3) == [Cyclo.rational(1)] * 4


def test_expand_a1_series():
    # (1 - t^4)/((1 - t^2)(1 - t^2)^2): even coefficients 1, 3, 5 (odd ones 0)
    f = kleinian_a_series(2)
    assert [c.as_fraction() for c in f.expand(4)] == [1, 0, 3, 0, 5]


def test_expand_matches_invariant_counts_d2():
    f = molien_series(dihedral_3dim_rep(2))
    counts = invariant_dimensions(dihedral_3dim_rep(2), 6)
    assert compare_with_counts(f, counts)


def test_counts_oracle_cyclic():
    for m in (2, 3):
        f = molien_series(cyclic_diag_rep(m))
        counts = invariant_dimensions(cyclic_diag_rep(m), 10)
        assert compare_with_counts(f, counts)


def test_dihedral_counts_to_degree_12():
    for m in (2, 3):
        f = molien_series(dihedral_3dim_rep(m))
        counts = invariant_dimensions(dihedral_3dim_rep(m), 12)
        assert compare_with_counts(f, counts)


def test_perturbed_counts_rejected():
    f = molien_series(dihedral_3dim_rep(2))
    counts = invariant_dimensions(dihedral_3dim_rep(2), 6)
    counts[3] += 1
    assert not compare_with_counts(f, counts)


def test_molien_expansion_nonnegative_integers():
    reps = [cyclic_diag_rep(2), cyclic_diag_rep(6), dihedral_3dim_rep(2),
            dihedral_3dim_rep(3), trivial_rep(2)]
    for rep in reps:
        for c in molien_series(rep).expand(20):
            value = c.as_fraction()
            assert value.denominator == 1 and value >= 0


def test_constant_and_linear_coefficients():
    for rep in (cyclic_diag_rep(3), dihedral_3dim_rep(2)):
        coeffs = molien_series(rep).expand(1)
        assert coeffs[0] == Cyclo.rational(1)
        fixed_dim = invariant_dimensions(rep, 1)[1]
        assert coeffs[1] == Cyclo.rational(fixed_dim)


def test_not_closed_list_rejected():
    bad = cyclic_diag_rep(4)[1:]  # drop the identity: not closed
    with pytest.raises(SeriesError, match="closed"):
        molien_series(bad)


def test_singular_matrix_rejected():
    zero, one = Cyclo.zero(), Cyclo.one()
    with pytest.raises(SeriesError, match="singular"):
        molien_series([((one, zero), (zero, zero))])


def test_denominator_needs_unit_constant():
    with pytest.raises(SeriesError):
        RationalSeries(pt_one(), (Cyclo.zero(), Cyclo.one()))


def test_equality_cross_multiplication():
    # (1-t^4)/((1-t^2)(1-t^2)^2) == (1+t^2)/(1-t^2)^2
    lhs = kleinian_a_series(2)
    num = (Cyclo.one(), Cyclo.zero(), Cyclo.one())
    rhs = RationalSeries(num, pt_mul(one_minus_t_pow(2), one_minus_t_pow(2)))
    assert lhs == rhs


def _act_on_monomial(alpha, mono, index) -> dict:
    """Image of x^mono under x_i -> sum_j alpha[j][i] x_j, as {index: coeff}
    with `index` numbering the monomials of its degree: the reference
    expansion, one linear form per variable occurrence, from scratch."""
    n = len(mono)
    acc = {tuple([0] * n): Cyclo.one()}
    for i, e in enumerate(mono):
        for _ in range(e):
            nxt: dict = {}
            for m, c in acc.items():
                for j in range(n):
                    a = alpha[j][i]
                    if a.is_zero():
                        continue
                    key = tuple(mj + (1 if jj == j else 0) for jj, mj in enumerate(m))
                    cur = nxt.get(key)
                    cur = c * a if cur is None else cur + c * a
                    if cur.is_zero():
                        nxt.pop(key, None)
                    else:
                        nxt[key] = cur
            acc = nxt
    return {index[m]: c for m, c in acc.items()}


def _rational_matrix(rows) -> tuple:
    return tuple(tuple(Cyclo.rational(x) for x in row) for row in rows)


# C3 on Q^2 by [[0, -1], [1, -1]], a rational (so not monomial) conjugate of
# cyclic_diag_rep(3): its images of monomials have several terms
DENSE_C3 = [_rational_matrix(m) for m in ([[1, 0], [0, 1]], [[0, -1], [1, -1]],
                                          [[-1, 1], [-1, 0]])]
# C2 by the reflection (1/sqrt 2)[[1, 1], [1, -1]] (sqrt 2 = z + z^-1 at
# conductor 8): x_1 x_2 -> (x_1^2 - x_2^2)/2, a product whose terms cancel
_C = (root_of_unity(1, 8) + root_of_unity(-1, 8)) * Cyclo.rational(Fraction(1, 2))
REFLECTION_C2 = [trivial_rep(2)[0], ((_C, _C), (_C, -_C))]


def _all_elements_counts(matrices, upto: int) -> list:
    """Invariant counts imposing g.x = x for every listed matrix."""
    n = len(matrices[0])
    dims = []
    for d in range(upto + 1):
        monos = _monomials(n, d)
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for alpha in matrices:
            for col, mono in enumerate(monos):
                row = _act_on_monomial(alpha, mono, index)
                row[col] = row.get(col, Cyclo.zero()) - Cyclo.one()
                rows.append({k: c for k, c in row.items() if not c.is_zero()})
        dims.append(len(nullspace(rows, len(monos))))
    return dims


def test_generating_subset_counts_equal_all_elements_counts():
    reps = [cyclic_diag_rep(m) for m in range(1, 7)]
    reps += [dihedral_3dim_rep(m) for m in range(1, 6)]
    for rep in reps:
        assert invariant_dimensions(rep, 8) == _all_elements_counts(rep, 8)


def test_dihedral_generating_subset_is_rotation_and_reflection():
    rep = dihedral_3dim_rep(3)
    gens = _generating_subset(rep)
    assert len(gens) == 2
    assert not any(mat_eq(g, trivial_rep(3)[0]) for g in gens)
    # the rotations alone fix more: dropping the reflection changes the counts
    rotations = rep[:3]
    assert invariant_dimensions(rotations, 8) != invariant_dimensions(rep, 8)


def test_counts_refuse_a_list_that_is_not_closed():
    with pytest.raises(SeriesError, match="closed"):
        invariant_dimensions(cyclic_diag_rep(4)[1:], 2)


def test_recurrence_images_equal_the_reference_expansion():
    reps = [cyclic_diag_rep(m) for m in range(1, 7)]
    reps += [dihedral_3dim_rep(m) for m in range(1, 6)] + [DENSE_C3, REFLECTION_C2]
    for rep in reps:
        n = len(rep[0])
        gens = _generating_subset(rep)
        for d, (monos, images) in zip(range(9), _images_by_degree(gens, n)):
            assert monos == _monomials(n, d)
            index = {m: i for i, m in enumerate(monos)}
            for alpha, imgs in zip(gens, images):
                assert len(imgs) == len(monos)
                for k, mono in enumerate(monos):
                    assert imgs[k] == _act_on_monomial(alpha, mono, index)


def test_dense_c3_counts_equal_its_diagonal_conjugate():
    monos, (of_g,) = next(islice(_images_by_degree(DENSE_C3[1:2], 2), 1, None))
    # x_2 -> -x_1 - x_2: two terms, which the catalog's monomial matrices never give
    assert monos[0] == (0, 1) and of_g[0] == {0: Cyclo.rational(-1), 1: Cyclo.rational(-1)}
    counts = [1, 0, 1, 2, 1, 2, 3, 2, 3, 4, 3, 4, 5]
    assert invariant_dimensions(DENSE_C3, 12) == counts
    assert invariant_dimensions(cyclic_diag_rep(3), 12) == counts
    assert _all_elements_counts(DENSE_C3, 12) == counts
    assert molien_series(DENSE_C3) == molien_series(cyclic_diag_rep(3))
    assert mat_eq(mat_mul(DENSE_C3[1], DENSE_C3[1]), DENSE_C3[2])
    bad = DENSE_C3[:2] + [_rational_matrix([[-1, 2], [-1, 0]])]  # invertible, not g^2
    with pytest.raises(SeriesError, match="not multiplicatively closed"):
        invariant_dimensions(bad, 4)
    with pytest.raises(SeriesError, match="not multiplicatively closed"):
        molien_series(bad)


def test_reflection_counts_drop_cancelled_terms():
    monos, (of_h,) = next(islice(_images_by_degree(REFLECTION_C2[1:], 2), 2, None))
    assert monos[1] == (1, 1) and of_h[1] == {0: -_C * _C, 2: _C * _C}
    counts = [1, 1, 2, 2, 3, 3, 4, 4, 5]  # a reflection: invariants of degrees 1 and 2
    assert invariant_dimensions(REFLECTION_C2, 8) == counts
    assert _all_elements_counts(REFLECTION_C2, 8) == counts


def test_oracle_takes_only_nullspace_from_linalg():
    # the counts stay independent of linalg's accumulate kernels
    import qks.series
    tree = ast.parse(inspect.getsource(qks.series))
    taken = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and node.module and node.module.endswith("linalg") for alias in node.names}
    assert taken == {"nullspace"}
