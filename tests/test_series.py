"""Molien series against closed forms and brute-force invariant counts."""

import pytest

from qks.cyclotomic import Cyclo
from qks.linalg import nullspace
from qks.series import (
    RationalSeries,
    SeriesError,
    compare_with_counts,
    cyclic_diag_rep,
    dihedral_3dim_rep,
    dihedral_invariant_series,
    free_series,
    invariant_dimensions,
    kleinian_a_series,
    molien_series,
    one_minus_t_pow,
    pt_mul,
    pt_one,
    trivial_rep,
    _act_on_monomial,
    _generating_subset,
    _monomials,
    mat_eq,
)


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
