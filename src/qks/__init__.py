"""qks: exact workbench for skew group rings over quantum and Jordan planes.

Construct T = A # G for the catalog pairs (quantum plane with a cyclic group,
(-1)-plane with the swap or a dihedral group, Jordan plane with C_2), compute
centers and invariant rings degree by degree, evaluate Molien series, build
finite-dimensional central fibers T/mT, and certify or refute the
matrix-algebra property of each fiber -- all in exact cyclotomic arithmetic.
"""

from .cyclotomic import Cyclo, parse_cyclo, root_of_unity
from .planes import (
    Algebra,
    Group,
    NCPoly,
    apply_automorphism,
    check_action_well_defined,
    check_inner_by,
)
from .skew import (
    CentralPoint,
    Presentation,
    SkewElement,
    SkewRing,
    center_basis,
    invariant_basis,
    is_central,
    stabilizer_of_point,
    verify_generating_set,
)
from .series import (
    RationalSeries,
    compare_with_counts,
    molien_series,
)
from .fiber import (
    Certificate,
    FiberRecipe,
    FiniteDimAlgebra,
    build_fiber,
    center_dimension,
    jacobson_radical_dim,
    matrix_algebra_certificate,
    trace_form_rank,
)
from .catalog import CaseSpec, make_case, recipe_for, sample_point
from .scans import (
    auslander_check,
    azumaya_scan,
    emit_report,
    freeness_scan,
    series_check,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra", "CaseSpec", "CentralPoint", "Certificate", "Cyclo",
    "FiberRecipe", "FiniteDimAlgebra", "Group", "NCPoly", "Presentation",
    "RationalSeries", "SkewElement", "SkewRing", "apply_automorphism",
    "auslander_check", "azumaya_scan", "build_fiber", "center_basis",
    "center_dimension", "check_action_well_defined", "check_inner_by",
    "compare_with_counts", "emit_report", "freeness_scan", "invariant_basis",
    "is_central", "jacobson_radical_dim", "make_case",
    "matrix_algebra_certificate", "molien_series", "parse_cyclo", "recipe_for",
    "root_of_unity", "sample_point", "series_check",
    "stabilizer_of_point", "trace_form_rank", "verify_generating_set",
]
