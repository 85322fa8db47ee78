"""Generalized plane wave bases for variable-coefficient PDE operators.

Names not exported here stay importable from their submodules.
"""

from gpw.bench import (
    ConvergenceReport,
    TestCase,
    builtin_cases,
    case_by_name,
    disk_points,
    draw_centers,
    emit_report,
    exact_solution_taylor,
    read_report_csv,
    run_convergence,
    validate_case,
)
from gpw.construction import (
    GpwBasis,
    GpwNormalization,
    GpwPolynomial,
    basis_angles,
    build_basis,
    construct_gpw,
    kappa_from_zeroth,
    parse_gpw_text,
    serialize_gpw,
)
from gpw.interp import (
    TaylorMatch,
    assemble_gpw_matrix,
    assemble_reference_matrix,
    numeric_rank,
    taylor_match,
)
from gpw.operators import (
    HypothesisError,
    OperatorFamily,
    PdeOperator,
    check_hypotheses,
    residual_series,
)
from gpw.taylor2d import (
    TaylorSeries2,
    tri_size,
    ts_derive,
    ts_exp,
    ts_from_dict,
    ts_mul,
)

__all__ = [
    "ConvergenceReport",
    "GpwBasis",
    "GpwNormalization",
    "GpwPolynomial",
    "HypothesisError",
    "OperatorFamily",
    "PdeOperator",
    "TaylorMatch",
    "TaylorSeries2",
    "TestCase",
    "assemble_gpw_matrix",
    "assemble_reference_matrix",
    "basis_angles",
    "build_basis",
    "builtin_cases",
    "case_by_name",
    "check_hypotheses",
    "construct_gpw",
    "disk_points",
    "draw_centers",
    "emit_report",
    "exact_solution_taylor",
    "kappa_from_zeroth",
    "numeric_rank",
    "parse_gpw_text",
    "read_report_csv",
    "residual_series",
    "run_convergence",
    "serialize_gpw",
    "taylor_match",
    "tri_size",
    "ts_derive",
    "ts_exp",
    "ts_from_dict",
    "ts_mul",
    "validate_case",
]

__version__ = "0.1.0"
