"""Exact isospectral reduction toolkit for weighted networks."""

from .exactnum import PoleError, Polynomial, RatFun, poly_gcd, ratfun_from_str, ratfun_to_str
from .netmat import (
    IncidenceData,
    IncidenceFormatError,
    RfMatrix,
    bipartite_adjacency,
    mode_convert,
    parse_incidence_csv,
    project_cols,
    project_rows,
)
from .isored import ReductionResult, SingularMatrixError, invert_over_field, reduce
from .hierarchy import (
    HierarchyResult,
    TraceStep,
    min_degree_rule,
    restrict_hierarchy,
    row_degree,
    sequential_reduce,
)
from .spectra import ConvergenceError, SpectrumReport, eval_det, sym_eigenvalues, verify_spectrum
from .dynamics import (
    chronological_order,
    classify_activity,
    group_attendance,
    level_mean_attendance,
    series_stats,
)

__version__ = "0.1.0"

__all__ = [
    "PoleError",
    "Polynomial",
    "RatFun",
    "poly_gcd",
    "ratfun_from_str",
    "ratfun_to_str",
    "IncidenceData",
    "IncidenceFormatError",
    "RfMatrix",
    "bipartite_adjacency",
    "mode_convert",
    "parse_incidence_csv",
    "project_cols",
    "project_rows",
    "ReductionResult",
    "SingularMatrixError",
    "invert_over_field",
    "reduce",
    "HierarchyResult",
    "TraceStep",
    "min_degree_rule",
    "restrict_hierarchy",
    "row_degree",
    "sequential_reduce",
    "ConvergenceError",
    "SpectrumReport",
    "eval_det",
    "sym_eigenvalues",
    "verify_spectrum",
    "chronological_order",
    "classify_activity",
    "group_attendance",
    "level_mean_attendance",
    "series_stats",
]
