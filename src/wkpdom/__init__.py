"""k-power domination on WK-recursive mesh and WK-pyramid networks.

Generators for the two graph families, a simultaneous-round monitoring
engine, the closed-form minimum-set constructions with verification, and
an exhaustive oracle that certifies the closed formulas at desk scale.
"""

from .constructions import (
    ConstructionError,
    GammaValue,
    RegimeError,
    RegimeTag,
    construct_kpds,
    gamma_formula,
    ham_cycle_wk,
    regime_of,
)
from .exact import (
    BudgetExceededError,
    ExactResult,
    SearchBudget,
    exact_result_to_json,
    level1_intersection_check,
    min_kpds,
    propagation_radius,
)
from .propagation import (
    NEVER,
    MonitorTrace,
    is_kpds,
    propagate_fixpoint,
    radius_of_set,
    trace_to_json,
)
from .report import ReportRow, ReproReport, run_check_paper
from .topology import (
    APEX,
    DEFAULT_MAX_VERTICES,
    WK,
    WKP,
    Address,
    AddressParseError,
    ParameterDomainError,
    PyramidGraph,
    build_wk,
    build_wkp,
    export,
    extreme_vertices,
    format_address,
    graph_from_json,
    parse_address,
)

__version__ = "0.1.0"

__all__ = [
    "APEX",
    "Address",
    "AddressParseError",
    "BudgetExceededError",
    "ConstructionError",
    "DEFAULT_MAX_VERTICES",
    "ExactResult",
    "GammaValue",
    "MonitorTrace",
    "NEVER",
    "ParameterDomainError",
    "PyramidGraph",
    "RegimeError",
    "RegimeTag",
    "ReportRow",
    "ReproReport",
    "SearchBudget",
    "WK",
    "WKP",
    "build_wk",
    "build_wkp",
    "construct_kpds",
    "exact_result_to_json",
    "export",
    "extreme_vertices",
    "format_address",
    "gamma_formula",
    "graph_from_json",
    "ham_cycle_wk",
    "is_kpds",
    "level1_intersection_check",
    "min_kpds",
    "parse_address",
    "propagate_fixpoint",
    "propagation_radius",
    "radius_of_set",
    "regime_of",
    "run_check_paper",
    "trace_to_json",
]
