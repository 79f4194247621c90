"""Global minimization of quadratic + log-sum-exp + quartic double-well
objectives through the canonical dual, with triality classification of all
dual critical points."""

from . import errors
from .dual import (
    ShiftedHessian,
    assemble,
    conjugate_lse,
    conjugate_quartic,
    eval_dual,
    grad_dual,
    hess_dual,
)
from .minimax import (
    CanonicalForm,
    MinimaxInstance,
    beta_sweep,
    smooth_and_canonicalize,
    validate_minimax,
)
from .minimax import existence_check as existence_check_minimax
from .minimax import solve as solve_minimax
from .minimax import solve_smoothed
from .model import (
    Classification,
    CriticalPair,
    DualPoint,
    ExistenceVerdict,
    LseTerm,
    ProblemInstance,
    QuarticTerm,
    Region,
    SolveReport,
    SpectralData,
    parse_problem,
    serialize_problem,
    validate,
)
from .oracle import definiteness_transfer_check, fd_gradient, fd_hessian, grid_global_min
from .primal import (
    CanonicalMeasure,
    canonical_measure,
    duality_map,
    eval_lse,
    eval_primal,
    eval_quartic,
    grad_primal,
    hess_primal,
)
from .quartic import QuarticInstance, secular_derivative
from .quartic import existence_check as existence_check_quartic
from .quartic import solve as solve_quartic
from .reproduce import reproduce_example
from .solver import SolverConfig, find_critical_points, solve_global, triality_classify

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm", "CanonicalMeasure", "Classification", "CriticalPair",
    "DualPoint", "ExistenceVerdict", "LseTerm", "MinimaxInstance",
    "ProblemInstance", "QuarticInstance", "QuarticTerm", "Region",
    "ShiftedHessian", "SolveReport", "SolverConfig", "SpectralData",
    "assemble", "beta_sweep", "canonical_measure", "conjugate_lse",
    "conjugate_quartic", "definiteness_transfer_check", "duality_map",
    "errors", "eval_dual", "eval_lse", "eval_primal", "eval_quartic",
    "existence_check_minimax", "existence_check_quartic", "fd_gradient",
    "fd_hessian", "find_critical_points", "grad_dual", "grad_primal",
    "grid_global_min", "hess_dual", "hess_primal", "parse_problem",
    "reproduce_example", "serialize_problem", "smooth_and_canonicalize",
    "solve_global", "solve_minimax", "solve_quartic", "solve_smoothed",
    "triality_classify", "validate", "validate_minimax",
]
