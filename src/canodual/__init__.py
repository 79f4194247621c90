"""Global minimization of quadratic + log-sum-exp + quartic double-well
objectives through the canonical dual, with triality classification of all
dual critical points.

The root exports the problem types, the four solve entry points with the
types they take and return, the names the CLI and the scripts use, and
:mod:`errors`. Everything else (the dual and primal kernels, the oracle's
checks, the fast paths' existence tests) is imported from its module."""

from . import errors
from .minimax import MinimaxInstance, beta_sweep, smooth_and_canonicalize, solve_smoothed
from .minimax import solve as solve_minimax
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
    parse_problem,
    serialize_problem,
    validate,
)
from .oracle import grid_global_min
from .quartic import QuarticInstance
from .quartic import solve as solve_quartic
from .reproduce import reproduce_example
from .solver import SolverConfig, find_critical_points, solve_global

__version__ = "0.1.0"

__all__ = [
    # problems
    "LseTerm", "ProblemInstance", "QuarticTerm", "parse_problem",
    "serialize_problem", "validate",
    # the four solve entry points, the types they take and return
    "MinimaxInstance", "QuarticInstance", "SolverConfig", "find_critical_points",
    "solve_global", "solve_minimax", "solve_quartic",
    "Classification", "CriticalPair", "DualPoint", "ExistenceVerdict", "Region",
    "SolveReport",
    # the CLI and the scripts
    "beta_sweep", "grid_global_min", "reproduce_example", "smooth_and_canonicalize",
    "solve_smoothed",
    "errors",
]
