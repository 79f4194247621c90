"""Global minimization of quadratic + log-sum-exp + quartic double-well
objectives through the canonical dual, with triality classification of all
dual critical points.

The root exports the problem types, the solve entry points with the types
they take and return (:func:`solve` routes by shape), the names the scripts
use, and :mod:`errors`. Everything else is imported from its module."""

from . import errors, minimax, quartic, univariate
from .minimax import MinimaxInstance, beta_sweep, smooth_and_canonicalize
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
from .reproduce import reproduce_example
from .solver import DEFAULT_CONFIG, SolverConfig, find_critical_points, solve_global

__version__ = "0.1.0"

__all__ = [
    # problems
    "LseTerm", "ProblemInstance", "QuarticTerm", "parse_problem",
    "serialize_problem", "validate",
    # the solve entry points, the types they take and return
    "solve", "check_existence", "MinimaxInstance", "SolverConfig",
    "find_critical_points", "solve_global", "solve_minimax",
    "Classification", "CriticalPair", "DualPoint", "ExistenceVerdict", "Region",
    "SolveReport",
    # the scripts
    "beta_sweep", "grid_global_min", "reproduce_example", "smooth_and_canonicalize",
    "errors",
]

# The univariate fast paths by shape (p, r): the form an instance of that
# shape specializes to (ShapeMismatchError for a weight it refuses), the
# form's conjugate, and the form's solve. solve and check_existence read
# this table; every other shape goes to solve_global.
_FAST_PATHS = {
    (0, 1): (quartic.QuarticInstance.from_problem,
             lambda form: univariate.quartic(form.alpha, form.c), quartic.solve),
    (1, 0): (minimax.canonical_from_problem,
             lambda form: univariate.entropy(form.d, form.beta), minimax.solve_canonical),
}


def _fast_path(inst: ProblemInstance):
    """(form, conjugate, solve) of the instance's fast path, else ShapeMismatchError."""
    if (inst.p, inst.r) not in _FAST_PATHS:
        raise errors.ShapeMismatchError("no fast path for this shape: p=0, r=1 (quartic) "
                                        "or p=1, r=0 (smoothed minimax)", p=inst.p, r=inst.r)
    build, conjugate, solve_form = _FAST_PATHS[inst.p, inst.r]
    return build(inst), conjugate, solve_form


def solve(inst: ProblemInstance, cfg: SolverConfig = DEFAULT_CONFIG) -> SolveReport:
    """The instance's fast-path report, final with its limits, else solve_global's."""
    try:
        form, _, solve_form = _fast_path(inst)
    except errors.ShapeMismatchError:  # another shape, or a refused weight
        return solve_global(inst, cfg)
    return solve_form(form)


def check_existence(inst: ProblemInstance) -> dict:
    """:func:`univariate.existence` on the form of the instance's fast path."""
    form, conjugate, _ = _fast_path(inst)
    return univariate.existence(form.spectral(), conjugate(form))
