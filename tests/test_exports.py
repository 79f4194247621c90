"""The package root exports what a caller needs, and only that: the problem
types, the solve entry points with the types they take and return, the
names the scripts use, and the error module. Everything else is imported
from its module."""

import canodual

DOCUMENTED = {
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
}


def test_root_exports_the_documented_names():
    assert sorted(canodual.__all__) == sorted(DOCUMENTED)


def test_every_exported_name_resolves():
    for name in canodual.__all__:
        assert getattr(canodual, name) is not None, name


def test_star_import_gives_the_exports():
    namespace = {}
    exec("from canodual import *", namespace)
    assert set(namespace) - {"__builtins__"} == DOCUMENTED


def test_solve_entry_points_are_the_module_functions():
    from canodual import minimax, solver
    assert canodual.solve_minimax is minimax.solve
    assert canodual.solve_global is solver.solve_global
    assert canodual.find_critical_points is solver.find_critical_points


def test_the_fast_path_entry_points_left_the_root():
    # canodual.solve routes a ProblemInstance to them; their forms and
    # solves stay in canodual.quartic and canodual.minimax
    for name in ("solve_quartic", "solve_smoothed", "QuarticInstance"):
        assert not hasattr(canodual, name), name
