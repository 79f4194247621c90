"""Command-line front end.

Exit-code contract: 0 on success, 1 on usage/input errors, 2 on method
limitations (no certified global solution for this instance), so scripts
can separate hard instances from bugs. :func:`main` maps every library
error to its class's ``exit_status``, in one place.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from . import minimax, oracle, quartic, univariate
from .errors import CanodualError, ShapeMismatchError
from .model import (
    Classification,
    ExistenceVerdict,
    ProblemInstance,
    SolveReport,
    parse_problem,
    validate,
)
from .reproduce import reproduce_example
from .solver import SolverConfig, find_critical_points, solve_global

# oracle-compare searches the box (-ORACLE_BOX, ORACLE_BOX)^n; a grid
# optimum with a coordinate at least BOX_EDGE in magnitude may be the box's
# edge rather than the objective's minimum
ORACLE_BOX = 6.0
BOX_EDGE = 5.9


class _InputError(Exception):
    """A problem file or option that cannot be read; printed as
    ``error: ...`` with no code, exit 1."""


def _load(path: str) -> ProblemInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_problem(fh)
    except UnicodeDecodeError as exc:
        raise _InputError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except (OSError, ValueError, CanodualError) as exc:
        raise _InputError(exc) from exc


def _config(args) -> SolverConfig:
    try:
        return SolverConfig(seed=args.seed, num_starts=args.starts)
    except ValueError as exc:
        raise _InputError(exc) from exc


def _print_report(report: SolveReport, status: str, as_json: bool):
    if as_json:
        print(json.dumps(report.as_dict(status), indent=2))
        return
    print(f"status: {status}")
    print(f"existence: {report.existence_verdict.value}   "
          f"iterations: {report.iterations}   residual: {report.residual_norm:.3e}")
    for note in report.notes:
        print(f"note: {note}")
    for i, p in enumerate(report.critical_pairs, 1):
        x = ", ".join(f"{v:.6f}" for v in p.x)
        tau = ", ".join(f"{v:.6f}" for v in p.zeta.tau)
        sigma = ", ".join(f"{v:.6f}" for v in p.zeta.sigma)
        print(f"[{i}] {p.classification.value:<12} region={p.region.value:<10} "
              f"value={p.primal_value:.8f} gap={p.gap:.2e}")
        print(f"    x = ({x})  tau = ({tau})  sigma = ({sigma})")


def _solve(inst: ProblemInstance, cfg: SolverConfig) -> SolveReport:
    """The report of the univariate fast path whose shape the instance has
    (p = 0, r = 1: quartic; p = 1, r = 0: smoothed minimax), else
    ``solve_global``'s. A fast path's result or limit is final; a shape or
    weight it does not admit goes to ``solve_global``."""
    for fast_path in (lambda: quartic.solve(quartic.QuarticInstance.from_problem(inst)),
                      lambda: minimax.solve_smoothed(inst)):
        try:
            return fast_path()
        except ShapeMismatchError:
            pass  # try the next fast path, then the general solver
    return solve_global(inst, cfg)


def cmd_solve(args) -> int:
    inst, cfg = _load(args.path), _config(args)
    if args.beta is not None:
        inst = validate(replace(inst, beta=args.beta))
    try:
        if args.all_critical:
            report = find_critical_points(inst, cfg)
            found_global = any(p.classification == Classification.GLOBAL_MIN
                               for p in report.critical_pairs)
            _print_report(report, "CRITICAL_POINTS_FOUND", args.json)
            return 0 if found_global else 2
        _print_report(_solve(inst, cfg), "GLOBAL_MIN_FOUND", args.json)
        return 0
    except CanodualError as exc:
        if exc.exit_status == 1:
            raise
        # a limit of the method is a result: the report carries its status
        # and the existence verdict a fast path decided it from
        verdict = ExistenceVerdict(exc.context.get("verdict", "NOT_APPLICABLE"))
        _print_report(SolveReport(existence_verdict=verdict, notes=[str(exc)]),
                      exc.code, args.json)
        return exc.exit_status


def cmd_check_existence(args) -> int:
    inst = _load(args.path)
    # the shape picks the form, so each form's own error is the one shown
    if (inst.p, inst.r) == (0, 1):
        qi = quartic.QuarticInstance.from_problem(inst)
        detail = univariate.existence(qi.spectral(), univariate.quartic(qi.alpha, qi.c))
    else:
        can = minimax.canonical_from_problem(inst)
        detail = univariate.existence(can.spectral(), univariate.entropy(can.d, can.beta))
    print(detail["verdict"].value)
    print(f"lambda_min = {detail['lambda_min']:.9g} "
          f"(multiplicity {detail['multiplicity']})")
    print(f"load component on ground eigenspace: {detail['head_component_inf']:.3e} "
          f"(threshold {detail['head_threshold']:.3e})")
    print(f"boundary inequality left-hand side: {detail['boundary_lhs']:.9g} "
          f"( > 0 required when the ground component vanishes)")
    return 0


def cmd_reproduce(args) -> int:
    comparison = reproduce_example(args.example)
    print(comparison.table())
    return 0 if comparison.ok else 2


def cmd_oracle_compare(args) -> int:
    if not 0.0 <= args.tol < np.inf:  # also rejects nan
        raise _InputError(f"--tol must be finite and >= 0, got {args.tol!r}")
    inst, cfg = _load(args.path), _config(args)
    oracle.check_grid_dimension(inst.n)
    report = _solve(inst, cfg)
    x_star, v_star = oracle.grid_global_min(inst, (-ORACLE_BOX, ORACLE_BOX), resolution=601)
    best = report.best
    dev = abs(best.primal_value - v_star)
    print(f"dual solve:  value = {best.primal_value:.10f}  "
          f"x = ({', '.join(f'{v:.6f}' for v in best.x)})")
    print(f"grid oracle: value = {v_star:.10f}  "
          f"x = ({', '.join(f'{v:.6f}' for v in x_star)})")
    print(f"|difference| = {dev:.3e} (tolerance {args.tol:g})")
    if float(np.max(np.abs(x_star))) >= BOX_EDGE:
        print(f"inconclusive: the grid optimum has |x|_inf >= {BOX_EDGE:g}, at or "
              f"beyond the edge of the searched box (-{ORACLE_BOX:g}, {ORACLE_BOX:g})^n; "
              f"the global minimum may lie outside it")
        return 2
    return 0 if dev <= args.tol else 2


COMMANDS = {
    "solve": cmd_solve,
    "check-existence": cmd_check_existence,
    "reproduce": cmd_reproduce,
    "oracle-compare": cmd_oracle_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canodual",
        description="Certified global minimization of quadratic + smoothed-max "
                    "+ quartic double-well objectives via the canonical dual.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=42,
                       help="seed for all randomized behavior (default 42)")
        p.add_argument("--starts", type=int, default=64,
                       help="multistart sample count (default 64)")

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("path")
    p_solve.add_argument("--json", action="store_true",
                         help="machine-readable report")
    p_solve.add_argument("--all-critical", action="store_true",
                         help="enumerate and classify all dual critical points")
    p_solve.add_argument("--beta", type=float, default=None,
                         help="override the smoothing weight of the instance")
    add_common(p_solve)

    p_exist = sub.add_parser("check-existence",
                             help="evaluate the specialized existence condition")
    p_exist.add_argument("path")

    p_repro = sub.add_parser("reproduce",
                             help="re-solve a built-in benchmark at the default "
                                  "configuration and compare against its "
                                  "reference solution")
    p_repro.add_argument("example", type=int, choices=(1, 2, 3))

    p_orc = sub.add_parser("oracle-compare",
                           help="cross-check the dual solve against the grid "
                                "oracle (n <= 3)")
    p_orc.add_argument("path")
    p_orc.add_argument("--tol", type=float, default=1e-4,
                       help="agreement tolerance (default 1e-4)")
    add_common(p_orc)
    return parser


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; the exit contract reserves 1
        return 0 if exc.code in (0, None) else 1
    try:
        return COMMANDS[args.command](args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CanodualError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_status


if __name__ == "__main__":
    sys.exit(main())
