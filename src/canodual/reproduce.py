"""Re-solve the benchmark fixtures and compare against reference values."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import fixtures, minimax, quartic
from .model import Classification, SolveReport
from .solver import find_critical_points


@dataclass
class Row:
    name: str
    computed: float
    expected: float
    tol: float

    @property
    def deviation(self) -> float:
        return abs(self.computed - self.expected)

    @property
    def ok(self) -> bool:
        return self.deviation <= self.tol


@dataclass
class Comparison:
    title: str
    rows: list
    checks: list  # (name, bool) pairs for non-numeric assertions
    report: Optional[SolveReport] = None

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows) and all(ok for _, ok in self.checks)

    @property
    def max_deviation(self) -> float:
        return max((r.deviation for r in self.rows), default=0.0)

    def table(self) -> str:
        lines = [self.title,
                 f"{'quantity':<34} {'computed':>16} {'expected':>16} {'|dev|':>10}  ok"]
        for r in self.rows:
            lines.append(f"{r.name:<34} {r.computed:>16.8f} {r.expected:>16.8f} "
                         f"{r.deviation:>10.2e}  {'yes' if r.ok else 'NO'}")
        for name, ok in self.checks:
            lines.append(f"{name:<34} {'':>16} {'':>16} {'':>10}  {'yes' if ok else 'NO'}")
        lines.append(f"max deviation: {self.max_deviation:.3e}   "
                     f"overall: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _match(candidates, key, target):
    return min(candidates, key=lambda c: abs(key(c) - target))


def _reproduce_example1() -> Comparison:
    inst = fixtures.example1()
    report = find_critical_points(inst)
    rows = [Row("number of critical points", len(report.critical_pairs), 3, 0)]
    checks = []
    for i, (tau, sigma, x, value, label) in enumerate(fixtures.EX1_EXPECTED["points"], 1):
        pair = _match(report.critical_pairs, lambda p: float(p.zeta.sigma[0]), sigma)
        rows += [
            Row(f"point {i}: tau", float(pair.zeta.tau[0]), tau, 1e-4),
            Row(f"point {i}: sigma", float(pair.zeta.sigma[0]), sigma, 1e-4),
            Row(f"point {i}: x", float(pair.x[0]), x, 1e-4),
            Row(f"point {i}: value", pair.primal_value, value, 1e-5),
            Row(f"point {i}: gap", pair.gap, 0.0, 1e-8),
        ]
        if label == "SADDLE":
            checks.append((f"point {i}: dual saddle / primal local min",
                           pair.dual_label == Classification.SADDLE
                           and pair.primal_label == Classification.LOCAL_MIN))
        else:
            checks.append((f"point {i}: classification {label}",
                           pair.classification.value == label))
    return Comparison("benchmark 1 (1-D smoothed max + double well)", rows, checks, report)


def _reproduce_example2() -> Comparison:
    inst = fixtures.example2()
    qi = quartic.QuarticInstance.from_problem(inst)
    fast = quartic.solve(qi)
    best = fast.best
    rows = [
        Row("fast path: sigma", float(best.zeta.sigma[0]),
            fixtures.EX2_EXPECTED["global_sigma"], 1e-2),
        Row("fast path: x[0]", float(best.x[0]), fixtures.EX2_EXPECTED["global_x"][0], 5e-2),
        Row("fast path: x[1]", float(best.x[1]), fixtures.EX2_EXPECTED["global_x"][1], 5e-2),
        Row("fast path: gap", best.gap, 0.0, 1e-6),
    ]
    checks = []
    report = find_critical_points(inst)
    rows.append(Row("number of critical points", len(report.critical_pairs), 5, 0))
    from .dual import assemble  # G eigenvalues per point
    for sigma_ref, eig_ref in zip(fixtures.EX2_EXPECTED["sigma"],
                                  fixtures.EX2_EXPECTED["eigenvalues"]):
        pair = _match(report.critical_pairs, lambda p: float(p.zeta.sigma[0]), sigma_ref)
        rows.append(Row(f"sigma near {sigma_ref}", float(pair.zeta.sigma[0]),
                        sigma_ref, 1e-2))
        w = assemble(inst, pair.zeta).eigenvalues
        for j, ref in enumerate(eig_ref):
            rows.append(Row(f"  eig[{j}] at sigma {sigma_ref}", float(w[j]), ref, 1e-1))
            checks.append((f"  eig[{j}] sign at sigma {sigma_ref}",
                           np.sign(w[j]) == np.sign(ref)))
    return Comparison("benchmark 2 (2-D single quartic)", rows, checks, report)


def _reproduce_example3() -> Comparison:
    mm = fixtures.example3()
    report = minimax.solve(mm)
    best = report.best
    exp = fixtures.EX3_EXPECTED
    rows = [
        Row("global: gap", best.gap, 0.0, 1e-8),
        Row("global: tau", float(best.zeta.tau[0]), exp["tau_global"], 1e-5),
        Row("global: x[0]", float(best.x[0]), exp["x_global"][0], 1e-5),
        Row("global: x[1]", float(best.x[1]), exp["x_global"][1], 1e-5),
        Row("global: value", best.primal_value, exp["value_global"], 1e-5),
    ]
    second = _match(report.critical_pairs, lambda p: float(p.zeta.tau[0]), exp["tau_second"])
    rows += [
        Row("second: tau", float(second.zeta.tau[0]), exp["tau_second"], 1e-5),
        Row("second: value", second.primal_value, exp["value_second"], 1e-4),
    ]
    checks = [("global: classification GLOBAL_MIN",
               best.classification == Classification.GLOBAL_MIN),
              ("second: primal point is a saddle",
               second.primal_label == Classification.SADDLE)]
    return Comparison(f"benchmark 3 (2-D smoothed minimax, beta={mm.beta:g})",
                      rows, checks, report)


def reproduce_example(example_id: int) -> Comparison:
    """Re-solve benchmark ``example_id`` (1, 2 or 3) at the fixed default
    configuration and compare it with its published reference values."""
    if example_id == 1:
        return _reproduce_example1()
    if example_id == 2:
        return _reproduce_example2()
    if example_id == 3:
        return _reproduce_example3()
    raise ValueError(f"unknown benchmark id {example_id}; choose 1, 2 or 3")
