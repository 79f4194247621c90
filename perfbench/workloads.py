"""Benchmark workloads: seeded instance blocks and the library call each
case makes.

The instances come from the test suite's own generators,
``tests/conftest.py::rand_instance`` and ``rand_minimax``, loaded by path,
so the benchmark draws from the distributions the acceptance criteria use.

Each workload draws its instances in *blocks*. A block is stratified: it
holds every shape (or mode and size) of the workload in the proportions
the source distribution gives them, in a seeded random order. Only the
values inside each instance are drawn at random. Stratifying removes the
seed-to-seed spread that comes from how many expensive shapes a seed
happens to draw, without leaving any shape out.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from canodual import errors, minimax, quartic, solver
from canodual.model import Classification

CONFTEST = Path(__file__).resolve().parent.parent / "tests" / "conftest.py"


def _load_conftest():
    spec = importlib.util.spec_from_file_location("canodual_test_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_fixtures = _load_conftest()
rand_instance = _fixtures.rand_instance
rand_minimax = _fixtures.rand_minimax


# ---------------------------------------------------------------------------
# cases and outcomes

DOCUMENTED = (errors.HardCaseError, errors.NoDualCriticalPointError, errors.UnboundedError)
OUTCOMES = ("certified", "uncertified", "hard_case", "no_critical_point", "unbounded", "failed")


@dataclass
class Case:
    """One library call: ``kind`` selects the entry point, ``label`` names
    the stratum (shape or mode and size) for the report."""

    kind: str
    label: str
    data: object


@dataclass
class Outcome:
    """A checked call. It keeps counts, not the report or the exception, so
    that a run does not hold every case's matrices until it ends."""

    label: str
    call: str                      # the case's kind
    kind: str                      # one of OUTCOMES
    seconds: float
    pairs: int = 0                 # critical pairs of the returned report
    iterations: int = 0            # from the report or the HardCaseError context
    failure: Optional[str] = None  # why the outcome counts as failed
    gate: Optional[str] = None     # why the outcome breaks the correctness gate
    detail: dict = field(default_factory=dict)


ENUM_CFG = solver.SolverConfig(num_starts=8, max_iter=80)


def call(case: Case):
    """The timed call into the library. Module attributes are looked up at
    call time so that the tracer's wrappers take effect."""
    if case.kind == "enumerate":
        return solver.find_critical_points(case.data, ENUM_CFG)
    if case.kind == "certify":
        return solver.solve_global(case.data)
    if case.kind == "quartic":
        return quartic.solve(quartic.QuarticInstance.from_problem(case.data))
    if case.kind == "minimax":
        return minimax.solve(case.data)
    raise ValueError(case.kind)


def has_global_min(report) -> bool:
    return any(p.classification == Classification.GLOBAL_MIN for p in report.critical_pairs)


# ---------------------------------------------------------------------------
# workloads


def _enumerate_shapes(sizes):
    """Shapes in the proportions of ``rand_instance`` with n, m and p drawn
    uniformly: m in 1..3, then p in 0..m. Per n that is 36 instances:
    6 per m = 1 shape, 4 per m = 2 shape, 3 per m = 3 shape."""
    shapes = []
    for n in sizes:
        for m, weight in ((1, 6), (2, 4), (3, 3)):
            for p in range(m + 1):
                shapes += [(n, p, m - p)] * weight
    return shapes


def _enumerate_block(rng, small):
    shapes = _enumerate_shapes((1, 2) if small else (1, 2, 3, 4))
    if small:
        shapes = sorted(set(shapes))
    order = rng.permutation(len(shapes))
    cases = []
    for i in order:
        n, p, r = shapes[i]
        cases.append(Case("enumerate", f"n{n}p{p}r{r}", rand_instance(rng, n=n, p=p, r=r)))
    return cases


def _certify_block(rng, small):
    sizes = (6,) if small else (50, 100, 200)
    shapes = [(n, p, r) for n in sizes for p in (0, 1, 2) for r in (1, 2)]
    order = rng.permutation(len(shapes))
    cases = []
    for i in order:
        n, p, r = shapes[i]
        cases.append(Case("certify", f"n{n}p{p}r{r}",
                          rand_instance(rng, n=n, p=p, r=r, spd_quartic=True)))
    return cases


FASTPATH_MODES = ("quartic", "unconditional", "exists", "not_exists", "unbounded")


def _fastpath_block(rng, small):
    sizes = (8,) if small else (50, 200, 400)
    reps = 1 if small else 8
    strata = [(n, mode) for n in sizes for mode in FASTPATH_MODES] * reps
    order = rng.permutation(len(strata))
    cases = []
    for i in order:
        n, mode = strata[i]
        if mode == "quartic":
            # non-identity SPD weight, so from_problem whitens
            case = Case("quartic", f"quartic-n{n}",
                        rand_instance(rng, n=n, p=0, r=1, spd_quartic=True))
        else:
            case = Case("minimax", f"{mode}-n{n}", rand_minimax(rng, n, mode))
        cases.append(case)
    return cases


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in BENCHMARK.json and README.md."""

    name: str
    make_block: Callable[[np.random.Generator, bool], list]
    block_seconds: float        # nominal wall time of one pass over a block,
                                # 2-core Xeon
    exact_blocks: int = 1       # the exact per-seed counts are taken over
                                # this many leading blocks of every run
    exact_pairs: bool = False   # pairs_found must equal the recorded count,
                                # not just reach it
    in_benchmark: bool = True


WORKLOADS = {w.name: w for w in (
    Workload("enumerate-small", _enumerate_block, block_seconds=11.5, exact_pairs=True),
    Workload("fastpath-spectral", _fastpath_block, block_seconds=5.8, exact_blocks=3),
    # stalls at max_iter cost seconds each and make its spread too wide for
    # the benchmark's bounds; run by hand
    Workload("certify-large", _certify_block, block_seconds=40.0, in_benchmark=False),
)}

RECORDED_SEEDS = 32


def input_set(seed: int) -> int:
    """The benchmark has RECORDED_SEEDS input sets, with their exact counts
    recorded in expected_counts.json; seed n draws set n mod RECORDED_SEEDS."""
    return seed % RECORDED_SEEDS


def block_rng(workload: str, seed: int, index: int) -> np.random.Generator:
    """Generator for block ``index`` of a workload: a pure function of the
    seed, so the same seed gives the same inputs on every run."""
    tag = sorted(WORKLOADS).index(workload)
    return np.random.default_rng([input_set(seed), tag, index])
