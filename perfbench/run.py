"""canodual benchmark: one closed-loop caller, one process.

    python3 perfbench/run.py --workload enumerate-small --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics: instances are drawn in
stratified blocks from the seed and solved one after another, each block
PASSES times; a case's latency is its fastest pass. ``--seconds`` sets the
number of blocks from the workload's nominal block time, so a run takes
about that long at this commit and solves the same instances on every run
of a seed. Every outcome is checked as soon as it returns, outside the
timed call, and its exact counts against the ones recorded for the seed.

``--trace 1`` solves the seed's first block twice, once plain and once with
every layer's public functions wrapped in spans, and reports the per-layer
counts and self times plus the tracing overhead (the difference between the
two passes). Spans are written to ``perfbench/out/`` at exit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the full report (environment, outcome histogram, hard-case contexts,
failures). The exit code is 0 when the correctness gate holds, 1 when it
does not, and 2 when the library sources or the test generators are missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_THREADS = 1            # one caller, one core: the steadiest timing
EXPECTED = HERE / "expected_counts.json"
SETUP_REPEATS = 5
WARMUP_BLOCK = 10 ** 6      # warm-up draws the same small block for every seed
PASSES = 2                  # each block is solved this many times in a row;
                            # a case's latency is its fastest pass

END_TO_END = {
    "instances_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "certified_share": "share",
    "pairs_found": "count",
    "ok_share": "share",
    "setup_s": "s",
}

PER_LAYER = {
    "linalg.eigh.calls": "count",
    "linalg.eigh.self_ms": "ms",
    "linalg.eigvalsh.calls": "count",
    "linalg.solve.calls": "count",
    "linalg.solve.self_ms": "ms",
    "linalg.share": "share",
    "linalg.flops_computed": "flop",
    "dual.assemble.calls": "count",
    "dual.assemble.self_ms": "ms",
    "dual.us_per_eval": "us",
    "dual.grad_dual.self_ms": "ms",
    "dual.hess_dual.self_ms": "ms",
    "dual.eval_dual.calls": "count",
    "primal.grad_primal.calls": "count",
    "primal.hess_primal.calls": "count",
    "primal.measure_jacobian.calls": "count",
    "primal.grad_primal.self_ms": "ms",
    "solver.find_critical_points.self_ms": "ms",
    "solver.solve_global.self_ms": "ms",
    "solver.make_pair.calls": "count",
    "solver.triality_classify.calls": "count",
    "solver.newton_iterations": "count",
    "solver.evals_per_pair": "count",
    "solver.hard_case_ms": "ms",
    "quartic.solve.self_ms": "ms",
    "quartic.secular_derivative.calls": "count",
    "quartic.existence_check.calls": "count",
    "minimax.smooth_and_canonicalize.self_ms": "ms",
    "minimax.dual_derivative.calls": "count",
    "minimax.make_pair.calls": "count",
    "model.spectral.self_ms": "ms",
    "trace.overhead_ms": "ms",
}


def pin_blas_threads() -> None:
    """Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _library_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "canodual" or name.startswith("canodual.")}


def _import_seconds() -> float:
    """Import of the library afresh in this interpreter. The modules loaded
    before are put back afterwards, so every other part of the benchmark
    keeps using one copy of the library."""
    loaded = _library_modules()
    for name in loaded:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("canodual")
    seconds = time.perf_counter() - t0
    for name in _library_modules():
        del sys.modules[name]
    sys.modules.update(loaded)
    return seconds


def environment(workload: str, seed: int) -> dict:
    import ctypes

    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas, threads = "unknown", None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()})
        for path in libs:
            lib = ctypes.CDLL(path)
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                    if get is not None:
                        get.restype = ctypes.c_int
                        threads = int(get())
                    if config is not None:
                        config.restype = ctypes.c_char_p
                        blas = config().decode()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads if threads is not None else BLAS_THREADS,
        "workload": workload,
        "seed": seed,
    }


def _tail(latencies_ms):
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _histogram(outcomes) -> dict:
    from workloads import OUTCOMES

    hist = dict.fromkeys(OUTCOMES, 0)
    for out in outcomes:
        hist[out.kind] += 1
    return hist


def _timed_call(case):
    """(seconds, report or raised exception) of one library call."""
    from workloads import call

    t0 = time.perf_counter()
    try:
        result = call(case)
    except Exception as exc:  # every exception is an outcome to classify
        result = exc
        while exc is not None:
            # the frames a traceback keeps alive hold the case's matrices
            exc.__traceback__ = None
            exc = exc.__context__
    return time.perf_counter() - t0, result


def _solve(cases, tracer=None):
    """Solve every case; returns [(case, seconds, report or exception)]."""
    results = []
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.instance = i
        results.append((case, *_timed_call(case)))
    return results


def setup(workload: str, seed: int, small: bool):
    """Import, generate the first block and warm up, several times; returns
    (median seconds, first block)."""
    from workloads import WORKLOADS, block_rng

    wl = WORKLOADS[workload]
    times, block = [], None
    for _ in range(SETUP_REPEATS):
        t = _import_seconds()
        t0 = time.perf_counter()
        block = wl.make_block(block_rng(workload, seed, 0), small)
        _solve(wl.make_block(block_rng(workload, 0, WARMUP_BLOCK), True))
        times.append(t + time.perf_counter() - t0)
    return statistics.median(times), block


def _blocks(wl, seconds: float) -> int:
    """Blocks per run: ``seconds`` over the nominal time of a block's
    passes, and at least the blocks the exact counts are taken over. The
    work of a run is fixed by the seed and ``seconds``, so every run of a
    seed solves the same instances in the same stratified proportions."""
    return max(wl.exact_blocks, round(seconds / (wl.block_seconds * PASSES)))


def _signature(result):
    """What a repeated call must reproduce: the exception type, or the
    classification of every pair."""
    if isinstance(result, BaseException):
        return type(result).__name__
    return tuple(pair.classification.name for pair in result.critical_pairs)


def _closed_loop(wl, seed, blocks, block0, small):
    """Solve and check the run's blocks, one case after another. Each block
    is solved PASSES times in a row; a case keeps the outcome of its first
    pass, which every later pass must repeat, and the time of its fastest."""
    from checks import classify
    from workloads import block_rng

    outcomes = []
    for index in range(blocks):
        block = block0 if index == 0 else wl.make_block(block_rng(wl.name, seed, index), small)
        first, signatures = [], []
        for case in block:
            seconds, result = _timed_call(case)
            first.append(classify(case, seconds, result))
            signatures.append(_signature(result))
        for k in range(1, PASSES):
            for case, out, signature in zip(block, first, signatures):
                seconds, result = _timed_call(case)
                out.seconds = min(out.seconds, seconds)
                if _signature(result) != signature and out.gate is None:
                    out.gate = (f"{out.label}: pass {k + 1} ended "
                                f"{_signature(result)}, pass 1 {signature}")
        outcomes += first
    return outcomes


def _summary(outcomes) -> dict:
    hard = [dict(out.detail, ms=out.seconds * 1e3) for out in outcomes
            if out.kind == "hard_case"]
    reasons = {}
    for out in outcomes:
        if out.failure is not None:
            reasons[out.failure] = reasons.get(out.failure, 0) + 1
    by_label = {}
    for out in outcomes:
        by_label.setdefault(out.label, []).append(out.seconds * 1e3)
    strata = {label: {"count": len(ms), "median_ms": statistics.median(ms), "max_ms": max(ms)}
              for label, ms in sorted(by_label.items())}
    return {"histogram": _histogram(outcomes),
            "strata": strata,
            "hard_cases": hard,
            "failures": [{"reason": r, "count": c} for r, c in sorted(reasons.items())]}


def exact_counts(block_outcomes) -> dict:
    """Counts of one block, exact for a seed."""
    return {
        "cases": len(block_outcomes),
        "pairs": sum(out.pairs for out in block_outcomes),
        "certified": sum(out.kind == "certified" for out in block_outcomes),
        "failed": sum(out.kind == "failed" for out in block_outcomes),
    }


def _recorded(workload: str, seed: int, blocks: int):
    """Counts recorded for the seed's first ``blocks`` blocks, summed, or
    None when they are not all recorded."""
    from workloads import input_set

    recorded = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    per_block = recorded.get(workload, {}).get(str(input_set(seed)))
    if per_block is None or len(per_block) < blocks:
        return None
    return {key: sum(block[key] for block in per_block[:blocks]) for key in per_block[0]}


def _count_gates(wl, seed, counts, recorded) -> list:
    """The run's exact counts against the ones recorded for its seed: the
    same pairs on enumerate-small, where every pair is a root the
    enumeration must find, and elsewhere no fewer pairs, no fewer
    certified and no more failed cases."""
    if recorded is None:
        return [f"no counts recorded in {EXPECTED.name} for {wl.name} seed {seed}"]
    gates = []
    if counts["cases"] != recorded["cases"]:
        gates.append(f"{counts['cases']} cases, {recorded['cases']} recorded")
    if counts["pairs"] < recorded["pairs"] or (wl.exact_pairs
                                               and counts["pairs"] != recorded["pairs"]):
        gates.append(f"pairs_found {counts['pairs']}, {recorded['pairs']} recorded")
    if counts["certified"] < recorded["certified"]:
        gates.append(f"{counts['certified']} certified, {recorded['certified']} recorded")
    if counts["failed"] > recorded["failed"]:
        gates.append(f"{counts['failed']} failed, {recorded['failed']} recorded")
    return [f"{wl.name} seed {seed}: {gate}" for gate in gates]


def _layer_metrics(tracer, outcomes, traced_s, plain_s) -> dict:
    ms = 1e3
    metrics = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "calls":
            metrics[name] = tracer.stat(span)[0]
        elif field == "self_ms":
            metrics[name] = tracer.stat(span)[1] * ms
    linalg_self = sum(tracer.stat(f"linalg.{fn}")[1] for fn in ("eigh", "eigvalsh", "solve"))
    assembles = tracer.stat("dual.assemble")[0]
    pairs = sum(out.pairs for out in outcomes)
    metrics.update({
        "linalg.share": linalg_self / traced_s if traced_s > 0 else 0.0,
        "linalg.flops_computed": tracer.flops,
        "dual.us_per_eval": (tracer.layer_entry_seconds("dual") * 1e6 / assembles
                             if assembles else 0.0),
        "solver.newton_iterations": sum(out.iterations for out in outcomes
                                        if out.call in ("enumerate", "certify")),
        "solver.evals_per_pair": assembles / pairs if pairs else 0.0,
        "solver.hard_case_ms": sum(out.seconds for out in outcomes
                                   if out.kind == "hard_case") * ms,
        "trace.overhead_ms": (traced_s - plain_s) * ms,
    })
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """Run one benchmark invocation; returns (result line, full report)."""
    from checks import classify, reproduce_gate
    from tracer import Tracer

    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    setup_s, block0 = setup(workload, seed, small)
    gates = []
    report = {"environment": environment(workload, seed), "seconds": seconds,
              "trace": int(trace), "block_size": len(block0)}

    if not trace:
        blocks = _blocks(wl, seconds)
        outcomes = _closed_loop(wl, seed, blocks, block0, small)
        exact_blocks = wl.exact_blocks
        first = outcomes[:exact_blocks * len(block0)]
        lat = [out.seconds * 1e3 for out in outcomes]
        tail, pct, samples = _tail(lat)
        counts = exact_counts(first)
        metrics = {
            "instances_per_s": len(lat) / (sum(lat) / 1e3),
            "latency_ms_p50": statistics.median(lat),
            "latency_ms_tail": tail,
            "certified_share": counts["certified"] / counts["cases"],
            "pairs_found": counts["pairs"],
            "ok_share": 1.0 - counts["failed"] / counts["cases"],
            "setup_s": setup_s,
        }
        units = END_TO_END
        report.update(blocks=blocks, passes=PASSES, latency_tail_percentile=pct,
                      latency_samples=samples,
                      failed_share_all=sum(o.kind == "failed" for o in outcomes) / len(outcomes),
                      exact_block_outcomes=_summary(first), all=_summary(outcomes))
    else:
        plain = _solve(block0)
        tracer = Tracer()
        with tracer.installed():
            traced = _solve(block0, tracer)
        plain_out = [classify(c, dt, r) for c, dt, r in plain]
        outcomes = [classify(c, dt, r) for c, dt, r in traced]
        for a, b in zip(plain_out, outcomes):
            if (a.kind, a.pairs) != (b.kind, b.pairs):
                gates.append(f"{b.label}: traced pass ended {b.kind}/{b.pairs} pairs, "
                             f"plain pass {a.kind}/{a.pairs}")
        plain_s = sum(dt for _, dt, _ in plain)
        traced_s = sum(dt for _, dt, _ in traced)
        metrics = _layer_metrics(tracer, outcomes, traced_s, plain_s)
        units = PER_LAYER
        counts = exact_counts(outcomes)
        exact_blocks = 1
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload}-{seed}.npz"
        tracer.write(spans)
        report.update(plain_s=plain_s, traced_s=traced_s, spans=tracer.span_count,
                      span_calls=dict(zip(tracer.names, tracer.calls)),
                      spans_file=str(spans.relative_to(ROOT)),
                      exact_block_outcomes=_summary(outcomes))
        outcomes = plain_out + outcomes

    if wl.in_benchmark and not small:
        # small runs draw other instances than the recorded blocks
        recorded = _recorded(workload, seed, exact_blocks)
        gates += _count_gates(wl, seed, counts, recorded)
        report.update(recorded=recorded)
    gates += [out.gate for out in outcomes if out.gate is not None]
    gates += reproduce_gate()
    report.update(exact_blocks=exact_blocks, exact_counts=counts,
                  failed_share=counts["failed"] / counts["cases"], gate_failures=gates)

    result = {
        "correct": not gates,
        "attempted": len(outcomes),
        "failed": sum(out.kind == "failed" for out in outcomes),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (SRC / "canodual" / "__init__.py", ROOT / "tests" / "conftest.py"):
        if not needed.is_file():
            print(f"perfbench: {needed} not found; run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))

    import warnings
    # solvers warn on every m > 2 instance; the warning is expected here
    warnings.filterwarnings("ignore", message="m = .* measure components",
                            category=RuntimeWarning)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "report": report}, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
