"""Record the exact counts of every input set of the benchmark.

    python3 perfbench/record_counts.py --jobs 2

For each workload in BENCHMARK.json and each of its RECORDED_SEEDS input
sets, solves the blocks the exact counts are taken over and writes, per
block, the cases, the critical pairs reported, the cases certified and the
cases failed to ``perfbench/expected_counts.json``. The benchmark compares
every run with these counts, so a change that loses critical points or
certifications, or fails more cases, breaks the correctness gate.
Re-record only when the library's results are meant to change.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys

import run


def _init():
    run.pin_blas_threads()
    sys.path.insert(0, str(run.SRC))
    import warnings
    warnings.filterwarnings("ignore", message="m = .* measure components",
                            category=RuntimeWarning)


def counts_for(job):
    from checks import classify
    from workloads import WORKLOADS, block_rng

    workload, seed = job
    wl = WORKLOADS[workload]
    blocks = []
    for index in range(wl.exact_blocks):
        block = wl.make_block(block_rng(workload, seed, index), False)
        outcomes = [classify(case, dt, result) for case, dt, result in run._solve(block)]
        gates = [out.gate for out in outcomes if out.gate is not None]
        if gates:
            raise RuntimeError(f"{workload} seed {seed}: {gates[0]}")
        blocks.append(run.exact_counts(outcomes))
    return workload, seed, blocks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    _init()
    from workloads import RECORDED_SEEDS, WORKLOADS

    names = args.workload or [w.name for w in WORKLOADS.values() if w.in_benchmark]
    jobs = [(name, seed) for name in names for seed in range(RECORDED_SEEDS)]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(max(1, args.jobs), initializer=_init) as pool:
        results = []
        for done in pool.imap_unordered(counts_for, jobs):
            results.append(done)
            print(f"{len(results)}/{len(jobs)} {done[0]} seed {done[1]}", file=sys.stderr)

    recorded = json.loads(run.EXPECTED.read_text()) if run.EXPECTED.is_file() else {}
    for workload, seed, blocks in results:
        recorded.setdefault(workload, {})[str(seed)] = blocks
    for workload in recorded:
        recorded[workload] = dict(sorted(recorded[workload].items(), key=lambda kv: int(kv[0])))
    run.EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
