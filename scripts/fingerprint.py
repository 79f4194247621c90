#!/usr/bin/env python3
"""Fingerprint every output of the benchmark's library call, for a bitwise
check of one tree against another.

    python3 scripts/fingerprint.py --jobs 2

For each workload of BENCHMARK.json and each of its RECORDED_SEEDS input
sets (0-31), draws the blocks the benchmark takes its exact counts over
(through ``perfbench/workloads.py``), makes the benchmark's call on every
case and hashes all it returns: every field of every critical pair
(floats by their exact bits), the existence verdict, the iterations, the
residual norm and the notes, or the type of the raised error. Prints one
line per input set, with its digest, its exact counts (cases, pairs,
certified, failed) and the counts recorded for it in
``perfbench/expected_counts.json`` (read, never written), then one SHA-256
per workload over the set digests, then the workload's process time
(``time.process_time``) summed over the library calls of every set. Two
trees print the same workload line exactly when every one of those
outputs is bitwise the same, and the set lines show which input sets
changed bits; the process-time lines compare their speed on the same
cases, free of the waits that wall time counts on a shared machine. The
exit code is 1 when any set's counts differ from the recorded ones. The
library is imported from the ``src`` of the checkout the script lives in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
from record_counts import _init  # noqa: E402


def _fields(result):
    """The outputs of one call, as a sequence of exact strings."""
    if isinstance(result, BaseException):
        return ["error", type(result).__name__]
    out = [result.existence_verdict.name, repr(int(result.iterations)),
           float(result.residual_norm).hex(), *map(str, result.notes)]
    for pair in result.critical_pairs:
        out += [x.hex() for x in pair.x.tolist()]
        out += [z.hex() for z in pair.zeta.vector().tolist()]
        out += [float(v).hex() for v in (pair.primal_value, pair.dual_value,
                                         pair.gap, pair.residual)]
        out += [pair.region.name, pair.classification.name,
                pair.primal_label.name, pair.dual_label.name]
    return out


def digest_for(job):
    """SHA-256 of every output on the exact blocks of one input set, the
    benchmark's exact counts over those blocks, and the process seconds of
    their library calls."""
    from checks import classify
    from workloads import WORKLOADS, block_rng

    workload, seed = job
    wl = WORKLOADS[workload]
    h = hashlib.sha256()
    outcomes = []
    seconds = 0.0
    for index in range(wl.exact_blocks):
        block = wl.make_block(block_rng(workload, seed, index), False)
        t0 = time.process_time()
        solved = run._solve(block)
        seconds += time.process_time() - t0
        for case, dt, result in solved:
            h.update(json.dumps([case.label, *_fields(result)]).encode())
            outcomes.append(classify(case, dt, result))
    return workload, seed, h.hexdigest(), run.exact_counts(outcomes), seconds


def _counts(counts) -> str:
    if counts is None:
        return "none"
    return " ".join(f"{key} {counts[key]}" for key in ("cases", "pairs", "certified", "failed"))


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
        done = {(w, s): rest for w, s, *rest in pool.imap_unordered(digest_for, jobs)}
    differ = 0
    for name in names:
        h = hashlib.sha256()
        for seed in range(RECORDED_SEEDS):
            digest, counts, _ = done[name, seed]
            h.update(digest.encode())
            recorded = run._recorded(name, seed, WORKLOADS[name].exact_blocks)
            same = counts == recorded
            differ += not same
            print(f"{name} set {seed}: {digest} counts {_counts(counts)}; "
                  f"recorded {_counts(recorded)}; {'same' if same else 'DIFFERENT'}")
        print(f"{name} sets 0-{RECORDED_SEEDS - 1}: {h.hexdigest()}")
        seconds = sum(done[name, seed][2] for seed in range(RECORDED_SEEDS))
        print(f"{name} process time: {seconds:.2f} s")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
