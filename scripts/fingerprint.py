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
SHA-256 per workload; two trees print the same line for a workload exactly
when every one of those outputs is bitwise the same. The library is
imported from the ``src`` of the checkout the script lives in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import sys
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
    """SHA-256 of every output on the exact blocks of one input set."""
    from workloads import WORKLOADS, block_rng

    workload, seed = job
    wl = WORKLOADS[workload]
    h = hashlib.sha256()
    for index in range(wl.exact_blocks):
        for case, _, result in run._solve(wl.make_block(block_rng(workload, seed, index), False)):
            h.update(json.dumps([case.label, *_fields(result)]).encode())
    return workload, seed, h.hexdigest()


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
        digests = {(w, s): d for w, s, d in pool.imap_unordered(digest_for, jobs)}
    for name in names:
        h = hashlib.sha256()
        for seed in range(RECORDED_SEEDS):
            h.update(digests[name, seed].encode())
        print(f"{name} sets 0-{RECORDED_SEEDS - 1}: {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
