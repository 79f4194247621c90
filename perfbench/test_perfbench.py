"""Self-test of the benchmark. Run from the repository root:

    python -m pytest -q perfbench

Runs every workload at a small size with tracing off and on, and checks
that every metric is reported, that every traced wrapper is hit, that
every input set has its exact counts recorded and that the count gate
rejects lost pairs and certifications.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import traced_targets  # noqa: E402


@pytest.fixture(scope="module")
def small_runs():
    results = {}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            results[name, trace] = run.run(name, seed=3, seconds=0.01, trace=trace, small=True)
    return results


def test_every_metric_is_reported(small_runs):
    for (name, trace), (result, report) in small_runs.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], (name, report["gate_failures"])
        assert result["attempted"] >= 1
        expected = run.PER_LAYER if trace else run.END_TO_END
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected, name
        for metric in result["metrics"].values():
            assert np.isfinite(metric["value"])
        json.dumps(result, allow_nan=False)


def test_every_traced_wrapper_is_hit(small_runs):
    hit = set()
    for (_, trace), (_, report) in small_runs.items():
        if trace:
            hit |= {name for name, calls in report["span_calls"].items() if calls > 0}
    wrapped = {name for _, _, name, _ in traced_targets()}
    assert wrapped - hit == set()


def test_report_records_environment_and_outcomes(small_runs):
    result, report = small_runs["enumerate-small", False]
    env = report["environment"]
    for key in ("nproc", "cpu_model", "numpy", "blas", "blas_threads", "python", "seed"):
        assert key in env
    assert sum(report["all"]["histogram"].values()) == result["attempted"]
    assert report["latency_samples"] == result["attempted"]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    listed = {w["name"] for w in spec["workloads"]}
    assert listed == {w.name for w in workloads.WORKLOADS.values() if w.in_benchmark}


def test_missing_sources_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", HERE / "no-such-directory")
    assert run.main(["--workload", "enumerate-small", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_every_input_set_is_recorded():
    recorded = json.loads(run.EXPECTED.read_text())
    for wl in workloads.WORKLOADS.values():
        if not wl.in_benchmark:
            continue
        seeds = recorded.get(wl.name, {})
        assert sorted(map(int, seeds)) == list(range(workloads.RECORDED_SEEDS)), wl.name
        for blocks in seeds.values():
            assert len(blocks) == wl.exact_blocks
            assert {"cases", "pairs", "certified", "failed"} <= set(blocks[0])


def test_count_gate_catches_lost_pairs_and_certifications():
    wl = workloads.WORKLOADS["enumerate-small"]
    recorded = {"cases": 10, "pairs": 12, "certified": 4, "failed": 0}
    assert run._count_gates(wl, 1, dict(recorded), recorded) == []
    assert run._count_gates(wl, 1, dict(recorded, pairs=13), recorded)
    assert run._count_gates(wl, 1, dict(recorded, pairs=11), recorded)
    assert run._count_gates(wl, 1, dict(recorded, certified=3), recorded)
    assert run._count_gates(wl, 1, dict(recorded, failed=1), recorded)
    assert run._count_gates(wl, 1, recorded, None)
    fast = workloads.WORKLOADS["fastpath-spectral"]
    assert run._count_gates(fast, 1, dict(recorded, pairs=13, certified=5), recorded) == []
