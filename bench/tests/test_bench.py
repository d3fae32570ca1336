"""The benchmark's own tests: tiny runs of every workload, planted faults,
searches that stop short, and the tracer's restore guarantee.

Run from the checkout root with ``python -m pytest bench/tests``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
from microlcoe import optimize  # noqa: E402
from microlcoe.optimize import GaConfig, SaConfig  # noqa: E402

TINY = {
    "optimize_ga": {
        "ga": GaConfig(population=30, generations=40, restarts=2, elite_count=3),
        "lattice_axes": (3, 3, 3, 3, 3),
    },
    "sa_chain": {
        "sa": SaConfig(steps=100, moves_per_step=10, cooling_rate=0.9),
        "lattice_axes": (2, 2, 2, 2, 2),
    },
    "study_cli": {
        "n": 3,
        "ga": GaConfig(population=30, generations=40, restarts=2, elite_count=3),
        "lattice_axes": (2, 2, 2, 2, 2),
    },
    "grid_scan": {"axes": (3, 3, 3, 3, 3), "chunks": 2, "scenarios": 1},
}
# Metrics of call sizes that tiny runs and probes never make.
STOCK_SIZE_ONLY = {
    "optimize.objective_us.rows100", "costs.lcoe_terms_us.rows100",
    "costs.lcoe_terms_us.rows125k", "costs.ns_per_design.rows125k",
}


def tiny_run(name, work_dir, trace=False, seed=3):
    return harness.run_benchmark(name, seed, 0.05, trace, work_dir, sizes=TINY[name],
                                 setup_repeats=1, probe_sizes=TINY)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(TINY)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_is_correct_and_complete(name, trace, tmp_path):
    result = tiny_run(name, tmp_path, trace)
    assert result.failures == []
    assert result.correct and result.failed == 0 and result.attempted >= 1
    expected = layers.PER_LAYER_UNITS if trace else harness.END_TO_END_UNITS
    assert list(result.metrics) == list(expected)
    unmeasured = set(result.report.get("unmeasured", ()))
    assert unmeasured <= STOCK_SIZE_ONLY
    for metric, (value, _) in result.metrics.items():
        assert value == layers.UNMEASURED if metric in unmeasured else math.isfinite(value), metric
    line = json.loads(json.dumps(result.result_line(), allow_nan=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    if trace:
        assert result.report["probe_errors"] == []
        assert result.metrics["bench.op_s.p50_traced"][0] > 0.0
        if name == "study_cli":
            for metric in layers.POOL_METRICS:
                assert metric not in result.report["unmeasured"]
            assert 0.0 < result.metrics["analysis.worker_busy_max_ratio"][0] <= 1.0


def test_stock_traced_run_measures_every_layer(tmp_path):
    # grid_scan's own ops reach few layers; the probes at their stock
    # PROBE_SIZES must give every other per-layer metric.
    result = harness.run_benchmark("grid_scan", 3, 0.05, True, tmp_path, setup_repeats=1)
    assert result.correct and result.report["probe_errors"] == []
    assert result.report["unmeasured"] == []
    assert "optimize.objective_us.rows1" in result.report["probed"]
    assert all(value >= 0.0 for name, (value, _) in result.metrics.items()
               if name != "bench.tracing_overhead_s")


def test_same_seed_repeats_digests(tmp_path):
    first = tiny_run("sa_chain", tmp_path / "a").report["digests"]
    second = tiny_run("sa_chain", tmp_path / "b").report["digests"]
    assert first and first == second


@pytest.mark.parametrize("fault", [lambda v: v + 1e-3, lambda v: v * np.nan],
                         ids=["plus_1e-3", "nan"])
@pytest.mark.parametrize("name", ["sa_chain", "grid_scan"])
def test_planted_objective_fault_is_a_failed_op(name, fault, tmp_path, monkeypatch):
    factory = optimize.make_design_objective

    def faulty(*args, **kwargs):
        objective = factory(*args, **kwargs)
        return lambda x: fault(objective(x))

    monkeypatch.setattr(optimize, "make_design_objective", faulty)
    result = tiny_run(name, tmp_path)
    assert result.attempted >= 1
    assert result.failed == result.attempted
    assert not result.correct


@pytest.mark.parametrize("name, short", [
    ("sa_chain", {"sa": SaConfig(steps=5, moves_per_step=4)}),
    ("study_cli", {"ga": GaConfig(population=8, generations=3, restarts=1, elite_count=2)}),
])
def test_search_that_stops_short_of_the_lattice_minimum_is_a_failed_op(name, short, tmp_path):
    result = harness.run_benchmark(name, 3, 0.05, False, tmp_path, sizes={**TINY[name], **short},
                                   setup_repeats=1)
    assert result.failed >= 1
    assert any("above lattice minimum" in failure for failure in result.failures)


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    targets = [(module, attr) for module, attr, *_ in tracer.TARGETS]
    targets.append(tracer.OBJECTIVE_FACTORY)
    before = [getattr(module, attr) for module, attr in targets]
    for name in TINY:
        tiny_run(name, tmp_path / name, trace=True)
    after = [getattr(module, attr) for module, attr in targets]
    assert all(a is b for a, b in zip(after, before))


def test_without_package_source_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sa_chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
