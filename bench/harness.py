"""Closed loop, checks, metrics and report of one benchmark run.

``run_benchmark`` builds a workload, runs one untimed warm-up op, then runs
ops back to back for the requested seconds, checks every op's output, and
returns the result the last stdout line carries. With ``trace`` off it
reports the end-to-end metrics; with ``trace`` on, ops alternate between
untraced and traced, and it reports the per-layer metrics of the traced ops
plus the tracing overhead. A traced run then runs one traced probe op of
each other workload at ``PROBE_SIZES``, which gives the layers the
workload's own ops do not reach; probe ops are not timed, counted or
checked.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from microlcoe.optimize import GaConfig, SaConfig
from tracer import Tracer
from layers import PER_LAYER_UNITS, PROBE_OP, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
RUN_SCRIPT = Path(__file__).resolve().parent / "run.py"
SETUP_REPEATS = 5  # fresh processes timed per run for setup_s
TAIL_BEYOND = 10  # ops that must lie beyond the tail percentile
TAIL_FLOOR = 0.9  # lowest percentile, as a fraction, that op_s.tail reports
BYTES_PER_DESIGN = 6 * 8  # five float64 inputs and one float64 objective per row
# Sizes of the probe ops: stock except for fewer GA restarts, SA steps
# (1,001 calls), scenarios and cost sets, so that all three take ~2 s.
PROBE_SIZES = {
    "optimize_ga": {"ga": GaConfig(restarts=2)},
    "sa_chain": {"sa": SaConfig(steps=20)},
    "study_cli": {"n": 2, "ga": GaConfig(restarts=2)},
    "grid_scan": {"scenarios": 1},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "designs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "objective_mean": "USD/MWh",
}


@dataclass
class OpRecord:
    k: int
    key: object
    seconds: float
    traced: bool
    outcome: workloads.Outcome | None = None
    error: str | None = None


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    report: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def result_line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }


def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    """Interpreter, library, CPU and checkout facts printed with every run."""
    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        level = _read(base / "level")
        if level in ("2", "3"):
            caches[f"l{level}"] = _read(base / "size")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "start_method": multiprocessing.get_start_method(),
        "git_commit": commit,
    }


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND ops beyond it, but never
    below TAIL_FLOOR.

    Returns ``(value, percentile, ops beyond)``. Runs of about 100 ops or
    fewer have too few ops for TAIL_BEYOND beyond a p90, and there the op at
    TAIL_FLOOR, ranked upwards, is returned: the slowest op in runs of up to
    10 ops. So the metric moves with slow outliers on every workload.
    """
    ordered = sorted(times)
    last = len(ordered) - 1
    index = max(last - TAIL_BEYOND, math.ceil(TAIL_FLOOR * last), 0)
    percentile = 100.0 * index / last if last else 100.0
    return ordered[index], percentile, last - index


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure_setup(name: str, seed: int, repeats: int) -> list[float]:
    """Wall time from process launch to first op ready, in fresh processes."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(RUN_SCRIPT), "--setup-only", "--workload", name,
             "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline().strip()
        elapsed = perf_counter() - start
        _, err = proc.communicate(timeout=120)
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup process failed ({proc.returncode}): {err.strip()}")
        times.append(elapsed)
    return times


def build(name: str, seed: int, work_dir, sizes: dict | None = None, tracer=None):
    """Load the config and build the workload's inputs (the set-up phase)."""
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    factory = workloads.WORKLOADS[name]
    if tracer is not None:
        return tracer.run_op(-1, lambda: factory(seed, work_dir, **(sizes or {})))
    return factory(seed, work_dir, **(sizes or {}))


def _run_one(workload, k: int, tracer, op: int | None = None) -> OpRecord:
    """Op ``k`` of ``workload``, traced as op id ``op`` (default ``k``) if
    ``tracer`` is given."""
    traced = tracer is not None
    if traced:
        tracer.install()
    start = perf_counter()
    try:
        raw = (tracer.run_op(k if op is None else op, lambda: workload.run(k)) if traced
               else workload.run(k))
        error = None
    except Exception as exc:  # a failing op is counted, not fatal
        raw, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    if traced:
        tracer.uninstall()
        tracer.collect_workers()
    record = OpRecord(k, workload.key(k), elapsed, traced, error=error)
    if error is None:
        try:
            record.outcome = workload.record(k, raw)
        except Exception as exc:
            record.error = f"record: {type(exc).__name__}: {exc}"
    return record


def run_loop(workload, seconds: float, tracer=None) -> list[OpRecord]:
    """One untimed warm-up op, then ops back to back until ``seconds`` pass.
    With a tracer, odd ops are traced and even ops are not, and the loop
    runs at least one of each."""
    _run_one(workload, 0, None)
    records = []
    start = perf_counter()
    k = 0
    while True:
        records.append(_run_one(workload, k, tracer if k % 2 else None))
        k += 1
        if perf_counter() - start >= seconds and (tracer is None or k >= 2):
            return records


def run_probes(name: str, seed: int, work_dir, tracer, sizes: dict) -> list[OpRecord]:
    """One traced op of each workload but ``name``, at ``sizes``, as op ids
    PROBE_OP, PROBE_OP - 1, ..."""
    others = [other for other in workloads.WORKLOADS if other != name]
    return [_run_one(build(other, seed, Path(work_dir) / f"probe-{other}", sizes[other]),
                     0, tracer, op=PROBE_OP - i)
            for i, other in enumerate(others)]


def check_all(workload, records: list[OpRecord]) -> list[str]:
    """Check every op and that ops with one input share one digest.
    Marks failed records and returns their messages."""
    failures = []
    first_digest = {}
    for record in records:
        if record.error is None:
            try:
                workload.check(record.key, record.outcome.payload)
                digest = first_digest.setdefault(record.key, record.outcome.digest)
                if record.outcome.digest != digest:
                    raise workloads.CheckFailed("result bytes differ from an earlier op "
                                                "with the same input")
            except Exception as exc:
                record.error = f"check: {type(exc).__name__}: {exc}"
        if record.error is not None:
            failures.append(f"op {record.k}: {record.error}")
    return failures


def _end_to_end(records, setup_times, rss) -> dict:
    # Failed ops keep their time; only completed ops count rows and objectives.
    times = [r.seconds for r in records]
    ok = [r for r in records if r.error is None]
    objectives = {}
    for r in ok:
        objectives.setdefault(r.key, r.outcome.objective)
    return {
        "setup_s": statistics.median(setup_times),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail(times)[0],
        "designs_per_s": sum(r.outcome.rows for r in ok) / sum(times),
        "peak_rss_mb": rss,
        "objective_mean": float(np.mean(list(objectives.values()))) if objectives else 0.0,
    }


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, work_dir,
                  sizes: dict | None = None, setup_repeats: int = SETUP_REPEATS,
                  probe_sizes: dict = PROBE_SIZES) -> RunResult:
    """One benchmark run of workload ``name``; see the module docstring."""
    work_dir = Path(work_dir)
    shutil.rmtree(work_dir, ignore_errors=True)
    tracer = Tracer(work_dir) if trace else None
    if tracer is not None:
        tracer.install()
        try:
            workload = build(name, seed, work_dir, sizes, tracer)
        finally:
            tracer.uninstall()
    else:
        workload = build(name, seed, work_dir, sizes)
    records = run_loop(workload, seconds, tracer)
    rss = peak_rss_mb()
    failures = check_all(workload, records)
    failed = sum(r.error is not None for r in records)

    digests = {}
    for r in records:
        if r.error is None:
            digests.setdefault(str(r.key), r.outcome.digest)
    untraced = [r.seconds for r in records if not r.traced]
    _, percentile, beyond = tail(untraced)
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "ops": len(records),
        "untraced_ops": len(untraced),
        "failed_ratio": failed / len(records),
        "op_seconds": [round(r.seconds, 6) for r in records],
        "tail_percentile": round(percentile, 2),
        "tail_ops_beyond": beyond,
        "digests": digests,
        "env": environment(),
    }
    if name == "grid_scan":
        report["computed_bytes_per_design"] = {
            "value": BYTES_PER_DESIGN,
            "basis": "computed, not measured: 5 float64 design inputs read + 1 float64 "
                     "objective written per row; lcoe_terms temporaries not counted",
        }
        report["computed_chunk_working_set_bytes"] = len(workload.chunks[0]) * BYTES_PER_DESIGN

    if trace:
        probes = run_probes(name, seed, work_dir, tracer, probe_sizes)
        metrics, probed, unmeasured = layer_metrics(tracer.spans, records, probes)
        report["probed"] = probed
        report["unmeasured"] = unmeasured
        report["probe_errors"] = [r.error for r in probes if r.error is not None]
        tracer.write(work_dir / f"trace-{name}.jsonl.gz")
        units = PER_LAYER_UNITS
    else:
        setup_times = measure_setup(name, seed, setup_repeats)
        report["setup_s_samples"] = setup_times
        metrics = _end_to_end(records, setup_times, rss)
        units = END_TO_END_UNITS
    return RunResult(
        correct=failed == 0,
        attempted=len(records),
        failed=failed,
        metrics={n: (metrics[n], unit) for n, unit in units.items()},
        report=report,
        failures=failures,
    )
