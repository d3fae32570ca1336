"""Per-layer metrics computed from the spans of the traced ops.

A span is ``(id, parent, op, name, start, end, rows, info, pid)`` as
:mod:`tracer` records it. A layer's self time is its span's duration minus
the durations of its direct child spans. Every metric is reported on every
workload. A metric whose spans do not occur in the workload's own ops is
taken from the probe ops, which the harness numbers ``PROBE_OP`` and below:
one reduced-size op of each other workload. A metric that neither gives
reads ``UNMEASURED`` (-1, which no duration, count or ratio can be) and is
listed as unmeasured. So are the pool-layer metrics when pool workers are
not forked (they then start without the tracer's wrappers).
"""

from __future__ import annotations

import multiprocessing
import statistics
from collections import defaultdict

from workloads import STUDY_THREADS

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "optimize.objective_us.rows1": "us",
    "optimize.objective_self_us.rows1": "us",
    "fuelcycle.burnup_residual_us.rows1": "us",
    "costs.ptc_credit_calls_per_objective_call": "count",
    "costs.lcoe_terms_us.rows1": "us",
    "costs.lcoe_terms_us.rows100": "us",
    "costs.lcoe_terms_us.rows125k": "us",
    "costs.ns_per_design.rows125k": "ns",
    "optimize.restart_s.p50": "s",
    "optimize.objective_us.rows100": "us",
    "optimize.ga_self_share": "ratio",
    "optimize.generations_per_restart": "count",
    "optimize.stall_exit_ratio": "ratio",
    "optimize.objective_calls_per_op": "count",
    "optimize.sa_self_share": "ratio",
    "optimize.ga_span_coverage": "ratio",
    "analysis.study_s": "s",
    "analysis.scenario_s.p50": "s",
    "analysis.pool_busy_ratio": "ratio",
    "analysis.worker_busy_max_ratio": "ratio",
    "uncertainty.generate_s": "s",
    "analysis.write_s": "s",
    "analysis.bytes_written": "bytes",
    "config.load_s": "s",
    "cli.self_s": "s",
    "cli.span_coverage": "ratio",
    "rng.make_rng_calls_per_op": "count",
    "rng.make_rng_us": "us",
    "bench.op_s.p50_untraced": "s",
    "bench.op_s.p50_traced": "s",
    "bench.tracing_overhead_s": "s",
}

PROBE_OP = -2  # op id of the first probe op; op -1 is the set-up
UNMEASURED = -1.0

# Metrics fed by spans recorded in pool workers.
POOL_METRICS = (
    "analysis.scenario_s.p50",
    "analysis.pool_busy_ratio",
    "analysis.worker_busy_max_ratio",
)

LARGE_CALL_ROWS = 100_000  # the rows125k bucket: criterion 5's 125,664-row chunks
OBJECTIVE_CHILDREN = ("costs.lcoe_terms", "fuelcycle.burnup_residual",
                      "costs.effective_capacity_factor")
STUDY_CHILDREN = ("analysis.run_uncertainty_study", "config.load_config", "analysis.write")


def _dur(span) -> float:
    return span[5] - span[4]


def _median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def layer_metrics(spans, records, probe_records=()) -> tuple[dict, list, list]:
    """``(metrics, probed names, unmeasured names)`` for the traced ops of
    one run; ``probe_records`` are the probe ops' records."""
    values = _values([s for s in spans if s[2] >= 0 or s[3] == "config.load_config"], records)
    probed = [name for name, value in values.items() if value is None]
    if probed:
        from_probes = _values([s for s in spans if s[2] <= PROBE_OP], probe_records)
        for name in probed:
            values[name] = from_probes[name]
    unmeasured = [name for name, value in values.items() if value is None]
    if multiprocessing.get_start_method() != "fork":
        unmeasured += [name for name in POOL_METRICS if name not in unmeasured]
    probed = [name for name in probed if name not in unmeasured]
    metrics = {name: (UNMEASURED if name in unmeasured else float(values[name]))
               for name in PER_LAYER_UNITS}
    return metrics, probed, unmeasured


def _values(spans, records) -> dict:
    """Each metric's value over ``spans``, or None where they do not give it."""
    ops = [r for r in records if r.traced]
    n_ops = max(len(ops), 1)
    by_id = {span[0]: span for span in spans}
    children = defaultdict(list)
    by_name = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
        by_name[span[3]].append(span)

    def named(name, rows=None):
        # With ``rows``, only calls made by an objective call of that size
        # (or by the objective itself), in the rows1/rows100/rows125k buckets.
        found = by_name[name]
        if rows is None:
            return found
        if name != "optimize.objective":
            found = [s for s in found
                     if s[1] in by_id and by_id[s[1]][3] == "optimize.objective"]
        if rows == "large":
            return [s for s in found if s[6] >= LARGE_CALL_ROWS]
        return [s for s in found if s[6] == rows]

    def self_time(span, child_names):
        return _dur(span) - sum(_dur(c) for c in children[span[0]] if c[3] in child_names)

    def self_share(name):
        outer = named(name)
        total = sum(_dur(s) for s in outer)
        if not total:
            return None
        return sum(self_time(s, ("optimize.objective",)) for s in outer) / total

    def per_op(name, value):
        # value(spans of `name` in one op) for each traced op, median over ops
        grouped = defaultdict(list)
        for s in named(name):
            grouped[s[2]].append(s)
        return _median(value(group) for group in grouped.values())

    objectives = named("optimize.objective")
    ptc_in_objective = [
        s for s in named("costs.ptc_credit_per_mwh")
        if s[1] in by_id and by_id[s[1]][3] == "costs.lcoe_terms"
        and by_id[s[1]][1] in by_id and by_id[by_id[s[1]][1]][3] == "optimize.objective"
    ]
    restarts = named("optimize.ga_minimize")
    large = named("costs.lcoe_terms", "large")
    op_spans = named("op")
    main_pid = op_spans[0][8] if op_spans else None
    main_restarts = [s for s in restarts if s[8] == main_pid]
    ga_ops = {s[2] for s in main_restarts}
    study_by_op = {s[2]: _dur(s) for s in named("analysis.run_uncertainty_study")}

    def pool_ratios():
        busy = defaultdict(float)  # (op, pid) -> scenario seconds
        for s in named("analysis.scenario"):
            if s[2] in study_by_op:
                busy[s[2], s[8]] += _dur(s)
        per_op_busy = defaultdict(float)
        for (op, _), seconds in busy.items():
            per_op_busy[op] += seconds
        pool = _median(per_op_busy[op] / (STUDY_THREADS * wall)
                       for op, wall in study_by_op.items() if op in per_op_busy)
        worst = max((seconds / study_by_op[op] for (op, _), seconds in busy.items()),
                    default=None)
        return pool, worst

    pool_busy, worker_worst = pool_ratios()
    study_ops = [s for s in op_spans if s[2] in study_by_op]
    study_child_time = [sum(_dur(c) for c in children[s[0]] if c[3] in STUDY_CHILDREN)
                        for s in study_ops]
    untraced = _median(r.seconds for r in records if not r.traced)
    traced = _median(r.seconds for r in ops)
    bytes_written = _median(r.outcome.bytes_written for r in ops
                            if r.outcome is not None and r.outcome.bytes_written)

    us = 1e6
    return {
        "optimize.objective_us.rows1": _median(_dur(s) * us for s in named("optimize.objective", 1)),
        "optimize.objective_self_us.rows1": _median(
            self_time(s, OBJECTIVE_CHILDREN) * us for s in named("optimize.objective", 1)),
        "fuelcycle.burnup_residual_us.rows1": _median(
            _dur(s) * us for s in named("fuelcycle.burnup_residual", 1)),
        "costs.ptc_credit_calls_per_objective_call":
            len(ptc_in_objective) / len(objectives) if objectives else None,
        "costs.lcoe_terms_us.rows1": _median(_dur(s) * us for s in named("costs.lcoe_terms", 1)),
        "costs.lcoe_terms_us.rows100": _median(
            _dur(s) * us for s in named("costs.lcoe_terms", 100)),
        "costs.lcoe_terms_us.rows125k": _median(_dur(s) * us for s in large),
        "costs.ns_per_design.rows125k":
            sum(_dur(s) for s in large) / sum(s[6] for s in large) * 1e9 if large else None,
        "optimize.restart_s.p50": _median(_dur(s) for s in restarts),
        "optimize.objective_us.rows100": _median(
            _dur(s) * us for s in named("optimize.objective", 100)),
        "optimize.ga_self_share": self_share("optimize.ga_minimize"),
        "optimize.generations_per_restart":
            statistics.mean(s[7]["generations"] for s in restarts) if restarts else None,
        "optimize.stall_exit_ratio":
            statistics.mean(s[7]["stalled"] for s in restarts) if restarts else None,
        "optimize.objective_calls_per_op": len(objectives) / n_ops,
        "optimize.sa_self_share": self_share("optimize.sa_minimize"),
        "optimize.ga_span_coverage": (
            sum(_dur(s) for s in main_restarts)
            / sum(_dur(s) for s in op_spans if s[2] in ga_ops)
            if main_restarts else None),
        "analysis.study_s": _median(study_by_op.values()),
        "analysis.scenario_s.p50": _median(_dur(s) for s in named("analysis.scenario")),
        "analysis.pool_busy_ratio": pool_busy,
        "analysis.worker_busy_max_ratio": worker_worst,
        "uncertainty.generate_s": _median(_dur(s) for s in named("uncertainty.generate_study")),
        "analysis.write_s": per_op("analysis.write", lambda g: sum(_dur(s) for s in g)),
        "analysis.bytes_written": bytes_written,
        "config.load_s": _median(_dur(s) for s in named("config.load_config")),
        "cli.self_s": _median(_dur(s) - c for s, c in zip(study_ops, study_child_time)),
        "cli.span_coverage": (sum(study_child_time) / sum(_dur(s) for s in study_ops)
                              if study_ops else None),
        "rng.make_rng_calls_per_op": len(named("rng.make_rng")) / n_ops,
        "rng.make_rng_us": _median(_dur(s) * us for s in named("rng.make_rng")),
        "bench.op_s.p50_untraced": untraced,
        "bench.op_s.p50_traced": traced,
        "bench.tracing_overhead_s":
            traced - untraced if traced is not None and untraced is not None else None,
    }
