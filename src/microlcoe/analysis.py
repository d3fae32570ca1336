"""Study orchestration: uncertainty studies, descriptive statistics,
sensitivity sweeps, technology ranking, and the CSV/manifest outputs.

Scenario optimizations are embarrassingly parallel; every scenario draws its
generators from ``(seed, scenario_id)``, so the worker count changes wall
time only, never a byte of the CSVs (the manifest records it).
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .costs import (
    CostInputs,
    DEFAULT_COSTS,
    DEFAULT_FINANCE,
    DESIGN_FIELDS,
    FinancialParams,
    LcoeBreakdown,
    ReactorDesign,
    lcoe_breakdown,
)
from .optimize import (
    DEFAULT_PENALTY_WEIGHT,
    GaConfig,
    OptimizationResult,
    optimize_design,
)
from .rng import STREAM_OPTIMIZE, STREAM_SWEEP, SeedLike, seed_path
from .uncertainty import (
    UncertainParameter,
    default_uncertain_parameters,
    generate_study,
)

STUDY_VARIABLES = ("lcoe", *DESIGN_FIELDS)
# Each swept financial assumption -> the FinancialParams field it sets, and
# the fields it fixes (an inflation rate acts only under escalated discounting).
_SWEEP_FIELDS = {
    "efficiency": ("eta", {}),
    "discount_rate": ("r", {}),
    "inflation": ("infl", {"inflation_mode": "escalated"}),
}
SWEEP_PARAMETERS = tuple(_SWEEP_FIELDS)

__all__ = [
    "STUDY_VARIABLES",
    "SWEEP_PARAMETERS",
    "Stats",
    "StudyReport",
    "BenchmarkTable",
    "SweepRow",
    "StudyError",
    "summarize_stats",
    "pool_workers",
    "run_uncertainty_study",
    "swept_params",
    "sensitivity_sweep",
    "technology_comparison",
    "write_optimize_csv",
    "write_study_csv",
    "write_study_stats_csv",
    "write_sensitivity_csv",
    "write_comparison_csv",
    "write_manifest",
]


class StudyError(RuntimeError):
    """A scenario optimization failed; carries the offending scenario id."""

    def __init__(self, scenario_id: int, cause: BaseException):
        super().__init__(f"scenario {scenario_id} failed: {cause}")
        self.scenario_id = scenario_id
        self.cause = cause

    def __reduce__(self):
        # Rebuild from the constructor's arguments: the default pickling of
        # an exception passes only the message, so a StudyError raised in a
        # pool worker would not unpickle in the parent.
        return type(self), (self.scenario_id, self.cause)


@dataclass(frozen=True)
class Stats:
    """Descriptive statistics of one study variable."""

    max: float
    min: float
    sd: float
    q1: float
    median: float
    q3: float

    def __post_init__(self):
        ordered = (self.min, self.q1, self.median, self.q3, self.max)
        if any(a > b for a, b in zip(ordered, ordered[1:])):
            raise ValueError("quantiles must be ordered min <= q1 <= median <= q3 <= max")
        if self.sd < 0.0:
            raise ValueError("sd must be >= 0")


@dataclass(frozen=True)
class BenchmarkTable:
    """Reference technologies and their levelized costs, $/MWh (config data)."""

    entries: tuple  # of (name, lcoe) pairs

    def __post_init__(self):
        names = [name for name, _ in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("benchmark names must be unique")
        if any(value < 0.0 or not np.isfinite(value) for _, value in self.entries):
            raise ValueError("benchmark costs must be finite and >= 0")


@dataclass(frozen=True)
class StudyReport:
    """Per-scenario optima and their summary statistics for one study mode."""

    mode: str
    scenarios: tuple  # of (Scenario, OptimizationResult) pairs, id order
    stats: dict  # variable name -> Stats
    ptc_reduction_range: tuple  # (min, max) fraction across scenarios


@dataclass(frozen=True)
class SweepRow:
    """One point of a sensitivity sweep."""

    parameter: str
    value: float
    design: ReactorDesign
    breakdown: LcoeBreakdown
    reoptimized: bool


def summarize_stats(values) -> Stats:
    """Max/min, sample (n-1) standard deviation, and linearly interpolated
    quartiles of at least two finite values."""
    data = np.asarray(values, dtype=float)
    if data.size < 2:
        raise ValueError("need at least two values")
    if not np.all(np.isfinite(data)):
        raise ValueError("values must be finite")
    q1, median, q3 = np.quantile(data, [0.25, 0.5, 0.75])
    return Stats(
        max=float(data.max()),
        min=float(data.min()),
        sd=float(data.std(ddof=1)),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
    )


def ptc_reduction(breakdown: LcoeBreakdown) -> float:
    """Fractional cut the production credit takes off the pre-credit cost."""
    return float(breakdown.ptc_credit / breakdown.total_before_credit)


def _scenario_task(args) -> OptimizationResult:
    scenario, fin, ga_config, penalty_weight, seed = args
    try:
        return optimize_design(
            scenario.costs,
            fin,
            ga_config=ga_config,
            penalty_weight=penalty_weight,
            seed=seed_path(seed, STREAM_OPTIMIZE, scenario.id),
        )
    except Exception as exc:  # re-raised with the scenario id by the driver
        raise StudyError(scenario.id, exc) from exc


def pool_workers(threads: int, n: int) -> int:
    """Worker processes for ``n`` scenarios under a cap of ``threads``: never
    more than there are scenarios or CPUs, and at least one."""
    return max(1, min(threads, n, os.cpu_count() or 1))


def run_uncertainty_study(
    mode: str,
    n: int = 100,
    seed: SeedLike = 0,
    *,
    params: Optional[Sequence[UncertainParameter]] = None,
    base_costs: CostInputs = DEFAULT_COSTS,
    fin: FinancialParams = DEFAULT_FINANCE,
    ga_config: GaConfig = GaConfig(),
    penalty_weight: float = DEFAULT_PENALTY_WEIGHT,
    threads: int = 1,
) -> StudyReport:
    """Sample ``n`` scenarios for ``mode`` and optimize each one.

    Results are assembled in scenario-id order and are a pure function of the
    arguments; ``threads`` only fans the optimizations out over processes.
    Sampling rejects an unknown ``mode`` before any search.
    """
    if params is None:
        params = default_uncertain_parameters(base_costs)
    scenarios = generate_study(params, mode, n=n, seed=seed, base=base_costs)
    tasks = [(s, fin, ga_config, penalty_weight, seed) for s in scenarios]

    workers = pool_workers(threads, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scenario_task, tasks))
    else:
        results = [_scenario_task(t) for t in tasks]

    pairs = tuple(zip(scenarios, results))
    columns = {"lcoe": [r.lcoe for r in results]}
    columns.update((f, [getattr(r.best_design, f) for r in results]) for f in DESIGN_FIELDS)
    if n >= 2:
        stats = {name: summarize_stats(vals) for name, vals in columns.items()}
    else:
        stats = {}
    reductions = [ptc_reduction(r.breakdown) for r in results]
    return StudyReport(
        mode=mode,
        scenarios=pairs,
        stats=stats,
        ptc_reduction_range=(min(reductions), max(reductions)),
    )


def swept_params(
    parameter: str, values: Sequence[float], fin: FinancialParams
) -> list[FinancialParams]:
    """``fin`` with one financial assumption set to each of ``values``.

    Raises ``ValueError`` naming the first value ``FinancialParams`` rejects.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(f"parameter must be one of {SWEEP_PARAMETERS}")
    name, fixed = _SWEEP_FIELDS[parameter]
    resolved = []
    for value in values:
        try:
            resolved.append(replace(fin, **fixed, **{name: float(value)}))
        except ValueError as exc:
            raise ValueError(f"{parameter} value {value!r} rejected: {exc}") from exc
    return resolved


def sensitivity_sweep(
    parameter: str,
    values: Sequence[float],
    *,
    costs: CostInputs = DEFAULT_COSTS,
    fin: FinancialParams = DEFAULT_FINANCE,
    ga_config: GaConfig = GaConfig(),
    penalty_weight: float = DEFAULT_PENALTY_WEIGHT,
    seed: SeedLike = 0,
    design: Optional[ReactorDesign] = None,
) -> list[SweepRow]:
    """Levelized cost as one financial assumption is swept.

    Without a ``design`` the design search re-runs at every value (the
    slower, self-consistent choice); a given ``design`` is held fixed and only
    re-costed, which isolates the direct effect of the parameter. Every value
    is checked before the first search.
    """
    values = [float(v) for v in values]
    rows = []
    for index, (value, fin_i) in enumerate(zip(values, swept_params(parameter, values, fin))):
        if design is None:
            result = optimize_design(
                costs,
                fin_i,
                ga_config=ga_config,
                penalty_weight=penalty_weight,
                seed=seed_path(seed, STREAM_SWEEP, index),
            )
            rows.append(
                SweepRow(parameter, value, result.best_design, result.breakdown, True)
            )
        else:
            rows.append(
                SweepRow(parameter, value, design, lcoe_breakdown(design, costs, fin_i), False)
            )
    return rows


def technology_comparison(micro_lcoe: float, bench: BenchmarkTable) -> list[tuple]:
    """Rank the microreactor against the benchmark technologies.

    Returns (name, lcoe, delta) rows sorted by ascending cost, where delta is
    each benchmark's cost minus the microreactor's.
    """
    rows = [("microreactor", float(micro_lcoe), 0.0)]
    rows.extend((name, float(value), float(value) - float(micro_lcoe)) for name, value in bench.entries)
    rows.sort(key=lambda row: row[1])
    return rows


# ---------------------------------------------------------------------------
# Delimited output. Floats are written with repr (shortest round-trip), so
# files are byte-stable across reruns and locale-independent.
# ---------------------------------------------------------------------------


# The design and cost-term columns optimize.csv, study_<mode>.csv and
# sensitivity_<param>.csv share, in this order and under these names.
_COST_TERMS = ("capital", "om", "fuel", "spent", "decommissioning", "ptc_credit")
_RESULT_COLUMNS = DESIGN_FIELDS + _COST_TERMS


def _result_values(design: ReactorDesign, breakdown: LcoeBreakdown) -> list:
    return [getattr(design, f) for f in DESIGN_FIELDS] + [getattr(breakdown, t) for t in _COST_TERMS]


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([_fmt(value) for value in row] for row in rows)


def write_optimize_csv(rows: Sequence[tuple[str, OptimizationResult]], path) -> None:
    """One row per search method: the best design, its costs and every
    restart's best value."""
    header = (
        "method", "lcoe", "penalized_objective", "penalty_value", "burnup_residual",
        *_RESULT_COLUMNS, "annual_energy", "evaluations", "restart_bests",
    )
    _write_csv(path, header, [
        [
            method, res.lcoe, res.objective, res.penalty_value, res.burnup_residual,
            *_result_values(res.best_design, res.breakdown), res.breakdown.annual_energy,
            res.evaluations, ";".join(_fmt(b) for b in res.restart_bests),
        ]
        for method, res in rows
    ])


def write_study_csv(report: StudyReport, path, param_names: Sequence[str]) -> None:
    """One row per scenario: sampled inputs, grid audit trail, optimal design
    and its cost breakdown."""
    cost_fields = tuple(CostInputs.__dataclass_fields__)
    header = (
        "id", *(f"idx_{name}" for name in param_names), *cost_fields, *_RESULT_COLUMNS,
        "lcoe", "lcoe_before_credit", "annual_energy", "burnup_residual", "penalty_value",
        "penalized_objective", "ptc_reduction", "evaluations",
    )
    rows = []
    for scenario, result in report.scenarios:
        bd = result.breakdown
        rows.append([
            scenario.id, *(scenario.grid_indices.get(name, "") for name in param_names),
            *(getattr(scenario.costs, f) for f in cost_fields),
            *_result_values(result.best_design, bd), bd.total, bd.total_before_credit,
            bd.annual_energy, result.burnup_residual, result.penalty_value,
            result.objective, ptc_reduction(bd), result.evaluations,
        ])
    _write_csv(path, header, rows)


def write_study_stats_csv(report: StudyReport, path) -> None:
    """Summary table: one row per study variable, max/min/sd/quartiles."""
    header = ("variable", "max", "min", "sd", "q1", "median", "q3")
    _write_csv(path, header, [
        [name, *(getattr(report.stats[name], column) for column in header[1:])]
        for name in STUDY_VARIABLES
    ])


def write_sensitivity_csv(rows: Sequence[SweepRow], path) -> None:
    header = ("parameter", "value", "reoptimized", *_RESULT_COLUMNS, "lcoe", "annual_energy")
    _write_csv(path, header, [
        [
            row.parameter, row.value, row.reoptimized,
            *_result_values(row.design, row.breakdown),
            row.breakdown.total, row.breakdown.annual_energy,
        ]
        for row in rows
    ])


def write_comparison_csv(rows: Sequence[tuple], path) -> None:
    header = ("rank", "technology", "lcoe", "delta_vs_microreactor")
    _write_csv(path, header, [
        [rank, name, value, delta] for rank, (name, value, delta) in enumerate(rows, start=1)
    ])


def write_manifest(path, manifest: dict) -> None:
    """Reproduction record (seed, resolved config, versions) as stable JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
