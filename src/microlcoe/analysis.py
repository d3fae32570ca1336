"""Study orchestration: uncertainty studies, descriptive statistics,
sensitivity sweeps, technology ranking, and the CSV/manifest outputs.

Scenario optimizations are embarrassingly parallel; every scenario draws its
generators from ``(seed, scenario_id)``, so the worker count changes wall
time only, never a byte of output.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .costs import (
    CostInputs,
    DEFAULT_COSTS,
    DEFAULT_FINANCE,
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
    MODE_GROUPS,
    UncertainParameter,
    default_uncertain_parameters,
    generate_study,
)

STUDY_VARIABLES = ("lcoe", "p_elec", "x_p", "x_t", "t_refuel", "db")
SWEEP_PARAMETERS = ("efficiency", "discount_rate", "inflation")

__all__ = [
    "STUDY_VARIABLES",
    "SWEEP_PARAMETERS",
    "Stats",
    "StudyReport",
    "BenchmarkTable",
    "SweepRow",
    "StudyError",
    "summarize_stats",
    "run_uncertainty_study",
    "sensitivity_sweep",
    "technology_comparison",
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


def run_uncertainty_study(
    mode: str,
    n: int = 100,
    seed: SeedLike = 0,
    *,
    params: Optional[Sequence[UncertainParameter]] = None,
    base_costs: CostInputs = DEFAULT_COSTS,
    fin: FinancialParams = DEFAULT_FINANCE,
    ga_config: Optional[GaConfig] = None,
    penalty_weight: float = DEFAULT_PENALTY_WEIGHT,
    threads: int = 1,
) -> StudyReport:
    """Sample ``n`` scenarios for ``mode`` and optimize each one.

    Results are assembled in scenario-id order and are a pure function of the
    arguments; ``threads`` only fans the optimizations out over processes.
    """
    if mode not in MODE_GROUPS:
        raise ValueError(f"mode must be one of {tuple(MODE_GROUPS)}")
    if params is None:
        params = default_uncertain_parameters(base_costs)
    ga_config = ga_config if ga_config is not None else GaConfig()
    scenarios = generate_study(params, mode, n=n, seed=seed, base=base_costs)
    tasks = [(s, fin, ga_config, penalty_weight, seed) for s in scenarios]

    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_scenario_task, tasks))
    else:
        results = [_scenario_task(t) for t in tasks]

    pairs = tuple(zip(scenarios, results))
    columns = {
        "lcoe": [r.lcoe for r in results],
        "p_elec": [r.best_design.p_elec for r in results],
        "x_p": [r.best_design.x_p for r in results],
        "x_t": [r.best_design.x_t for r in results],
        "t_refuel": [r.best_design.t_refuel for r in results],
        "db": [r.best_design.db for r in results],
    }
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


def sensitivity_sweep(
    parameter: str,
    values: Sequence[float],
    *,
    costs: CostInputs = DEFAULT_COSTS,
    fin: FinancialParams = DEFAULT_FINANCE,
    ga_config: Optional[GaConfig] = None,
    penalty_weight: float = DEFAULT_PENALTY_WEIGHT,
    seed: SeedLike = 0,
    reoptimize: bool = True,
    design: Optional[ReactorDesign] = None,
) -> list[SweepRow]:
    """Levelized cost as one financial assumption is swept.

    ``reoptimize`` re-runs the design search at every value (the slower,
    self-consistent choice); with it off, ``design`` is held fixed and only
    re-costed, which isolates the direct effect of the parameter.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(f"parameter must be one of {SWEEP_PARAMETERS}")
    if not reoptimize and design is None:
        raise ValueError("a fixed design is required when reoptimize is off")
    rows = []
    for index, value in enumerate(values):
        if parameter == "efficiency":
            fin_i = replace(fin, eta=float(value))
        elif parameter == "discount_rate":
            fin_i = replace(fin, r=float(value))
        else:
            fin_i = replace(fin, infl=float(value), inflation_mode="escalated")
        if reoptimize:
            result = optimize_design(
                costs,
                fin_i,
                ga_config=ga_config,
                penalty_weight=penalty_weight,
                seed=seed_path(seed, STREAM_SWEEP, index),
            )
            rows.append(
                SweepRow(parameter, float(value), result.best_design, result.breakdown, True)
            )
        else:
            rows.append(
                SweepRow(parameter, float(value), design, lcoe_breakdown(design, costs, fin_i), False)
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


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _open_csv(path):
    return open(path, "w", newline="", encoding="utf-8")


def write_study_csv(report: StudyReport, path, param_names: Sequence[str]) -> None:
    """One row per scenario: sampled inputs, grid audit trail, optimal design
    and its cost breakdown."""
    cost_fields = list(CostInputs.__dataclass_fields__)
    design_fields = ["p_elec", "x_p", "x_t", "t_refuel", "db"]
    header = (
        ["id"]
        + [f"idx_{name}" for name in param_names]
        + cost_fields
        + design_fields
        + [
            "capital", "om", "fuel", "spent", "decommissioning", "ptc_credit",
            "lcoe", "lcoe_before_credit", "annual_energy",
            "burnup_residual", "penalty_value", "penalized_objective",
            "ptc_reduction", "evaluations",
        ]
    )
    with _open_csv(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for scenario, result in report.scenarios:
            bd = result.breakdown
            row = [str(scenario.id)]
            row += [
                str(scenario.grid_indices[name]) if name in scenario.grid_indices else ""
                for name in param_names
            ]
            row += [_fmt(getattr(scenario.costs, f)) for f in cost_fields]
            row += [_fmt(getattr(result.best_design, f)) for f in design_fields]
            row += [
                _fmt(bd.capital), _fmt(bd.om), _fmt(bd.fuel), _fmt(bd.spent),
                _fmt(bd.decommissioning), _fmt(bd.ptc_credit),
                _fmt(bd.total), _fmt(bd.total_before_credit), _fmt(bd.annual_energy),
                _fmt(result.burnup_residual), _fmt(result.penalty_value),
                _fmt(result.objective), _fmt(ptc_reduction(bd)), str(result.evaluations),
            ]
            writer.writerow(row)


def write_study_stats_csv(report: StudyReport, path) -> None:
    """Summary table: one row per study variable, max/min/sd/quartiles."""
    with _open_csv(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["variable", "max", "min", "sd", "q1", "median", "q3"])
        for name in STUDY_VARIABLES:
            s = report.stats[name]
            writer.writerow(
                [name, _fmt(s.max), _fmt(s.min), _fmt(s.sd), _fmt(s.q1), _fmt(s.median), _fmt(s.q3)]
            )


def write_sensitivity_csv(rows: Sequence[SweepRow], path) -> None:
    with _open_csv(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "parameter", "value", "reoptimized",
                "p_elec", "x_p", "x_t", "t_refuel", "db",
                "capital", "om", "fuel", "spent", "decommissioning",
                "ptc_credit", "lcoe", "annual_energy",
            ]
        )
        for row in rows:
            d, bd = row.design, row.breakdown
            writer.writerow(
                [
                    row.parameter, _fmt(row.value), str(int(row.reoptimized)),
                    _fmt(d.p_elec), _fmt(d.x_p), _fmt(d.x_t), _fmt(d.t_refuel), _fmt(d.db),
                    _fmt(bd.capital), _fmt(bd.om), _fmt(bd.fuel), _fmt(bd.spent),
                    _fmt(bd.decommissioning), _fmt(bd.ptc_credit), _fmt(bd.total),
                    _fmt(bd.annual_energy),
                ]
            )


def write_comparison_csv(rows: Sequence[tuple], path) -> None:
    with _open_csv(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["rank", "technology", "lcoe", "delta_vs_microreactor"])
        for rank, (name, value, delta) in enumerate(rows, start=1):
            writer.writerow([str(rank), name, _fmt(value), _fmt(delta)])


def write_manifest(path, manifest: dict) -> None:
    """Reproduction record (seed, resolved config, versions) as stable JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
