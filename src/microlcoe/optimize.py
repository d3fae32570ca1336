"""Bounded metaheuristic minimizers for the levelized-cost design search.

Two independent solvers are provided: a real-coded genetic algorithm (the
workhorse) and a simulated-annealing chain used to cross-check it. Both
work on raw (n, 5) design matrices in :data:`microlcoe.costs.DESIGN_FIELDS`
order and clamp every proposal to the design box, so the objective is never
asked to evaluate an out-of-bounds point.

Determinism: each run consumes a generator derived from ``(seed, path)``
via :mod:`microlcoe.rng` in a fixed serial order, so identical inputs give
bit-identical results no matter how scenarios or restarts are scheduled.
The GA restarts of one search advance in lockstep, one stacked objective
call per generation; each restart still draws from its own generator in
the same order and stops when it stalls, so the result is bit-identical
to running the restarts one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .costs import (
    CostInputs,
    DESIGN_FIELDS,
    FinancialParams,
    LcoeBreakdown,
    ReactorDesign,
    bounds_arrays,
    compile_lcoe,
    lcoe_breakdown,
)
from .rng import STREAM_RESTART, SeedLike, make_rng, seed_path

# Re-exported, unused here: bench/tracer.py wraps these names on this module.
from .costs import effective_capacity_factor, lcoe_terms  # noqa: F401
from .fuelcycle import burnup_residual  # noqa: F401

DEFAULT_PENALTY_WEIGHT = 0.05  # $/MWh per (MWd/kgU)^2
STALL_IMPROVEMENT = 1e-6  # objective gain that resets the stall counter

__all__ = [
    "DEFAULT_PENALTY_WEIGHT",
    "GaConfig",
    "SaConfig",
    "MinimizeResult",
    "OptimizationResult",
    "EvaluationError",
    "penalized_objective",
    "make_design_objective",
    "ga_minimize",
    "sa_minimize",
    "optimize_design",
]


class EvaluationError(RuntimeError):
    """The objective produced a non-finite value for some design."""

    def __init__(self, message: str, design=None):
        super().__init__(message)
        self.design = design


@dataclass(frozen=True)
class GaConfig:
    population: int = 100
    generations: int = 150
    crossover_rate: float = 0.8
    mutation_rate: float = 0.1
    mutation_scale: float = 0.1  # fraction of each bound range
    elite_count: int = 10
    stall_generations: int = 50
    restarts: int = 20

    def __post_init__(self):
        if self.population < 4:
            raise ValueError("population must be >= 4")
        for name in ("crossover_rate", "mutation_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not self.mutation_scale >= 0.0:
            raise ValueError("mutation_scale must be >= 0")
        if not 0 <= self.elite_count < self.population:
            raise ValueError("elite_count must be smaller than the population")
        if self.generations < 0 or self.stall_generations < 1:
            raise ValueError("generations must be >= 0 and stall_generations >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class SaConfig:
    initial_temp: float = 10.0  # objective units
    cooling_rate: float = 0.95  # per step
    steps: int = 200
    moves_per_step: int = 50
    step_scale: float = 0.1  # fraction of each bound range, at initial temperature
    restarts: int = 5

    def __post_init__(self):
        if not self.initial_temp > 0.0:
            raise ValueError("initial_temp must be positive")
        if not 0.0 < self.cooling_rate < 1.0:
            raise ValueError("cooling_rate must lie in (0, 1)")
        if self.steps < 0 or self.moves_per_step < 1:
            raise ValueError("steps must be >= 0 and moves_per_step >= 1")
        if not self.step_scale > 0.0:
            raise ValueError("step_scale must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class MinimizeResult:
    """Raw outcome of one or more solver runs on a vector objective."""

    x: np.ndarray  # best design vector
    fun: float  # best objective value
    evaluations: int
    history: list = field(default_factory=list)  # best-so-far per generation/step
    restart_bests: list = field(default_factory=list)


@dataclass(frozen=True)
class OptimizationResult:
    """Best design of a levelized-cost search with its full cost context."""

    best_design: ReactorDesign
    lcoe: float  # $/MWh, equals breakdown.total
    breakdown: LcoeBreakdown
    burnup_residual: float  # MWd/kgU at the best design
    penalty_value: float  # $/MWh-equivalent added by the residual penalty
    evaluations: int
    restart_bests: tuple

    @property
    def objective(self) -> float:
        return self.lcoe + self.penalty_value


def penalized_objective(
    design: ReactorDesign,
    costs: CostInputs,
    fin: FinancialParams,
    penalty_weight: float = DEFAULT_PENALTY_WEIGHT,
) -> float:
    """Levelized cost plus a quadratic charge on the burnup-consistency residual.

    The cascade mass balance is an identity of the mass-flow construction, so
    only the burnup relation needs penalizing. With ``penalty_weight`` zero
    this is exactly the levelized cost. Computed through :func:`lcoe_breakdown`,
    not :func:`make_design_objective`, it is a scalar check of that objective.
    """
    if not 0.0 <= penalty_weight < np.inf:
        raise ValueError("penalty_weight must be finite and >= 0")
    breakdown = lcoe_breakdown(design, costs, fin)
    residual = breakdown.burnup_residual
    return breakdown.total + penalty_weight * residual * residual


def make_design_objective(
    costs: CostInputs,
    fin: FinancialParams,
    penalty_weight: float = DEFAULT_PENALTY_WEIGHT,
) -> Callable[[np.ndarray], np.ndarray]:
    """Objective over (n, 5) design matrices, suitable for both solvers.

    The cost chain is compiled once here (:func:`microlcoe.costs.compile_lcoe`).
    Each call checks the matrix's shape and design box once, then goes
    straight to the compiled chain. A one-row call (every SA move) unpacks
    the row into Python floats, checks them with chained comparisons against
    the bounds (a NaN or an infinity fails them, as it fails the matrix
    check) and runs the chain on those floats, which skips numpy's
    per-operation overhead; the operations and their order are the same, so
    its value is bit-identical to the same row inside a larger matrix.
    """
    if not 0.0 <= penalty_weight < np.inf:
        raise ValueError("penalty_weight must be finite and >= 0")
    low, high = bounds_arrays()
    (l0, l1, l2, l3, l4), (h0, h1, h2, h3, h4) = low.tolist(), high.tolist()
    terms = compile_lcoe(costs, fin)

    def objective(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != len(DESIGN_FIELDS):
            raise ValueError(f"expected an (n, {len(DESIGN_FIELDS)}) design matrix")
        if len(x) == 1:
            p, xp, xt, tr, db = x[0].tolist()
            if (l0 <= p <= h0 and l1 <= xp <= h1 and l2 <= xt <= h2
                    and l3 <= tr <= h3 and l4 <= db <= h4):
                values = terms(p, xp, xt, tr, db)
                total, residual = values[6], values[8]
                return np.array((total + penalty_weight * residual * residual,))
        elif ((x >= low) & (x <= high)).all():
            values = terms(*x.T)
            total, residual = values[6], values[8]
            return total + penalty_weight * residual * residual
        raise ValueError("design matrix leaves the search box")

    return objective


def _check_finite(values: np.ndarray, designs: np.ndarray) -> None:
    bad = ~np.isfinite(values)
    if np.any(bad):
        offender = designs[np.argmax(bad)]
        raise EvaluationError(f"objective is not finite at design {offender}", design=offender)


def _selection_weights(values: np.ndarray) -> np.ndarray:
    # Per row (one row per run): shift so the worst individual gets (almost)
    # zero weight; the epsilon keeps at least one weight positive and breaks
    # all-equal ties uniformly.
    top = values.max(axis=1, keepdims=True)
    spread = top - values.min(axis=1, keepdims=True)
    eps = np.where(spread > 0.0, 1e-9 * spread, 1.0)
    return (top - values) + eps


def ga_minimize(
    objective: Callable[[np.ndarray], np.ndarray],
    bounds: tuple[np.ndarray, np.ndarray],
    config: GaConfig,
    seeds: list[SeedLike],
) -> MinimizeResult:
    """Genetic-algorithm runs, one per seed in ``seeds``, advanced in lockstep:
    roulette selection on shifted fitness, per-gene blend crossover, clamped
    Gaussian mutation, elitism.

    A run stops after ``config.generations`` generations or once its best
    value has not improved by more than ``STALL_IMPROVEMENT`` for
    ``config.stall_generations`` generations in a row. Each generation makes
    one objective call on the stacked populations of the runs still going.
    Every run draws from its own ``make_rng(seed)`` generator in a fixed
    order and stops drawing once it stops, so its result is bit-identical to
    running it alone. Returns the best run (ties to the lowest index) with
    its history, every run's best in seed order, and the evaluations of all
    runs.
    """
    if not isinstance(seeds, list) or not seeds:
        raise TypeError("seeds must be a non-empty list with one seed per run")
    rngs = [make_rng(seed) for seed in seeds]
    runs = len(rngs)
    low, high = (np.asarray(b, dtype=float) for b in bounds)
    span = high - low
    ndim = low.size
    pop = config.population
    n_children = pop - config.elite_count
    n_genes = n_children * ndim
    noise_scale = config.mutation_scale * span

    # Per-generation draw buffers, one row per run, reused by every generation.
    uniforms = np.empty((runs, 2 * n_children + 3 * n_genes))
    normals = np.empty((runs, n_children, ndim))
    parent_idx = np.empty((runs, 2 * n_children), dtype=np.intp)

    start = np.empty((runs, pop, ndim))
    for rng, row in zip(rngs, start):
        rng.random(out=row)
    x = low + start * span
    values = _evaluate(objective, x)

    rows = np.arange(runs)
    best_idx = np.argmin(values, axis=1)
    best_x = x[rows, best_idx]
    best_fun = values[rows, best_idx]
    history = np.empty((runs, config.generations + 1))
    history[:, 0] = best_fun
    generations = np.zeros(runs, dtype=int)
    stall = np.zeros(runs, dtype=int)
    active = rows  # runs still going; row k of x and values belongs to active[k]

    for gen in range(1, config.generations + 1):
        n_active = active.size
        here = rows[:n_active, None]
        cumulative = np.cumsum(_selection_weights(values), axis=1)
        for k, run in enumerate(active):
            rng = rngs[run]
            rng.random(out=uniforms[k])
            rng.standard_normal(out=normals[k])
            draws = uniforms[k, : 2 * n_children] * cumulative[k, -1]
            parent_idx[k] = np.searchsorted(cumulative[k], draws, side="right")
        parents = np.minimum(parent_idx[:n_active], pop - 1)
        mothers = x[here, parents[:, :n_children]]
        fathers = x[here, parents[:, n_children:]]

        genes = uniforms[:n_active, 2 * n_children:].reshape(n_active, 3, n_children, ndim)
        cross = genes[:, 0] < config.crossover_rate
        blend = genes[:, 1]
        children = np.where(cross, blend * mothers + (1.0 - blend) * fathers, mothers)

        mutate = genes[:, 2] < config.mutation_rate
        noise = normals[:n_active] * noise_scale
        children = children + mutate * noise
        np.maximum(children, low, out=children)
        np.minimum(children, high, out=children)

        elite_idx = np.argsort(values, axis=1, kind="stable")[:, : config.elite_count]
        x = np.concatenate([x[here, elite_idx], children], axis=1)
        values = _evaluate(objective, x)

        gen_best = np.argmin(values, axis=1)
        gen_fun = values[rows[:n_active], gen_best]
        improved = best_fun[active] - gen_fun > STALL_IMPROVEMENT
        lower = gen_fun < best_fun[active]
        best_fun[active] = np.where(lower, gen_fun, best_fun[active])
        best_x[active[lower]] = x[rows[:n_active][lower], gen_best[lower]]
        stall[active] = np.where(improved, 0, stall[active] + 1)
        history[active, gen] = best_fun[active]
        generations[active] = gen

        going = stall[active] < config.stall_generations
        if not going.all():
            active, x, values = active[going], x[going], values[going]
            if not active.size:
                break

    winner = int(np.argmin(best_fun))
    return MinimizeResult(
        x=best_x[winner].copy(),
        fun=float(best_fun[winner]),
        evaluations=int(pop * (generations + 1).sum()),
        history=history[winner, : generations[winner] + 1].tolist(),
        restart_bests=best_fun.tolist(),
    )


def _evaluate(objective: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Objective values of stacked (runs, pop, ndim) populations, (runs, pop)."""
    flat = x.reshape(-1, x.shape[-1])
    values = objective(flat)
    _check_finite(values, flat)
    return values.reshape(x.shape[:2])


def sa_minimize(
    objective: Callable[[np.ndarray], np.ndarray],
    bounds: tuple[np.ndarray, np.ndarray],
    config: SaConfig,
    seed: SeedLike,
) -> MinimizeResult:
    """One simulated-annealing chain with Metropolis acceptance and geometric
    cooling. The proposal width shrinks with the temperature so the late,
    cold phase refines instead of thrashing. ``steps == 0`` degenerates to
    scoring the random start point.

    Each move draws ``normal(0, 1, ndim)`` and then, only when the proposal
    is not better, one acceptance uniform. The proposal is built in place in
    that fresh normal array (scale, shift, clamp to the box), so an accepted
    proposal never aliases a buffer a later move writes; every move makes one
    one-row objective call.
    """
    rng = make_rng(seed)
    low, high = (np.asarray(b, dtype=float) for b in bounds)
    span = high - low
    ndim = low.size

    current = low + rng.random(ndim) * span
    current_fun = float(objective(current[None, :])[0])
    if not math.isfinite(current_fun):
        raise EvaluationError(f"objective is not finite at design {current}", design=current)
    evaluations = 1
    best_x = current.copy()
    best_fun = current_fun
    history = [best_fun]

    temperature = config.initial_temp
    for _ in range(config.steps):
        # Width tracks the square root of the cooling ratio: wide enough to
        # travel mid-schedule, narrow enough to refine once the chain is cold.
        width = config.step_scale * span * np.sqrt(temperature / config.initial_temp)
        for _ in range(config.moves_per_step):
            proposal = rng.normal(0.0, 1.0, ndim)
            np.multiply(proposal, width, out=proposal)
            np.add(current, proposal, out=proposal)
            np.maximum(proposal, low, out=proposal)
            np.minimum(proposal, high, out=proposal)
            proposal_fun = float(objective(proposal[None, :])[0])
            if not math.isfinite(proposal_fun):
                raise EvaluationError(
                    f"objective is not finite at design {proposal}", design=proposal
                )
            evaluations += 1
            delta = proposal_fun - current_fun
            if delta < 0.0 or rng.random() < np.exp(-delta / temperature):
                current = proposal
                current_fun = proposal_fun
                if current_fun < best_fun:
                    best_fun = current_fun
                    best_x = current.copy()
        temperature *= config.cooling_rate
        history.append(best_fun)

    return MinimizeResult(
        x=best_x, fun=best_fun, evaluations=evaluations,
        history=history, restart_bests=[best_fun],
    )


def optimize_design(
    costs: CostInputs,
    fin: FinancialParams,
    *,
    method: str = "ga",
    ga_config: GaConfig = GaConfig(),
    sa_config: SaConfig = SaConfig(),
    penalty_weight: float = DEFAULT_PENALTY_WEIGHT,
    seed: SeedLike = 0,
) -> OptimizationResult:
    """Minimize the penalized levelized cost over the design box.

    ``method`` selects the solver ("ga" or "sa"); the number of restarts
    comes from the matching config. Restart ``i`` of either solver draws from
    ``seed_path(seed, STREAM_RESTART, i)``, and the best restart wins, ties
    to the lowest index. Returns the winning design with its cost breakdown,
    residual, and the best value of every restart.
    """
    if method not in ("ga", "sa"):
        raise ValueError("method must be 'ga' or 'sa'")
    config = ga_config if method == "ga" else sa_config
    objective = make_design_objective(costs, fin, penalty_weight)
    bounds = bounds_arrays()
    seeds = [seed_path(seed, STREAM_RESTART, i) for i in range(config.restarts)]
    if method == "ga":
        raw = ga_minimize(objective, bounds, config, seeds)
    else:
        runs = [sa_minimize(objective, bounds, config, s) for s in seeds]
        best = min(runs, key=lambda run: run.fun)
        raw = MinimizeResult(
            x=best.x, fun=best.fun, evaluations=sum(run.evaluations for run in runs),
            history=best.history, restart_bests=[run.fun for run in runs],
        )

    design = ReactorDesign.from_array(raw.x)
    breakdown = lcoe_breakdown(design, costs, fin)
    residual = breakdown.burnup_residual
    return OptimizationResult(
        best_design=design,
        lcoe=float(breakdown.total),
        breakdown=breakdown,
        burnup_residual=residual,
        penalty_value=penalty_weight * residual * residual,
        evaluations=raw.evaluations,
        restart_bests=tuple(raw.restart_bests),
    )
