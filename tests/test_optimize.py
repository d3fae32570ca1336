"""Solver behavior on a known-optimum objective, determinism and restart
contracts, bounds containment, and the penalized objective arithmetic."""

from dataclasses import replace

import numpy as np
import pytest

from microlcoe.costs import (
    DEFAULT_COSTS,
    DEFAULT_FINANCE,
    ReactorDesign,
    bounds_arrays,
    lcoe_breakdown,
)
from microlcoe.optimize import (
    STALL_IMPROVEMENT,
    EvaluationError,
    GaConfig,
    SaConfig,
    ga_minimize,
    make_design_objective,
    multi_restart_best,
    optimize_design,
    penalized_objective,
    sa_minimize,
)
from microlcoe.rng import STREAM_RESTART, make_rng, seed_path

BOUNDS = bounds_arrays()
CENTER = (BOUNDS[0] + BOUNDS[1]) / 2.0
SPAN = BOUNDS[1] - BOUNDS[0]

BASE_DESIGN = ReactorDesign(p_elec=19.13, x_p=5.0, x_t=0.2913, t_refuel=6.24, db=30.0)
FLAT_CF = replace(DEFAULT_FINANCE, downtime_model=False)

QUICK_GA = GaConfig(population=40, generations=60, stall_generations=30, restarts=3)
QUICK_SA = SaConfig(steps=60, moves_per_step=20, restarts=2)


def sphere(x):
    # scaled so the default initial temperature (10, in objective units)
    # sits sensibly against the objective's dynamic range
    return 100.0 * np.sum(((x - CENTER) / SPAN) ** 2, axis=1)


class TestConfigs:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population": 3},
            {"crossover_rate": 1.5},
            {"mutation_rate": -0.1},
            {"elite_count": 100},
            {"restarts": 0},
            {"stall_generations": 0},
            {"mutation_scale": float("nan")},
        ],
    )
    def test_ga_validation(self, kwargs):
        with pytest.raises(ValueError):
            GaConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial_temp": 0.0},
            {"cooling_rate": 1.0},
            {"cooling_rate": 0.0},
            {"moves_per_step": 0},
            {"step_scale": 0.0},
            {"step_scale": float("nan")},
            {"initial_temp": float("nan")},
            {"restarts": 0},
        ],
    )
    def test_sa_validation(self, kwargs):
        with pytest.raises(ValueError):
            SaConfig(**kwargs)


class TestPenalizedObjective:
    def test_zero_weight_equals_lcoe(self):
        total = lcoe_breakdown(BASE_DESIGN, DEFAULT_COSTS, DEFAULT_FINANCE).total
        assert penalized_objective(BASE_DESIGN, DEFAULT_COSTS, DEFAULT_FINANCE, 0.0) == total

    def test_quadratic_charge_at_base_design(self):
        # residual is -11.742 MWd/kgU at the flat capacity factor
        total = lcoe_breakdown(BASE_DESIGN, DEFAULT_COSTS, FLAT_CF).total
        value = penalized_objective(BASE_DESIGN, DEFAULT_COSTS, FLAT_CF, 0.05)
        assert value - total == pytest.approx(6.894, abs=0.02)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            penalized_objective(BASE_DESIGN, DEFAULT_COSTS, DEFAULT_FINANCE, -1.0)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValueError):
            penalized_objective(BASE_DESIGN, DEFAULT_COSTS, DEFAULT_FINANCE, weight)
        with pytest.raises(ValueError):
            make_design_objective(DEFAULT_COSTS, DEFAULT_FINANCE, weight)

    def test_weight_scales_quadratically(self):
        base = lcoe_breakdown(BASE_DESIGN, DEFAULT_COSTS, FLAT_CF).total
        one = penalized_objective(BASE_DESIGN, DEFAULT_COSTS, FLAT_CF, 0.05) - base
        four = penalized_objective(BASE_DESIGN, DEFAULT_COSTS, FLAT_CF, 0.20) - base
        assert four == pytest.approx(4.0 * one, rel=1e-12)


class TestGaMinimize:
    def test_finds_sphere_center_across_seeds(self):
        for seed in range(10):
            result = ga_minimize(sphere, BOUNDS, GaConfig(), [seed])
            assert np.all(np.abs(result.x - CENTER) <= 0.005 * SPAN)

    def test_deterministic(self):
        a = ga_minimize(sphere, BOUNDS, QUICK_GA, [12])
        b = ga_minimize(sphere, BOUNDS, QUICK_GA, [12])
        assert np.array_equal(a.x, b.x)
        assert a.fun == b.fun
        assert a.history == b.history

    def test_best_history_non_increasing(self):
        result = ga_minimize(sphere, BOUNDS, QUICK_GA, [5])
        diffs = np.diff(result.history)
        assert np.all(diffs <= 0.0)

    def test_every_evaluation_inside_box(self):
        seen = []

        def instrumented(x):
            seen.append(x.copy())
            return sphere(x)

        ga_minimize(instrumented, BOUNDS, QUICK_GA, [3])
        stacked = np.vstack(seen)
        assert np.all(stacked >= BOUNDS[0]) and np.all(stacked <= BOUNDS[1])

    def test_non_finite_objective_reported(self):
        def broken(x):
            values = sphere(x)
            values[0] = np.nan
            return values

        with pytest.raises(EvaluationError) as excinfo:
            ga_minimize(broken, BOUNDS, QUICK_GA, [0])
        assert excinfo.value.design is not None

    def test_stall_terminates_early(self):
        config = GaConfig(population=30, generations=500, stall_generations=5)
        result = ga_minimize(lambda x: np.zeros(len(x)), BOUNDS, config, [0])
        assert len(result.history) - 1 <= 10


STALL_GA = GaConfig(population=30, generations=200, stall_generations=6, restarts=20)
DESIGN_OBJECTIVE = make_design_objective(DEFAULT_COSTS, DEFAULT_FINANCE)


def restart_seeds(seed, count):
    return [seed_path(seed, STREAM_RESTART, i) for i in range(count)]


def serial_ga(objective, bounds, config, seed):
    """Reference: one GA run on its own, one objective call per generation
    on its own population, with the draws in the order ga_minimize keeps.
    Returns (x, fun, evaluations, history)."""
    rng = make_rng(seed)
    low, high = bounds
    span = high - low
    pop, ndim = config.population, low.size
    x = low + rng.random((pop, ndim)) * span
    values = objective(x)
    best_x, best_fun = x[np.argmin(values)].copy(), float(values.min())
    history, stall = [best_fun], 0
    n_children = pop - config.elite_count
    for _ in range(config.generations):
        spread = float(values.max() - values.min())
        eps = 1e-9 * spread if spread > 0.0 else 1.0
        cumulative = np.cumsum((values.max() - values) + eps)
        draws = rng.random(2 * n_children) * cumulative[-1]
        parent_idx = np.minimum(np.searchsorted(cumulative, draws, side="right"), pop - 1)
        mothers, fathers = x[parent_idx[:n_children]], x[parent_idx[n_children:]]
        cross = rng.random((n_children, ndim)) < config.crossover_rate
        blend = rng.random((n_children, ndim))
        children = np.where(cross, blend * mothers + (1.0 - blend) * fathers, mothers)
        mutate = rng.random((n_children, ndim)) < config.mutation_rate
        noise = rng.normal(0.0, 1.0, (n_children, ndim)) * (config.mutation_scale * span)
        children = np.clip(children + mutate * noise, low, high)
        elite_idx = np.argsort(values, kind="stable")[: config.elite_count]
        x = np.concatenate([x[elite_idx], children])
        values = objective(x)
        gen_best = int(np.argmin(values))
        stall = 0 if best_fun - values[gen_best] > STALL_IMPROVEMENT else stall + 1
        if values[gen_best] < best_fun:
            best_fun, best_x = float(values[gen_best]), x[gen_best].copy()
        history.append(best_fun)
        if stall >= config.stall_generations:
            break
    return best_x, best_fun, pop * len(history), history


class TestLockstepGa:
    @pytest.mark.parametrize(
        "objective,config,seed",
        [(sphere, QUICK_GA, 0), (DESIGN_OBJECTIVE, GaConfig(restarts=4), 7),
         (DESIGN_OBJECTIVE, STALL_GA, 3),
         (DESIGN_OBJECTIVE, GaConfig(population=12, elite_count=0, stall_generations=3,
                                     restarts=7), 0)],
    )
    def test_equals_serial_runs(self, objective, config, seed):
        seeds = restart_seeds(seed, config.restarts)
        lockstep = ga_minimize(objective, BOUNDS, config, seeds)
        serial = [serial_ga(objective, BOUNDS, config, s) for s in seeds]
        funs = [fun for _, fun, _, _ in serial]
        best_x, best_fun, _, best_history = serial[funs.index(min(funs))]
        assert lockstep.restart_bests == funs
        assert np.array_equal(lockstep.x, best_x)
        assert lockstep.fun == best_fun
        assert lockstep.history == best_history
        assert lockstep.evaluations == sum(evals for _, _, evals, _ in serial)
        for s, (x, fun, evals, history) in zip(seeds, serial):
            single = ga_minimize(objective, BOUNDS, config, [s])
            assert np.array_equal(single.x, x)
            assert (single.fun, single.evaluations, single.history) == (fun, evals, history)
            assert single.restart_bests == [fun]

    def test_one_objective_call_per_generation(self):
        calls = []

        def counting(x):
            calls.append(len(x))
            return DESIGN_OBJECTIVE(x)

        seeds = restart_seeds(3, STALL_GA.restarts)
        generations = [len(serial_ga(DESIGN_OBJECTIVE, BOUNDS, STALL_GA, s)[3]) - 1
                       for s in seeds]
        # the restarts stall at many different generations
        assert len(set(generations)) > 5 and max(generations) < STALL_GA.generations
        ga_minimize(counting, BOUNDS, STALL_GA, seeds)
        assert len(calls) == max(generations) + 1
        # a stalled restart is no longer evaluated
        active = [sum(g >= gen for g in generations) for gen in range(max(generations) + 1)]
        assert calls == [STALL_GA.population * n for n in active]

    def test_prefix_property(self):
        seeds = restart_seeds(4, STALL_GA.restarts)
        twenty = ga_minimize(DESIGN_OBJECTIVE, BOUNDS, STALL_GA, seeds)
        for k in (1, 5):
            prefix = ga_minimize(DESIGN_OBJECTIVE, BOUNDS, STALL_GA, seeds[:k])
            assert twenty.restart_bests[:k] == prefix.restart_bests

    def test_tie_goes_to_lowest_index(self):
        flat = lambda x: np.zeros(len(x))
        config = GaConfig(population=10, generations=20, elite_count=2, stall_generations=3)
        seeds = restart_seeds(0, 4)
        result = ga_minimize(flat, BOUNDS, config, seeds)
        first = ga_minimize(flat, BOUNDS, config, seeds[:1])
        assert result.restart_bests == [0.0] * 4
        assert np.array_equal(result.x, first.x)
        assert not np.array_equal(
            result.x, ga_minimize(flat, BOUNDS, config, seeds[1:2]).x
        )

    @pytest.mark.parametrize("seeds", [0, (0, 2, 1), []])
    def test_seeds_must_be_a_list(self, seeds):
        with pytest.raises(TypeError):
            ga_minimize(sphere, BOUNDS, QUICK_GA, seeds)


class TestSaMinimize:
    def test_finds_sphere_center(self):
        result = sa_minimize(sphere, BOUNDS, SaConfig(), 4)
        assert np.all(np.abs(result.x - CENTER) <= 0.005 * SPAN)

    def test_deterministic(self):
        a = sa_minimize(sphere, BOUNDS, QUICK_SA, 9)
        b = sa_minimize(sphere, BOUNDS, QUICK_SA, 9)
        assert np.array_equal(a.x, b.x) and a.fun == b.fun

    def test_zero_steps_scores_start_only(self):
        config = SaConfig(steps=0)
        result = sa_minimize(sphere, BOUNDS, config, 7)
        assert result.evaluations == 1
        assert result.fun == sphere(result.x[None, :])[0]

    def test_every_evaluation_inside_box(self):
        seen = []

        def instrumented(x):
            seen.append(x.copy())
            return sphere(x)

        sa_minimize(instrumented, BOUNDS, QUICK_SA, 3)
        stacked = np.vstack(seen)
        assert np.all(stacked >= BOUNDS[0]) and np.all(stacked <= BOUNDS[1])


class TestMultiRestart:
    def test_single_restart_equals_sub_seed_zero(self):
        runner = lambda s: ga_minimize(sphere, BOUNDS, QUICK_GA, [s])
        driver = multi_restart_best(runner, 1, 21)
        direct = ga_minimize(sphere, BOUNDS, QUICK_GA, [seed_path(21, STREAM_RESTART, 0)])
        assert np.array_equal(driver.x, direct.x)
        assert driver.fun == direct.fun

    def test_minimum_of_restart_bests(self):
        runner = lambda s: ga_minimize(sphere, BOUNDS, QUICK_GA, [s])
        result = multi_restart_best(runner, 8, 13)
        assert len(result.restart_bests) == 8
        assert result.fun == min(result.restart_bests)

    def test_prefix_property(self):
        runner = lambda s: sa_minimize(sphere, BOUNDS, SaConfig(steps=0), s)
        five = multi_restart_best(runner, 5, 2)
        twenty = multi_restart_best(runner, 20, 2)
        assert twenty.restart_bests[:5] == five.restart_bests

    def test_tie_goes_to_first_restart(self):
        calls = []

        def flat_runner(s):
            result = sa_minimize(lambda x: np.zeros(len(x)), BOUNDS, SaConfig(steps=0), s)
            calls.append(result.x.copy())
            return result

        result = multi_restart_best(flat_runner, 4, 0)
        assert np.array_equal(result.x, calls[0])

    def test_restart_count_validated(self):
        with pytest.raises(ValueError):
            multi_restart_best(lambda s: None, 0, 0)


class TestOptimizeDesign:
    def test_result_invariants(self):
        result = optimize_design(
            DEFAULT_COSTS, DEFAULT_FINANCE, ga_config=QUICK_GA, seed=6
        )
        assert result.lcoe == result.breakdown.total
        assert min(result.restart_bests) == pytest.approx(
            result.lcoe + result.penalty_value, rel=1e-9
        )
        assert len(result.restart_bests) == QUICK_GA.restarts
        design = result.best_design
        low, high = BOUNDS
        assert np.all(design.as_array() >= low) and np.all(design.as_array() <= high)

    def test_deterministic(self):
        a = optimize_design(DEFAULT_COSTS, DEFAULT_FINANCE, ga_config=QUICK_GA, seed=3)
        b = optimize_design(DEFAULT_COSTS, DEFAULT_FINANCE, ga_config=QUICK_GA, seed=3)
        assert a == b

    def test_sa_method(self):
        result = optimize_design(
            DEFAULT_COSTS, DEFAULT_FINANCE, method="sa", sa_config=QUICK_SA, seed=1
        )
        assert result.lcoe > 0.0
        assert len(result.restart_bests) == QUICK_SA.restarts

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            optimize_design(DEFAULT_COSTS, DEFAULT_FINANCE, method="gradient")


class TestDesignObjective:
    def test_matches_scalar_path(self):
        objective = make_design_objective(DEFAULT_COSTS, DEFAULT_FINANCE, 0.05)
        rng = np.random.default_rng(0)
        x = BOUNDS[0] + rng.random((32, 5)) * SPAN
        values = objective(x)
        for i in (0, 13, 31):
            design = ReactorDesign.from_array(x[i])
            assert values[i] == penalized_objective(design, DEFAULT_COSTS, DEFAULT_FINANCE, 0.05)

    def test_rejects_out_of_box(self):
        objective = make_design_objective(DEFAULT_COSTS, DEFAULT_FINANCE)
        bad = np.array([[0.5, 5.0, 0.25, 6.0, 30.0]])
        with pytest.raises(ValueError):
            objective(bad)

    def test_rejects_wrong_shape(self):
        objective = make_design_objective(DEFAULT_COSTS, DEFAULT_FINANCE)
        with pytest.raises(ValueError):
            objective(np.ones(5))
