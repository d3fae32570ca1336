"""Solver behavior on a known-optimum objective, determinism and restart
contracts, bounds containment, and the penalized objective arithmetic."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

import microlcoe.costs
import microlcoe.optimize
from microlcoe.costs import (
    DEFAULT_COSTS,
    DEFAULT_FINANCE,
    HOURS_PER_YEAR,
    FieldError,
    ReactorDesign,
    bounds_arrays,
    capital_recovery_factor,
    compile_lcoe,
    effective_capacity_factor,
    lcoe_breakdown,
    lcoe_terms,
    ptc_credit_per_mwh,
    sinking_fund_factor,
)
from microlcoe.fuelcycle import (
    EnrichmentAssays,
    burnup_residual,
    specific_power,
    swu_per_kg_product,
)
from microlcoe.optimize import (
    STALL_IMPROVEMENT,
    EvaluationError,
    GaConfig,
    MinimizeResult,
    SaConfig,
    ga_minimize,
    make_design_objective,
    optimize_design,
    penalized_objective,
    sa_minimize,
)
from microlcoe.rng import STREAM_RESTART, make_rng, seed_path
from microlcoe.uncertainty import default_uncertain_parameters, generate_study

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
            {"mutation_scale": float("inf")},
            {"mutation_scale": 1.5},
        ],
    )
    def test_ga_validation(self, kwargs):
        with pytest.raises(FieldError) as info:
            GaConfig(**kwargs)
        assert next(iter(kwargs)) in info.value.fields

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
            {"initial_temp": float("inf")},
            {"step_scale": float("inf")},
            {"restarts": 0},
        ],
    )
    def test_sa_validation(self, kwargs):
        with pytest.raises(FieldError) as info:
            SaConfig(**kwargs)
        assert info.value.fields == tuple(kwargs)


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_term_raises_by_name(self):
        # costed through lcoe_breakdown, an overflowed term is an error, not inf
        huge = replace(DEFAULT_COSTS, c_dec=1e306)
        with pytest.raises(ValueError, match="lcoe component decommissioning is not finite"):
            penalized_objective(BASE_DESIGN, huge, DEFAULT_FINANCE, 0.05)

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

    def test_generations_recorded_per_run_in_seed_order(self):
        seeds = restart_seeds(3, STALL_GA.restarts)
        result = ga_minimize(DESIGN_OBJECTIVE, BOUNDS, STALL_GA, seeds)
        serial = [len(serial_ga(DESIGN_OBJECTIVE, BOUNDS, STALL_GA, s)[3]) - 1 for s in seeds]
        assert result.generations == serial
        assert len(set(serial)) > 1 and max(serial) < STALL_GA.generations
        assert result.evaluations == STALL_GA.population * sum(g + 1 for g in serial)


def reference_roulette(values, uniforms):
    """Reference for _roulette: per run, np.searchsorted(side="right") of the
    draws on the run's cumulative selection weights, clamped to the population."""
    weights = microlcoe.optimize._selection_weights(values)
    picks = []
    for row, u in zip(weights, uniforms):
        cumulative = np.cumsum(row)
        picks.append(np.searchsorted(cumulative, u * cumulative[-1], side="right"))
    return np.minimum(np.array(picks), values.shape[1] - 1)


class TestRoulette:
    """The branchless selection of all runs equals a per-run searchsorted."""

    @pytest.mark.parametrize("pop", [4, 100, 128])
    def test_equals_per_run_searchsorted(self, pop):
        rng = np.random.default_rng(pop)
        roulette = microlcoe.optimize._roulette
        buffer = np.full((20, 1 << pop.bit_length()), np.inf)  # as ga_minimize holds it
        edges = [0.0, np.nextafter(1.0, 0.0)]
        for n in range(1, 21):
            kinds = {
                "random": rng.normal(70.0, 5.0, (n, pop)),
                "tied": rng.integers(0, 3, (n, pop)).astype(float),
                "all-equal": np.full((n, pop), 71.5),
                # the weights' sum overflows: an infinite total, and a NaN
                # key (0 * inf) wherever the draw is 0.0
                "infinite-total": rng.choice([-8e307, 8e307], (n, pop)),
            }
            for kind, values in kinds.items():
                uniforms = rng.random((n, 2 * pop + 3))
                uniforms[:, :2] = edges
                uniforms[rng.random((n, 2 * pop + 3)) < 0.05] = 0.0
                with np.errstate(over="ignore", invalid="ignore"):  # the infinite total
                    picks = roulette(values, uniforms, buffer)
                    expected = reference_roulette(values, uniforms)
                assert picks.shape == uniforms.shape
                assert np.array_equal(picks, expected), (n, kind)

    def test_nan_key_picks_the_last_individual(self):
        values = np.array([[-8e307, 8e307, 8e307, -8e307]])
        uniforms = np.array([[0.0, 0.5, np.nextafter(1.0, 0.0)]])
        with np.errstate(invalid="ignore", over="ignore"):
            draws = uniforms * np.cumsum(microlcoe.optimize._selection_weights(values))[-1]
            picks = microlcoe.optimize._roulette(values, uniforms, np.full((1, 8), np.inf))
        assert np.isnan(draws[0, 0])
        assert picks.tolist() == [[3, 3, 3]]


def serial_sa(objective, bounds, config, rng):
    """Reference: the annealing chain as a plain loop, one np.clip proposal
    and np.isfinite check per move, with the draws from ``rng`` in the order
    sa_minimize keeps. Returns (x, fun, evaluations, history, restart_bests)."""
    low, high = bounds
    span = high - low
    ndim = low.size
    current = low + rng.random(ndim) * span
    current_fun = float(objective(current[None, :])[0])
    assert np.isfinite(current_fun)
    evaluations = 1
    best_x, best_fun = current.copy(), current_fun
    history = [best_fun]
    temperature = config.initial_temp
    for _ in range(config.steps):
        width = config.step_scale * span * np.sqrt(temperature / config.initial_temp)
        for _ in range(config.moves_per_step):
            proposal = np.clip(current + rng.normal(0.0, 1.0, ndim) * width, low, high)
            proposal_fun = float(objective(proposal[None, :])[0])
            assert np.isfinite(proposal_fun)
            evaluations += 1
            delta = proposal_fun - current_fun
            if delta < 0.0 or rng.random() < np.exp(-delta / temperature):
                current, current_fun = proposal, proposal_fun
                if current_fun < best_fun:
                    best_fun, best_x = current_fun, current.copy()
        temperature *= config.cooling_rate
        history.append(best_fun)
    return best_x, best_fun, evaluations, history, [best_fun]


SHORT_SA = SaConfig(steps=40, moves_per_step=25)


class PinnedUniform:
    """A seeded generator whose scalar uniform (the acceptance draw) is
    pinned to ``u``; array draws come from ``make_rng(seed)``."""

    def __init__(self, seed, u):
        self._rng, self.u = make_rng(seed), u

    def random(self, size=None):
        return self.u if size is None else self._rng.random(size)

    def normal(self, loc, scale, size):
        return self._rng.normal(loc, scale, size)


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

    @pytest.mark.parametrize(
        "objective,config,seed",
        [(DESIGN_OBJECTIVE, SHORT_SA, seed_path(0, STREAM_RESTART, i)) for i in range(5)]
        + [(DESIGN_OBJECTIVE, SaConfig(), seed_path(0, STREAM_RESTART, 0)),
           (sphere, SaConfig(), 4), (sphere, QUICK_SA, 9)],
    )
    def test_equals_reference_loop(self, objective, config, seed):
        result = sa_minimize(objective, BOUNDS, config, seed)
        x, fun, evaluations, history, restart_bests = serial_sa(
            objective, BOUNDS, config, make_rng(seed))
        assert np.array_equal(result.x, x)
        assert result.fun == fun
        assert result.evaluations == evaluations == 1 + config.steps * config.moves_per_step
        assert result.history == history
        assert result.restart_bests == restart_bests

    def test_acceptance_uses_numpy_exp(self, monkeypatch):
        # An exponent where math.exp and np.exp round differently, and an
        # acceptance uniform between the two, so that the chain's path shows
        # which of them the Metropolis test called.
        temperature = SaConfig().initial_temp
        draws = np.random.default_rng(0).uniform(0.0, 50.0 * temperature, 10_000).tolist()
        exponents = [-v / temperature for v in draws]
        split = next((i for i, e in enumerate(exponents) if math.exp(e) != np.exp(e)), None)
        if split is None:
            # Without numpy's AVX-512 loops its exp rounds as glibc's does, on
            # arrays too: there the swap this test guards against moves no byte.
            assert np.array_equal(np.exp(exponents), [math.exp(e) for e in exponents])
            return
        v, e = draws[split], exponents[split]
        u = min(math.exp(e), float(np.exp(e)))
        assert (u < math.exp(e)) != (u < np.exp(e))
        config = SaConfig(steps=2, moves_per_step=3)

        def run(minimize, rng):
            seen = []

            def objective(x):
                seen.append(x[0].copy())
                return np.array([0.0 if len(seen) == 1 else v])

            minimize(objective, BOUNDS, config, rng)
            return np.vstack(seen)

        monkeypatch.setattr(microlcoe.optimize, "make_rng", lambda seed: PinnedUniform(seed, u))
        expected = run(serial_sa, PinnedUniform(8, u))
        assert np.array_equal(run(sa_minimize, 8), expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", [0, 1, 137])
    def test_non_finite_objective_reported(self, bad, call):
        seen = []

        def broken(x):
            seen.append(x[0].copy())
            values = DESIGN_OBJECTIVE(x)
            return np.full_like(values, bad) if len(seen) == call + 1 else values

        with pytest.raises(EvaluationError) as excinfo:
            sa_minimize(broken, BOUNDS, SHORT_SA, 2)
        assert len(seen) == call + 1
        assert np.array_equal(excinfo.value.design, seen[-1])


class TestMultiRestart:
    """optimize_design's SA restarts: seeds, winner, prefix and ties."""

    SA_ONE = SaConfig(steps=4, moves_per_step=5, restarts=1)

    def test_single_restart_equals_sub_seed_zero(self):
        result = optimize_design(
            DEFAULT_COSTS, DEFAULT_FINANCE, method="sa", sa_config=self.SA_ONE, seed=21
        )
        objective = make_design_objective(DEFAULT_COSTS, DEFAULT_FINANCE)
        direct = sa_minimize(objective, BOUNDS, self.SA_ONE, seed_path(21, 2, 0))
        assert STREAM_RESTART == 2
        assert np.array_equal(result.best_design.as_array(), direct.x)
        assert result.restart_bests == (direct.fun,)
        assert result.evaluations == direct.evaluations

    def test_minimum_of_restart_bests(self):
        config = replace(self.SA_ONE, restarts=8)
        result = optimize_design(
            DEFAULT_COSTS, DEFAULT_FINANCE, method="sa", sa_config=config, seed=13
        )
        assert len(result.restart_bests) == 8
        assert len(set(result.restart_bests)) > 1
        assert result.objective == pytest.approx(min(result.restart_bests), rel=1e-12)
        objective = make_design_objective(DEFAULT_COSTS, DEFAULT_FINANCE)
        winner = int(np.argmin(result.restart_bests))
        direct = sa_minimize(objective, BOUNDS, config, seed_path(13, STREAM_RESTART, winner))
        assert np.array_equal(result.best_design.as_array(), direct.x)

    def test_prefix_property(self):
        def bests(restarts):
            config = SaConfig(steps=0, restarts=restarts)
            return optimize_design(
                DEFAULT_COSTS, DEFAULT_FINANCE, method="sa", sa_config=config, seed=2
            ).restart_bests

        assert bests(20)[:5] == bests(5)

    def test_tie_goes_to_first_restart(self, monkeypatch):
        calls = []

        def flat_sa(objective, bounds, config, seed):
            x = BOUNDS[0] + (len(calls) + 1) / 10.0 * SPAN
            calls.append((seed, x))
            return MinimizeResult(x=x, fun=0.0, evaluations=1, restart_bests=[0.0])

        monkeypatch.setattr(microlcoe.optimize, "sa_minimize", flat_sa)
        result = optimize_design(
            DEFAULT_COSTS, DEFAULT_FINANCE, method="sa",
            sa_config=SaConfig(restarts=4), seed=0,
        )
        assert [seed for seed, _ in calls] == [seed_path(0, STREAM_RESTART, i) for i in range(4)]
        assert np.array_equal(result.best_design.as_array(), calls[0][1])
        assert result.restart_bests == (0.0,) * 4
        assert result.evaluations == 4


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

    @pytest.mark.parametrize("method", ["ga", "sa"])
    def test_breakdown_is_the_best_designs_lcoe_breakdown(self, method):
        result = optimize_design(DEFAULT_COSTS, DEFAULT_FINANCE, method=method,
                                 ga_config=QUICK_GA, sa_config=QUICK_SA, seed=2)
        breakdown = lcoe_breakdown(result.best_design, DEFAULT_COSTS, DEFAULT_FINANCE)
        assert result.breakdown == breakdown
        assert result.burnup_residual == breakdown.burnup_residual
        residual = breakdown.burnup_residual
        assert result.penalty_value == 0.05 * residual * residual  # as the objective forms it

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            optimize_design(DEFAULT_COSTS, DEFAULT_FINANCE, method="gradient")

    def test_stock_search_runs_every_generation_of_every_restart(self):
        result = optimize_design(DEFAULT_COSTS, DEFAULT_FINANCE, seed=5)
        stock = GaConfig()
        assert result.generations == (stock.generations,) * stock.restarts
        assert result.evaluations == stock.population * (stock.generations + 1) * stock.restarts

    def test_sa_restarts_record_their_steps(self):
        result = optimize_design(DEFAULT_COSTS, DEFAULT_FINANCE, method="sa",
                                 sa_config=QUICK_SA, seed=1)
        assert result.generations == (QUICK_SA.steps,) * QUICK_SA.restarts

    def test_lcoe_and_residual_are_read_from_the_breakdown(self):
        result = optimize_design(DEFAULT_COSTS, DEFAULT_FINANCE, ga_config=QUICK_GA, seed=6)
        assert {"lcoe", "burnup_residual"}.isdisjoint(f.name for f in fields(result))
        assert result.lcoe == float(result.breakdown.total)
        assert result.burnup_residual == result.breakdown.burnup_residual


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

    @pytest.mark.parametrize("column", range(5))
    def test_box_check_same_for_one_row_and_matrix(self, column):
        objective = make_design_objective(DEFAULT_COSTS, DEFAULT_FINANCE)
        low, high = BOUNDS
        outside = [np.nan, np.inf, -np.inf,
                   np.nextafter(low[column], -np.inf), np.nextafter(high[column], np.inf)]
        for value in outside:
            row = CENTER.copy()
            row[column] = value
            for x in (row[None, :], np.vstack([CENTER, row, CENTER])):
                with pytest.raises(ValueError, match="leaves the search box"):
                    objective(x)
        for value in (low[column], high[column]):
            row = CENTER.copy()
            row[column] = value
            matrix = objective(np.vstack([CENTER, row, CENTER]))
            assert np.all(np.isfinite(matrix))
            assert objective(row[None, :])[0] == matrix[1]

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e9])
    def test_box_check_covers_every_block_of_a_large_matrix(self, value):
        objective = make_design_objective(DEFAULT_COSTS, DEFAULT_FINANCE)
        block = microlcoe.optimize._BLOCK_ROWS
        x = np.tile(CENTER, (2 * block + 7, 1))
        expected = objective(x)
        for row in (0, block - 1, block, 2 * block + 6):
            for column in (0, 4):
                bad = x.copy()
                bad[row, column] = value
                for matrix in (bad, np.asfortranarray(bad)):
                    with pytest.raises(ValueError, match="leaves the search box"):
                        objective(matrix)
        assert np.array_equal(objective(np.asfortranarray(x)), expected)

    def test_rejects_wrong_shape(self):
        objective = make_design_objective(DEFAULT_COSTS, DEFAULT_FINANCE)
        with pytest.raises(ValueError):
            objective(np.ones(5))


FINANCE_VARIANTS = {
    "stock": DEFAULT_FINANCE,
    "escalated": replace(DEFAULT_FINANCE, inflation_mode="escalated"),
    "downtime_off": FLAT_CF,
    "zero_downtime": replace(DEFAULT_FINANCE, t_down=0.0),
    "zero_rate": replace(DEFAULT_FINANCE, r=0.0),
}
STUDY_COSTS = [
    s.costs for s in generate_study(
        default_uncertain_parameters(DEFAULT_COSTS), "all", n=10, seed=1, base=DEFAULT_COSTS)
]
# (costs, fin) problems: every financing variant at the stock costs, and
# every sampled cost set at the stock financing
PROBLEMS = [pytest.param(DEFAULT_COSTS, fin, id=name) for name, fin in FINANCE_VARIANTS.items()]
PROBLEMS += [pytest.param(costs, DEFAULT_FINANCE, id=f"study{i}")
             for i, costs in enumerate(STUDY_COSTS)]


def corner_and_random_designs(count, seed):
    corners = np.stack(np.meshgrid(*zip(*BOUNDS), indexing="ij"), axis=-1).reshape(-1, 5)
    rng = np.random.default_rng(seed)
    return np.vstack([corners, BOUNDS[0] + rng.random((count, 5)) * SPAN])


def uncompiled_objective(x, costs, fin, weight):
    """The penalized objective as the cost chain computed it before it was
    compiled: every (costs, fin) term recomputed on each call, through the
    checked public functions, in the same operation order."""
    p_elec, x_p, x_t, t_refuel, db = x.T
    cf = effective_capacity_factor(fin, t_refuel)
    sp = specific_power(db, t_refuel, cf)
    m_p = 1000.0 * p_elec / (fin.eta * sp)
    m_f = (x_p - x_t) / (fin.x_f - x_t) * m_p
    swu = swu_per_kg_product(EnrichmentAssays(x_p, x_t, fin.x_f))
    batch = (costs.c_yc * m_f / (1.0 - fin.loss) + costs.c_conv * m_f
             + costs.c_swu * swu * m_p + costs.c_fab * m_p)
    energy = p_elec * HOURS_PER_YEAR * cf
    scale = 1.0
    if fin.inflation_mode == "escalated":
        scale = (capital_recovery_factor(fin.nominal_rate, fin.lt)
                 / capital_recovery_factor(fin.r, fin.lt))
    capital = scale * (costs.occ * p_elec * 1000.0 * capital_recovery_factor(fin.r, fin.lt)) / energy
    om = scale * (costs.n_fte * costs.s_fte + costs.fom + costs.vom * energy) / energy
    fuel = scale * (batch * capital_recovery_factor(fin.r, t_refuel)) / energy
    spent = scale * costs.c_spent
    decommissioning = scale * (
        costs.c_dec * p_elec * 1000.0 * sinking_fund_factor(fin.r, fin.lt)) / energy
    total = capital + om + fuel + spent + decommissioning - ptc_credit_per_mwh(fin)
    residual = burnup_residual(x_p, db, t_refuel, cf)
    return total + weight * residual * residual


def hand_lcoe(p_elec, x_p, x_t, t_refuel, db, costs, fin):
    """Textbook levelized cost of one design, written out with the math module:
    the eight breakdown terms and the burnup residual."""
    def crf(rate, n):
        return 1.0 / n if rate == 0.0 else rate * (1 + rate) ** n / ((1 + rate) ** n - 1)

    def sff(rate, n):
        return 1.0 / n if rate == 0.0 else rate / ((1 + rate) ** n - 1)

    def pva(rate, n):
        return n if rate == 0.0 else ((1 + rate) ** n - 1) / (rate * (1 + rate) ** n)

    def potential(a):
        return (2 * a - 1) * math.log(a / (1 - a))

    downtime = fin.t_down if fin.downtime_model else 0.0
    cf = fin.cf_base * t_refuel / (t_refuel + downtime)
    energy = p_elec * 8760 * cf
    specific_power = 1000 * db / (t_refuel * cf * 365)
    m_p = 1000 * p_elec / (fin.eta * specific_power)
    product, tails, feed = x_p / 100, x_t / 100, fin.x_f / 100
    m_f = m_p * (product - tails) / (feed - tails)
    swu = m_p * potential(product) + (m_f - m_p) * potential(tails) - m_f * potential(feed)
    batch = (costs.c_yc * m_f / (1 - fin.loss) + costs.c_conv * m_f
             + costs.c_swu * swu + costs.c_fab * m_p)
    r = fin.r
    nominal = (1 + r) * (1 + fin.infl) - 1
    escalated = fin.inflation_mode == "escalated"
    scale = crf(nominal, fin.lt) / crf(r, fin.lt) if escalated else 1.0
    capital = scale * costs.occ * p_elec * 1000 * crf(r, fin.lt) / energy
    om = scale * ((costs.n_fte * costs.s_fte + costs.fom) / energy + costs.vom)
    fuel = scale * batch * crf(r, t_refuel) / energy
    spent = scale * costs.c_spent
    decommissioning = scale * costs.c_dec * p_elec * 1000 * sff(r, fin.lt) / energy
    credit_rate = nominal if escalated else r
    credit = fin.ptc_rate * pva(credit_rate, fin.t_ptc) * crf(credit_rate, fin.lt)
    total = capital + om + fuel + spent + decommissioning - credit
    residual = db * (1 + 1 / cf) - 14.8 * x_p
    return capital, om, fuel, spent, decommissioning, credit, total, energy, residual


class TestCompiledChain:
    """The objective runs on a cost chain compiled once per (costs, fin)."""

    @pytest.mark.parametrize("costs, fin", PROBLEMS)
    def test_bit_identical_to_scalar_path_at_every_call_size(self, costs, fin):
        x = corner_and_random_designs(5000, seed=11)
        scalar = np.array([
            penalized_objective(ReactorDesign.from_array(row), costs, fin, 0.05) for row in x
        ])
        objective = make_design_objective(costs, fin, 0.05)
        assert np.array_equal(objective(x), scalar)
        assert np.array_equal(uncompiled_objective(x, costs, fin, 0.05), scalar)
        for size in (1, 5, 100):
            for start in range(0, 300, size):
                assert np.array_equal(objective(x[start:start + size]),
                                      scalar[start:start + size])

    @pytest.mark.parametrize("weight", [0.0, 0.05])
    @pytest.mark.parametrize(
        "fin", [pytest.param(FINANCE_VARIANTS[name], id=name)
                for name in ("stock", "escalated", "downtime_off")])
    def test_blocked_objective_bit_identical_to_one_pass(self, fin, weight):
        block = microlcoe.optimize._BLOCK_ROWS
        x = corner_and_random_designs(2 * block + 7 - 32, seed=14)
        assert len(x) == 2 * block + 7
        terms = compile_lcoe(DEFAULT_COSTS, fin)
        objective = make_design_objective(DEFAULT_COSTS, fin, weight)
        for size in (0, 1, 2, block - 1, block, block + 1, 2 * block + 7):
            values = terms(*x[:size].T)
            expected = values[6] + weight * values[8] * values[8]
            for matrix in (x[:size], np.asfortranarray(x[:size])):
                got = objective(matrix)
                assert got.shape == (size,)
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("costs, fin", PROBLEMS)
    def test_lcoe_terms_match_hand_oracle(self, costs, fin):
        x = corner_and_random_designs(200, seed=12)
        expected = np.array([hand_lcoe(*row, costs, fin) for row in x])
        terms = lcoe_terms(*x.T, costs, fin)
        residual = compile_lcoe(costs, fin)(*x.T)[8]
        assert len(terms) == 8
        for j, got in enumerate((*terms, residual)):
            np.testing.assert_allclose(np.broadcast_to(got, len(x)), expected[:, j],
                                       rtol=1e-9, atol=1e-9)

    def test_hand_oracle_reproduces_base_case(self):
        # the published base-case breakdown, $/MWh, flat capacity factor
        terms = hand_lcoe(*BASE_DESIGN.as_array(), DEFAULT_COSTS, FLAT_CF)
        expected = (29.55, 10.09, 13.73, 1.00, 27.84, 15.49, 66.72)
        assert terms[:7] == pytest.approx(expected, abs=0.05)
        assert terms[8] == pytest.approx(-11.742, abs=1e-3)

    def test_credit_computed_once_per_objective(self, monkeypatch):
        calls = []
        original = microlcoe.costs.ptc_credit_per_mwh

        def counted(fin):
            calls.append(fin)
            return original(fin)

        monkeypatch.setattr(microlcoe.costs, "ptc_credit_per_mwh", counted)
        objective = make_design_objective(DEFAULT_COSTS, DEFAULT_FINANCE)
        assert len(calls) == 1
        x = corner_and_random_designs(100, seed=13)
        for size in (1, 5, len(x)):
            objective(x[:size])
        assert len(calls) == 1
