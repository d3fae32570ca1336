"""Density models, value grids, roulette selection, and scenario sampling:
exactness of the grid lattice, distributional checks on large draw counts,
group masking, and the determinism contracts."""

import re
from dataclasses import replace

import numpy as np
import pytest

from microlcoe.costs import DEFAULT_COSTS
from microlcoe.rng import make_rng
from microlcoe.uncertainty import (
    MAX_GRID_POINTS,
    MODE_GROUPS,
    STUDY_MODES,
    Scenario,
    UncertainParameter,
    default_uncertain_parameters,
    generate_study,
    parameter_grid,
    pdf_density,
    roulette_select,
    sample_scenario,
    stock_parameter,
)

OCC = UncertainParameter("occ", "uniform", 2500.0, 4000.0, None, 3000.0)
URANIUM = UncertainParameter("c_yc", "triangular", 84.0, 156.0, 104.0, 104.0)
SFTE = UncertainParameter("s_fte", "uniform", 120_000.0, 225_000.0, None, 150_000.0)


class FixedUniform:
    """Generator stub returning preset uniform draws."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


class TestPdf:
    def test_uniform_density(self):
        assert pdf_density(OCC, 3000.0) == pytest.approx(1.0 / 1500.0, rel=1e-12)

    def test_triangular_peak(self):
        assert pdf_density(URANIUM, 104.0) == pytest.approx(2.0 / 72.0, rel=1e-12)

    def test_triangular_endpoint(self):
        assert pdf_density(URANIUM, 84.0) == 0.0

    def test_outside_support(self):
        assert pdf_density(OCC, 2499.9) == 0.0
        assert pdf_density(OCC, 4000.1) == 0.0
        assert pdf_density(URANIUM, 200.0) == 0.0

    @pytest.mark.parametrize(
        "param",
        [OCC, URANIUM,
         UncertainParameter("p", "triangular", 0.0, 1.0, 0.0, 0.0),
         UncertainParameter("p", "triangular", 0.0, 1.0, 1.0, 1.0)],
        ids=["uniform", "triangular", "mode-at-min", "mode-at-max"],
    )
    def test_normalization(self, param):
        # hand-rolled trapezoid rule over 1e5 panels
        x = np.linspace(param.min, param.max, 100_001)
        y = pdf_density(param, x)
        dx = (param.max - param.min) / 100_000
        integral = dx * (0.5 * (y[0] + y[-1]) + y[1:-1].sum())
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_mode_at_max_rises_to_its_peak(self):
        param = UncertainParameter("p", "triangular", 0.0, 2.0, 2.0, 1.0)
        assert pdf_density(param, [0.0, 1.0, 2.0]).tolist() == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize(
        "spec,message",
        [(("uniform", 10.0, 10.0, None, 10.0), "pdf requires min < max"),
         (("triangular", 0.0, 1.0, 2.0, 0.5), "triangular pdf requires min <= mode <= max"),
         (("triangular", 0.0, 1.0, None, 0.5), "triangular pdf requires min <= mode <= max"),
         (("uniform", 0.0, 1.0, 0.5, 0.5), "uniform pdf takes no mode"),
         (("gaussian", 0.0, 1.0, None, 0.5), "pdf kind must be one of"),
         (("uniform", 2500.0, 4000.0, None, 2000.0), "nominal of p must lie within")],
        ids=["empty-range", "mode-outside", "no-mode", "uniform-mode", "unknown-kind",
             "nominal-outside"],
    )
    def test_invalid_parameters(self, spec, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            UncertainParameter("p", *spec)

    @pytest.mark.parametrize("points", [1, MAX_GRID_POINTS + 1])
    def test_grid_points_out_of_range_rejected(self, points):
        with pytest.raises(ValueError, match="grid_points"):
            replace(OCC, grid_points=points)
        assert replace(OCC, grid_points=MAX_GRID_POINTS)


class TestParameterGrid:
    def test_capital_cost_lattice_point(self):
        grid = parameter_grid(OCC)
        assert grid[97] == pytest.approx(3969.70, abs=0.01)

    def test_lower_endpoint_exact(self):
        assert parameter_grid(OCC)[0] == 2500.0

    def test_upper_endpoint_exact(self):
        assert parameter_grid(OCC)[-1] == 4000.0

    def test_compensation_lattice_point(self):
        grid = parameter_grid(SFTE)
        assert grid[64] == pytest.approx(187_878.79, abs=0.01)

    def test_equispaced(self):
        grid = parameter_grid(OCC)
        assert len(grid) == 100
        assert np.allclose(np.diff(grid), 1500.0 / 99.0, rtol=1e-12)


class TestRouletteSelect:
    def test_single_live_segment(self):
        rng = make_rng(0)
        for _ in range(50):
            assert roulette_select([0.0, 1.0, 0.0], rng) == 1

    def test_cumulative_inversion_split(self):
        assert roulette_select([1.0, 1.0], FixedUniform([0.3])) == 0
        assert roulette_select([1.0, 1.0], FixedUniform([0.49999])) == 0
        assert roulette_select([1.0, 1.0], FixedUniform([0.5])) == 1
        assert roulette_select([1.0, 1.0], FixedUniform([0.9])) == 1

    @pytest.mark.parametrize("weights", [[0.0, 0.0], [-1.0, 2.0], [np.nan, 1.0], []])
    def test_invalid_weights(self, weights):
        with pytest.raises(ValueError):
            roulette_select(weights, make_rng(0))

    def test_triangular_grid_frequencies(self):
        grid = parameter_grid(URANIUM)
        weights = pdf_density(URANIUM, grid)
        expected = weights / weights.sum()
        rng = make_rng(123)
        counts = np.zeros(len(grid))
        draws = 100_000
        for _ in range(draws):
            counts[roulette_select(weights, rng)] += 1
        assert np.max(np.abs(counts / draws - expected)) < 0.01

    def test_uniform_grid_frequencies_within_five_sigma(self):
        grid = parameter_grid(OCC)
        weights = pdf_density(OCC, grid)
        rng = make_rng(321)
        draws = 100_000
        counts = np.zeros(len(grid))
        for _ in range(draws):
            counts[roulette_select(weights, rng)] += 1
        p = 1.0 / len(grid)
        sigma = np.sqrt(p * (1.0 - p) / draws)
        assert np.max(np.abs(counts / draws - p)) < 5.0 * sigma

    def test_triangular_mean_matches_weighted_grid_mean(self):
        grid = parameter_grid(URANIUM)
        weights = pdf_density(URANIUM, grid)
        analytic = float(np.sum(grid * weights) / np.sum(weights))
        rng = make_rng(555)
        draws = 100_000
        total = 0.0
        for _ in range(draws):
            total += grid[roulette_select(weights, rng)]
        assert total / draws == pytest.approx(analytic, rel=0.005)


class TestSampleScenario:
    def test_none_mode_is_nominal(self):
        params = default_uncertain_parameters()
        scenario = sample_scenario(params, "none", 0, make_rng(1))
        assert scenario.costs == DEFAULT_COSTS
        assert scenario.grid_indices == {}

    def test_occ_mode_masks_everything_else(self):
        params = default_uncertain_parameters()
        scenario = sample_scenario(params, "occ", 3, make_rng(17))
        grid = parameter_grid(params[0])
        assert scenario.costs.occ in grid
        assert set(scenario.grid_indices) == {"occ"}
        for name in ("n_fte", "s_fte", "fom", "vom", "c_yc", "c_conv", "c_swu", "c_fab"):
            assert getattr(scenario.costs, name) == getattr(DEFAULT_COSTS, name)

    def test_all_mode_membership_audit(self):
        params = default_uncertain_parameters()
        grids = {p.name: parameter_grid(p) for p in params}
        for scenario in generate_study(params, "all", n=100, seed=9):
            assert 2500.0 <= scenario.costs.occ <= 4000.0
            assert 84.0 <= scenario.costs.c_yc <= 156.0
            for name, grid in grids.items():
                value = getattr(scenario.costs, name)
                if name == "n_fte":
                    assert value == round(value) and 3 <= value <= 10
                else:
                    assert value in grid
                assert value == grid[scenario.grid_indices[name]] or name == "n_fte"

    def test_fte_rounded_to_integer(self):
        params = default_uncertain_parameters()
        values = {
            sample_scenario(params, "om", i, make_rng(77, i)).costs.n_fte for i in range(50)
        }
        assert all(v == int(v) for v in values)
        assert values <= set(float(k) for k in range(3, 11))

    def test_group_masking_per_mode(self):
        params = default_uncertain_parameters()
        for mode, group in MODE_GROUPS.items():
            scenario = sample_scenario(params, mode, 0, make_rng(5))
            assert set(scenario.grid_indices) == set(group)
            for p in params:
                if p.name not in group:
                    assert getattr(scenario.costs, p.name) == p.nominal

    def test_fixed_charges_come_from_base(self):
        params = default_uncertain_parameters()
        scenario = sample_scenario(params, "all", 0, make_rng(2))
        assert scenario.costs.c_spent == DEFAULT_COSTS.c_spent
        assert scenario.costs.c_dec == DEFAULT_COSTS.c_dec

    def test_unknown_mode_rejected(self):
        message = re.escape("mode must be one of ('all', 'occ', 'om', 'fuel', 'none')")
        assert STUDY_MODES == tuple(MODE_GROUPS) == ("all", "occ", "om", "fuel", "none")
        with pytest.raises(ValueError, match=message):
            sample_scenario(default_uncertain_parameters(), "everything", 0, make_rng(0))
        with pytest.raises(ValueError, match=message):
            Scenario(id=0, mode="everything", costs=DEFAULT_COSTS, grid_indices={})

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="scenario id must be >= 0"):
            Scenario(id=-1, mode="all", costs=DEFAULT_COSTS, grid_indices={})


class TestGenerateStudy:
    def test_single_nominal_scenario(self):
        params = default_uncertain_parameters()
        study = generate_study(params, "none", n=1, seed=4)
        assert len(study) == 1
        assert study[0].costs == DEFAULT_COSTS

    def test_deterministic_per_seed(self):
        params = default_uncertain_parameters()
        a = generate_study(params, "all", n=20, seed=31)
        b = generate_study(params, "all", n=20, seed=31)
        assert a == b

    def test_different_seeds_differ(self):
        params = default_uncertain_parameters()
        a = generate_study(params, "all", n=20, seed=31)
        b = generate_study(params, "all", n=20, seed=32)
        assert a != b

    def test_prefix_property(self):
        params = default_uncertain_parameters()
        long = generate_study(params, "all", n=100, seed=8)
        short = generate_study(params, "all", n=50, seed=8)
        assert long[:50] == short

    def test_no_scenarios_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            generate_study(default_uncertain_parameters(), "all", n=0)

    def test_ids_sequential(self):
        params = default_uncertain_parameters()
        study = generate_study(params, "fuel", n=10, seed=0)
        assert [s.id for s in study] == list(range(10))


class TestStockParameter:
    def test_stock_entries(self):
        assert stock_parameter("occ") == OCC
        assert stock_parameter("c_yc") == URANIUM

    def test_triangular_mode_follows_the_nominal(self):
        assert stock_parameter("c_yc", nominal=100.0).mode == 100.0
        assert stock_parameter("occ", pdf="triangular", nominal=3100.0).mode == 3100.0
        assert stock_parameter("c_yc", pdf="uniform").mode is None

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError, match="midpoint"):
            stock_parameter("occ", midpoint=3000.0)
