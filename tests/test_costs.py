"""Annualization factors and the levelized-cost assembly against hand-derived
oracle values, plus the module's algebraic invariants."""

import itertools
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from microlcoe.costs import (
    DEFAULT_COSTS,
    DEFAULT_FINANCE,
    DESIGN_BOUNDS,
    CostInputs,
    FinancialParams,
    ReactorDesign,
    bounds_arrays,
    capital_recovery_factor,
    compile_lcoe,
    effective_capacity_factor,
    lcoe_breakdown,
    present_value_annuity_factor,
    ptc_credit_per_mwh,
    sinking_fund_factor,
)

BASE_DESIGN = ReactorDesign(p_elec=19.13, x_p=5.0, x_t=0.2913, t_refuel=6.24, db=30.0)
FLAT_CF = replace(DEFAULT_FINANCE, downtime_model=False)
ZERO_COSTS = CostInputs(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)


def annual_dollars(term, design=BASE_DESIGN, costs=DEFAULT_COSTS, fin=FLAT_CF):
    """A levelized term of :func:`lcoe_breakdown` times the annual energy, $/yr."""
    bd = lcoe_breakdown(design, costs, fin)
    return getattr(bd, term) * bd.annual_energy


def batch_dollars(costs, fin=FLAT_CF):
    """Purchase cost of one fuel batch of BASE_DESIGN, $: the annual fuel
    charge divided by the refueling-interval annuity."""
    return annual_dollars("fuel", costs=costs, fin=fin) / capital_recovery_factor(
        fin.r, BASE_DESIGN.t_refuel
    )


def only(**prices):
    """A cost set with every entry zero except ``prices``."""
    return replace(ZERO_COSTS, **prices)


class TestAnnuityFactors:
    def test_crf_twenty_years(self):
        assert capital_recovery_factor(0.05, 20) == pytest.approx(0.080243, abs=1e-6)

    def test_crf_zero_rate(self):
        assert capital_recovery_factor(0.0, 20) == 0.05

    def test_crf_refuel_horizon(self):
        assert capital_recovery_factor(0.05, 6.24) == pytest.approx(0.1904968318, abs=1e-6)

    def test_sff_twenty_years(self):
        assert sinking_fund_factor(0.05, 20) == pytest.approx(0.030243, abs=1e-6)

    def test_sff_zero_rate(self):
        assert sinking_fund_factor(0.0, 20) == 0.05

    def test_sff_identity(self):
        crf = capital_recovery_factor(0.07, 13)
        assert sinking_fund_factor(0.07, 13) == pytest.approx(crf - 0.07, abs=1e-12)

    def test_pva_ten_years(self):
        assert present_value_annuity_factor(0.05, 10) == pytest.approx(7.72173, abs=1e-5)

    def test_pva_zero_rate(self):
        assert present_value_annuity_factor(0.0, 10) == 10.0

    def test_pva_single_period(self):
        assert present_value_annuity_factor(0.05, 1) == pytest.approx(0.952381, abs=1e-6)

    @pytest.mark.parametrize(
        "factor", [capital_recovery_factor, sinking_fund_factor, present_value_annuity_factor]
    )
    def test_zero_rate_continuity(self, factor):
        for n in (1.0, 6.24, 20.0):
            assert abs(factor(1e-9, n) - factor(0.0, n)) < 1e-6

    @pytest.mark.parametrize(
        "factor", [capital_recovery_factor, sinking_fund_factor, present_value_annuity_factor]
    )
    @pytest.mark.parametrize("n", [0.0, -5.0])
    def test_horizon_errors(self, factor, n):
        with pytest.raises(ValueError):
            factor(0.05, n)


class TestEffectiveCapacityFactor:
    def test_downtime_applied(self):
        assert effective_capacity_factor(DEFAULT_FINANCE, 6.24) == pytest.approx(0.86101, abs=1e-5)

    def test_zero_downtime(self):
        fin = replace(DEFAULT_FINANCE, t_down=0.0)
        assert effective_capacity_factor(fin, 6.24) == 0.93

    def test_model_off(self):
        assert effective_capacity_factor(FLAT_CF, 2.0) == 0.93
        assert effective_capacity_factor(FLAT_CF, 10.0) == 0.93


class TestAnnualEnergy:
    def test_base_case(self):
        assert lcoe_breakdown(BASE_DESIGN, DEFAULT_COSTS, FLAT_CF).annual_energy == pytest.approx(
            155848.3, abs=0.5
        )

    def test_unit_plant(self):
        design = replace(BASE_DESIGN, p_elec=1.0)
        fin = replace(FLAT_CF, cf_base=1.0)
        assert lcoe_breakdown(design, DEFAULT_COSTS, fin).annual_energy == 8760.0

    def test_half_duty(self):
        design = replace(BASE_DESIGN, p_elec=20.0)
        fin = replace(FLAT_CF, cf_base=0.5)
        assert lcoe_breakdown(design, DEFAULT_COSTS, fin).annual_energy == 87600.0


class TestAnnualizedCosts:
    # Each term of the breakdown times the annual energy, against the
    # hand-computed dollars per year.
    def test_capital_base(self):
        assert annual_dollars("capital") == pytest.approx(4.6052e6, abs=1e3)

    def test_capital_zero(self):
        assert annual_dollars("capital", costs=only(c_yc=104.0)) == 0.0

    def test_capital_high(self):
        design = replace(BASE_DESIGN, p_elec=20.0)
        costs = replace(DEFAULT_COSTS, occ=4000.0)
        assert annual_dollars("capital", design, costs) == pytest.approx(6.4194e6, abs=1e3)

    def test_om_base(self):
        assert annual_dollars("om") == pytest.approx(1.5726e6, abs=500.0)

    def test_om_zero(self):
        assert annual_dollars("om", costs=ZERO_COSTS) == 0.0

    def test_om_heavy_staffing(self):
        costs = replace(DEFAULT_COSTS, n_fte=10.0, s_fte=175_151.50, fom=531_000.0, vom=2.44)
        assert annual_dollars("om", costs=costs) == pytest.approx(2.6627e6, abs=1e3)

    def test_fuel_annuity(self):
        assert annual_dollars("fuel") == pytest.approx(2.1400e6, abs=2e3)

    def test_fuel_zero(self):
        assert annual_dollars("fuel", costs=ZERO_COSTS) == 0.0

    def test_fuel_zero_rate(self):
        # at r = 0 a batch is spread evenly over its refueling interval
        fin = replace(FLAT_CF, r=0.0)
        assert annual_dollars("fuel", fin=fin) == pytest.approx(1.8003e6, abs=2e3)

    def test_decommissioning_base(self):
        assert annual_dollars("decommissioning") == pytest.approx(4.3391e6, abs=2e3)

    def test_decommissioning_zero(self):
        assert annual_dollars("decommissioning", costs=only(occ=3000.0)) == 0.0

    def test_decommissioning_low_rate(self):
        fin = replace(FLAT_CF, r=0.03)
        assert annual_dollars("decommissioning", fin=fin) == pytest.approx(5.3399e6, abs=2e3)


class TestFuelBatchCost:
    def test_base_components(self):
        # one price at a time isolates each component of the batch purchase
        assert batch_dollars(only(c_yc=104.0)) == pytest.approx(4.526e6, abs=5e3)
        assert batch_dollars(only(c_conv=6.0)) == pytest.approx(0.2598e6, abs=500.0)
        assert batch_dollars(only(c_swu=160.0)) == pytest.approx(4.519e6, abs=5e3)
        assert batch_dollars(only(c_fab=500.0)) == pytest.approx(1.9296e6, abs=2e3)
        assert batch_dollars(DEFAULT_COSTS) == pytest.approx(11.234e6, abs=1e4)

    def test_zero_unit_costs(self):
        assert batch_dollars(ZERO_COSTS) == 0.0

    def test_loss_scales_uranium_only(self):
        lossless, lossy = replace(FLAT_CF, loss=0.0), replace(FLAT_CF, loss=0.005)
        uranium = only(c_yc=104.0)
        ratio = annual_dollars("fuel", costs=uranium, fin=lossless) / annual_dollars(
            "fuel", costs=uranium, fin=lossy
        )
        assert ratio == pytest.approx(0.995, rel=1e-12)
        no_uranium = replace(DEFAULT_COSTS, c_yc=0.0)
        assert annual_dollars("fuel", costs=no_uranium, fin=lossless) == annual_dollars(
            "fuel", costs=no_uranium, fin=lossy
        )


class TestPtcCredit:
    def test_base_case(self):
        assert ptc_credit_per_mwh(DEFAULT_FINANCE) == pytest.approx(15.490, abs=0.01)

    def test_no_credit(self):
        assert ptc_credit_per_mwh(replace(DEFAULT_FINANCE, ptc_rate=0.0)) == 0.0

    def test_zero_rate_limit(self):
        assert ptc_credit_per_mwh(replace(DEFAULT_FINANCE, r=0.0)) == pytest.approx(12.5, abs=1e-12)

    def test_duration_cannot_exceed_lifetime(self):
        with pytest.raises(ValueError):
            FinancialParams(t_ptc=25.0, lt=20.0)


class TestFinancialParamsValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("r", float("nan")),
            ("infl", float("nan")), ("infl", float("inf")), ("infl", -0.01),
            ("lt", float("nan")), ("lt", float("inf")), ("lt", 0.0),
            ("t_ptc", float("nan")), ("t_ptc", 0.0), ("t_ptc", -1.0),
            ("t_down", float("nan")), ("t_down", float("inf")), ("t_down", -0.1),
            ("ptc_rate", float("nan")), ("ptc_rate", float("inf")), ("ptc_rate", -1.0),
        ],
    )
    def test_rejects_non_finite_and_out_of_range(self, field, value):
        with pytest.raises(ValueError):
            replace(DEFAULT_FINANCE, **{field: value})

    @pytest.mark.parametrize(
        "fields",
        [
            {"r": 1e308},
            {"r": 1e15},  # (1+r)^20 is finite, the CRF's r * (1+r)^20 is not
            {"r": 5e28, "lt": 5.0, "t_ptc": 5.0},  # over the longest refueling interval
            {"infl": 1e308, "inflation_mode": "escalated"},
        ],
    )
    def test_rate_that_overflows_compounding_rejected(self, fields):
        with pytest.raises(ValueError, match="overflows when compounded"):
            replace(DEFAULT_FINANCE, **fields)

    def test_real_mode_ignores_the_inflation_rate(self):
        assert replace(DEFAULT_FINANCE, infl=1e308).inflation_mode == "real"

    @pytest.mark.parametrize("mode", ["real", "escalated"])
    @pytest.mark.parametrize("lt", [5.0, 20.0])
    def test_largest_accepted_rate_keeps_every_term_finite(self, lt, mode):
        horizon = max(lt, DESIGN_BOUNDS["t_refuel"][1])
        r = math.expm1(math.log(sys.float_info.max) / (horizon + 1.0)) * (1.0 - 1e-12)
        fin = FinancialParams(r=r, infl=0.0, lt=lt, t_ptc=min(10.0, lt), inflation_mode=mode)
        with pytest.raises(ValueError, match="overflows when compounded"):
            replace(fin, r=r * (1.0 + 1e-9))
        corners = np.array(list(itertools.product(*zip(*bounds_arrays()))))
        with np.errstate(all="raise"):
            terms = compile_lcoe(DEFAULT_COSTS, fin)(*corners.T)
        assert all(np.isfinite(term).all() for term in terms)


class TestLcoeBreakdown:
    def test_base_case_components(self):
        bd = lcoe_breakdown(BASE_DESIGN, DEFAULT_COSTS, FLAT_CF)
        assert bd.capital == pytest.approx(29.55, abs=0.05)
        assert bd.om == pytest.approx(10.09, abs=0.05)
        assert bd.fuel == pytest.approx(13.73, abs=0.05)
        assert bd.spent == pytest.approx(1.00, abs=0.05)
        assert bd.decommissioning == pytest.approx(27.84, abs=0.05)
        assert bd.ptc_credit == pytest.approx(15.49, abs=0.05)
        assert bd.total == pytest.approx(66.72, abs=0.05)

    def test_pure_credit(self):
        bd = lcoe_breakdown(BASE_DESIGN, ZERO_COSTS, FLAT_CF)
        assert bd.total == pytest.approx(-15.49, abs=0.01)

    def test_capital_only(self):
        occ_only = CostInputs(3000.0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
        fin = replace(FLAT_CF, ptc_rate=0.0)
        bd = lcoe_breakdown(BASE_DESIGN, occ_only, fin)
        assert bd.total == pytest.approx(29.55, abs=0.05)

    def test_deterministic(self):
        a = lcoe_breakdown(BASE_DESIGN, DEFAULT_COSTS, DEFAULT_FINANCE)
        b = lcoe_breakdown(BASE_DESIGN, DEFAULT_COSTS, DEFAULT_FINANCE)
        assert a == b

    def test_additivity_fuzz(self):
        rng = np.random.default_rng(314)
        for _ in range(1000):
            design = ReactorDesign(
                p_elec=rng.uniform(1, 20),
                x_p=rng.uniform(5, 20),
                x_t=rng.uniform(0.2, 0.3),
                t_refuel=rng.uniform(2, 10),
                db=rng.uniform(15, 30),
            )
            costs = CostInputs(
                occ=rng.uniform(0, 5000),
                n_fte=rng.uniform(0, 20),
                s_fte=rng.uniform(0, 3e5),
                fom=rng.uniform(0, 1e6),
                vom=rng.uniform(0, 5),
                c_yc=rng.uniform(0, 200),
                c_conv=rng.uniform(0, 20),
                c_swu=rng.uniform(0, 300),
                c_fab=rng.uniform(0, 1000),
                c_spent=rng.uniform(0, 3),
                c_dec=rng.uniform(0, 10000),
            )
            bd = lcoe_breakdown(design, costs, DEFAULT_FINANCE)
            parts = bd.capital + bd.om + bd.fuel + bd.spent + bd.decommissioning - bd.ptc_credit
            assert bd.total == pytest.approx(parts, rel=1e-9)

    def test_homogeneity_in_unit_costs(self):
        # doubling every unit cost (staff count is a quantity, not a price)
        fin = replace(DEFAULT_FINANCE, ptc_rate=0.0)
        doubled = replace(
            DEFAULT_COSTS,
            occ=2 * DEFAULT_COSTS.occ,
            s_fte=2 * DEFAULT_COSTS.s_fte,
            fom=2 * DEFAULT_COSTS.fom,
            vom=2 * DEFAULT_COSTS.vom,
            c_yc=2 * DEFAULT_COSTS.c_yc,
            c_conv=2 * DEFAULT_COSTS.c_conv,
            c_swu=2 * DEFAULT_COSTS.c_swu,
            c_fab=2 * DEFAULT_COSTS.c_fab,
            c_spent=2 * DEFAULT_COSTS.c_spent,
            c_dec=2 * DEFAULT_COSTS.c_dec,
        )
        one = lcoe_breakdown(BASE_DESIGN, DEFAULT_COSTS, fin).total
        two = lcoe_breakdown(BASE_DESIGN, doubled, fin).total
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_capacity_monotonicity(self):
        totals = []
        for p in np.linspace(1.0, 20.0, 25):
            design = replace(BASE_DESIGN, p_elec=float(p))
            totals.append(lcoe_breakdown(design, DEFAULT_COSTS, DEFAULT_FINANCE).total)
        assert np.all(np.diff(totals) < 0.0)

    def test_efficiency_monotonicity(self):
        totals = []
        for eta in np.linspace(0.25, 0.6, 15):
            fin = replace(DEFAULT_FINANCE, eta=float(eta))
            totals.append(lcoe_breakdown(BASE_DESIGN, DEFAULT_COSTS, fin).total)
        assert np.all(np.diff(totals) < 0.0)

    def test_ptc_credit_is_flat(self):
        credits = set()
        rng = np.random.default_rng(8)
        for _ in range(20):
            design = ReactorDesign(
                p_elec=rng.uniform(1, 20),
                x_p=rng.uniform(5, 20),
                x_t=rng.uniform(0.2, 0.3),
                t_refuel=rng.uniform(2, 10),
                db=rng.uniform(15, 30),
            )
            credits.add(lcoe_breakdown(design, DEFAULT_COSTS, DEFAULT_FINANCE).ptc_credit)
        assert len(credits) == 1

    def test_total_before_credit(self):
        bd = lcoe_breakdown(BASE_DESIGN, DEFAULT_COSTS, FLAT_CF)
        assert bd.total_before_credit == pytest.approx(bd.total + 15.49, abs=0.01)

    def test_escalated_mode_monotone_in_inflation(self):
        totals = []
        for infl in (0.002, 0.01, 0.02):
            fin = replace(DEFAULT_FINANCE, infl=infl, inflation_mode="escalated")
            totals.append(lcoe_breakdown(BASE_DESIGN, DEFAULT_COSTS, fin).total)
        assert totals[0] < totals[1] < totals[2]
        real = lcoe_breakdown(BASE_DESIGN, DEFAULT_COSTS, DEFAULT_FINANCE).total
        assert real < totals[0]


class TestReactorDesign:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("p_elec", 0.5), ("p_elec", 21.0),
            ("x_p", 4.9), ("x_p", 20.6),
            ("x_t", 0.19), ("x_t", 0.31),
            ("t_refuel", 1.9), ("t_refuel", 10.4),
            ("db", 14.0), ("db", 31.0),
        ],
    )
    def test_out_of_box_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ReactorDesign(**{**BASE_DESIGN.__dict__, field: value})

    def test_array_round_trip(self):
        arr = BASE_DESIGN.as_array()
        assert ReactorDesign.from_array(arr) == BASE_DESIGN

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            CostInputs(-1.0, 5, 150e3, 5e5, 2.07, 104, 6, 160, 500, 1, 7500)
