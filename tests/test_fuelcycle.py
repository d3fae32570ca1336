"""Fuel-cycle arithmetic against hand-computed oracle values and the module
invariants (mass balance, symmetry, monotonicity, round trips)."""

from types import SimpleNamespace

import numpy as np
import pytest

from microlcoe.fuelcycle import (
    EnrichmentAssays,
    MassFlows,
    batch_product_mass,
    burnup_residual,
    mass_balance_residual,
    mass_flows,
    specific_power,
    swu_per_kg_product,
    value_function,
)

BASE_ASSAYS = EnrichmentAssays(x_p=5.0, x_t=0.2913, x_f=0.711)


class TestValueFunction:
    def test_symmetry_point_is_zero(self):
        assert value_function(0.5) == 0.0

    def test_product_assay(self):
        assert value_function(0.05) == pytest.approx(2.6500, abs=1e-3)

    def test_natural_uranium_assay(self):
        assert value_function(0.00711) == pytest.approx(4.8690, abs=1e-3)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            value_function(bad)

    def test_symmetric_about_half(self):
        rng = np.random.default_rng(2024)
        x = rng.uniform(1e-6, 1.0 - 1e-6, size=500)
        left = value_function(x)
        right = value_function(1.0 - x)
        assert np.allclose(left, right, rtol=1e-12, atol=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(1e-9, 1.0 - 1e-9, size=1000)
        assert np.all(value_function(x) >= 0.0)


class TestSpecificPower:
    def test_zero_burnup(self):
        assert specific_power(0.0, 3.0, 0.9) == 0.0

    def test_base_case(self):
        assert specific_power(30.0, 6.24, 0.93) == pytest.approx(14.1632, abs=1e-3)

    def test_two_year_cycle(self):
        assert specific_power(15.0, 2.0, 1.0) == pytest.approx(20.5479, abs=1e-3)

    @pytest.mark.parametrize(
        "db,t,cf",
        [(30.0, 0.0, 0.9), (30.0, -1.0, 0.9), (30.0, 5.0, 0.0), (30.0, 5.0, 1.5), (-1.0, 5.0, 0.9)],
    )
    def test_domain_errors(self, db, t, cf):
        with pytest.raises(ValueError):
            specific_power(db, t, cf)


class TestBatchProductMass:
    def test_base_case(self):
        assert batch_product_mass(19.13, 0.35, 14.1632) == pytest.approx(3859.1, abs=0.5)

    def test_burnup_round_trip(self):
        sp = specific_power(30.0, 6.24, 0.93)
        m_p = batch_product_mass(19.13, 0.35, sp)
        thermal_energy = 19.13 / 0.35 * 6.24 * 0.93 * 365.0  # MWd per batch
        assert thermal_energy / m_p == pytest.approx(30.0, abs=0.01)

    def test_vanishing_capacity_limit(self):
        assert batch_product_mass(1e-12, 0.35, 14.0) < 1e-9
        with pytest.raises(ValueError):
            batch_product_mass(0.0, 0.35, 14.0)

    @pytest.mark.parametrize("p,eta,sp", [(10.0, 0.0, 14.0), (10.0, 1.5, 14.0), (10.0, 0.35, 0.0)])
    def test_domain_errors(self, p, eta, sp):
        with pytest.raises(ValueError):
            batch_product_mass(p, eta, sp)


class TestMassFlows:
    def test_base_case(self):
        flows = mass_flows(BASE_ASSAYS, 3859.1)
        assert flows.m_f == pytest.approx(43298.0, abs=50.0)
        assert flows.m_t == pytest.approx(39439.0, abs=50.0)

    def test_feed_already_enriched(self):
        assays = EnrichmentAssays(x_p=0.711, x_t=0.25, x_f=0.711)
        flows = mass_flows(assays, 123.4)
        assert flows.m_f == pytest.approx(123.4, rel=1e-12)
        assert flows.m_t == pytest.approx(0.0, abs=1e-9)

    def test_haleu_feed_ratio(self):
        assays = EnrichmentAssays(x_p=19.75, x_t=0.25, x_f=0.711)
        flows = mass_flows(assays, 100.0)
        assert flows.m_f == pytest.approx(4229.9, abs=0.5)

    def test_tails_below_feed_required(self):
        with pytest.raises(ValueError):
            EnrichmentAssays(x_p=5.0, x_t=0.711, x_f=0.711)
        with pytest.raises(ValueError):
            EnrichmentAssays(x_p=5.0, x_t=0.8, x_f=0.711)

    @pytest.mark.parametrize(
        ("build", "message"),
        [(lambda: EnrichmentAssays(x_p=np.nan, x_t=0.25), "assays must be finite"),
         (lambda: EnrichmentAssays(x_p=100.0, x_t=0.25), "strictly inside"),
         (lambda: EnrichmentAssays(x_p=5.0, x_t=0.0), "strictly inside"),
         (lambda: EnrichmentAssays(x_p=0.5, x_t=0.25), "x_p must not be below feed assay"),
         (lambda: MassFlows(m_p=np.inf, m_f=2.0, m_t=1.0), "mass flows must be finite"),
         (lambda: MassFlows(m_p=0.0, m_f=1.0, m_t=1.0), "m_p must be positive"),
         (lambda: MassFlows(m_p=2.0, m_f=1.0, m_t=-1.0), "m_f cannot be below product mass")],
        ids=["assay-nan", "product-100", "tails-0", "product-below-feed", "mass-inf",
             "product-0", "feed-below-product"],
    )
    def test_constructor_rejects(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError):
            mass_flows(BASE_ASSAYS, 0.0)

    def test_two_routes_agree(self):
        # tails via the waste-rate ratio vs feed minus product
        rng = np.random.default_rng(11)
        for _ in range(200):
            x_t = rng.uniform(0.2, 0.3)
            x_p = rng.uniform(5.0, 20.0)
            m_p = rng.uniform(10.0, 1e4)
            flows = mass_flows(EnrichmentAssays(x_p=x_p, x_t=x_t), m_p)
            assert flows.m_t == pytest.approx(flows.m_f - flows.m_p, rel=1e-9)


class TestSwuPerKgProduct:
    def test_base_case(self):
        assert swu_per_kg_product(BASE_ASSAYS) == pytest.approx(7.319, abs=0.01)

    def test_no_enrichment_no_work(self):
        assays = EnrichmentAssays(x_p=0.711, x_t=0.3, x_f=0.711)
        assert swu_per_kg_product(assays) == pytest.approx(0.0, abs=1e-12)

    def test_lower_tails_needs_more_work(self):
        low = swu_per_kg_product(EnrichmentAssays(x_p=5.0, x_t=0.2))
        high = swu_per_kg_product(EnrichmentAssays(x_p=5.0, x_t=0.3))
        assert low > high

    def test_monotone_decreasing_in_tails(self):
        tails = np.linspace(0.2, 0.3, 50)
        swu = np.array([swu_per_kg_product(EnrichmentAssays(x_p=5.0, x_t=t)) for t in tails])
        assert np.all(np.diff(swu) < 0.0)

    def test_strictly_positive_when_enriching(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            assays = EnrichmentAssays(x_p=rng.uniform(5, 20), x_t=rng.uniform(0.2, 0.3))
            assert swu_per_kg_product(assays) > 0.0


class TestMassBalance:
    def test_constructed_flows_balance(self):
        flows = mass_flows(BASE_ASSAYS, 3859.1)
        assert mass_balance_residual(BASE_ASSAYS, flows) < 1e-9

    def test_perturbed_tails_detected(self):
        flows = mass_flows(BASE_ASSAYS, 3859.1)
        tampered = SimpleNamespace(m_p=flows.m_p, m_f=flows.m_f, m_t=flows.m_t + 1.0)
        assert mass_balance_residual(BASE_ASSAYS, tampered) > 0.0

    def test_type_invariant_rejects_tampered_tails(self):
        flows = mass_flows(BASE_ASSAYS, 3859.1)
        with pytest.raises(ValueError):
            MassFlows(m_p=flows.m_p, m_f=flows.m_f, m_t=flows.m_t + 1.0)

    def test_fuzz_thousand_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            x_t = rng.uniform(0.01, 0.7)
            x_f = rng.uniform(x_t + 0.01, 5.0)
            x_p = rng.uniform(x_f, 99.0)
            assays = EnrichmentAssays(x_p=x_p, x_t=x_t, x_f=x_f)
            flows = mass_flows(assays, rng.uniform(1e-3, 1e6))
            assert mass_balance_residual(assays, flows) < 1e-9


class TestBurnupResidual:
    def test_base_case(self):
        assert burnup_residual(5.0, 30.0, 6.24, 0.93) == pytest.approx(-11.742, abs=0.01)

    def test_exact_consistency_point(self):
        # db (1 + 1/cf) = 14.8 x_p at cf = 1, x_p = 5, db = 37
        assert burnup_residual(5.0, 37.0, 4.0, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_independent_of_interval(self):
        r3 = burnup_residual(5.0, 30.0, 3.0, 0.93)
        r9 = burnup_residual(5.0, 30.0, 9.0, 0.93)
        assert abs(r3 - r9) < 1e-12

    def test_interval_independence_fuzz(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            x_p = rng.uniform(5, 20)
            db = rng.uniform(15, 30)
            cf = rng.uniform(0.1, 1.0)
            t_a, t_b = rng.uniform(2, 10, size=2)
            assert abs(burnup_residual(x_p, db, t_a, cf) - burnup_residual(x_p, db, t_b, cf)) < 1e-12

    def test_domain_errors_propagate(self):
        with pytest.raises(ValueError):
            burnup_residual(5.0, 30.0, 0.0, 0.93)


def test_round_trip_energy_identity_fuzz():
    # batch thermal energy / batch mass recovers the burnup for any valid input
    rng = np.random.default_rng(99)
    for _ in range(500):
        p_elec = rng.uniform(1, 20)
        eta = rng.uniform(0.2, 0.6)
        db = rng.uniform(15, 30)
        t = rng.uniform(2, 10)
        cf = rng.uniform(0.5, 1.0)
        sp = specific_power(db, t, cf)
        m_p = batch_product_mass(p_elec, eta, sp)
        energy = p_elec / eta * t * cf * 365.0
        assert energy / m_p == pytest.approx(db, rel=1e-6)
