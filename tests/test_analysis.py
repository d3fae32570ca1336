"""Statistics conventions, study orchestration on small scenario counts,
sweeps, ranking, and the delimited outputs (including byte determinism)."""

import csv
import json
import math
import pickle
import re

import numpy as np
import pytest

import microlcoe.analysis as analysis
from microlcoe.analysis import (
    BenchmarkTable,
    Stats,
    StudyError,
    pool_workers,
    ptc_reduction,
    run_uncertainty_study,
    sensitivity_sweep,
    summarize_stats,
    technology_comparison,
    write_comparison_csv,
    write_manifest,
    write_sensitivity_csv,
    write_study_csv,
    write_study_stats_csv,
)
from microlcoe.costs import DEFAULT_COSTS, DEFAULT_FINANCE, ReactorDesign, lcoe_breakdown
from microlcoe.optimize import GaConfig, optimize_design
from microlcoe.rng import STREAM_OPTIMIZE, seed_path
from microlcoe.uncertainty import default_uncertain_parameters

LIGHT_GA = GaConfig(population=30, generations=40, stall_generations=20, restarts=2)
BASE_DESIGN = ReactorDesign(p_elec=19.13, x_p=5.0, x_t=0.2913, t_refuel=6.24, db=30.0)


def quantile_oracle(values, p):
    # linear interpolation between order statistics
    ordered = sorted(values)
    position = p * (len(ordered) - 1)
    i = math.floor(position)
    fraction = position - i
    if i + 1 >= len(ordered):
        return ordered[-1]
    return ordered[i] + fraction * (ordered[i + 1] - ordered[i])


class TestSummarizeStats:
    def test_symmetric_five_points(self):
        stats = summarize_stats([1, 2, 3, 4, 5])
        assert (stats.min, stats.q1, stats.median, stats.q3, stats.max) == (1, 2, 3, 4, 5)
        assert stats.sd == pytest.approx(1.5811, abs=1e-4)

    def test_constant_data(self):
        stats = summarize_stats([7, 7, 7, 7])
        assert stats.sd == 0.0
        assert stats.min == stats.q1 == stats.median == stats.q3 == stats.max == 7.0

    def test_requires_two_finite_values(self):
        with pytest.raises(ValueError):
            summarize_stats([1.0])
        with pytest.raises(ValueError):
            summarize_stats([1.0, float("nan")])

    def test_quartiles_match_order_statistic_oracle(self):
        rng = np.random.default_rng(1234)
        for n in (2, 3, 7, 50, 101):
            values = rng.normal(size=n)
            stats = summarize_stats(values)
            assert stats.q1 == pytest.approx(quantile_oracle(values, 0.25), rel=1e-12)
            assert stats.median == pytest.approx(quantile_oracle(values, 0.50), rel=1e-12)
            assert stats.q3 == pytest.approx(quantile_oracle(values, 0.75), rel=1e-12)

    def test_sd_uses_sample_denominator(self):
        values = [1.0, 2.0, 4.0]
        mean = sum(values) / 3
        expected = math.sqrt(sum((v - mean) ** 2 for v in values) / 2)
        assert summarize_stats(values).sd == pytest.approx(expected, rel=1e-12)

    def test_stats_ordering_enforced(self):
        with pytest.raises(ValueError):
            Stats(max=1.0, min=2.0, sd=0.0, q1=1.0, median=1.0, q3=1.0)
        with pytest.raises(ValueError):
            Stats(max=5.0, min=1.0, sd=-0.1, q1=2.0, median=3.0, q3=4.0)


class TestPtcReduction:
    def test_definition(self):
        bd = lcoe_breakdown(BASE_DESIGN, DEFAULT_COSTS, DEFAULT_FINANCE)
        assert ptc_reduction(bd) == bd.ptc_credit / (bd.total + bd.ptc_credit)


class TestRunStudy:
    def test_single_nominal_scenario_equals_base_optimization(self):
        report = run_uncertainty_study("none", n=1, seed=5, ga_config=LIGHT_GA)
        scenario, result = report.scenarios[0]
        assert scenario.costs == DEFAULT_COSTS
        direct = optimize_design(
            DEFAULT_COSTS, DEFAULT_FINANCE, ga_config=LIGHT_GA,
            seed=seed_path(5, STREAM_OPTIMIZE, 0),
        )
        assert result == direct
        assert report.stats == {}

    def test_masking_and_stats_assembly(self):
        report = run_uncertainty_study("occ", n=4, seed=2, ga_config=LIGHT_GA)
        assert len(report.scenarios) == 4
        for scenario, _ in report.scenarios:
            assert set(scenario.grid_indices) == {"occ"}
            assert scenario.costs.c_yc == DEFAULT_COSTS.c_yc
        assert set(report.stats) == {"lcoe", "p_elec", "x_p", "x_t", "t_refuel", "db"}
        for stats in report.stats.values():
            assert stats.min <= stats.q1 <= stats.median <= stats.q3 <= stats.max

    def test_deterministic_rerun(self):
        a = run_uncertainty_study("fuel", n=3, seed=11, ga_config=LIGHT_GA)
        b = run_uncertainty_study("fuel", n=3, seed=11, ga_config=LIGHT_GA)
        assert a == b

    def test_worker_count_does_not_change_results(self):
        serial = run_uncertainty_study("om", n=4, seed=3, ga_config=LIGHT_GA, threads=1)
        parallel = run_uncertainty_study("om", n=4, seed=3, ga_config=LIGHT_GA, threads=2)
        assert serial == parallel

    def test_pool_workers_capped_by_scenarios_and_cpus(self, monkeypatch):
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: 4)
        assert pool_workers(1, 100) == 1
        assert pool_workers(3, 100) == 3
        assert pool_workers(64, 100) == 4
        assert pool_workers(64, 2) == 2
        assert pool_workers(8, 1) == 1
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: None)
        assert pool_workers(8, 100) == 1

    def test_study_starts_the_capped_worker_count(self, monkeypatch):
        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(analysis.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(analysis, "ProcessPoolExecutor", InProcessPool)
        pooled = run_uncertainty_study("om", n=3, seed=3, ga_config=LIGHT_GA, threads=64)
        assert started == [2]
        run_uncertainty_study("om", n=1, seed=3, ga_config=LIGHT_GA, threads=64)
        assert started == [2]  # one scenario runs in this process
        assert pooled == run_uncertainty_study("om", n=3, seed=3, ga_config=LIGHT_GA)

    def test_rows_in_id_order(self):
        report = run_uncertainty_study("all", n=5, seed=7, ga_config=LIGHT_GA)
        assert [s.id for s, _ in report.scenarios] == list(range(5))

    def test_failure_carries_scenario_id(self, monkeypatch):
        real = analysis.optimize_design

        def explode(costs, fin, **kwargs):
            if kwargs["seed"][-1] == 2:
                raise RuntimeError("synthetic failure")
            return real(costs, fin, **kwargs)

        monkeypatch.setattr(analysis, "optimize_design", explode)
        with pytest.raises(StudyError) as excinfo:
            run_uncertainty_study("occ", n=4, seed=1, ga_config=LIGHT_GA)
        assert excinfo.value.scenario_id == 2

    def test_study_error_survives_pickling(self):
        error = pickle.loads(pickle.dumps(StudyError(7, RuntimeError("synthetic failure"))))
        assert isinstance(error, StudyError)
        assert error.scenario_id == 7
        assert str(error) == "scenario 7 failed: synthetic failure"
        assert str(error.cause) == "synthetic failure"

    def test_unknown_mode_rejected(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran for an unknown mode")

        monkeypatch.setattr(analysis, "optimize_design", no_search)
        message = re.escape("mode must be one of ('all', 'occ', 'om', 'fuel', 'none')")
        with pytest.raises(ValueError, match=message):
            run_uncertainty_study("everything", n=2, seed=0, ga_config=LIGHT_GA)


class TestSensitivitySweep:
    def test_fixed_design_fuel_halves_with_double_efficiency(self):
        rows = sensitivity_sweep(
            "efficiency", [0.35, 0.70], reoptimize=False, design=BASE_DESIGN
        )
        assert rows[1].breakdown.fuel == pytest.approx(rows[0].breakdown.fuel / 2.0, rel=1e-6)

    def test_fixed_design_capital_follows_crf_ratio(self):
        rows = sensitivity_sweep(
            "discount_rate", [0.03, 0.05], reoptimize=False, design=BASE_DESIGN
        )
        from microlcoe.costs import capital_recovery_factor

        ratio = capital_recovery_factor(0.03, 20) / capital_recovery_factor(0.05, 20)
        assert rows[0].breakdown.capital == pytest.approx(
            rows[1].breakdown.capital * ratio, rel=1e-9
        )

    def test_inflation_direction(self):
        rows = sensitivity_sweep(
            "inflation", [0.002, 0.02], reoptimize=False, design=BASE_DESIGN
        )
        assert rows[0].breakdown.total < rows[1].breakdown.total

    def test_reoptimized_efficiency_monotone(self):
        rows = sensitivity_sweep(
            "efficiency", [0.35, 0.50], ga_config=LIGHT_GA, seed=1
        )
        assert rows[0].breakdown.total > rows[1].breakdown.total
        assert rows[0].reoptimized and rows[1].reoptimized

    def test_rows_in_input_order(self):
        rows = sensitivity_sweep(
            "efficiency", [0.50, 0.35], reoptimize=False, design=BASE_DESIGN
        )
        assert [r.value for r in rows] == [0.50, 0.35]

    def test_fixed_mode_requires_design(self):
        with pytest.raises(ValueError):
            sensitivity_sweep("efficiency", [0.4], reoptimize=False)

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            sensitivity_sweep("fuel_price", [1.0], reoptimize=False, design=BASE_DESIGN)

    def test_bad_later_value_rejected_before_any_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("searched before checking every value")

        monkeypatch.setattr(analysis, "optimize_design", no_search)
        with pytest.raises(ValueError, match="efficiency value nan"):
            sensitivity_sweep("efficiency", [0.35, float("nan")], ga_config=LIGHT_GA)


class TestTechnologyComparison:
    def test_empty_benchmark(self):
        rows = technology_comparison(51.79, BenchmarkTable(entries=()))
        assert rows == [("microreactor", 51.79, 0.0)]

    def test_insertion_order(self):
        bench = BenchmarkTable(entries=(("A", 40.0), ("B", 60.0)))
        rows = technology_comparison(51.79, bench)
        assert [name for name, _, _ in rows] == ["A", "microreactor", "B"]
        assert rows[0][2] == pytest.approx(-11.79)
        assert rows[2][2] == pytest.approx(8.21)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkTable(entries=(("A", 40.0), ("A", 41.0)))

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkTable(entries=(("A", -1.0),))


class TestOutputs:
    @pytest.fixture()
    def small_report(self):
        return run_uncertainty_study("occ", n=3, seed=13, ga_config=LIGHT_GA)

    def test_study_csv_round_trip(self, small_report, tmp_path):
        path = tmp_path / "study_occ.csv"
        names = [p.name for p in default_uncertain_parameters()]
        write_study_csv(small_report, path, names)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [int(r["id"]) for r in rows] == [0, 1, 2]
        for row, (scenario, result) in zip(rows, small_report.scenarios):
            assert float(row["occ"]) == scenario.costs.occ
            assert float(row["lcoe"]) == result.lcoe
            assert int(row["idx_occ"]) == scenario.grid_indices["occ"]
            assert row["idx_c_yc"] == ""
            assert float(row["ptc_reduction"]) == ptc_reduction(result.breakdown)

    def test_stats_csv_layout(self, small_report, tmp_path):
        path = tmp_path / "stats.csv"
        write_study_stats_csv(small_report, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["variable", "max", "min", "sd", "q1", "median", "q3"]
        assert [r[0] for r in rows[1:]] == ["lcoe", "p_elec", "x_p", "x_t", "t_refuel", "db"]

    def test_csv_bytes_reproducible(self, small_report, tmp_path):
        names = [p.name for p in default_uncertain_parameters()]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_study_csv(small_report, a, names)
        write_study_csv(small_report, b, names)
        assert a.read_bytes() == b.read_bytes()

    def test_sensitivity_csv(self, tmp_path):
        rows = sensitivity_sweep(
            "efficiency", [0.35, 0.50], reoptimize=False, design=BASE_DESIGN
        )
        path = tmp_path / "sens.csv"
        write_sensitivity_csv(rows, path)
        with open(path, newline="") as handle:
            parsed = list(csv.DictReader(handle))
        assert [float(r["value"]) for r in parsed] == [0.35, 0.50]
        assert float(parsed[0]["lcoe"]) == rows[0].breakdown.total

    def test_comparison_csv(self, tmp_path):
        ranking = technology_comparison(50.0, BenchmarkTable(entries=(("wind", 45.0),)))
        path = tmp_path / "compare.csv"
        write_comparison_csv(ranking, path)
        with open(path, newline="") as handle:
            parsed = list(csv.DictReader(handle))
        assert parsed[0]["technology"] == "wind"
        assert parsed[1]["technology"] == "microreactor"
        assert [r["rank"] for r in parsed] == ["1", "2"]

    def test_manifest_stable_json(self, tmp_path):
        payload = {"b": 2, "a": {"y": [1, 2], "x": "s"}}
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        write_manifest(p1, payload)
        write_manifest(p2, payload)
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text()) == payload
