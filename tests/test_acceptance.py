"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with ``-s`` to see them all;
captured output is shown for failures regardless). The study fixture runs
four full 100-scenario uncertainty studies, so this module dominates the
suite's wall time.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from microlcoe.analysis import ptc_reduction, run_uncertainty_study, sensitivity_sweep
from microlcoe.costs import (
    DEFAULT_COSTS,
    DEFAULT_FINANCE,
    ReactorDesign,
    bounds_arrays,
    capital_recovery_factor,
    lcoe_breakdown,
    present_value_annuity_factor,
    ptc_credit_per_mwh,
    sinking_fund_factor,
)
from microlcoe.fuelcycle import (
    EnrichmentAssays,
    batch_product_mass,
    burnup_residual,
    mass_balance_residual,
    mass_flows,
    specific_power,
    swu_per_kg_product,
    value_function,
)
from microlcoe.optimize import GaConfig, make_design_objective, optimize_design
from microlcoe.uncertainty import (
    MODE_GROUPS,
    default_uncertain_parameters,
    generate_study,
    parameter_grid,
)

STUDY_SEED = 1
BASE_SEEDS = (0, 1, 2, 3, 4)


def report(number, passed, detail):
    print(f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {detail}")


def rel_err(value, target):
    return abs(value - target) / abs(target)


# ---------------------------------------------------------------------------
# Independent hand oracle for the cost breakdown: straight transcription of
# the component formulas using only the math module.
# ---------------------------------------------------------------------------


def oracle_breakdown(p, xp, xt, t, db, costs=DEFAULT_COSTS, r=0.05, lt=20.0,
                     cf_base=0.93, eta=0.35, x_f=0.711, loss=0.005,
                     t_down=0.5, downtime=True, ptc_rate=25.0, t_ptc=10.0):
    cf = cf_base * t / (t + t_down) if downtime else cf_base
    sp = 1000.0 * db / (t * cf * 365.0)
    m_p = 1000.0 * p / (eta * sp)
    m_f = (xp - xt) / (x_f - xt) * m_p
    m_t = m_f - m_p

    def v(x):
        return (2.0 * x - 1.0) * math.log(x / (1.0 - x))

    swu = v(xp / 100.0) + (m_t / m_p) * v(xt / 100.0) - (m_f / m_p) * v(x_f / 100.0)
    batch = (
        costs.c_yc * m_f / (1.0 - loss)
        + costs.c_conv * m_f
        + costs.c_swu * swu * m_p
        + costs.c_fab * m_p
    )
    crf = lambda rate, n: rate * (1 + rate) ** n / ((1 + rate) ** n - 1)
    energy = p * 8760.0 * cf
    capital = costs.occ * p * 1000.0 * crf(r, lt) / energy
    om = (costs.n_fte * costs.s_fte + costs.fom + costs.vom * energy) / energy
    fuel = batch * crf(r, t) / energy
    dec = costs.c_dec * p * 1000.0 * (r / ((1 + r) ** lt - 1)) / energy
    pva = ((1 + r) ** t_ptc - 1) / (r * (1 + r) ** t_ptc)
    credit = ptc_rate * pva * crf(r, lt)
    total = capital + om + fuel + costs.c_spent + dec - credit
    return {
        "capital": capital, "om": om, "fuel": fuel, "spent": costs.c_spent,
        "decommissioning": dec, "ptc_credit": credit, "total": total,
    }


@pytest.fixture(scope="module")
def base_runs():
    runs = {}
    for seed in BASE_SEEDS:
        start = time.perf_counter()
        result = optimize_design(DEFAULT_COSTS, DEFAULT_FINANCE, seed=seed)
        runs[seed] = (result, time.perf_counter() - start)
    return runs


@pytest.fixture(scope="module")
def studies():
    # Two workers: the worker count cannot change a result (test_golden pins
    # the study bytes at one and two threads), and pool_workers caps it at
    # the CPUs.
    return {
        mode: run_uncertainty_study(mode, n=100, seed=STUDY_SEED, threads=2)
        for mode in ("all", "occ", "om", "fuel")
    }


def test_criterion_1_fuelcycle_oracle_chain():
    start = time.perf_counter()
    v_p = value_function(0.05)
    sp = specific_power(30.0, 6.24, 0.93)
    m_p = batch_product_mass(19.13, 0.35, sp)
    assays = EnrichmentAssays(x_p=5.0, x_t=0.2913, x_f=0.711)
    flows = mass_flows(assays, m_p)
    swu = swu_per_kg_product(assays)
    elapsed = time.perf_counter() - start
    checks = {
        "V(0.05) vs 2.6500": rel_err(v_p, 2.6500),
        "SP vs 14.163": rel_err(sp, 14.163),
        "M_p vs 3859.1": rel_err(m_p, 3859.1),
        "M_f vs 43298": rel_err(flows.m_f, 43298.0),
        "SWU/kg vs 7.319": rel_err(swu, 7.319),
    }
    passed = all(err < 1e-3 for err in checks.values()) and elapsed < 1.0
    report(1, passed, f"fuel-cycle chain within 0.1% (worst {max(checks.values()):.2e}), "
                      f"{elapsed * 1e3:.1f} ms")
    assert elapsed < 1.0
    for name, err in checks.items():
        assert err < 1e-3, name


def test_criterion_2_annualization_oracles():
    crf = capital_recovery_factor(0.05, 20)
    sff = sinking_fund_factor(0.05, 20)
    pva = present_value_annuity_factor(0.05, 10)
    credit = ptc_credit_per_mwh(DEFAULT_FINANCE)
    implied_reduction = credit / 67.3
    passed = (
        abs(crf - 0.080243) < 1e-5
        and abs(sff - 0.030243) < 1e-5
        and abs(pva - 7.72173) < 1e-5
        and abs(credit - 15.490) < 0.01
        and 0.2276 <= implied_reduction <= 0.2437
    )
    report(2, passed, f"CRF={crf:.6f} SFF={sff:.6f} PVA={pva:.5f} credit={credit:.3f} "
                      f"$/MWh (implied pre-credit cut {implied_reduction:.2%})")
    assert abs(crf - 0.080243) < 1e-5
    assert abs(sff - 0.030243) < 1e-5
    assert abs(pva - 7.72173) < 1e-5
    assert abs(credit - 15.490) < 0.01
    assert 0.2276 <= implied_reduction <= 0.2437


def test_criterion_3_base_case_optimization(base_runs):
    failures = []
    lcoes = []
    for seed, (result, elapsed) in base_runs.items():
        d = result.best_design
        lcoes.append(result.lcoe)
        if not 5.0 <= d.x_p <= 5.05:
            failures.append(f"seed {seed}: x_p={d.x_p}")
        if not 29.95 <= d.db <= 30.0:
            failures.append(f"seed {seed}: db={d.db}")
        if not 0.25 <= d.x_t <= 0.30:
            failures.append(f"seed {seed}: x_t={d.x_t}")
        if not d.p_elec >= 19.0:
            failures.append(f"seed {seed}: p_elec={d.p_elec}")
        if not 4.5 <= d.t_refuel <= 8.0:
            failures.append(f"seed {seed}: t_refuel={d.t_refuel}")
        if not elapsed < 60.0:
            failures.append(f"seed {seed}: {elapsed:.1f} s")
        if not 40.0 <= result.lcoe <= 85.0:
            failures.append(f"seed {seed}: lcoe={result.lcoe}")

        oracle = oracle_breakdown(d.p_elec, d.x_p, d.x_t, d.t_refuel, d.db)
        bd = result.breakdown
        for name in ("capital", "om", "fuel", "spent", "decommissioning", "ptc_credit", "total"):
            if rel_err(getattr(bd, name) if name != "total" else bd.total, oracle[name]) >= 1e-3:
                failures.append(f"seed {seed}: component {name} off oracle")

        no_ptc = lcoe_breakdown(d, DEFAULT_COSTS, replace(DEFAULT_FINANCE, ptc_rate=0.0))
        if abs((no_ptc.total - bd.total) - 15.49) > 0.02:
            failures.append(f"seed {seed}: credit delta {(no_ptc.total - bd.total):.3f}")

    passed = not failures
    best = base_runs[BASE_SEEDS[0]][0].best_design
    report(3, passed, f"base optimum p={float(best.p_elec):.2f} x_p={float(best.x_p):.2f} "
                      f"x_t={float(best.x_t):.4f} t={float(best.t_refuel):.2f} "
                      f"db={float(best.db):.2f}, lcoe range "
                      f"[{min(lcoes):.2f}, {max(lcoes):.2f}] $/MWh over {len(BASE_SEEDS)} seeds"
                      + (f"; failures: {failures}" if failures else ""))
    assert not failures


def test_criterion_4_ga_sa_agreement(base_runs):
    problems = [("base", DEFAULT_COSTS)]
    params = default_uncertain_parameters()
    for scenario in generate_study(params, "all", n=10, seed=77):
        problems.append((f"scenario {scenario.id}", scenario.costs))
    gaps = {}
    for label, costs in problems:
        if label == "base":
            ga = base_runs[BASE_SEEDS[0]][0]
        else:
            ga = optimize_design(costs, DEFAULT_FINANCE, seed=0)
        sa = optimize_design(costs, DEFAULT_FINANCE, method="sa", seed=0)
        gaps[label] = abs(ga.objective - sa.objective) / ga.objective
    worst = max(gaps.values())
    passed = worst < 0.01
    report(4, passed, f"GA-SA relative gap on base + 10 scenarios: worst {worst:.4%}")
    assert worst < 0.01, gaps


def test_criterion_5_brute_force_dominance():
    start = time.perf_counter()
    low, high = bounds_arrays()
    axes = [
        np.linspace(low[0], high[0], 21),
        np.linspace(low[1], high[1], 16),
        np.linspace(low[2], high[2], 11),
        np.linspace(low[3], high[3], 17),
        np.linspace(low[4], high[4], 16),
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)

    params = default_uncertain_parameters()
    scenarios = [("nominal", DEFAULT_COSTS)]
    for scenario in generate_study(params, "all", n=2, seed=42):
        scenarios.append((f"scenario {scenario.id}", scenario.costs))

    margins = {}
    for label, costs in scenarios:
        objective = make_design_objective(costs, DEFAULT_FINANCE)
        grid_best = np.inf
        for chunk in np.array_split(grid, 8):
            grid_best = min(grid_best, float(objective(chunk).min()))
        ga = optimize_design(costs, DEFAULT_FINANCE, seed=5)
        margins[label] = ga.objective - grid_best
    elapsed = time.perf_counter() - start
    worst = max(margins.values())
    passed = worst <= 0.1 and elapsed < 300.0
    report(5, passed, f"GA vs exhaustive {len(grid):,}-point grid on 3 scenarios: "
                      f"worst margin {worst:+.4f} $/MWh, {elapsed:.1f} s")
    assert elapsed < 300.0
    for label, margin in margins.items():
        assert margin <= 0.1, (label, margin)


def test_criterion_6_study_structure(studies):
    failures = []
    grids = {p.name: parameter_grid(p) for p in default_uncertain_parameters()}

    for mode, study_report in studies.items():
        xp_vals = np.array([r.best_design.x_p for _, r in study_report.scenarios])
        db_vals = np.array([r.best_design.db for _, r in study_report.scenarios])
        # constant-at-bound pattern, read at the summary tables' precision
        if study_report.stats["x_p"].sd > 5e-3 or np.max(np.abs(xp_vals - 5.0)) > 5e-3:
            failures.append(f"{mode}: x_p varies (sd={study_report.stats['x_p'].sd:.2e})")
        if study_report.stats["db"].sd > 5e-3 or np.max(np.abs(db_vals - 30.0)) > 5e-3:
            failures.append(f"{mode}: db varies (sd={study_report.stats['db'].sd:.2e})")

        for scenario, _ in study_report.scenarios:
            for name in MODE_GROUPS[mode]:
                value = getattr(scenario.costs, name)
                if name == "n_fte":
                    if value != round(value) or not 3 <= value <= 10:
                        failures.append(f"{mode}: FTE {value} not an in-range integer")
                elif value not in grids[name]:
                    failures.append(f"{mode}: {name}={value} off grid")

    occ_97 = grids["occ"][97]
    if abs(occ_97 - 3969.70) > 0.01:
        failures.append(f"occ grid index 97 = {occ_97}")

    sd_occ = studies["occ"].stats["lcoe"].sd
    sd_om = studies["om"].stats["lcoe"].sd
    sd_fuel = studies["fuel"].stats["lcoe"].sd
    if not sd_occ > sd_om > sd_fuel:
        failures.append(f"sd ordering broken: occ {sd_occ:.2f}, om {sd_om:.2f}, fuel {sd_fuel:.2f}")

    spread = lambda rep: rep.stats["lcoe"].max - rep.stats["lcoe"].min
    if not all(spread(studies["all"]) > spread(studies[m]) for m in ("occ", "om", "fuel")):
        failures.append("all-mode spread does not dominate single-group spreads")

    passed = not failures
    report(6, passed, f"study structure (n=100 x 4 modes): sd(lcoe) occ {sd_occ:.2f} > "
                      f"om {sd_om:.2f} > fuel {sd_fuel:.2f}; occ grid[97]={occ_97:.2f}"
                      + (f"; failures: {failures}" if failures else ""))
    assert not failures


def test_criterion_6_ptc_reduction_band(studies):
    """Expected to fail: with the full cost stack (flat per-MWh credit,
    sinking-fund decommissioning included), the credit is 15.49 $/MWh
    against a pre-credit cost of 86+ $/MWh at the nominal optimum, a ~18%
    cut. No reduction convention reaches 20-26% for every scenario; the
    20-26% expectation presumes a leaner cost stack.
    """
    reductions = {}
    alt = {}
    for mode, study_report in studies.items():
        vals = [ptc_reduction(r.breakdown) for _, r in study_report.scenarios]
        post = [r.breakdown.ptc_credit / r.breakdown.total for _, r in study_report.scenarios]
        reductions[mode] = (min(vals), max(vals))
        alt[mode] = (min(post), max(post))
    lo = min(v[0] for v in reductions.values())
    hi = max(v[1] for v in reductions.values())
    passed = 0.20 <= lo and hi <= 0.26
    report(6, passed, f"PTC reduction band: credit/pre-credit spans [{lo:.2%}, {hi:.2%}] "
                      f"(credit/net-cost convention would span "
                      f"[{min(v[0] for v in alt.values()):.2%}, "
                      f"{max(v[1] for v in alt.values()):.2%}]); required [20%, 26%]")
    assert 0.20 <= lo and hi <= 0.26, (
        f"PTC reduction outside [20%, 26%]: observed [{lo:.2%}, {hi:.2%}]. "
        "Unreachable with the full cost stack (flat credit vs ~86 $/MWh "
        "pre-credit cost at the nominal optimum)."
    )


def test_criterion_7_invariant_suites(tmp_path):
    failures = []

    rng = np.random.default_rng(2718)
    worst_balance = 0.0
    for _ in range(1000):
        x_t = rng.uniform(0.2, 0.3)
        x_p = rng.uniform(5.0, 20.0)
        assays = EnrichmentAssays(x_p=x_p, x_t=x_t)
        flows = mass_flows(assays, rng.uniform(1.0, 1e5))
        worst_balance = max(worst_balance, float(mass_balance_residual(assays, flows)))
    if worst_balance >= 1e-9:
        failures.append(f"mass balance {worst_balance:.2e}")

    worst_t_dep = 0.0
    for _ in range(200):
        x_p, db, cf = rng.uniform(5, 20), rng.uniform(15, 30), rng.uniform(0.3, 1.0)
        t_a, t_b = rng.uniform(2, 10, size=2)
        worst_t_dep = max(
            worst_t_dep, abs(burnup_residual(x_p, db, t_a, cf) - burnup_residual(x_p, db, t_b, cf))
        )
    if worst_t_dep >= 1e-12:
        failures.append(f"burnup residual t-dependence {worst_t_dep:.2e}")

    worst_add = 0.0
    for _ in range(1000):
        design = ReactorDesign(
            p_elec=rng.uniform(1, 20), x_p=rng.uniform(5, 20), x_t=rng.uniform(0.2, 0.3),
            t_refuel=rng.uniform(2, 10), db=rng.uniform(15, 30),
        )
        bd = lcoe_breakdown(design, DEFAULT_COSTS, DEFAULT_FINANCE)
        parts = bd.capital + bd.om + bd.fuel + bd.spent + bd.decommissioning - bd.ptc_credit
        worst_add = max(worst_add, abs(bd.total - parts) / abs(bd.total))
    if worst_add >= 1e-9:
        failures.append(f"breakdown additivity {worst_add:.2e}")

    x = rng.uniform(1e-6, 1 - 1e-6, size=500)
    if not np.allclose(value_function(x), value_function(1 - x), rtol=1e-12, atol=1e-12):
        failures.append("value-function symmetry")

    tails = np.linspace(0.2, 0.3, 50)
    swu = [swu_per_kg_product(EnrichmentAssays(x_p=5.0, x_t=t)) for t in tails]
    if not np.all(np.diff(swu) < 0):
        failures.append("SWU monotonicity in tails assay")

    base = ReactorDesign(19.13, 5.0, 0.2913, 6.24, 30.0)
    caps = [
        lcoe_breakdown(replace(base, p_elec=float(p)), DEFAULT_COSTS, DEFAULT_FINANCE).total
        for p in np.linspace(1, 20, 20)
    ]
    if not np.all(np.diff(caps) < 0):
        failures.append("capacity monotonicity")
    etas = [
        lcoe_breakdown(base, DEFAULT_COSTS, replace(DEFAULT_FINANCE, eta=float(e))).total
        for e in np.linspace(0.25, 0.6, 15)
    ]
    if not np.all(np.diff(etas) < 0):
        failures.append("efficiency monotonicity")

    from microlcoe.analysis import write_study_csv
    from microlcoe.uncertainty import default_uncertain_parameters as dup

    light = GaConfig(population=30, generations=40, stall_generations=20, restarts=2)
    names = [p.name for p in dup()]
    outputs = {}
    for threads in (1, 2):
        study_rep = run_uncertainty_study("occ", n=4, seed=6, ga_config=light, threads=threads)
        path = tmp_path / f"threads_{threads}.csv"
        write_study_csv(study_rep, path, names)
        outputs[threads] = path.read_bytes()
    if outputs[1] != outputs[2]:
        failures.append("thread count changed study bytes")

    passed = not failures
    report(7, passed, "invariants: mass balance %.1e, t-dependence %.1e, additivity %.1e, "
                      "symmetry/monotonicity/threading ok" % (worst_balance, worst_t_dep, worst_add)
                      if passed else f"invariant failures: {failures}")
    assert not failures


def test_criterion_8_sensitivity_directions():
    rows = sensitivity_sweep("efficiency", [0.35, 0.40, 0.45, 0.50], seed=3)
    totals = [row.breakdown.total for row in rows]
    decreasing = all(a > b for a, b in zip(totals, totals[1:]))

    base = ReactorDesign(19.13, 5.0, 0.2913, 6.24, 30.0)
    fixed = sensitivity_sweep("discount_rate", [0.03, 0.05], reoptimize=False, design=base)
    predicted = fixed[1].breakdown.capital * (
        capital_recovery_factor(0.03, 20) / capital_recovery_factor(0.05, 20)
    )
    crf_error = rel_err(fixed[0].breakdown.capital, predicted)

    passed = decreasing and crf_error < 0.002
    report(8, passed, f"efficiency sweep lcoe {['%.2f' % t for t in totals]} strictly decreasing; "
                      f"capital at r=3% within {crf_error:.2e} of CRF-ratio prediction")
    assert decreasing, totals
    assert crf_error < 0.002
