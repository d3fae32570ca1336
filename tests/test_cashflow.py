"""The levelized-cost chain against an explicit year-by-year cash flow.

The hand oracles in test_acceptance.py and test_optimize.py transcribe the
chain's own annuity formulas. This oracle does not: it lays out every year's
cash flows, discounts them one by one and divides their present value by the
present value of the energy sold, using only the math module.

Cash-flow timing: capital is paid at year 0; O&M, the spent-fuel charge and
the energy fall in years 1 to ``lt``; decommissioning at year ``lt``; the
production credit in years 1 to ``t_ptc``. In escalated mode every cost grows
at the inflation rate and all flows are discounted at the nominal rate, while
the credit stays fixed in nominal dollars. In real mode nothing grows and the
discount rate is the real one.

Fuel is a convention, so it is bracketed rather than matched. The chain
annualizes each batch over its own cycle with ``crf(r, t_refuel)``, a cycle
that repeats with no end-of-life cut. A cash flow that buys a batch at each
``k * t_refuel < lt`` charges more (the last batch is bought whole), and one
that prorates the last batch to the years left charges less.
"""

import math
import random

import pytest

from microlcoe.costs import (
    DEFAULT_COSTS,
    DESIGN_BOUNDS,
    DESIGN_FIELDS,
    INFLATION_MODES,
    CostInputs,
    FinancialParams,
    ReactorDesign,
    lcoe_breakdown,
)

DRAWS = 200
REL = 1e-12


def batch_cost(d, costs, fin, cf):
    """Purchase cost of one fuel batch, $, from the cascade mass balance."""
    sp = 1000.0 * d.db / (d.t_refuel * cf * 365.0)  # kW per kgU
    m_p = 1000.0 * d.p_elec / (fin.eta * sp)
    m_f = (d.x_p - d.x_t) / (fin.x_f - d.x_t) * m_p
    m_t = m_f - m_p

    def v(x):
        return (2.0 * x - 1.0) * math.log(x / (1.0 - x))

    swu = m_p * v(d.x_p / 100.0) + m_t * v(d.x_t / 100.0) - m_f * v(fin.x_f / 100.0)
    return (costs.c_yc * m_f / (1.0 - fin.loss) + costs.c_conv * m_f
            + costs.c_swu * swu + costs.c_fab * m_p)


def oracle_cashflow(d, costs, fin):
    """Levelized terms, $/MWh, of explicit annual cash flows, and the fuel
    term under the whole-batch and prorated-batch conventions."""
    lt = int(fin.lt)
    escalated = fin.inflation_mode == "escalated"
    growth = 1.0 + (fin.infl if escalated else 0.0)
    discount = (1.0 + fin.r) * growth if escalated else 1.0 + fin.r
    cf = fin.cf_base * d.t_refuel / (d.t_refuel + fin.t_down) if fin.downtime_model else fin.cf_base
    energy = d.p_elec * 8760.0 * cf  # MWh in every operating year

    pv = dict.fromkeys(("energy", "om", "spent", "ptc_credit"), 0.0)
    for year in range(1, lt + 1):
        to_today = discount ** -year
        escalate = growth ** year
        pv["energy"] += energy * to_today
        pv["om"] += (costs.n_fte * costs.s_fte + costs.fom + costs.vom * energy) * escalate * to_today
        pv["spent"] += costs.c_spent * energy * escalate * to_today
        if year <= fin.t_ptc:
            pv["ptc_credit"] += fin.ptc_rate * energy * to_today
    pv["capital"] = costs.occ * d.p_elec * 1000.0
    pv["decommissioning"] = costs.c_dec * d.p_elec * 1000.0 * (growth / discount) ** lt

    batch = batch_cost(d, costs, fin, cf)
    whole = prorated = 0.0
    k = 0
    while k * d.t_refuel < lt:
        bought = k * d.t_refuel  # years after start-up, not a whole number
        value = batch * (growth / discount) ** bought
        whole += value
        prorated += value * min(1.0, (lt - bought) / d.t_refuel)
        k += 1

    terms = {name: value / pv["energy"] for name, value in pv.items() if name != "energy"}
    return terms, whole / pv["energy"], prorated / pv["energy"]


def draw_case(rng, mode):
    """A random in-box design, cost set and financial set with an integer life."""
    lt = rng.randint(10, 40)
    fin = FinancialParams(
        r=rng.uniform(0.005, 0.12),
        infl=rng.uniform(0.0, 0.05),
        lt=float(lt),
        cf_base=rng.uniform(0.5, 1.0),
        eta=rng.uniform(0.25, 0.5),
        ptc_rate=rng.uniform(0.0, 40.0),
        t_ptc=float(rng.randint(1, lt)),
        loss=rng.uniform(0.0, 0.02),
        t_down=rng.uniform(0.0, 1.0),
        downtime_model=rng.random() < 0.5,
        inflation_mode=mode,
    )
    costs = CostInputs(*(getattr(DEFAULT_COSTS, name) * rng.uniform(0.5, 2.0)
                         for name in DEFAULT_COSTS.__dataclass_fields__))
    design = ReactorDesign(*(rng.uniform(*DESIGN_BOUNDS[name]) for name in DESIGN_FIELDS))
    return design, costs, fin


@pytest.mark.parametrize("mode", INFLATION_MODES)
def test_chain_matches_the_cash_flow(mode):
    rng = random.Random(f"cashflow-{mode}")
    for _ in range(DRAWS):
        design, costs, fin = draw_case(rng, mode)
        chain = lcoe_breakdown(design, costs, fin)
        terms, _, _ = oracle_cashflow(design, costs, fin)
        for name, value in terms.items():
            assert math.isclose(getattr(chain, name), value, rel_tol=REL), (name, design, fin)


@pytest.mark.parametrize("mode", INFLATION_MODES)
def test_chain_fuel_lies_between_whole_and_prorated_batches(mode):
    rng = random.Random(f"cashflow-fuel-{mode}")
    for _ in range(DRAWS):
        design, costs, fin = draw_case(rng, mode)
        fuel = lcoe_breakdown(design, costs, fin).fuel
        _, whole, prorated = oracle_cashflow(design, costs, fin)
        # equal, up to rounding, when one cycle spans the whole life
        assert prorated * (1.0 - REL) <= fuel <= whole * (1.0 + REL), (design, fin)
