"""Annualization arithmetic and assembly of the levelized-cost objective.

All monetary results are in dollars; levelized components in $/MWh. The
functions are elementwise-polymorphic like :mod:`microlcoe.fuelcycle`, so a
``ReactorDesign`` whose fields are equal-length numpy arrays yields a
breakdown of arrays. Discount rates are plain fractions (0.05, not 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fuelcycle

HOURS_PER_YEAR = 8760.0
LB_U3O8_PER_KG_U = 2.59979  # yellowcake trade-unit conversion, lb U3O8 per kgU

DESIGN_FIELDS = ("p_elec", "x_p", "x_t", "t_refuel", "db")

# Search box for the five design variables, in DESIGN_FIELDS order.
DESIGN_BOUNDS = {
    "p_elec": (1.0, 20.0),  # MW_e
    "x_p": (5.0, 20.0),  # wt% U-235
    "x_t": (0.2, 0.3),  # wt% U-235
    "t_refuel": (2.0, 10.0),  # years
    "db": (15.0, 30.0),  # MWd/kgU
}

INFLATION_MODES = ("real", "escalated")

__all__ = [
    "HOURS_PER_YEAR",
    "LB_U3O8_PER_KG_U",
    "DESIGN_FIELDS",
    "DESIGN_BOUNDS",
    "INFLATION_MODES",
    "ReactorDesign",
    "CostInputs",
    "FinancialParams",
    "FuelBatchCost",
    "LcoeBreakdown",
    "DEFAULT_COSTS",
    "DEFAULT_FINANCE",
    "bounds_arrays",
    "capital_recovery_factor",
    "sinking_fund_factor",
    "present_value_annuity_factor",
    "effective_capacity_factor",
    "annual_energy",
    "annualized_capital",
    "annualized_om",
    "fuel_batch_cost",
    "annualized_fuel",
    "annualized_decommissioning",
    "ptc_credit_per_mwh",
    "lcoe_terms",
    "lcoe_breakdown",
]


def bounds_arrays() -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bound vectors in DESIGN_FIELDS order."""
    lows = np.array([DESIGN_BOUNDS[f][0] for f in DESIGN_FIELDS])
    highs = np.array([DESIGN_BOUNDS[f][1] for f in DESIGN_FIELDS])
    return lows, highs


@dataclass(frozen=True)
class ReactorDesign:
    """One point of the design space (the optimizer's decision vector)."""

    p_elec: float  # rated electric capacity, MW_e
    x_p: float  # fuel enrichment, wt%
    x_t: float  # tails enrichment, wt%
    t_refuel: float  # refueling interval, years
    db: float  # discharge burnup, MWd/kgU

    def __post_init__(self):
        for name in DESIGN_FIELDS:
            value = getattr(self, name)
            low, high = DESIGN_BOUNDS[name]
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
            if np.any(value < low) or np.any(value > high):
                raise ValueError(f"{name} must lie in [{low}, {high}]")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, f) for f in DESIGN_FIELDS], dtype=float)

    @classmethod
    def from_array(cls, x) -> "ReactorDesign":
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return cls(*(float(v) for v in x))
        return cls(*(x[:, j] for j in range(len(DESIGN_FIELDS))))


@dataclass(frozen=True)
class CostInputs:
    """One realization of the unit costs. Values in the units noted."""

    occ: float  # overnight capital cost, $/kW_e
    n_fte: float  # operations staff, FTE
    s_fte: float  # compensation, $/FTE/yr
    fom: float  # fixed O&M, $/yr
    vom: float  # variable O&M, $/MWh
    c_yc: float  # uranium (yellowcake), $/kgU
    c_conv: float  # conversion, $/kgU
    c_swu: float  # enrichment, $/SWU
    c_fab: float  # fabrication, $/kgU
    c_spent: float  # spent-fuel disposal charge, $/MWh
    c_dec: float  # decommissioning, $/kW_e

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not np.all(np.isfinite(value)) or np.any(value < 0.0):
                raise ValueError(f"cost input {name} must be finite and >= 0")


@dataclass(frozen=True)
class FinancialParams:
    """Financing, performance and policy assumptions held fixed per run."""

    r: float = 0.05  # real annual discount rate
    infl: float = 0.02  # inflation rate (escalated mode only)
    lt: float = 20.0  # project lifetime, years
    cf_base: float = 0.93  # baseline capacity factor
    eta: float = 0.35  # thermal efficiency
    ptc_rate: float = 25.0  # production tax credit, $/MWh
    t_ptc: float = 10.0  # credit duration, years
    x_f: float = fuelcycle.NATURAL_URANIUM_ASSAY  # feed assay, wt%
    loss: float = 0.005  # uranium conversion loss fraction
    t_down: float = 0.5  # refueling and servicing downtime, years
    downtime_model: bool = True
    inflation_mode: str = "real"

    def __post_init__(self):
        # Written as `not (ok)` so that NaN, which fails every comparison,
        # is rejected too.
        if not 0.0 <= self.r < np.inf:
            raise ValueError("discount rate r must be finite and >= 0")
        if not 0.0 <= self.infl < np.inf:
            raise ValueError("inflation rate must be finite and >= 0")
        if not 0.0 < self.lt < np.inf:
            raise ValueError("lifetime must be finite and positive")
        if not 0.0 <= self.ptc_rate < np.inf:
            raise ValueError("PTC rate must be finite and >= 0")
        if not 0.0 < self.cf_base <= 1.0:
            raise ValueError("cf_base must lie in (0, 1]")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("efficiency must lie in (0, 1)")
        if not 0.0 < self.t_ptc <= self.lt:
            raise ValueError("PTC duration t_ptc must be positive and cannot exceed the lifetime")
        # Feed must sit above any admissible tails assay and below any
        # admissible product assay or the cascade ratios lose meaning.
        if not DESIGN_BOUNDS["x_t"][1] < self.x_f < DESIGN_BOUNDS["x_p"][0]:
            raise ValueError(
                f"feed assay x_f must lie in ({DESIGN_BOUNDS['x_t'][1]}, {DESIGN_BOUNDS['x_p'][0]}) wt%"
            )
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("conversion loss must lie in [0, 1)")
        if not 0.0 <= self.t_down < np.inf:
            raise ValueError("downtime must be finite and >= 0")
        if self.inflation_mode not in INFLATION_MODES:
            raise ValueError(f"inflation_mode must be one of {INFLATION_MODES}")

    @property
    def nominal_rate(self) -> float:
        """Composed nominal discount rate (1+r)(1+infl) - 1."""
        return (1.0 + self.r) * (1.0 + self.infl) - 1.0


@dataclass(frozen=True)
class FuelBatchCost:
    """Per-batch fuel purchase broken into its four components, $."""

    uranium: float
    conversion: float
    enrichment: float
    fabrication: float

    @property
    def total(self):
        return self.uranium + self.conversion + self.enrichment + self.fabrication


@dataclass(frozen=True)
class LcoeBreakdown:
    """Levelized cost components, $/MWh, and the annual energy basis."""

    capital: float
    om: float
    fuel: float
    spent: float
    decommissioning: float
    ptc_credit: float
    total: float
    annual_energy: float  # MWh/yr
    penalty: float = 0.0  # $/MWh-equivalent, nonzero only inside the optimizer

    def __post_init__(self):
        recomputed = (
            self.capital + self.om + self.fuel + self.spent
            + self.decommissioning - self.ptc_credit
        )
        tol = 1e-9 * np.maximum(np.abs(recomputed), 1e-3)
        if np.any(np.abs(self.total - recomputed) > tol):
            raise ValueError("total does not equal the sum of its components")

    @property
    def total_before_credit(self):
        """Levelized cost with the production tax credit stripped out."""
        return self.total + self.ptc_credit


DEFAULT_COSTS = CostInputs(
    occ=3000.0,
    n_fte=5.0,
    s_fte=150_000.0,
    fom=500_000.0,
    vom=2.07,
    c_yc=104.0,
    c_conv=6.0,
    c_swu=160.0,
    c_fab=500.0,
    c_spent=1.0,
    c_dec=7500.0,
)

DEFAULT_FINANCE = FinancialParams()


def _check_horizon(r: float, n) -> None:
    if np.any(n <= 0.0) or not np.all(np.isfinite(n)):
        raise ValueError("horizon n must be a positive number of years")
    if r < 0.0 or not np.isfinite(r):
        raise ValueError("rate r must be >= 0")


# expm1/log1p forms stay accurate down to r ~ 1e-12, where the plain
# (1+r)^n - 1 difference loses half its digits.


def _crf_raw(r: float, n):
    if r == 0.0:
        return 1.0 / n
    net_growth = np.expm1(n * np.log1p(r))
    return r * (net_growth + 1.0) / net_growth


def _sff_raw(r: float, n):
    if r == 0.0:
        return 1.0 / n
    return r / np.expm1(n * np.log1p(r))


def _pva_raw(r: float, n):
    if r == 0.0:
        return n * 1.0
    net_growth = np.expm1(n * np.log1p(r))
    return net_growth / (r * (net_growth + 1.0))


def capital_recovery_factor(r: float, n):
    """Annuity payment per unit present value, 1/yr; 1/n in the r -> 0 limit."""
    _check_horizon(r, n)
    return _crf_raw(r, n)


def sinking_fund_factor(r: float, n):
    """Annual deposit accumulating to one unit at year n; equals CRF - r."""
    _check_horizon(r, n)
    return _sff_raw(r, n)


def present_value_annuity_factor(r: float, n):
    """Present value of a unit annuity over n years; n in the r -> 0 limit."""
    _check_horizon(r, n)
    return _pva_raw(r, n)


def _cf_raw(fin: FinancialParams, t_refuel):
    if not fin.downtime_model or fin.t_down == 0.0:
        return fin.cf_base
    return fin.cf_base * t_refuel / (t_refuel + fin.t_down)


def effective_capacity_factor(fin: FinancialParams, t_refuel):
    """Capacity factor after spreading refueling downtime over the cycle.

    With the downtime model off (or zero downtime) this is just the
    baseline factor; otherwise each cycle of ``t_refuel`` operating years
    carries ``t_down`` idle years.
    """
    if np.any(t_refuel <= 0.0):
        raise ValueError("t_refuel must be positive")
    return _cf_raw(fin, t_refuel)


def annual_energy(p_elec, cf):
    """Electricity delivered per year, MWh."""
    if np.any(p_elec <= 0.0):
        raise ValueError("electric capacity must be positive")
    if np.any(cf <= 0.0) or np.any(cf > 1.0):
        raise ValueError("capacity factor must lie in (0, 1]")
    return p_elec * HOURS_PER_YEAR * cf


def annualized_capital(occ, p_elec, r: float, lt):
    """Overnight capital spread into a level annual charge, $/yr."""
    return occ * p_elec * 1000.0 * capital_recovery_factor(r, lt)


def annualized_om(costs: CostInputs, energy):
    """Staff, fixed and variable O&M for one year, $/yr."""
    if np.any(energy < 0.0):
        raise ValueError("energy must be >= 0")
    return costs.n_fte * costs.s_fte + costs.fom + costs.vom * energy


def _fuel_terms(m_p, m_f, swu, costs: CostInputs, loss: float):
    uranium = costs.c_yc * m_f / (1.0 - loss)
    conversion = costs.c_conv * m_f
    enrichment = costs.c_swu * swu * m_p
    fabrication = costs.c_fab * m_p
    return uranium, conversion, enrichment, fabrication


def fuel_batch_cost(design: ReactorDesign, costs: CostInputs, fin: FinancialParams) -> FuelBatchCost:
    """Purchase cost of one fuel batch at the design's assays and masses."""
    cf = effective_capacity_factor(fin, design.t_refuel)
    sp = fuelcycle.specific_power(design.db, design.t_refuel, cf)
    m_p = fuelcycle.batch_product_mass(design.p_elec, fin.eta, sp)
    assays = fuelcycle.EnrichmentAssays(x_p=design.x_p, x_t=design.x_t, x_f=fin.x_f)
    flows = fuelcycle.mass_flows(assays, m_p)
    swu = fuelcycle.swu_per_kg_product(assays)
    return FuelBatchCost(*_fuel_terms(flows.m_p, flows.m_f, swu, costs, fin.loss))


def annualized_fuel(batch_total, r: float, t_refuel):
    """Level annual charge of a batch purchased every ``t_refuel`` years, $/yr."""
    if np.any(batch_total < 0.0):
        raise ValueError("batch cost must be >= 0")
    return batch_total * capital_recovery_factor(r, t_refuel)


def annualized_decommissioning(c_dec, p_elec, r: float, lt):
    """Sinking-fund deposit toward end-of-life decommissioning, $/yr."""
    if np.any(c_dec < 0.0) or np.any(p_elec < 0.0):
        raise ValueError("decommissioning inputs must be >= 0")
    return c_dec * p_elec * 1000.0 * sinking_fund_factor(r, lt)


def ptc_credit_per_mwh(fin: FinancialParams):
    """Production tax credit levelized over the project life, $/MWh.

    The capacity and energy terms cancel against the energy denominator, so
    the credit is flat per MWh and independent of the design.
    """
    rate = fin.nominal_rate if fin.inflation_mode == "escalated" else fin.r
    return (
        fin.ptc_rate
        * present_value_annuity_factor(rate, fin.t_ptc)
        * capital_recovery_factor(rate, fin.lt)
    )


def _escalation_factor(fin: FinancialParams) -> float:
    # Escalated mode: costs grow at infl and discount at the composed nominal
    # rate, which nets out to scaling every real-mode cost component by the
    # CRF ratio below. The credit is fixed in nominal dollars, so it is
    # recomputed at the nominal rate instead (see ptc_credit_per_mwh).
    if fin.inflation_mode != "escalated":
        return 1.0
    return _crf_raw(fin.nominal_rate, fin.lt) / _crf_raw(fin.r, fin.lt)


def lcoe_terms(p_elec, x_p, x_t, t_refuel, db, costs: CostInputs, fin: FinancialParams) -> tuple:
    """Shared arithmetic core of the levelized cost.

    Returns ``(capital, om, fuel, spent, decommissioning, ptc_credit, total,
    annual_energy)`` elementwise for scalar or array design coordinates.
    Assumes in-domain inputs; go through :class:`ReactorDesign` (or check the
    design box yourself) before calling.
    """
    cf = _cf_raw(fin, t_refuel)
    sp = fuelcycle._sp_raw(db, t_refuel, cf)
    m_p = 1000.0 * p_elec / (fin.eta * sp)
    m_f = (x_p - x_t) / (fin.x_f - x_t) * m_p
    swu = fuelcycle._swu_raw(x_p, x_t, fin.x_f)
    uranium, conversion, enrichment, fabrication = _fuel_terms(m_p, m_f, swu, costs, fin.loss)
    batch_total = uranium + conversion + enrichment + fabrication
    energy = p_elec * HOURS_PER_YEAR * cf
    scale = _escalation_factor(fin)
    capital = scale * (costs.occ * p_elec * 1000.0 * _crf_raw(fin.r, fin.lt)) / energy
    om = scale * (costs.n_fte * costs.s_fte + costs.fom + costs.vom * energy) / energy
    fuel = scale * (batch_total * _crf_raw(fin.r, t_refuel)) / energy
    spent = scale * costs.c_spent
    decommissioning = scale * (costs.c_dec * p_elec * 1000.0 * _sff_raw(fin.r, fin.lt)) / energy
    credit = ptc_credit_per_mwh(fin)
    total = capital + om + fuel + spent + decommissioning - credit
    return capital, om, fuel, spent, decommissioning, credit, total, energy


def lcoe_breakdown(design: ReactorDesign, costs: CostInputs, fin: FinancialParams) -> LcoeBreakdown:
    """Levelized cost of energy, $/MWh, split into its components.

    Deterministic: repeated calls with identical inputs return bitwise
    identical numbers.
    """
    terms = lcoe_terms(
        design.p_elec, design.x_p, design.x_t, design.t_refuel, design.db, costs, fin
    )
    return LcoeBreakdown(*terms)
