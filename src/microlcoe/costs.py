"""Annualization arithmetic and assembly of the levelized-cost objective.

All monetary results are in dollars; levelized components in $/MWh. The
cost chain that :func:`compile_lcoe` returns is elementwise-polymorphic like
:mod:`microlcoe.fuelcycle`: it maps design columns, scalars or equal-length
arrays, to cost terms, which is how the optimizer costs a whole population
in one call. ``ReactorDesign`` and :func:`lcoe_breakdown` cost one point.
Discount rates are plain fractions (0.05, not 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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

_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))

__all__ = [
    "HOURS_PER_YEAR",
    "LB_U3O8_PER_KG_U",
    "DESIGN_FIELDS",
    "DESIGN_BOUNDS",
    "INFLATION_MODES",
    "ReactorDesign",
    "CostInputs",
    "FinancialParams",
    "LcoeBreakdown",
    "DEFAULT_COSTS",
    "DEFAULT_FINANCE",
    "bounds_arrays",
    "capital_recovery_factor",
    "sinking_fund_factor",
    "present_value_annuity_factor",
    "effective_capacity_factor",
    "ptc_credit_per_mwh",
    "compile_lcoe",
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
        return cls(*(float(v) for v in np.asarray(x, dtype=float)))


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
        # A finite rate can still compound past the float range, which makes
        # the annuity factors NaN. The largest product they form, the CRF's
        # rate * (1+rate)^n, stays below (1+rate)^(n+1); n runs up to the
        # lifetime and to the longest refueling interval.
        horizon = max(self.lt, DESIGN_BOUNDS["t_refuel"][1])
        rates = {"discount rate r": self.r}
        if self.inflation_mode == "escalated":
            rates["nominal rate (1+r)(1+infl)-1"] = self.nominal_rate
        for name, rate in rates.items():
            if not (horizon + 1.0) * np.log1p(rate) < _LOG_FLOAT_MAX:
                raise ValueError(f"{name} = {rate:g} overflows when compounded over {horizon:g} years")

    @property
    def nominal_rate(self) -> float:
        """Composed nominal discount rate (1+r)(1+infl) - 1."""
        return (1.0 + self.r) * (1.0 + self.infl) - 1.0


@dataclass(frozen=True)
class LcoeBreakdown:
    """Levelized cost components, $/MWh, the energy basis and the burnup residual."""

    capital: float
    om: float
    fuel: float
    spent: float
    decommissioning: float
    ptc_credit: float
    total: float
    annual_energy: float  # MWh/yr
    burnup_residual: float  # MWd/kgU

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"lcoe component {name} is not finite")
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


def compile_lcoe(costs: CostInputs, fin: FinancialParams) -> Callable[..., tuple]:
    """The levelized-cost chain for one ``(costs, fin)`` pair, compiled once.

    Everything that depends only on ``(costs, fin)`` is computed here: the
    production tax credit, the lifetime CRF and SFF, the escalation factor,
    the fixed O&M, the spent-fuel charge and the feed's separative potential.
    The returned function maps the design columns ``(p_elec, x_p, x_t,
    t_refuel, db)``, scalars or equal-length arrays, to ``(capital, om, fuel,
    spent, decommissioning, ptc_credit, total, annual_energy,
    burnup_residual)``; the capacity factor, specific power and feed ratio
    are computed once per call and shared by the cost terms and the burnup
    residual. Like the ``*_raw`` kernels it assumes in-box designs: go
    through :class:`ReactorDesign` (or check the design box) first.
    """
    credit = ptc_credit_per_mwh(fin)
    scale = _escalation_factor(fin)
    r, eta, x_f, loss = fin.r, fin.eta, fin.x_f, fin.loss
    crf_life = _crf_raw(r, fin.lt)
    sff_life = _sff_raw(r, fin.lt)
    fixed_om = costs.n_fte * costs.s_fte + costs.fom
    spent = scale * costs.c_spent
    value_feed = fuelcycle._value_raw(x_f / 100.0)

    def terms(p_elec, x_p, x_t, t_refuel, db) -> tuple:
        cf = _cf_raw(fin, t_refuel)
        sp = fuelcycle._sp_raw(db, t_refuel, cf)
        residual = fuelcycle._burnup_residual_raw(x_p, db, t_refuel, sp)
        m_p = 1000.0 * p_elec / (eta * sp)
        feed_ratio = fuelcycle._feed_ratio_raw(x_p, x_t, x_f)
        m_f = feed_ratio * m_p
        swu = fuelcycle._swu_raw(x_p, x_t, feed_ratio, value_feed)
        # Uranium, conversion, enrichment and fabrication for one batch, $.
        batch_total = (
            costs.c_yc * m_f / (1.0 - loss) + costs.c_conv * m_f
            + costs.c_swu * swu * m_p + costs.c_fab * m_p
        )
        energy = p_elec * HOURS_PER_YEAR * cf
        capital = scale * (costs.occ * p_elec * 1000.0 * crf_life) / energy
        om = scale * (fixed_om + costs.vom * energy) / energy
        fuel = scale * (batch_total * _crf_raw(r, t_refuel)) / energy
        decommissioning = scale * (costs.c_dec * p_elec * 1000.0 * sff_life) / energy
        total = capital + om + fuel + spent + decommissioning - credit
        return capital, om, fuel, spent, decommissioning, credit, total, energy, residual

    return terms


def lcoe_terms(p_elec, x_p, x_t, t_refuel, db, costs: CostInputs, fin: FinancialParams) -> tuple:
    """Levelized-cost terms of the design coordinates, through :func:`compile_lcoe`.

    Returns ``(capital, om, fuel, spent, decommissioning, ptc_credit, total,
    annual_energy)`` elementwise for in-box scalar or array coordinates. No
    program path calls it: it is kept only as the name the bench tracer
    wraps (through ``optimize.lcoe_terms``), and its deletion waits for the
    bench to trace :func:`compile_lcoe` instead (ROADMAP item 3).
    """
    return compile_lcoe(costs, fin)(p_elec, x_p, x_t, t_refuel, db)[:8]


def lcoe_breakdown(design: ReactorDesign, costs: CostInputs, fin: FinancialParams) -> LcoeBreakdown:
    """Levelized cost of energy, $/MWh, split into its components: every
    output of the :func:`compile_lcoe` chain, the burnup residual included.

    Deterministic: repeated calls with identical inputs return bitwise
    identical numbers.
    """
    terms = compile_lcoe(costs, fin)(
        design.p_elec, design.x_p, design.x_t, design.t_refuel, design.db
    )
    return LcoeBreakdown(*terms)
