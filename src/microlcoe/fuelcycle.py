"""Uranium fuel-cycle arithmetic: enrichment cascade mass flows, separative
work, specific power, and the burnup-consistency residual.

Assays cross the public API in weight-percent U-235 (the unit the design
bounds use) and are converted to weight fractions internally before any
separative-work evaluation. Every function is pure and accepts either
floats or numpy arrays of a common shape, so the optimizer can evaluate
whole populations in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NATURAL_URANIUM_ASSAY = 0.711  # wt% U-235, default enrichment feed
DAYS_PER_YEAR = 365.0

__all__ = [
    "NATURAL_URANIUM_ASSAY",
    "EnrichmentAssays",
    "MassFlows",
    "value_function",
    "specific_power",
    "batch_product_mass",
    "mass_flows",
    "swu_per_kg_product",
    "mass_balance_residual",
    "burnup_residual",
]


def _all_finite(*values) -> bool:
    return all(np.all(np.isfinite(v)) for v in values)


@dataclass(frozen=True)
class EnrichmentAssays:
    """Product, tails and feed assays for one enrichment campaign, wt% U-235.

    ``x_p == x_f`` is allowed (no enrichment needed); ``x_t >= x_f`` is not,
    because the feed-rate ratio divides by ``x_f - x_t``.
    """

    x_p: float
    x_t: float
    x_f: float = NATURAL_URANIUM_ASSAY

    def __post_init__(self):
        if not _all_finite(self.x_p, self.x_t, self.x_f):
            raise ValueError("assays must be finite")
        if np.any(self.x_t <= 0.0) or np.any(self.x_p >= 100.0):
            raise ValueError("assays must lie strictly inside (0, 100) wt%")
        if np.any(self.x_f <= self.x_t):
            raise ValueError("tails assay x_t must be below feed assay x_f")
        if np.any(self.x_p < self.x_f):
            raise ValueError("product assay x_p must not be below feed assay x_f")


@dataclass(frozen=True)
class MassFlows:
    """Per-batch uranium masses through the cascade, kg U."""

    m_p: float  # enriched product
    m_f: float  # natural feed
    m_t: float  # depleted tails

    def __post_init__(self):
        if not _all_finite(self.m_p, self.m_f, self.m_t):
            raise ValueError("mass flows must be finite")
        if np.any(self.m_p <= 0.0):
            raise ValueError("product mass m_p must be positive")
        if np.any(self.m_f < self.m_p * (1.0 - 1e-12)):
            raise ValueError("feed mass m_f cannot be below product mass m_p")
        if np.any(np.abs(self.m_t - (self.m_f - self.m_p)) > 1e-9 * self.m_f):
            raise ValueError("tails mass m_t must equal m_f - m_p")


# The *_raw kernels below carry the arithmetic without domain checks; the
# public wrappers own validation. The compiled cost chain
# (microlcoe.costs.compile_lcoe) calls the kernels directly on designs already
# proven in-box, by ReactorDesign or by the objective's box check, and shares
# the specific power, the feed ratio and the feed's separative potential
# between them instead of recomputing each per kernel.


def _value_raw(x):
    return (2.0 * x - 1.0) * np.log(x / (1.0 - x))


def _sp_raw(db, t_refuel, cf):
    return 1000.0 * db / (t_refuel * cf * DAYS_PER_YEAR)


def _feed_ratio_raw(x_p, x_t, x_f):
    return (x_p - x_t) / (x_f - x_t)


def _swu_raw(x_p, x_t, feed_ratio, value_feed):
    return (
        _value_raw(x_p / 100.0)
        + (feed_ratio - 1.0) * _value_raw(x_t / 100.0)
        - feed_ratio * value_feed
    )


def _burnup_residual_raw(x_p, db, t_refuel, sp):
    return db - 14.8 * x_p + sp * DAYS_PER_YEAR * t_refuel / 1000.0


def value_function(x):
    """Separative potential (2x - 1) ln(x / (1 - x)) of an assay fraction x.

    Symmetric about x = 0.5 and nonnegative on (0, 1).
    """
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0) or np.any(x >= 1.0):
        raise ValueError(f"assay fraction must lie in (0, 1), got {x!r}")
    return _value_raw(x)


def specific_power(db, t_refuel, cf):
    """Specific thermal power, kW per kgU, of fuel discharged at burnup ``db``.

    Parameters
    ----------
    db : discharge burnup, MWd/kgU (>= 0)
    t_refuel : refueling interval, years (> 0)
    cf : effective capacity factor in (0, 1]
    """
    if np.any(t_refuel <= 0.0) or not np.all(np.isfinite(t_refuel)):
        raise ValueError("t_refuel must be a positive number of years")
    if np.any(cf <= 0.0) or np.any(cf > 1.0):
        raise ValueError("capacity factor must lie in (0, 1]")
    if np.any(db < 0.0):
        raise ValueError("discharge burnup cannot be negative")
    return _sp_raw(db, t_refuel, cf)


def batch_product_mass(p_elec, eta, sp):
    """Enriched uranium mass per fuel batch, kg, for a core of ``p_elec`` MW_e.

    The factor 1000 converts the electric rating from MW to kW so it divides
    cleanly by the specific power in kW/kgU.
    """
    if np.any(p_elec <= 0.0):
        raise ValueError("electric capacity must be positive")
    if np.any(eta <= 0.0) or np.any(eta > 1.0):
        raise ValueError("thermal efficiency must lie in (0, 1]")
    if np.any(sp <= 0.0):
        raise ValueError("specific power must be positive")
    return 1000.0 * p_elec / (eta * sp)


def mass_flows(assays: EnrichmentAssays, m_p) -> MassFlows:
    """Feed and tails masses needed to produce ``m_p`` kg of product."""
    if np.any(m_p <= 0.0) or not np.all(np.isfinite(m_p)):
        raise ValueError("product mass must be positive and finite")
    m_f = _feed_ratio_raw(assays.x_p, assays.x_t, assays.x_f) * m_p
    m_t = (assays.x_p - assays.x_f) / (assays.x_p - assays.x_t) * m_f
    return MassFlows(m_p=m_p, m_f=m_f, m_t=m_t)


def swu_per_kg_product(assays: EnrichmentAssays):
    """Separative work per kg of enriched product, SWU/kgU.

    Zero when the feed is already at product assay, strictly positive
    otherwise.
    """
    feed_ratio = _feed_ratio_raw(assays.x_p, assays.x_t, assays.x_f)
    return _swu_raw(assays.x_p, assays.x_t, feed_ratio, _value_raw(assays.x_f / 100.0))


def mass_balance_residual(assays: EnrichmentAssays, flows: MassFlows):
    """Relative U-235 imbalance between cascade feed and product plus tails.

    Pure diagnostic: flows produced by :func:`mass_flows` satisfy the balance
    by construction, so anything above ~1e-9 flags externally tampered flows.
    """
    supply = assays.x_f * flows.m_f
    drain = assays.x_p * flows.m_p + assays.x_t * flows.m_t
    return np.abs(supply - drain) / np.maximum(supply, 1e-300)


def burnup_residual(x_p, db, t_refuel, cf):
    """Mismatch, MWd/kgU, between the design burnup and the burnup implied
    by the enrichment/cycle-length correlation for thermal-spectrum cores.

    Algebraically equal to ``db * (1 + 1/cf) - 14.8 * x_p`` and therefore
    independent of ``t_refuel`` on its own; the interval enters only through
    a cycle-dependent capacity factor.
    """
    return _burnup_residual_raw(x_p, db, t_refuel, specific_power(db, t_refuel, cf))

