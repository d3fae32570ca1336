"""Probability models for the uncertain unit costs, their discretized value
grids, and roulette-wheel scenario sampling.

Each uncertain parameter is discretized onto an equispaced grid (100 points
by default) and an index is drawn with probability proportional to the
probability density at each grid point. Scenario ``i`` of a study is a pure
function of ``(seed, i)``, so studies can be generated or re-generated in
any order, batch size, or process layout without changing a single draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .costs import CostInputs, DEFAULT_COSTS
from .rng import STREAM_SCENARIO, SeedLike, make_rng

PDF_KINDS = ("uniform", "triangular")

# The stock density of each uncertain cost, name -> (pdf kind, min, max), in
# the order of the study CSV's columns. A triangular mode sits at the nominal.
STOCK_UNCERTAINTY = {
    "occ": ("uniform", 2500.0, 4000.0),
    "n_fte": ("uniform", 3.0, 10.0),
    "s_fte": ("uniform", 120_000.0, 225_000.0),
    "fom": ("uniform", 400_000.0, 750_000.0),
    "vom": ("uniform", 2.0, 2.5),
    "c_yc": ("triangular", 84.0, 156.0),
    "c_conv": ("uniform", 4.0, 10.0),
    "c_swu": ("uniform", 125.0, 240.0),
    "c_fab": ("triangular", 400.0, 750.0),
}

# Which cost parameters vary in each study mode. "all" varies every
# uncertain cost; "none" pins everything at nominal.
MODE_GROUPS = {
    "all": tuple(STOCK_UNCERTAINTY),
    "occ": ("occ",),
    "om": ("n_fte", "s_fte", "fom", "vom"),
    "fuel": ("c_yc", "c_conv", "c_swu", "c_fab"),
    "none": (),
}

STUDY_MODES = tuple(MODE_GROUPS)

# Finest value grid a parameter may have. Sampling walks the whole grid per
# draw, so a larger one only costs memory and time.
MAX_GRID_POINTS = 100_000

__all__ = [
    "PDF_KINDS",
    "MODE_GROUPS",
    "STUDY_MODES",
    "STOCK_UNCERTAINTY",
    "MAX_GRID_POINTS",
    "Pdf",
    "UncertainParameter",
    "Scenario",
    "pdf_density",
    "parameter_grid",
    "roulette_select",
    "sample_scenario",
    "generate_study",
    "stock_parameter",
    "default_uncertain_parameters",
]


@dataclass(frozen=True)
class Pdf:
    """Uniform or triangular density on [min, max], in the parameter's units."""

    kind: str
    min: float
    max: float
    mode: Optional[float] = None  # triangular only; defaults to the nominal

    def __post_init__(self):
        if self.kind not in PDF_KINDS:
            raise ValueError(f"pdf kind must be one of {PDF_KINDS}")
        if not (np.isfinite(self.min) and np.isfinite(self.max)) or self.min >= self.max:
            raise ValueError("pdf requires min < max")
        if self.kind == "triangular":
            if self.mode is None or not self.min <= self.mode <= self.max:
                raise ValueError("triangular pdf requires min <= mode <= max")
        elif self.mode is not None:
            raise ValueError("uniform pdf takes no mode")


@dataclass(frozen=True)
class UncertainParameter:
    """One uncertain cost parameter with its density and value grid."""

    name: str
    pdf: Pdf
    nominal: float
    grid_points: int = 100

    def __post_init__(self):
        if not self.pdf.min <= self.nominal <= self.pdf.max:
            raise ValueError(f"nominal of {self.name} must lie within [min, max]")
        if not 2 <= self.grid_points <= MAX_GRID_POINTS:
            raise ValueError(f"grid_points must lie in [2, {MAX_GRID_POINTS}]")


@dataclass(frozen=True)
class Scenario:
    """One sampled cost realization plus the grid indices that produced it."""

    id: int
    mode: str
    costs: CostInputs
    grid_indices: dict

    def __post_init__(self):
        if self.mode not in STUDY_MODES:
            raise ValueError(f"mode must be one of {STUDY_MODES}")
        if self.id < 0:
            raise ValueError("scenario id must be >= 0")


def pdf_density(pdf: Pdf, x):
    """Probability density of ``pdf`` at ``x`` (scalar or array), 1/units."""
    x = np.asarray(x, dtype=float)
    span = pdf.max - pdf.min
    inside = (x >= pdf.min) & (x <= pdf.max)
    if pdf.kind == "uniform":
        return np.where(inside, 1.0 / span, 0.0)
    mode = pdf.mode
    if mode == pdf.min:
        density = 2.0 * (pdf.max - x) / (span * span)
    elif mode == pdf.max:
        density = 2.0 * (x - pdf.min) / (span * span)
    else:
        rising = 2.0 * (x - pdf.min) / (span * (mode - pdf.min))
        falling = 2.0 * (pdf.max - x) / (span * (pdf.max - mode))
        density = np.where(x < mode, rising, falling)
    return np.where(inside, density, 0.0)


def parameter_grid(param: UncertainParameter) -> np.ndarray:
    """The parameter's equispaced value lattice, min to max inclusive."""
    return np.linspace(param.pdf.min, param.pdf.max, param.grid_points)


def roulette_select(weights, rng: np.random.Generator) -> int:
    """Draw an index with probability proportional to its weight.

    One uniform variate is inverted through the cumulative weight sum, so
    the result is a deterministic function of the generator state.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.size == 0:
        raise ValueError("weights must be non-empty")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
        raise ValueError("weights must be finite and >= 0")
    cumulative = np.cumsum(weights)
    total = cumulative[-1]
    if total <= 0.0:
        raise ValueError("at least one weight must be positive")
    u = rng.random() * total
    index = int(np.searchsorted(cumulative, u, side="right"))
    return min(index, weights.size - 1)


def sample_scenario(
    params: Sequence[UncertainParameter],
    mode: str,
    scenario_id: int,
    rng: np.random.Generator,
    base: CostInputs = DEFAULT_COSTS,
) -> Scenario:
    """Draw one scenario: grid values for the mode's group, nominals elsewhere.

    ``base`` supplies the fields that carry no uncertainty (spent fuel and
    decommissioning); uncertain fields outside the group are set to their
    nominal values exactly. The staff count is rounded to the nearest whole
    FTE after sampling.
    """
    if mode not in MODE_GROUPS:
        raise ValueError(f"mode must be one of {STUDY_MODES}")
    group = MODE_GROUPS[mode]
    values = {}
    indices = {}
    for param in params:
        if param.name in group:
            grid = parameter_grid(param)
            idx = roulette_select(pdf_density(param.pdf, grid), rng)
            indices[param.name] = idx
            values[param.name] = float(grid[idx])
        else:
            values[param.name] = param.nominal
    if "n_fte" in values:
        values["n_fte"] = float(round(values["n_fte"]))
    costs = CostInputs(c_spent=base.c_spent, c_dec=base.c_dec, **values)
    return Scenario(id=scenario_id, mode=mode, costs=costs, grid_indices=indices)


def generate_study(
    params: Sequence[UncertainParameter],
    mode: str,
    n: int = 100,
    seed: SeedLike = 0,
    base: CostInputs = DEFAULT_COSTS,
) -> list[Scenario]:
    """Generate ``n`` scenarios whose draws depend only on ``(seed, id)``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [
        sample_scenario(params, mode, i, make_rng(seed, STREAM_SCENARIO, i), base=base)
        for i in range(n)
    ]


def stock_parameter(name: str, base: CostInputs = DEFAULT_COSTS, **overrides) -> UncertainParameter:
    """The :data:`STOCK_UNCERTAINTY` entry ``name`` with any field overridden.

    The keywords are the config keys ``pdf``, ``min``, ``max``, ``mode``,
    ``nominal`` and ``grid_points``. The nominal defaults to ``base.<name>``,
    a triangular mode to the nominal. An invalid result raises ``ValueError``,
    an unknown keyword ``TypeError``.
    """
    kind, low, high = STOCK_UNCERTAINTY[name]
    nominal = overrides.get("nominal", float(getattr(base, name)))
    mode = nominal if overrides.get("pdf", kind) == "triangular" else None
    spec = {"pdf": kind, "min": low, "max": high, "mode": mode, "nominal": nominal, **overrides}
    pdf = Pdf(spec.pop("pdf"), spec.pop("min"), spec.pop("max"), spec.pop("mode"))
    return UncertainParameter(name=name, pdf=pdf, **spec)


def default_uncertain_parameters(base: CostInputs = DEFAULT_COSTS) -> list[UncertainParameter]:
    """The nine uncertain cost parameters of :data:`STOCK_UNCERTAINTY`.

    Nominals follow ``base`` so a re-priced configuration stays internally
    consistent; a triangular mode sits at the nominal. A ``base`` cost
    outside its stock range raises ``ValueError``.
    """
    return [stock_parameter(name, base) for name in STOCK_UNCERTAINTY]
