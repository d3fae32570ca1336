"""Run configuration: defaults, strict JSON ingestion, canonical dumps.

Every field is optional in the file; omitted values fall back to the stock
microreactor parameter set. Unknown keys are rejected with their dotted
path, so typos cannot silently run a different study than intended. Units:
rates are fractions, money in dollars, durations in years.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import Optional

from .analysis import BenchmarkTable
from .costs import (
    CostInputs,
    DEFAULT_COSTS,
    FinancialParams,
    INFLATION_MODES,
    LB_U3O8_PER_KG_U,
)
from .optimize import DEFAULT_PENALTY_WEIGHT, GaConfig, SaConfig
from .uncertainty import (
    MAX_GRID_POINTS,
    PDF_KINDS,
    Pdf,
    UncertainParameter,
    default_uncertain_parameters,
)

__all__ = ["ConfigError", "StudyConfig", "load_config", "resolved_dict", "config_hash"]

# Placeholder ranking data for the comparison report; replace with values
# from a current market outlook before quoting results.
SAMPLE_BENCHMARKS = (
    ("standalone solar", 36.5),
    ("geothermal", 39.9),
    ("ng combined cycle", 40.6),
    ("onshore wind", 40.9),
    ("hybrid solar", 49.0),
    ("hydroelectric", 64.3),
    ("ta reactor", 88.2),
    ("biomass", 89.2),
    ("usc coal", 82.6),
    ("offshore wind", 136.5),
)


class ConfigError(ValueError):
    """Malformed or contradictory run configuration."""


@dataclass(frozen=True)
class StudyConfig:
    """Fully resolved inputs for any command."""

    costs: CostInputs = DEFAULT_COSTS
    fin: FinancialParams = FinancialParams()
    uncertain: tuple = ()  # of UncertainParameter; filled in __post_init__
    ga: GaConfig = GaConfig()
    sa: SaConfig = SaConfig()
    benchmarks: BenchmarkTable = BenchmarkTable(entries=SAMPLE_BENCHMARKS)
    penalty_weight: float = DEFAULT_PENALTY_WEIGHT
    seed: int = 0
    threads: int = 1
    output_dir: str = "out"
    notes: str = ""

    def __post_init__(self):
        if not self.uncertain:
            object.__setattr__(
                self, "uncertain", tuple(default_uncertain_parameters(self.costs))
            )
        if not 0.0 <= self.penalty_weight < math.inf:
            raise ConfigError("penalty_weight must be finite and >= 0")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


_FINANCIAL_KEYS = {
    "discount_rate": "r",
    "inflation_rate": "infl",
    "lifetime_years": "lt",
    "capacity_factor": "cf_base",
    "efficiency": "eta",
    "ptc_rate": "ptc_rate",
    "ptc_years": "t_ptc",
    "feed_assay": "x_f",
    "conversion_loss": "loss",
    "downtime_years": "t_down",
    "downtime_model": "downtime_model",
    "inflation_mode": "inflation_mode",
}

_COST_KEYS = (
    "occ", "n_fte", "s_fte", "fom", "vom",
    "c_yc", "c_yc_per_lb", "c_conv", "c_swu", "c_fab", "c_spent", "c_dec",
)

_UNCERTAIN_KEYS = ("pdf", "min", "max", "mode", "nominal", "grid_points")

_GA_KEYS = tuple(GaConfig.__dataclass_fields__)
_SA_KEYS = tuple(SaConfig.__dataclass_fields__)

_TOP_KEYS = (
    "financial", "costs", "uncertainty", "ga", "sa", "benchmarks",
    "penalty_weight", "seed", "threads", "output_dir", "notes",
)


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object")
    return value


def _reject_unknown(mapping: dict, allowed, path: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {path}.{unknown[0]}" if path else f"unknown key {unknown[0]}")


class _JsonConstant:
    """A NaN, Infinity or -Infinity literal read from a config file.

    ``json`` accepts these non-standard literals. Kept as their own type
    instead of floats, they match no field type, so every field rejects
    them with its dotted path.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __str__(self) -> str:
        return self.text


def _number(value, path: str) -> float:
    if isinstance(value, _JsonConstant):
        raise ConfigError(f"{path} must be a finite number, not {value}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number")
    if not math.isfinite(value):
        raise ConfigError(f"{path} must be a finite number, not {value}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer")
    return value


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path} must be true or false")
    return value


def _parse_financial(section: dict) -> FinancialParams:
    _reject_unknown(section, _FINANCIAL_KEYS, "financial")
    kwargs = {}
    for key, attr in _FINANCIAL_KEYS.items():
        if key not in section:
            continue
        if key == "downtime_model":
            kwargs[attr] = _boolean(section[key], f"financial.{key}")
        elif key == "inflation_mode":
            if section[key] not in INFLATION_MODES:
                raise ConfigError(f"financial.inflation_mode must be one of {INFLATION_MODES}")
            kwargs[attr] = section[key]
        else:
            kwargs[attr] = _number(section[key], f"financial.{key}")
    try:
        return FinancialParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"financial: {exc}") from exc


def _parse_costs(section: dict) -> CostInputs:
    _reject_unknown(section, _COST_KEYS, "costs")
    if "c_yc" in section and "c_yc_per_lb" in section:
        raise ConfigError("costs: give uranium as c_yc ($/kgU) or c_yc_per_lb, not both")
    kwargs = {}
    for key in _COST_KEYS:
        if key not in section:
            continue
        value = _number(section[key], f"costs.{key}")
        if key == "c_yc_per_lb":
            kwargs["c_yc"] = value * LB_U3O8_PER_KG_U
        else:
            kwargs[key] = value
    try:
        return replace(DEFAULT_COSTS, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"costs: {exc}") from exc


def _parse_uncertainty(section: dict, costs: CostInputs) -> tuple:
    defaults = {p.name: p for p in default_uncertain_parameters(costs)}
    _reject_unknown(section, defaults, "uncertainty")
    params = []
    for name, stock in defaults.items():
        if name not in section:
            params.append(stock)
            continue
        spec = _require_mapping(section[name], f"uncertainty.{name}")
        _reject_unknown(spec, _UNCERTAIN_KEYS, f"uncertainty.{name}")
        kind = spec.get("pdf", stock.pdf.kind)
        if kind not in PDF_KINDS:
            raise ConfigError(f"uncertainty.{name}.pdf must be one of {PDF_KINDS}")
        low = _number(spec["min"], f"uncertainty.{name}.min") if "min" in spec else stock.pdf.min
        high = _number(spec["max"], f"uncertainty.{name}.max") if "max" in spec else stock.pdf.max
        nominal = (
            _number(spec["nominal"], f"uncertainty.{name}.nominal")
            if "nominal" in spec
            else stock.nominal
        )
        if kind == "triangular":
            mode = _number(spec["mode"], f"uncertainty.{name}.mode") if "mode" in spec else nominal
        elif "mode" in spec:
            raise ConfigError(f"uncertainty.{name}.mode is only valid for triangular pdfs")
        else:
            mode = None
        grid_points = (
            _integer(spec["grid_points"], f"uncertainty.{name}.grid_points")
            if "grid_points" in spec
            else stock.grid_points
        )
        if not 2 <= grid_points <= MAX_GRID_POINTS:
            raise ConfigError(
                f"uncertainty.{name}.grid_points must lie in [2, {MAX_GRID_POINTS}]"
            )
        try:
            params.append(
                UncertainParameter(
                    name=name,
                    pdf=Pdf(kind=kind, min=low, max=high, mode=mode),
                    nominal=nominal,
                    grid_points=grid_points,
                )
            )
        except ValueError as exc:
            raise ConfigError(f"uncertainty.{name}: {exc}") from exc
    return tuple(params)


def _parse_solver(section: dict, cls, keys, path: str):
    _reject_unknown(section, keys, path)
    kwargs = {}
    for key in keys:
        if key not in section:
            continue
        if key in ("population", "generations", "elite_count", "stall_generations",
                   "restarts", "steps", "moves_per_step"):
            kwargs[key] = _integer(section[key], f"{path}.{key}")
        else:
            kwargs[key] = _number(section[key], f"{path}.{key}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_benchmarks(section) -> BenchmarkTable:
    if not isinstance(section, list):
        raise ConfigError("benchmarks must be a list of {name, lcoe} objects")
    entries = []
    for i, item in enumerate(section):
        item = _require_mapping(item, f"benchmarks[{i}]")
        _reject_unknown(item, ("name", "lcoe"), f"benchmarks[{i}]")
        if "name" not in item or "lcoe" not in item:
            raise ConfigError(f"benchmarks[{i}] needs both name and lcoe")
        if not isinstance(item["name"], str):
            raise ConfigError(f"benchmarks[{i}].name must be a string")
        entries.append((item["name"], _number(item["lcoe"], f"benchmarks[{i}].lcoe")))
    try:
        return BenchmarkTable(entries=tuple(entries))
    except ValueError as exc:
        raise ConfigError(f"benchmarks: {exc}") from exc


def parse_config(data: dict) -> StudyConfig:
    """Build a :class:`StudyConfig` from an already-parsed JSON object."""
    data = _require_mapping(data, "config")
    _reject_unknown(data, _TOP_KEYS, "")
    fin = _parse_financial(_require_mapping(data.get("financial", {}), "financial"))
    costs = _parse_costs(_require_mapping(data.get("costs", {}), "costs"))
    uncertain = _parse_uncertainty(
        _require_mapping(data.get("uncertainty", {}), "uncertainty"), costs
    )
    ga = _parse_solver(_require_mapping(data.get("ga", {}), "ga"), GaConfig, _GA_KEYS, "ga")
    sa = _parse_solver(_require_mapping(data.get("sa", {}), "sa"), SaConfig, _SA_KEYS, "sa")
    benchmarks = (
        _parse_benchmarks(data["benchmarks"])
        if "benchmarks" in data
        else BenchmarkTable(entries=SAMPLE_BENCHMARKS)
    )
    kwargs = {}
    if "penalty_weight" in data:
        kwargs["penalty_weight"] = _number(data["penalty_weight"], "penalty_weight")
    if "seed" in data:
        kwargs["seed"] = _integer(data["seed"], "seed")
    if "threads" in data:
        kwargs["threads"] = _integer(data["threads"], "threads")
    if "output_dir" in data:
        if not isinstance(data["output_dir"], str):
            raise ConfigError("output_dir must be a string")
        kwargs["output_dir"] = data["output_dir"]
    if "notes" in data:
        if not isinstance(data["notes"], str):
            raise ConfigError("notes must be a string")
        kwargs["notes"] = data["notes"]
    return StudyConfig(
        costs=costs, fin=fin, uncertain=uncertain, ga=ga, sa=sa,
        benchmarks=benchmarks, **kwargs,
    )


def load_config(path: Optional[str]) -> StudyConfig:
    """Read and validate a configuration file; ``None`` gives pure defaults."""
    if path is None:
        return StudyConfig()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, parse_constant=_JsonConstant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)


def resolved_dict(config: StudyConfig) -> dict:
    """Canonical, JSON-ready image of a resolved configuration."""
    return {
        "financial": {
            key: getattr(config.fin, attr) for key, attr in _FINANCIAL_KEYS.items()
        },
        "costs": {key: getattr(config.costs, key) for key in CostInputs.__dataclass_fields__},
        "uncertainty": {
            p.name: {
                "pdf": p.pdf.kind,
                "min": p.pdf.min,
                "max": p.pdf.max,
                "mode": p.pdf.mode,
                "nominal": p.nominal,
                "grid_points": p.grid_points,
            }
            for p in config.uncertain
        },
        "ga": {key: getattr(config.ga, key) for key in _GA_KEYS},
        "sa": {key: getattr(config.sa, key) for key in _SA_KEYS},
        "benchmarks": [{"name": n, "lcoe": v} for n, v in config.benchmarks.entries],
        "penalty_weight": config.penalty_weight,
        "seed": config.seed,
        "threads": config.threads,
        "output_dir": config.output_dir,
        "notes": config.notes,
    }


# Fields that set where and how fast a run goes, or annotate it, without
# changing any result.
_UNHASHED_KEYS = ("threads", "output_dir", "notes")


def config_hash(config: StudyConfig) -> str:
    """SHA-256 of the canonical image of the fields that determine results:
    everything but the worker count, the output directory and the notes."""
    image = {k: v for k, v in resolved_dict(config).items() if k not in _UNHASHED_KEYS}
    canonical = json.dumps(image, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
