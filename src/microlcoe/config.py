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
from dataclasses import dataclass, fields, replace
from typing import Optional

from .analysis import BenchmarkTable
from .costs import (
    CostInputs,
    DEFAULT_COSTS,
    DESIGN_BOUNDS,
    FieldError,
    FinancialParams,
    LB_U3O8_PER_KG_U,
    effective_capacity_factor,
)
from .fuelcycle import burnup_residual
from .optimize import DEFAULT_PENALTY_WEIGHT, GaConfig, SaConfig
from .uncertainty import STOCK_UNCERTAINTY, stock_parameter

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
            object.__setattr__(self, "uncertain", _parse_uncertainty({}, self.costs))
        if not 0.0 <= self.penalty_weight < math.inf:
            raise ConfigError("penalty_weight must be finite and >= 0")
        # The burnup residual db*(1 + 1/cf(t)) - 14.8*x_p depends on no cost
        # and is monotone in each design coordinate, so its extremes over the
        # box sit at these two corners. If it or its penalty overflows there,
        # the search would meet Infinity; reject the input instead.
        (xp_low, xp_high), (t_low, t_high), (db_low, db_high) = (
            DESIGN_BOUNDS[name] for name in ("x_p", "t_refuel", "db")
        )
        for x_p, t_refuel, db in ((xp_low, t_low, db_high), (xp_high, t_high, db_low)):
            cf = effective_capacity_factor(self.fin, t_refuel)
            residual = burnup_residual(x_p, db, t_refuel, cf)  # as the chain forms it
            penalty = self.penalty_weight * residual * residual  # as the objective forms it
            if not (math.isfinite(residual * residual) and math.isfinite(penalty)):
                raise ConfigError(
                    f"the burnup residual penalty overflows: financial.capacity_factor = "
                    f"{self.fin.cf_base:g}, financial.downtime_years = {self.fin.t_down:g} "
                    f"and penalty_weight = {self.penalty_weight:g} give a residual of "
                    f"{residual:g} MWd/kgU at x_p = {x_p:g}, t_refuel = {t_refuel:g}, db = {db:g}"
                )
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


# One table per section, from file key to dataclass field. Each drives both
# parse_config and resolved_dict; a field's default gives its type.
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
_COST_KEYS = {f.name: f.name for f in fields(CostInputs)}
_GA_KEYS = {f.name: f.name for f in fields(GaConfig)}
_SA_KEYS = {f.name: f.name for f in fields(SaConfig)}
_SCALAR_KEYS = {  # penalty_weight, seed, threads, output_dir, notes
    f.name: f.name for f in fields(StudyConfig) if isinstance(f.default, (float, int, str))
}

# The keys of one ``uncertainty.<name>`` spec, each with a value of its type:
# the fields of UncertainParameter after its name.
_UNCERTAIN_LIKE = {"pdf": "", "min": 0.0, "max": 0.0, "mode": 0.0, "nominal": 0.0, "grid_points": 0}
_UNCERTAIN_KEYS = {key: key for key in _UNCERTAIN_LIKE}

_TOP_KEYS = ("financial", "costs", "uncertainty", "ga", "sa", "benchmarks", *_SCALAR_KEYS)


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object")
    return value


def _reject_unknown(mapping: dict, allowed, path: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {path}.{unknown[0]}" if path else f"unknown key {unknown[0]}")


def _unique_keys(pairs) -> dict:
    """JSON object hook that rejects a key given twice in one object."""
    mapping = {}
    for key, value in pairs:
        if key in mapping:
            raise ConfigError(f"config key '{key}' is given more than once")
        mapping[key] = value
    return mapping


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number")
    if not math.isfinite(value):
        raise ConfigError(f"{path} must be a finite number, not {value}")
    return float(value)


_TYPE_NAMES = {int: "an integer", bool: "true or false", str: "a string"}


def _read(value, like, path: str):
    """``value`` checked against the type of ``like``, the field's default:
    a finite number for a float, else exactly that type (no bool for an int)."""
    if isinstance(like, float):
        return _number(value, path)
    if type(value) is not type(like):
        raise ConfigError(f"{path} must be {_TYPE_NAMES[type(like)]}")
    return value


def _read_keys(section: dict, keys: dict, like, paths: dict) -> dict:
    """The fields that ``section`` sets, read against their values in ``like``."""
    return {
        attr: _read(section[key], getattr(like, attr), paths[attr])
        for key, attr in keys.items()
        if key in section
    }


def _build(make, paths: dict):
    """``make()``; a :class:`FieldError` becomes a ConfigError naming its fields' ``paths``."""
    try:
        return make()
    except FieldError as exc:
        keys = dict.fromkeys(paths[field] for field in exc.fields)
        raise ConfigError(f"{' / '.join(keys)}: {exc}") from exc


def _parse_section(section, name: str, keys: dict, default, paths=None):
    _reject_unknown(_require_mapping(section, name), keys, name)
    paths = paths or {attr: f"{name}.{key}" for key, attr in keys.items()}
    values = _read_keys(section, keys, default, paths)
    return _build(lambda: replace(default, **values), paths)


_COST_PATHS = {attr: f"costs.{key}" for key, attr in _COST_KEYS.items()}


def _parse_costs(section) -> tuple:
    """The costs, and each field's dotted key (``costs.c_yc_per_lb`` for a price per pound)."""
    section = dict(_require_mapping(section, "costs"))
    paths = _COST_PATHS
    if "c_yc_per_lb" in section:
        if "c_yc" in section:
            raise ConfigError("costs: give uranium as c_yc ($/kgU) or c_yc_per_lb, not both")
        paths = {**paths, "c_yc": "costs.c_yc_per_lb"}
        per_lb = _number(section.pop("c_yc_per_lb"), "costs.c_yc_per_lb")
        section["c_yc"] = per_lb * LB_U3O8_PER_KG_U
    return _parse_section(section, "costs", _COST_KEYS, DEFAULT_COSTS, paths), paths


def _parse_uncertainty(section, costs: CostInputs, cost_paths: dict = _COST_PATHS) -> tuple:
    """Each uncertain parameter built once by :func:`stock_parameter`, from the
    keys its ``uncertainty`` spec gives. A rejection names the spec's keys, but
    the cost's for a nominal taken from ``costs`` and for every rule if no spec."""
    _reject_unknown(_require_mapping(section, "uncertainty"), STOCK_UNCERTAINTY, "uncertainty")
    params = []
    for name in STOCK_UNCERTAINTY:
        path = f"uncertainty.{name}"
        spec = _require_mapping(section.get(name, {}), path)
        _reject_unknown(spec, _UNCERTAIN_LIKE, path)
        paths = {key: f"{path}.{key}" if name in section else cost_paths[name]
                 for key in _UNCERTAIN_LIKE}
        if "nominal" not in spec:
            paths["nominal"] = cost_paths[name]
        overrides = {
            # resolved_dict writes a uniform pdf's mode as null
            key: None if key == "mode" and value is None
            else _read(value, _UNCERTAIN_LIKE[key], paths[key])
            for key, value in spec.items()
        }
        params.append(_build(lambda: stock_parameter(name, costs, **overrides), paths))
    return tuple(params)


def _parse_benchmarks(section) -> BenchmarkTable:
    if not isinstance(section, list):
        raise ConfigError("benchmarks must be a list of {name, lcoe} objects")
    entries = []
    for i, item in enumerate(section):
        item = _require_mapping(item, f"benchmarks[{i}]")
        _reject_unknown(item, ("name", "lcoe"), f"benchmarks[{i}]")
        if "name" not in item or "lcoe" not in item:
            raise ConfigError(f"benchmarks[{i}] needs both name and lcoe")
        entries.append(
            (_read(item["name"], "", f"benchmarks[{i}].name"),
             _number(item["lcoe"], f"benchmarks[{i}].lcoe"))
        )
    try:
        return BenchmarkTable(entries=tuple(entries))
    except ValueError as exc:
        raise ConfigError(f"benchmarks: {exc}") from exc


def parse_config(data: dict) -> StudyConfig:
    """Build a :class:`StudyConfig` from an already-parsed JSON object."""
    data = _require_mapping(data, "config")
    _reject_unknown(data, _TOP_KEYS, "")
    fin = _parse_section(data.get("financial", {}), "financial", _FINANCIAL_KEYS, FinancialParams())
    costs, cost_paths = _parse_costs(data.get("costs", {}))
    uncertain = _parse_uncertainty(data.get("uncertainty", {}), costs, cost_paths)
    ga = _parse_section(data.get("ga", {}), "ga", _GA_KEYS, GaConfig())
    sa = _parse_section(data.get("sa", {}), "sa", _SA_KEYS, SaConfig())
    benchmarks = (
        _parse_benchmarks(data["benchmarks"])
        if "benchmarks" in data
        else BenchmarkTable(entries=SAMPLE_BENCHMARKS)
    )
    return StudyConfig(
        costs=costs, fin=fin, uncertain=uncertain, ga=ga, sa=sa, benchmarks=benchmarks,
        **_read_keys(data, _SCALAR_KEYS, StudyConfig, _SCALAR_KEYS),  # a key is its own path
    )


def load_config(path: Optional[str]) -> StudyConfig:
    """Read and validate a configuration file; ``None`` gives pure defaults."""
    if path is None:
        return StudyConfig()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)


def _image(obj, keys: dict) -> dict:
    return {key: getattr(obj, attr) for key, attr in keys.items()}


def resolved_dict(config: StudyConfig) -> dict:
    """Canonical, JSON-ready image of a resolved configuration; it reads back
    through :func:`parse_config` to the same configuration."""
    return {
        "financial": _image(config.fin, _FINANCIAL_KEYS),
        "costs": _image(config.costs, _COST_KEYS),
        "uncertainty": {p.name: _image(p, _UNCERTAIN_KEYS) for p in config.uncertain},
        "ga": _image(config.ga, _GA_KEYS),
        "sa": _image(config.sa, _SA_KEYS),
        "benchmarks": [{"name": n, "lcoe": v} for n, v in config.benchmarks.entries],
        **_image(config, _SCALAR_KEYS),
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
