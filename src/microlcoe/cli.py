"""Command-line front end.

Subcommands
-----------
lcoe      cost one explicit design and print its breakdown
optimize  search the design box for the cheapest design (GA, optional SA check)
study     run an uncertainty study (``--mode all|occ|om|fuel|none``)
sweep     sensitivity sweep over efficiency, discount rate, or inflation
compare   rank the optimized microreactor against benchmark technologies

Every successful run writes a ``manifest.json`` with the seed, resolved
configuration, config hash and library versions, enough to reproduce the
outputs byte for byte. A run whose input or computation fails writes nothing.

Exit codes: 0 success, 2 configuration error, 3 numerical/optimization error.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    StudyError,
    StudyReport,
    run_uncertainty_study,
    sensitivity_sweep,
    swept_params,
    technology_comparison,
    write_comparison_csv,
    write_manifest,
    write_optimize_csv,
    write_sensitivity_csv,
    write_study_csv,
    write_study_stats_csv,
)
from .config import ConfigError, StudyConfig, config_hash, load_config, resolved_dict
from .costs import INFLATION_MODES, ReactorDesign, lcoe_breakdown
from .optimize import EvaluationError, optimize_design
from .uncertainty import STUDY_MODES

_DESIGN_KEYS = {"p": "p_elec", "xp": "x_p", "xt": "x_t", "t": "t_refuel", "db": "db"}

# CLI name -> (swept parameter, default values)
_SWEEPS = {
    "efficiency": ("efficiency", (0.35, 0.40, 0.45, 0.50)),
    "discount": ("discount_rate", (0.03, 0.05)),
    "inflation": ("inflation", (0.002, 0.02)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microlcoe",
        description="Levelized-cost optimizer for a generic nuclear microreactor.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON configuration file")
    common.add_argument("--seed", type=int, metavar="U64", help="root random seed")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--threads", type=int, metavar="N", help="worker process cap")
    common.add_argument(
        "--downtime", choices=("on", "off"),
        help="couple refueling downtime into the capacity factor",
    )
    common.add_argument(
        "--inflation-mode", choices=INFLATION_MODES, dest="inflation_mode",
        help="discounting convention",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    lcoe = sub.add_parser("lcoe", parents=[common], help="cost one design")
    lcoe.add_argument(
        "--design", required=True, metavar="p=..,xp=..,xt=..,t=..,db=..",
        help="design point, e.g. p=19.13,xp=5,xt=0.2913,t=6.24,db=30",
    )

    opt = sub.add_parser("optimize", parents=[common], help="base-case design search")
    opt.add_argument(
        "--validate-sa", action="store_true", dest="validate_sa",
        help="also run simulated annealing and report the agreement",
    )

    study = sub.add_parser("study", parents=[common], help="uncertainty study")
    study.add_argument("--mode", required=True, choices=STUDY_MODES)
    study.add_argument("--n", type=int, default=100, help="number of scenarios")

    sweep = sub.add_parser("sweep", parents=[common], help="sensitivity sweep")
    sweep.add_argument("--param", required=True, choices=tuple(_SWEEPS))
    sweep.add_argument(
        "--values", metavar="V1,V2,...", help="override the swept values"
    )
    sweep.add_argument(
        "--fixed-design", metavar="p=..,xp=..,...", dest="fixed_design",
        help="re-cost this fixed design instead of re-optimizing",
    )

    sub.add_parser("compare", parents=[common], help="benchmark ranking")

    return parser


def parse_design(text: str) -> ReactorDesign:
    """Parse ``p=..,xp=..,xt=..,t=..,db=..`` into a design point."""
    fields = {}
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ConfigError(f"design field '{chunk}' is not key=value")
        key, _, raw = chunk.partition("=")
        key = key.strip()
        if key not in _DESIGN_KEYS:
            raise ConfigError(f"unknown design key '{key}' (expected {sorted(_DESIGN_KEYS)})")
        if _DESIGN_KEYS[key] in fields:
            raise ConfigError(f"design key '{key}' is given more than once")
        try:
            fields[_DESIGN_KEYS[key]] = float(raw)
        except ValueError as exc:
            raise ConfigError(f"design value for '{key}' is not a number: {raw!r}") from exc
    missing = sorted(set(_DESIGN_KEYS.values()) - set(fields))
    if missing:
        raise ConfigError(f"design is missing {missing}")
    try:
        return ReactorDesign(**fields)
    except ValueError as exc:
        raise ConfigError(f"design: {exc}") from exc


# CLI flag -> (argparse dest, the config with the flag's value applied)
_OVERRIDES = {
    "--downtime": (
        "downtime", lambda c, v: replace(c, fin=replace(c.fin, downtime_model=v == "on"))),
    "--inflation-mode": (
        "inflation_mode", lambda c, v: replace(c, fin=replace(c.fin, inflation_mode=v))),
    "--seed": ("seed", lambda c, v: replace(c, seed=v)),
    "--out": ("out", lambda c, v: replace(c, output_dir=v)),
    "--threads": ("threads", lambda c, v: replace(c, threads=v)),
}


def _apply_overrides(config: StudyConfig, args: argparse.Namespace) -> StudyConfig:
    for flag, (dest, update) in _OVERRIDES.items():
        value = getattr(args, dest)
        if value is not None:
            try:
                config = update(config, value)
            except ValueError as exc:  # ConfigError included
                raise ConfigError(f"{flag} {value}: {exc}") from exc
    return config


def _manifest(config: StudyConfig, command: str, argv, outputs) -> dict:
    return {
        "tool": "microlcoe",
        "version": __version__,
        "command": command,
        "argv": list(argv),
        "seed": config.seed,
        "threads": config.threads,
        "config_sha256": config_hash(config),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "outputs": sorted(outputs),
        "config": resolved_dict(config),
    }


def _print_breakdown(breakdown) -> None:
    print(f"  capital          {breakdown.capital:12.2f} $/MWh")
    print(f"  o&m              {breakdown.om:12.2f} $/MWh")
    print(f"  fuel             {breakdown.fuel:12.2f} $/MWh")
    print(f"  spent fuel       {breakdown.spent:12.2f} $/MWh")
    print(f"  decommissioning  {breakdown.decommissioning:12.2f} $/MWh")
    print(f"  ptc credit       {-breakdown.ptc_credit:12.2f} $/MWh")
    print(f"  total            {breakdown.total:12.2f} $/MWh")
    print(f"  (before credit)  {breakdown.total_before_credit:12.2f} $/MWh")
    print(f"  annual energy    {breakdown.annual_energy:12.0f} MWh/yr")


def _design_str(design: ReactorDesign) -> str:
    return (
        f"p_elec={design.p_elec:.3f} MW_e, x_p={design.x_p:.4f} wt%, "
        f"x_t={design.x_t:.4f} wt%, t_refuel={design.t_refuel:.3f} yr, "
        f"db={design.db:.3f} MWd/kgU"
    )


def _search(config: StudyConfig, method: str = "ga"):
    return optimize_design(
        config.costs, config.fin, method=method, ga_config=config.ga, sa_config=config.sa,
        penalty_weight=config.penalty_weight, seed=config.seed,
    )


# Each command checks its arguments, computes, prints and returns
# {file name: writer of that file's path}; main writes the files.
def _cmd_lcoe(config: StudyConfig, args) -> dict:
    design = parse_design(args.design)
    breakdown = lcoe_breakdown(design, config.costs, config.fin)
    print(f"design: {_design_str(design)}")
    _print_breakdown(breakdown)
    return {}


def _cmd_optimize(config: StudyConfig, args) -> dict:
    result = _search(config)
    rows = [("ga", result)]
    print(f"best design ({config.ga.restarts} GA restarts, seed {config.seed}):")
    print(f"  {_design_str(result.best_design)}")
    print(f"  lcoe {result.lcoe:.2f} $/MWh, burnup residual {result.burnup_residual:.3f} MWd/kgU, "
          f"penalty {result.penalty_value:.3f}")
    _print_breakdown(result.breakdown)
    if args.validate_sa:
        sa_result = _search(config, "sa")
        rows.append(("sa", sa_result))
        gap = abs(result.objective - sa_result.objective) / abs(result.objective)
        print(f"sa check: lcoe {sa_result.lcoe:.2f} $/MWh "
              f"({_design_str(sa_result.best_design)}), relative gap {gap:.4%}")
    return {"optimize.csv": lambda path: write_optimize_csv(rows, path)}


def _print_stats(report: StudyReport) -> None:
    print(f"{'variable':<12}{'max':>10}{'min':>10}{'sd':>10}{'q1':>10}{'median':>10}{'q3':>10}")
    for name, stats in report.stats.items():
        print(
            f"{name:<12}{stats.max:>10.2f}{stats.min:>10.2f}{stats.sd:>10.2f}"
            f"{stats.q1:>10.2f}{stats.median:>10.2f}{stats.q3:>10.2f}"
        )
    low, high = report.ptc_reduction_range
    print(f"ptc reduction across scenarios: {low:.2%} to {high:.2%}")


def _cmd_study(config: StudyConfig, args) -> dict:
    if args.n < 1:
        raise ConfigError("--n must be >= 1")
    report = run_uncertainty_study(
        args.mode, n=args.n, seed=config.seed,
        params=config.uncertain, base_costs=config.costs, fin=config.fin,
        ga_config=config.ga, penalty_weight=config.penalty_weight,
        threads=config.threads,
    )
    param_names = [p.name for p in config.uncertain]
    writers = {f"study_{args.mode}.csv": lambda path: write_study_csv(report, path, param_names)}
    print(f"study mode={args.mode}, n={args.n}, seed={config.seed}")
    if report.stats:
        writers[f"study_{args.mode}_stats.csv"] = lambda path: write_study_stats_csv(report, path)
        _print_stats(report)
    return writers


def _cmd_sweep(config: StudyConfig, args) -> dict:
    parameter, values = _SWEEPS[args.param]
    if args.values is not None:
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"--values must be comma-separated numbers: {exc}") from exc
        if not values:
            raise ConfigError("--values is empty")
        try:
            swept_params(parameter, values, config.fin)
        except ValueError as exc:
            raise ConfigError(f"--values: {exc}") from exc
    fixed = parse_design(args.fixed_design) if args.fixed_design else None
    rows = sensitivity_sweep(
        parameter, values,
        costs=config.costs, fin=config.fin, ga_config=config.ga,
        penalty_weight=config.penalty_weight, seed=config.seed,
        design=fixed,
    )
    print(f"{'value':>10}{'lcoe':>12}")
    for row in rows:
        print(f"{row.value:>10.4g}{row.breakdown.total:>12.2f}")
    return {f"sensitivity_{args.param}.csv": lambda path: write_sensitivity_csv(rows, path)}


def _cmd_compare(config: StudyConfig, args) -> dict:
    ranking = technology_comparison(_search(config).lcoe, config.benchmarks)
    print(f"{'rank':<6}{'technology':<24}{'lcoe':>10}{'delta':>10}")
    for rank, (name, value, delta) in enumerate(ranking, start=1):
        print(f"{rank:<6}{name:<24}{value:>10.2f}{delta:>+10.2f}")
    return {"compare.csv": lambda path: write_comparison_csv(ranking, path)}


_COMMANDS = {
    "lcoe": _cmd_lcoe,
    "optimize": _cmd_optimize,
    "study": _cmd_study,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _apply_overrides(load_config(args.config), args)
        out_dir = Path(config.output_dir)
        failure = f"output directory {str(out_dir)!r} cannot be created"
        nearest = next(p for p in (out_dir, *out_dir.parents) if os.path.exists(p))
        if not nearest.is_dir():  # checked read-only, before any search
            raise ConfigError(f"{failure}: {str(nearest)!r} is not a directory")
        writers = _COMMANDS[args.command](config, args)
        manifest = _manifest(config, args.command, argv, writers)
        # An older run's manifest goes first and the new one is written last,
        # so no manifest sits beside a file it does not describe.
        steps = [("manifest.json", lambda path: path.unlink(missing_ok=True)),
                 *writers.items(),
                 ("manifest.json", lambda path: write_manifest(path, manifest))]
        try:  # only a successful command leaves the directory and its files
            out_dir.mkdir(parents=True, exist_ok=True)
            for name, write in steps:
                failure = f"output file {str(out_dir / name)!r} cannot be written"
                write(out_dir / name)
        except OSError as exc:
            raise ConfigError(f"{failure}: {exc.strerror}") from exc
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StudyError as exc:
        print(f"optimization error: {exc}", file=sys.stderr)
        return 3
    except (EvaluationError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
