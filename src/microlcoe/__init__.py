"""Levelized-cost model and design optimizer for a generic nuclear
microreactor: fuel-cycle mass flows, cost annualization, metaheuristic
design search, and seeded uncertainty studies."""

__version__ = "0.1.0"

from .analysis import (
    BenchmarkTable,
    Stats,
    StudyReport,
    run_uncertainty_study,
    sensitivity_sweep,
    summarize_stats,
    technology_comparison,
)
from .config import ConfigError, StudyConfig, load_config
from .costs import (
    CostInputs,
    DEFAULT_COSTS,
    DEFAULT_FINANCE,
    FinancialParams,
    LcoeBreakdown,
    ReactorDesign,
    lcoe_breakdown,
)
from .optimize import (
    GaConfig,
    OptimizationResult,
    SaConfig,
    ga_minimize,
    optimize_design,
    penalized_objective,
    sa_minimize,
)
from .uncertainty import (
    Scenario,
    UncertainParameter,
    generate_study,
    parameter_grid,
    pdf_density,
    roulette_select,
    sample_scenario,
)

__all__ = [
    "__version__",
    "BenchmarkTable",
    "ConfigError",
    "CostInputs",
    "DEFAULT_COSTS",
    "DEFAULT_FINANCE",
    "FinancialParams",
    "GaConfig",
    "LcoeBreakdown",
    "OptimizationResult",
    "ReactorDesign",
    "SaConfig",
    "Scenario",
    "Stats",
    "StudyConfig",
    "StudyReport",
    "UncertainParameter",
    "ga_minimize",
    "generate_study",
    "lcoe_breakdown",
    "load_config",
    "optimize_design",
    "parameter_grid",
    "pdf_density",
    "penalized_objective",
    "roulette_select",
    "run_uncertainty_study",
    "sa_minimize",
    "sample_scenario",
    "sensitivity_sweep",
    "summarize_stats",
    "technology_comparison",
]
