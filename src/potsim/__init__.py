"""Deterministic team-sprint consensus simulator with table reporting."""

from .core import (
    DEFAULT_MASTER_SEED,
    ConfigurationError,
    PerformanceProfile,
    RunResult,
    ScenarioConfig,
    draw_performance_profile,
    execute_round,
    form_teams,
    run_simulation,
)
from .experiments import (
    Condition,
    ScenarioSummary,
    SweepSpec,
    derive_run_seed,
    execute_runs,
    execute_scenario,
    summarize_runs,
    sweep_team_sizes,
)
from .metrics import (
    DistStats,
    RankingHistogram,
    ShapeStats,
    aggregate_stats_over_runs,
    distribution_stats,
    excess_kurtosis,
    pearson_correlation,
    ranking_histogram,
    skewness,
)
from .reporting import (
    emit_table,
    scenario_label,
)

__all__ = [
    "DEFAULT_MASTER_SEED",
    "ConfigurationError",
    "Condition",
    "DistStats",
    "PerformanceProfile",
    "RankingHistogram",
    "RunResult",
    "ScenarioConfig",
    "ScenarioSummary",
    "ShapeStats",
    "SweepSpec",
    "aggregate_stats_over_runs",
    "derive_run_seed",
    "distribution_stats",
    "draw_performance_profile",
    "emit_table",
    "excess_kurtosis",
    "execute_round",
    "execute_runs",
    "execute_scenario",
    "form_teams",
    "pearson_correlation",
    "ranking_histogram",
    "run_simulation",
    "scenario_label",
    "skewness",
    "summarize_runs",
    "sweep_team_sizes",
]
