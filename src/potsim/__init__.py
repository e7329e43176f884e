"""Deterministic team-sprint consensus simulator with table reporting."""

__version__ = "0.1.0"

from .core import ScenarioConfig
from .experiments import execute_runs, execute_scenario
from .metrics import distribution_stats, excess_kurtosis, pearson_correlation, skewness

__all__ = [
    "ScenarioConfig",
    "distribution_stats",
    "excess_kurtosis",
    "execute_runs",
    "execute_scenario",
    "pearson_correlation",
    "skewness",
]
