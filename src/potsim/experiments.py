"""Multi-run orchestration: seed derivation, scenario execution, team-size sweeps.

Every run's seed is derived from the scenario master seed with a SplitMix64
step, so runs are independent, reproducible, and schedule-agnostic: fanning
runs across worker processes cannot change any result because each run owns
its own stream and aggregation is keyed by run index.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .core import (
    ConfigurationError,
    PerformanceProfile,
    RunResult,
    ScenarioConfig,
    draw_performance_profile,
    run_simulation,
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

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def mix64(value: int) -> int:
    """SplitMix64 finalizer: a 64-bit avalanche over the input."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """Seed for run number run_index, as the SplitMix64 stream of master_seed.

    Equals the (run_index + 1)-th output of the SplitMix64 generator seeded
    with master_seed: finalize(master_seed + (run_index + 1) * golden gamma).
    Pure, and distinct indices collide only with ~2^-64 probability.
    """
    if run_index < 0:
        raise ValueError(f"run_index must be non-negative, got {run_index}")
    return mix64(master_seed + (run_index + 1) * _GOLDEN_GAMMA)


class Condition(str, Enum):
    """Population condition: all-uniform factors, or one overridden fast node."""

    HOMOGENEOUS = "homogeneous"
    HIGH_PERF = "high_perf"


_CONDITION_ORDINAL = {Condition.HOMOGENEOUS: 0, Condition.HIGH_PERF: 1}


@dataclass(frozen=True)
class SweepSpec:
    """A team-size sweep over one base configuration and a set of conditions."""

    base_config: ScenarioConfig
    team_sizes: tuple[int, ...]
    conditions: tuple[Condition, ...] = (Condition.HOMOGENEOUS,)

    def __post_init__(self) -> None:
        if not self.team_sizes:
            raise ConfigurationError("sweep needs at least one team size")
        for n in self.team_sizes:
            if n < 1 or self.base_config.participant_count % n != 0:
                raise ConfigurationError(
                    f"participant count {self.base_config.participant_count} "
                    f"is not divisible by team size {n}"
                )
        if not self.conditions:
            raise ConfigurationError("sweep needs at least one condition")
        if Condition.HIGH_PERF in self.conditions and (
            self.base_config.high_perf_override is None
        ):
            raise ConfigurationError(
                "high_perf condition requires high_perf_override in the base config"
            )


@dataclass(frozen=True)
class ScenarioSummary:
    """Cross-run aggregates for one scenario.

    Statistics are the arithmetic mean of per-run statistics (not pooled
    samples). ``correlation`` averages each run's reward-vs-factor Pearson
    coefficient. ``ranking`` is present only when a high-performance
    override participant exists to be ranked. Runs with undefined per-run
    statistics (e.g. zero rounds) yield NaN fields.
    """

    config_echo: ScenarioConfig
    reward_stats: DistStats
    shape_stats: ShapeStats
    correlation: float
    total_active_time_mean: float
    ranking: RankingHistogram | None = None

    @property
    def condition(self) -> Condition:
        if self.config_echo.high_perf_override is None:
            return Condition.HOMOGENEOUS
        return Condition.HIGH_PERF


def _run_task(task: tuple[ScenarioConfig, int, np.ndarray | None]) -> RunResult:
    config, seed, shared_factors = task
    profile = None
    if shared_factors is not None:
        profile = PerformanceProfile(factors=shared_factors)
    return run_simulation(config, seed, profile=profile)


def _shared_profile(config: ScenarioConfig) -> np.ndarray | None:
    # Shared-profile scenarios draw once from the seed slot just past the
    # last run, so the profile cannot collide with any run stream.
    if config.redraw_profile_per_run:
        return None
    stream = np.random.default_rng(derive_run_seed(config.master_seed, config.runs))
    return draw_performance_profile(config, stream).factors


def execute_runs(config: ScenarioConfig, workers: int = 1) -> list[RunResult]:
    """Execute config.runs independent runs, ordered by run index.

    ``workers`` > 1 fans runs out over a process pool; results are identical
    at any worker count.
    """
    shared = _shared_profile(config)
    tasks = [
        (config, derive_run_seed(config.master_seed, index), shared)
        for index in range(config.runs)
    ]
    if workers <= 1 or len(tasks) <= 1:
        return [_run_task(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(_run_task, tasks, chunksize=4))


def _shape_or_nan(values) -> ShapeStats:
    try:
        return ShapeStats(skewness=skewness(values), excess_kurtosis=excess_kurtosis(values))
    except ValueError:
        return ShapeStats(skewness=float("nan"), excess_kurtosis=float("nan"))


def _correlation_or_nan(x, y) -> float:
    try:
        return pearson_correlation(x, y)
    except ValueError:
        return float("nan")


def _empty_summary(config: ScenarioConfig) -> ScenarioSummary:
    nan = float("nan")
    ranking = None
    if config.high_perf_override is not None:
        ranking = RankingHistogram(counts={r: 0 for r in range(1, 11)}, eleven_or_lower=0)
    return ScenarioSummary(
        config_echo=config,
        reward_stats=DistStats(nan, nan, nan, nan, nan, nan, nan),
        shape_stats=ShapeStats(nan, nan),
        correlation=nan,
        total_active_time_mean=nan,
        ranking=ranking,
    )


def summarize_runs(config: ScenarioConfig, runs: Sequence[RunResult]) -> ScenarioSummary:
    """Aggregate per-run statistics into a ScenarioSummary.

    Zero runs is legal and yields an all-NaN summary (empty ranking).
    """
    if len(runs) == 0:
        return _empty_summary(config)
    reward_stats = aggregate_stats_over_runs(
        [distribution_stats(run.cumulative_reward) for run in runs]
    )
    shape_stats = aggregate_stats_over_runs(
        [_shape_or_nan(run.cumulative_reward) for run in runs]
    )
    correlation = aggregate_stats_over_runs(
        [_correlation_or_nan(run.profile.factors, run.cumulative_reward) for run in runs]
    )
    total_time_mean = aggregate_stats_over_runs(
        [run.total_active_time for run in runs]
    )
    ranking = None
    if config.high_perf_override is not None:
        ranking = ranking_histogram(runs, config.high_perf_override[0])
    return ScenarioSummary(
        config_echo=config,
        reward_stats=reward_stats,
        shape_stats=shape_stats,
        correlation=correlation,
        total_active_time_mean=total_time_mean,
        ranking=ranking,
    )


def execute_scenario(config: ScenarioConfig, workers: int = 1) -> ScenarioSummary:
    """Run one scenario end to end and summarize it."""
    return summarize_runs(config, execute_runs(config, workers=workers))


def scenario_config(
    base: ScenarioConfig, team_size: int, condition: Condition
) -> ScenarioConfig:
    """Derive one sweep entry's config from the base.

    The scenario master seed is a pure function of (base seed, team size,
    condition), so scenarios are mutually independent and insensitive to
    sweep ordering.
    """
    seed = derive_run_seed(
        derive_run_seed(base.master_seed, team_size), _CONDITION_ORDINAL[condition]
    )
    override = base.high_perf_override if condition is Condition.HIGH_PERF else None
    return replace(
        base, team_size=team_size, high_perf_override=override, master_seed=seed
    )


def sweep_team_sizes(spec: SweepSpec, workers: int = 1) -> list[ScenarioSummary]:
    """One ScenarioSummary per (condition, team size) pair, in the given order."""
    configs = [
        scenario_config(spec.base_config, team_size, condition)
        for condition in spec.conditions
        for team_size in spec.team_sizes
    ]
    return [execute_scenario(config, workers=workers) for config in configs]
