"""Multi-run orchestration: seed derivation, scenario execution, team-size sweeps.

Every run's seed is derived from the scenario master seed with a SplitMix64
step, so runs are independent, reproducible, and schedule-agnostic: fanning
runs across worker processes cannot change any result because each run owns
its own stream and aggregation is keyed by run index.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .core import (
    ConfigurationError,
    RunResult,
    ScenarioConfig,
    draw_performance_profile,
    run_simulation,
)
from .metrics import (
    DistStats,
    ShapeStats,
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
        if len(set(self.team_sizes)) != len(self.team_sizes):
            raise ConfigurationError(f"sweep team sizes repeat: {list(self.team_sizes)}")
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
    override participant exists to be ranked: its run counts keyed by
    ``metrics.RANKING_BUCKETS``. Runs with undefined per-run
    statistics (e.g. zero rounds) yield NaN fields.
    """

    config_echo: ScenarioConfig
    reward_stats: DistStats
    shape_stats: ShapeStats
    correlation: float
    total_active_time_mean: float
    ranking: dict[str, int] | None = None

    @property
    def condition(self) -> Condition:
        if self.config_echo.high_perf_override is None:
            return Condition.HOMOGENEOUS
        return Condition.HIGH_PERF


def _run_task(task: tuple[ScenarioConfig, int, np.ndarray | None]) -> RunResult:
    return run_simulation(*task)


def _shared_factors(config: ScenarioConfig) -> np.ndarray | None:
    # Shared-profile scenarios draw once from the seed slot just past the
    # last run, so the profile cannot collide with any run stream.
    if config.redraw_profile_per_run:
        return None
    stream = np.random.default_rng(derive_run_seed(config.master_seed, config.runs))
    return draw_performance_profile(config, stream)


def execute_runs(config: ScenarioConfig, workers: int = 1) -> list[RunResult]:
    """Execute config.runs independent runs, ordered by run index.

    ``workers`` > 1 fans runs out over a process pool of at most one process
    per run and per CPU; results are identical at any worker count.
    """
    shared = _shared_factors(config)
    tasks = [
        (config, derive_run_seed(config.master_seed, index), shared)
        for index in range(config.runs)
    ]
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [_run_task(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_task, tasks, chunksize=4))


# The 7 DistStats fields, skewness, excess kurtosis, correlation, total active time.
_TABLE_ROWS = 11


def _run_statistics(run: RunResult) -> list[float]:
    """One run's column of the statistics table, in ``_TABLE_ROWS`` order.

    A shape or correlation statistic that is undefined for this run (zero
    variance, as after zero rounds) is NaN.
    """
    rewards = run.cumulative_reward
    stats = distribution_stats(rewards)
    column = [getattr(stats, field.name) for field in fields(stats)]
    for statistic, args in (
        (skewness, (rewards,)),
        (excess_kurtosis, (rewards,)),
        (pearson_correlation, (run.factors, rewards)),
    ):
        try:
            column.append(statistic(*args))
        except ValueError:
            column.append(float("nan"))
    column.append(run.total_active_time)
    return column


def summarize_runs(config: ScenarioConfig, runs: Sequence[RunResult]) -> ScenarioSummary:
    """Average per-run statistics into a ScenarioSummary.

    The statistics sit in one (statistic, run) table, and each summary value
    is the mean of its row. Zero runs is legal and yields an all-NaN summary
    (all-zero ranking).
    """
    table = np.empty((_TABLE_ROWS, len(runs)))
    for index, run in enumerate(runs):
        table[:, index] = _run_statistics(run)
    # sum / count is numpy's mean, without its warning on zero runs. Each row
    # is contiguous, so it adds in the order np.mean adds a list of its values.
    with np.errstate(invalid="ignore"):
        means = (table.sum(axis=1) / len(runs)).tolist()
    ranking = None
    if config.high_perf_override is not None:
        ranking = ranking_histogram(runs, config.high_perf_override[0])
    return ScenarioSummary(
        config_echo=config,
        reward_stats=DistStats(*means[:7]),
        shape_stats=ShapeStats(*means[7:9]),
        correlation=means[9],
        total_active_time_mean=means[10],
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
