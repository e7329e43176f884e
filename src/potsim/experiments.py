"""Multi-run orchestration: seed derivation, scenario execution, team-size sweeps.

Every run's seed is derived from the scenario master seed with a SplitMix64
step, so runs are independent, reproducible, and schedule-agnostic: fanning
runs across worker processes cannot change any result because each run owns
its own stream and aggregation is keyed by run index.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .core import (
    _BLOCK_ELEMENTS,
    ConfigurationError,
    RunResult,
    ScenarioConfig,
    draw_performance_profile,
    run_simulation,
)
from .metrics import (
    RANKING_BUCKETS,
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
    """A team-size sweep over one base configuration and a set of conditions.

    ``configs`` holds one ``scenario_config`` per (condition, team size)
    pair, condition-major, each checked by ``ScenarioConfig`` as it is built.
    """

    base_config: ScenarioConfig
    team_sizes: tuple[int, ...]
    conditions: tuple[Condition, ...] = (Condition.HOMOGENEOUS,)
    configs: tuple[ScenarioConfig, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not self.team_sizes:
            raise ConfigurationError("sweep needs at least one team size")
        if not self.conditions:
            raise ConfigurationError("sweep needs at least one condition")
        if len(set(self.team_sizes)) != len(self.team_sizes):
            raise ConfigurationError(f"sweep team sizes repeat: {list(self.team_sizes)}")
        if len(set(self.conditions)) != len(self.conditions):
            raise ConfigurationError(f"sweep conditions repeat: {','.join(self.conditions)}")
        # Seed derivation rejects a negative team size with a plain ValueError.
        if min(self.team_sizes) < 1:
            raise ConfigurationError(f"sweep team sizes must be positive: {list(self.team_sizes)}")
        if Condition.HIGH_PERF in self.conditions and (
            self.base_config.high_perf_override is None
        ):
            raise ConfigurationError(
                "high_perf condition requires high_perf_override in the base config"
            )
        configs = [
            scenario_config(self.base_config, n, condition)
            for condition in self.conditions
            for n in self.team_sizes
        ]
        object.__setattr__(self, "configs", tuple(configs))


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
    per run and per CPU, in about four batches of runs per process, so every
    process gets runs; results are identical at any worker count.
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
        return list(pool.map(_run_task, tasks, chunksize=max(1, len(tasks) // (4 * workers))))


# The 7 DistStats fields, skewness, excess kurtosis, correlation, total active time.
_TABLE_ROWS = 11


def _statistics_table(
    config: ScenarioConfig, runs: Sequence[RunResult]
) -> tuple[np.ndarray, dict[str, int] | None]:
    """The (statistic, run) table in ``_TABLE_ROWS`` order, and the ranking.

    The table is filled a chunk of runs at a time: each chunk's rewards,
    factors and active times are stacked into (runs, n) tables of at most
    the engine's block of elements, and each statistic is one call over the
    chunk. A shape or correlation statistic that is undefined for a run
    (zero variance, as after zero rounds) is NaN. The ranking counts the
    override participant's ranks, and is None without an override.
    """
    chunk = max(1, _BLOCK_ELEMENTS // config.participant_count)
    table = np.empty((_TABLE_ROWS, len(runs)))
    ranking = None
    if config.high_perf_override is not None:
        ranking = dict.fromkeys(RANKING_BUCKETS, 0)
    for first in range(0, len(runs), chunk):
        part = runs[first : first + chunk]
        rewards, factors, active_time = (
            np.array([getattr(run, name) for run in part])
            for name in ("cumulative_reward", "factors", "active_time")
        )
        stats = distribution_stats(rewards)
        table[:, first : first + len(part)] = [
            *(getattr(stats, field.name) for field in fields(stats)),
            skewness(rewards),
            excess_kurtosis(rewards),
            pearson_correlation(factors, rewards),
            active_time.sum(axis=1),
        ]
        if ranking is not None:
            for bucket, count in ranking_histogram(rewards, config.high_perf_override[0]).items():
                ranking[bucket] += count
    return table, ranking


def summarize_runs(config: ScenarioConfig, runs: Sequence[RunResult]) -> ScenarioSummary:
    """Average per-run statistics into a ScenarioSummary.

    The statistics sit in one (statistic, run) table, and each summary value
    is the mean of its row. Zero runs is legal and yields an all-NaN summary
    (all-zero ranking).
    """
    table, ranking = _statistics_table(config, runs)
    # sum / count is numpy's mean, without its warning on zero runs. Each row
    # is contiguous, so it adds in the order np.mean adds a list of its values.
    with np.errstate(invalid="ignore"):
        means = (table.sum(axis=1) / len(runs)).tolist()
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
    return [execute_scenario(config, workers=workers) for config in spec.configs]
