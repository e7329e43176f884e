"""Multi-run orchestration: seed derivation, scenario execution, team-size sweeps.

Every run's seed is derived from the scenario master seed with a SplitMix64
step, so runs are independent, reproducible, and schedule-agnostic: fanning
runs across worker processes cannot change any result because each run owns
its own stream and aggregation is keyed by run index.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import cached_property
from itertools import chain, islice
from typing import Callable, Iterable

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
    DistStats,
    ShapeStats,
    distribution_stats,
    excess_kurtosis,
    participant_ranks,
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

    ``configs`` holds one ``scenario_config`` per (condition, team size) pair,
    condition-major, each checked by ``scenario_config`` as it is built.
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
        configs = [
            scenario_config(self.base_config, n, condition)
            for condition in self.conditions
            for n in self.team_sizes
        ]
        object.__setattr__(self, "configs", tuple(configs))


# The per-run statistics a summary keeps, in table order.
STATISTICS = (
    *(field.name for stats in (DistStats, ShapeStats) for field in fields(stats)),
    "correlation",
    "total_active_time",
)
# The override participant's rank and wins in each run, rows kept only with an override.
OVERRIDE_ROWS = ("override_rank", "override_wins")


def per_run_rows(config: ScenarioConfig) -> tuple[str, ...]:
    """The rows of a summary's per-run table: ``STATISTICS``, then any ``OVERRIDE_ROWS``."""
    return STATISTICS + (OVERRIDE_ROWS if config.high_perf_override is not None else ())


@dataclass(frozen=True)
class ScenarioSummary:
    """One scenario's config and per-run table; every aggregate is derived from the table.

    ``per_run`` maps each name in ``per_run_rows(config_echo)`` to its value in every run,
    in run order, NaN where undefined (e.g. after zero rounds).
    """

    config_echo: ScenarioConfig
    per_run: dict[str, tuple[float, ...]]

    @cached_property
    def means(self) -> dict[str, float]:
        """Each row's mean over the runs, not pooled samples: every aggregate reads it."""
        table = np.array(list(self.per_run.values()))
        return dict(zip(self.per_run, table.mean(axis=1).tolist()))

    @cached_property
    def ranking(self) -> dict[str, int] | None:
        """The runs counted by the override's rank over ``metrics.RANKING_BUCKETS``, or None."""
        ranks = self.per_run.get("override_rank")
        return None if ranks is None else ranking_histogram(ranks)

    # Views of the means, grouped as the summary JSON writes them.
    reward_stats = property(lambda s: DistStats(*(s.means[f.name] for f in fields(DistStats))))
    shape_stats = property(lambda s: ShapeStats(*(s.means[f.name] for f in fields(ShapeStats))))
    correlation = property(lambda s: s.means["correlation"])
    total_active_time_mean = property(lambda s: s.means["total_active_time"])

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


def _pool_size(workers: int, runs: int) -> int:
    """Processes that execute ``runs`` runs at ``workers``: at most one per run and per CPU."""
    return min(workers, runs, os.cpu_count() or 1)


def run_chunks(config: ScenarioConfig, workers: int = 1) -> list[range]:
    """The run-index ranges a scenario is executed and summarized in, in order.

    Serially each holds ``max(1, 2**14 // n)`` runs, (runs, n) tables of at most the engine's
    block; when ``_pool_size`` exceeds one, one range holds every run and starts one pool.
    """
    pooled = _pool_size(workers, config.runs) > 1
    size = config.runs if pooled else max(1, _BLOCK_ELEMENTS // config.participant_count)
    return [range(first, min(first + size, config.runs)) for first in range(0, config.runs, size)]


def execute_runs(
    config: ScenarioConfig, workers: int = 1, indices: range | None = None
) -> list[RunResult]:
    """Execute the runs numbered by ``indices`` (default: all config.runs), ordered by index.

    A run depends only on config and its index, so runs executed a range at a
    time equal the runs of one call. When ``_pool_size`` gives more than one
    process, the runs fan out over a process pool of that size in about four
    batches per process, so every process gets runs; results are identical at
    any worker count.
    """
    shared = _shared_factors(config)
    tasks = [
        (config, derive_run_seed(config.master_seed, index), shared)
        for index in (range(config.runs) if indices is None else indices)
    ]
    workers = _pool_size(workers, len(tasks))
    if workers <= 1:
        return [_run_task(task) for task in tasks]
    # Imported here: the pool pulls in multiprocessing, socket and subprocess,
    # which a serial command never needs.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_task, tasks, chunksize=max(1, len(tasks) // (4 * workers))))


def summarize_runs(config: ScenarioConfig, runs: Iterable[RunResult]) -> ScenarioSummary:
    """Tabulate each run's statistics, and the override's rank and wins, into a ScenarioSummary.

    ``runs`` is consumed once, in order, a ``run_chunks(config)`` range at a
    time, so a generator of runs is summarized holding one chunk. Each chunk's
    rewards, factors and active times are stacked into (runs, n) tables, one
    call per statistic and chunk. A statistic undefined for a run (zero
    variance, as after zero rounds) is NaN. Any number of runs but config.runs
    raises ``ValueError``, a surplus as soon as the first run past config.runs
    is read.
    """
    chunks = run_chunks(config)
    rows = per_run_rows(config)
    table = np.empty((len(rows), config.runs))
    # One buffer holds every chunk's three (runs, n) tables: tables allocated afresh per chunk
    # let the allocator give the freed chunk back to the system and fault it in again.
    stacked = np.empty((3, len(chunks[0]), config.participant_count))
    runs = iter(runs)
    done = 0
    for indices in chunks:
        part = list(islice(runs, len(indices)))
        done += len(part)
        if done < indices.stop:
            break
        rewards, factors, active_time = (
            np.stack([getattr(run, name) for run in part], out=out[: len(part)])
            for name, out in zip(("cumulative_reward", "factors", "active_time"), stacked)
        )
        stats = distribution_stats(rewards)
        columns = [
            *(getattr(stats, field.name) for field in fields(stats)),
            skewness(rewards),
            excess_kurtosis(rewards),
            pearson_correlation(factors, rewards),
            active_time.sum(axis=1),
        ]
        if config.high_perf_override is not None:
            pid = config.high_perf_override[0]
            columns += [participant_ranks(rewards, pid), [run.win_count[pid] for run in part]]
        table[:, indices.start : indices.stop] = columns
        # Dropped before the next chunk is pulled, which may execute it.
        del part
    else:  # one surplus run rejects the stream, and no run after it is executed
        done += len(list(islice(runs, 1)))
    if done != config.runs:
        raise ValueError(f"summarize_runs got {done} runs for a config of {config.runs} runs")
    return ScenarioSummary(config, dict(zip(rows, map(tuple, table.tolist()))))


def execute_scenario(
    config: ScenarioConfig, workers: int = 1, on_chunk: Callable[[list, int], object] | None = None
) -> ScenarioSummary:
    """Run one scenario and summarize it, holding one ``run_chunks`` range of runs at a time.

    The one run loop of the commands and the library. Each range's runs go to
    ``on_chunk(runs, first_run)``, when given, before they are summarized.
    """

    def chunk(indices: range) -> list[RunResult]:
        runs = execute_runs(config, workers, indices)
        if on_chunk is not None:
            on_chunk(runs, indices.start)
        return runs

    return summarize_runs(config, chain.from_iterable(map(chunk, run_chunks(config, workers))))


def scenario_config(
    base: ScenarioConfig, team_size: int, condition: Condition
) -> ScenarioConfig:
    """Derive one sweep entry's config from the base.

    The scenario master seed is a pure function of (base seed, team size,
    condition), so scenarios are mutually independent and insensitive to
    sweep ordering. A high_perf entry needs the base's override. ``ScenarioConfig``
    checks the entry before its seed is derived, since the derivation rejects
    a negative team size with a plain ``ValueError``.
    """
    override = base.high_perf_override if condition is Condition.HIGH_PERF else None
    if condition is Condition.HIGH_PERF and override is None:
        raise ConfigurationError(
            "high_perf condition requires high_perf_override in the base config"
        )
    config = replace(base, team_size=team_size, high_perf_override=override)
    seed = derive_run_seed(
        derive_run_seed(base.master_seed, team_size), _CONDITION_ORDINAL[condition]
    )
    return replace(config, master_seed=seed)
