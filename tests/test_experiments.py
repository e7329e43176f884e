from __future__ import annotations

import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest

import oracles
from potsim import experiments
from potsim.core import ConfigurationError, ScenarioConfig
from potsim.experiments import (
    Condition,
    SweepSpec,
    derive_run_seed,
    execute_runs,
    execute_scenario,
    mix64,
    scenario_config,
    summarize_runs,
    sweep_team_sizes,
)
from potsim.reporting import summary_label


# -- seed derivation ------------------------------------------------------------


def test_derive_run_seed_matches_reference_stream():
    for seed, expected in ((0, oracles.SPLITMIX64_SEED0), (1234567, oracles.SPLITMIX64_SEED1234567)):
        derived = [derive_run_seed(seed, k) for k in range(5)]
        assert derived == list(expected)
        assert derived == oracles.splitmix64_outputs(seed, 5)


def test_derive_run_seed_distinct_and_pure():
    seeds = {derive_run_seed(42, k) for k in range(1000)}
    assert len(seeds) == 1000
    assert derive_run_seed(42, 7) == derive_run_seed(42, 7)


def test_derive_run_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        derive_run_seed(42, -1)


def test_derive_run_seed_is_64_bit():
    for k in range(20):
        assert 0 <= derive_run_seed((1 << 64) - 1, k) < (1 << 64)


def test_mix64_is_a_bijection_sample():
    values = [mix64(v) for v in range(256)]
    assert len(set(values)) == 256


# -- execute_scenario --------------------------------------------------------------


def test_degenerate_scenario():
    cfg = ScenarioConfig(
        participant_count=12, team_size=3, rounds=0, runs=1, master_seed=9
    )
    summary = execute_scenario(cfg)
    assert summary.reward_stats.mean == 0
    assert summary.reward_stats.max == 0
    assert summary.total_active_time_mean == 0
    assert math.isnan(summary.shape_stats.skewness)
    assert math.isnan(summary.correlation)


def test_zero_runs_is_legal():
    cfg = ScenarioConfig(participant_count=12, team_size=3, rounds=5, runs=0,
                         high_perf_override=(2, 2.5))
    assert execute_runs(cfg) == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = execute_scenario(cfg)
    values = [*astuple(summary.reward_stats), *astuple(summary.shape_stats),
              summary.correlation, summary.total_active_time_mean]
    assert len(values) == 11 and all(math.isnan(v) for v in values)
    assert sum(summary.ranking.values()) == 0


def test_mean_reward_is_exact(ci_config):
    summary = execute_scenario(ci_config)
    expected = (
        ci_config.reward_per_round * ci_config.rounds / ci_config.participant_count
    )
    assert abs(summary.reward_stats.mean - expected) <= 1e-6 * expected


def test_scenario_deterministic(ci_config):
    assert execute_scenario(ci_config) == execute_scenario(ci_config)


def test_worker_count_does_not_change_results(ci_config):
    assert execute_scenario(ci_config, workers=1) == execute_scenario(ci_config, workers=2)


def test_pow_override_always_ranks_first():
    # The override factor 2.5 makes worst-case time 1.2/2.5 < best-case 0.8/1.5
    # of any regular node, so at team size 1 it wins every round of every run.
    cfg = ScenarioConfig(
        participant_count=160,
        team_size=1,
        rounds=40,
        runs=10,
        high_perf_override=(100, 2.5),
        master_seed=5,
    )
    summary = execute_scenario(cfg)
    assert summary.ranking is not None
    assert summary.ranking["1"] == 10
    assert sum(summary.ranking.values()) == 10


def test_ranking_absent_without_override(ci_config):
    assert execute_scenario(ci_config).ranking is None


def test_shared_profile_reused_across_runs():
    cfg = ScenarioConfig(
        participant_count=20,
        team_size=2,
        rounds=5,
        runs=3,
        redraw_profile_per_run=False,
        master_seed=11,
    )
    runs = execute_runs(cfg)
    for run in runs[1:]:
        assert np.array_equal(run.factors, runs[0].factors)


def test_redrawn_profiles_differ():
    cfg = ScenarioConfig(
        participant_count=20, team_size=2, rounds=5, runs=3, master_seed=11
    )
    runs = execute_runs(cfg)
    assert not np.array_equal(runs[0].factors, runs[1].factors)


@pytest.fixture
def serial_pool(monkeypatch):
    """Stands in for ProcessPoolExecutor: records (pool size, chunksize), runs tasks here."""
    calls = []

    class SerialPool:
        def __init__(self, max_workers):
            self.size = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            calls.append((self.size, chunksize))
            return map(fn, tasks)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    return calls


@pytest.mark.parametrize(
    "workers, runs, cpus, expected",
    [(64, 10, 3, 3), (2, 10, 3, 2), (8, 2, 3, 2), (8, 10, None, None), (8, 1, 3, None)],
)
def test_pool_size_capped_by_runs_and_cpus(monkeypatch, serial_pool, workers, runs, cpus, expected):
    # os.cpu_count() may return None; the pool then gets one process, i.e. none.
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    cfg = ScenarioConfig(participant_count=8, team_size=2, rounds=3, runs=runs, master_seed=2)
    results = execute_runs(cfg, workers=workers)
    assert [size for size, _ in serial_pool] == ([] if expected is None else [expected])
    monkeypatch.undo()
    assert [r.win_count.tolist() for r in results] == [
        r.win_count.tolist() for r in execute_runs(cfg)
    ]


@pytest.mark.parametrize(
    "workers, runs, chunksize", [(2, 2, 1), (8, 8, 1), (2, 7, 1), (2, 100, 12), (8, 100, 3)]
)
def test_every_pool_process_gets_runs(monkeypatch, serial_pool, workers, runs, chunksize):
    # A batch of chunksize runs goes to one process: at least one batch per process.
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 8)
    cfg = ScenarioConfig(participant_count=8, team_size=2, rounds=1, runs=runs, master_seed=2)
    execute_runs(cfg, workers=workers)
    assert serial_pool == [(workers, chunksize)]
    assert math.ceil(runs / chunksize) >= workers


def test_correlation_aggregates_per_run_coefficients():
    cfg = ScenarioConfig(participant_count=40, team_size=2, rounds=60, runs=5, master_seed=3)
    runs = execute_runs(cfg)
    summary = summarize_runs(cfg, runs)
    per_run = [
        oracles.pearson(run.factors.tolist(), run.cumulative_reward.tolist())
        for run in runs
    ]
    assert summary.correlation == pytest.approx(sum(per_run) / len(per_run), rel=1e-9)


STATISTIC_NAMES = (
    "distribution_stats",
    "skewness",
    "excess_kurtosis",
    "pearson_correlation",
    "ranking_histogram",
)


@pytest.mark.parametrize(
    "participants, runs", [(160, 0), (160, 20), (1600, 10), (1600, 11), (1600, 25)]
)
def test_summarize_calls_each_statistic_once_per_chunk(monkeypatch, participants, runs):
    calls = dict.fromkeys(STATISTIC_NAMES, 0)
    for name in STATISTIC_NAMES:

        def counted(*args, name=name, original=getattr(experiments, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(experiments, name, counted)
    cfg = ScenarioConfig(
        participant_count=participants,
        team_size=16,
        rounds=2,
        runs=runs,
        high_perf_override=(3, 2.5),
    )
    summarize_runs(cfg, execute_runs(cfg))
    chunk = max(1, experiments._BLOCK_ELEMENTS // participants)
    assert calls == dict.fromkeys(STATISTIC_NAMES, math.ceil(runs / chunk))


# -- sweeps -----------------------------------------------------------------------


def base_sweep_config(**overrides) -> ScenarioConfig:
    fields = dict(
        participant_count=64,
        team_size=1,
        rounds=80,
        runs=8,
        master_seed=21,
        high_perf_override=(40, 2.5),
    )
    fields.update(overrides)
    return ScenarioConfig(**fields)


def test_singleton_sweep_is_pow():
    spec = SweepSpec(
        base_config=base_sweep_config(high_perf_override=None),
        team_sizes=(1,),
    )
    summaries = sweep_team_sizes(spec)
    assert len(summaries) == 1
    assert summary_label(summaries[0]) == "PoW"


def test_sweep_rejects_repeated_team_size():
    homogeneous, high_perf = Condition.HOMOGENEOUS, Condition.HIGH_PERF
    for team_sizes, conditions in (
        ((1, 2, 1), (homogeneous,)),
        ((1, 2), (homogeneous, high_perf, homogeneous)),
    ):
        with pytest.raises(ConfigurationError, match="repeat"):
            SweepSpec(base_config=base_sweep_config(), team_sizes=team_sizes, conditions=conditions)


def test_sweep_rejects_indivisible_before_running():
    with pytest.raises(ConfigurationError, match="not divisible"):
        SweepSpec(
            base_config=base_sweep_config(high_perf_override=None),
            team_sizes=(1, 3),
        )


def test_high_perf_condition_requires_override():
    with pytest.raises(ConfigurationError, match="override"):
        SweepSpec(
            base_config=base_sweep_config(high_perf_override=None),
            team_sizes=(1, 2),
            conditions=(Condition.HIGH_PERF,),
        )


def test_sweep_covers_condition_and_size_grid():
    spec = SweepSpec(
        base_config=base_sweep_config(),
        team_sizes=(1, 2, 4),
        conditions=(Condition.HOMOGENEOUS, Condition.HIGH_PERF),
    )
    summaries = sweep_team_sizes(spec)
    assert len(summaries) == 6
    homogeneous, high_perf = summaries[:3], summaries[3:]
    assert all(s.config_echo.high_perf_override is None for s in homogeneous)
    assert all(s.ranking is None for s in homogeneous)
    assert all(s.config_echo.high_perf_override == (40, 2.5) for s in high_perf)
    assert all(s.ranking is not None for s in high_perf)
    assert [s.config_echo.team_size for s in homogeneous] == [1, 2, 4]


def test_sweep_reproducible():
    spec = SweepSpec(base_config=base_sweep_config(), team_sizes=(1, 2))
    assert sweep_team_sizes(spec) == sweep_team_sizes(spec)


def test_scenario_seeds_independent_of_sweep_order():
    base = base_sweep_config()
    forward = scenario_config(base, 2, Condition.HOMOGENEOUS)
    assert forward == scenario_config(base, 2, Condition.HOMOGENEOUS)
    assert forward.master_seed != scenario_config(base, 4, Condition.HOMOGENEOUS).master_seed
    assert (
        forward.master_seed
        != scenario_config(base, 2, Condition.HIGH_PERF).master_seed
    )


def test_energy_scaling_across_sweep(ci_config):
    spec = SweepSpec(
        base_config=ci_config, team_sizes=(1, 2, 4, 8), conditions=(Condition.HOMOGENEOUS,)
    )
    summaries = sweep_team_sizes(spec, workers=2)
    scaled = [
        s.total_active_time_mean * s.config_echo.team_size for s in summaries
    ]
    spread = (max(scaled) - min(scaled)) / min(scaled)
    assert spread < 0.02
