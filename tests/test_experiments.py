from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from potsim import experiments
from potsim.core import ConfigurationError, RunResult, ScenarioConfig
from potsim.experiments import (
    Condition,
    SweepSpec,
    derive_run_seed,
    execute_runs,
    execute_scenario,
    mix64,
    run_chunks,
    scenario_config,
    summarize_runs,
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


def test_zero_runs_is_rejected():
    # A scenario has at least one run, so no summary averages over none.
    with pytest.raises(ConfigurationError, match="runs must be positive, got 0"):
        ScenarioConfig(participant_count=12, team_size=3, rounds=5, runs=0,
                       high_perf_override=(2, 2.5))


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
    "participant_ranks",
)


@pytest.mark.parametrize(
    "participants, runs", [(160, 1), (160, 20), (1600, 10), (1600, 11), (1600, 25)]
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


@pytest.mark.parametrize(
    "participants, runs, workers, chunks",
    [
        (1600, 21, 1, [range(0, 10), range(10, 20), range(20, 21)]),
        (1600, 10, 1, [range(0, 10)]),
        (1600, 21, 2, [range(0, 21)]),
        (160, 250, 1, [range(0, 102), range(102, 204), range(204, 250)]),
        (20000, 2, 1, [range(0, 1), range(1, 2)]),
    ],
)
def test_run_chunks(monkeypatch, participants, runs, workers, chunks):
    # 2**14 // n runs at a time run serially, every run at once in a pool.
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    cfg = ScenarioConfig(participant_count=participants, team_size=1, rounds=1, runs=runs)
    assert run_chunks(cfg, workers) == chunks


def test_run_chunks_on_one_cpu_are_serial_at_any_worker_count(monkeypatch):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 1)
    cfg = ScenarioConfig(participant_count=1600, team_size=1, rounds=1, runs=25)
    assert run_chunks(cfg, 2) == [range(0, 10), range(10, 20), range(20, 25)]


@pytest.mark.parametrize("cpus", [1, 2, 8])
@pytest.mark.parametrize("runs", [1, 2, 25])
@pytest.mark.parametrize("workers", [1, 2, 8])
def test_a_scenario_is_one_range_only_when_pooled(monkeypatch, serial_pool, cpus, runs, workers):
    # run_chunks and execute_runs read one pool-size rule: a scenario is one
    # range when its runs start a pool, and the serial ranges otherwise.
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    cfg = ScenarioConfig(participant_count=1600, team_size=8, rounds=1, runs=runs)
    execute_runs(cfg, workers)
    if serial_pool:
        assert run_chunks(cfg, workers) == [range(runs)]
    else:
        assert run_chunks(cfg, workers) == run_chunks(cfg, 1)


@pytest.mark.parametrize("workers", [1, 2])
def test_streamed_scenario_equals_the_summary_of_every_run(workers):
    cfg = ScenarioConfig(
        participant_count=1600, team_size=8, rounds=2, runs=21, high_perf_override=(7, 2.5)
    )
    seen = []
    summary = execute_scenario(cfg, workers, lambda runs, first: seen.append((runs, first)))
    assert summary == summarize_runs(cfg, execute_runs(cfg))
    # on_chunk sees each range once, in order, with the runs of that range.
    chunks = run_chunks(cfg, workers)
    assert [first for _, first in seen] == [indices.start for indices in chunks]
    for (runs, _), indices in zip(seen, chunks):
        expected = execute_runs(cfg, indices=indices)
        assert [r.win_count.tolist() for r in runs] == [r.win_count.tolist() for r in expected]


def test_scenario_memory_is_flat_in_the_number_of_runs(monkeypatch):
    # execute_scenario holds one chunk of 10 runs at a time, about 38 KB a
    # run at n = 1600; holding every run would add about 7 MiB at 200 runs.
    # On one CPU, two workers run serially too, so they also hold one chunk.
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 1)

    def peak(runs, workers):
        tracemalloc.start()
        try:
            execute_scenario(
                ScenarioConfig(participant_count=1600, team_size=8, rounds=2, runs=runs), workers
            )
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1, 1)
    for workers in (1, 2):
        assert peak(200, workers) - peak(20, workers) <= 0.5 * 2**20


def test_summarize_stops_at_the_first_surplus_run():
    # A stream of more runs than config.runs is rejected after the chunk that
    # passes config.runs, not after executing every remaining run.
    n = 1600
    run = RunResult(np.zeros(n, dtype=np.int64), np.zeros(n), np.ones(n), 1.0)
    pulled = 0

    def stream():
        nonlocal pulled
        for _ in range(1000):
            pulled += 1
            yield run

    cfg = ScenarioConfig(participant_count=n, team_size=8, rounds=0, runs=3)
    with pytest.raises(ValueError, match="for a config of 3 runs"):
        summarize_runs(cfg, stream())
    assert pulled <= 3 + 10


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
    summaries = [execute_scenario(config) for config in spec.configs]
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
    base = base_sweep_config(high_perf_override=None)
    with pytest.raises(ConfigurationError, match="override"):
        SweepSpec(base_config=base, team_sizes=(1, 2), conditions=(Condition.HIGH_PERF,))
    for team_size in (1, 2):
        with pytest.raises(ConfigurationError, match="override"):
            scenario_config(base, team_size, Condition.HIGH_PERF)


def test_sweep_covers_condition_and_size_grid():
    spec = SweepSpec(
        base_config=base_sweep_config(),
        team_sizes=(1, 2, 4),
        conditions=(Condition.HOMOGENEOUS, Condition.HIGH_PERF),
    )
    summaries = [execute_scenario(config) for config in spec.configs]
    assert len(summaries) == 6
    homogeneous, high_perf = summaries[:3], summaries[3:]
    assert all(s.config_echo.high_perf_override is None for s in homogeneous)
    assert all(s.ranking is None for s in homogeneous)
    assert all(s.config_echo.high_perf_override == (40, 2.5) for s in high_perf)
    assert all(s.ranking is not None for s in high_perf)
    assert [s.config_echo.team_size for s in homogeneous] == [1, 2, 4]


def test_sweep_reproducible():
    spec = SweepSpec(base_config=base_sweep_config(), team_sizes=(1, 2))
    assert list(map(execute_scenario, spec.configs)) == list(map(execute_scenario, spec.configs))


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
    summaries = [execute_scenario(config, workers=2) for config in spec.configs]
    scaled = [
        s.total_active_time_mean * s.config_echo.team_size for s in summaries
    ]
    spread = (max(scaled) - min(scaled)) / min(scaled)
    assert spread < 0.02
