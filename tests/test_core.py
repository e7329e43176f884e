from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from potsim import core
from potsim.core import (
    ConfigurationError,
    ScenarioConfig,
    draw_performance_profile,
    execute_round,
    form_teams,
    run_simulation,
)


def config(**overrides) -> ScenarioConfig:
    fields = dict(participant_count=4, team_size=2, rounds=5, runs=1, master_seed=3)
    fields.update(overrides)
    return ScenarioConfig(**fields)


# -- configuration invariants -------------------------------------------------


def test_config_rejects_indivisible_population():
    with pytest.raises(ConfigurationError, match="not divisible"):
        config(participant_count=10, team_size=3)


def test_config_error_names_both_values():
    with pytest.raises(ConfigurationError, match=r"10.*3"):
        config(participant_count=10, team_size=3)


def test_config_rejects_team_size_larger_than_population():
    with pytest.raises(ConfigurationError):
        config(participant_count=4, team_size=8)


def test_config_rejects_bad_ranges():
    with pytest.raises(ConfigurationError, match="perf_range"):
        config(perf_range=(0.0, 1.5))
    with pytest.raises(ConfigurationError, match="multiplier_range"):
        config(multiplier_range=(1.2, 0.8))


def test_config_rejects_override_out_of_range():
    with pytest.raises(ConfigurationError, match="high_perf_override"):
        config(high_perf_override=(4, 2.5))
    with pytest.raises(ConfigurationError, match="factor"):
        config(high_perf_override=(0, -1.0))


def test_config_allows_degenerate_rounds_and_runs():
    assert config(rounds=0).rounds == 0
    assert config(runs=0).runs == 0


def test_config_stores_pairs_as_tuples():
    pairs = dict(perf_range=(0.8, 1.5), multiplier_range=(0.9, 1.1), high_perf_override=(1, 2.5))
    listed = config(**{name: list(pair) for name, pair in pairs.items()})
    assert listed == config(**pairs)
    assert hash(listed) == hash(config(**pairs))
    assert all(type(getattr(listed, name)) is tuple for name in pairs)


# -- draw_performance_profile --------------------------------------------------


def test_degenerate_interval_gives_constant_factors():
    cfg = config(perf_range=(1.0, 1.0))
    factors = draw_performance_profile(cfg, np.random.default_rng(0))
    assert np.all(factors == 1.0)
    assert not factors.flags.writeable


def test_override_replaces_one_factor():
    cfg = config(
        participant_count=8, team_size=2, high_perf_override=(5, 2.5)
    )
    factors = draw_performance_profile(cfg, np.random.default_rng(1))
    assert factors[5] == 2.5
    others = np.delete(factors, 5)
    assert np.all((others >= 0.8) & (others <= 1.5))


def test_sample_mean_matches_uniform_expectation():
    cfg = config(participant_count=100_000, team_size=1)
    factors = draw_performance_profile(cfg, np.random.default_rng(2))
    assert abs(factors.mean() - 1.15) < 0.01


# -- form_teams ----------------------------------------------------------------


def test_form_teams_partitions_population():
    teams = form_teams(4, 2, np.random.default_rng(0), 3)
    assert teams.shape == (3, 2, 2)
    assert not teams.flags.writeable
    for round_teams in teams:
        assert sorted(round_teams.ravel().tolist()) == [0, 1, 2, 3]


def test_form_teams_singletons():
    teams = form_teams(4, 1, np.random.default_rng(0), 3)
    assert teams.shape == (3, 1, 4)
    assert not teams.flags.writeable
    assert teams.tolist() == [[[0, 1, 2, 3]]] * 3


def test_form_teams_singletons_draw_nothing():
    # Team order cannot move an argmin over single members, so PoW draws no order.
    stream = np.random.default_rng(0)
    before = stream.bit_generator.state
    form_teams(4, 1, stream, 5)
    assert stream.bit_generator.state == before


def test_form_teams_rejects_indivisible():
    with pytest.raises(ConfigurationError, match="not divisible"):
        form_teams(4, 3, np.random.default_rng(0), 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 8), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_form_teams_partition_property(teams, size, rounds, seed):
    n = teams * size
    teams = form_teams(n, size, np.random.default_rng(seed), rounds)
    for round_teams in teams:
        assert sorted(round_teams.ravel().tolist()) == list(range(n))


# -- time formulas ---------------------------------------------------------------


def test_work_time_values():
    assert config(participant_count=64, team_size=1).work_time == 600
    assert config(participant_count=64, team_size=64).work_time == 9.375
    assert config(participant_count=64, team_size=8).work_time == 75


def test_member_times_pinned_values():
    # member time = work time * multiplier / factor, indexed by participant id.
    # A degenerate multiplier range pins the multiplier; after one round a
    # participant's active time is its member time.
    pow_cfg = config(participant_count=2, team_size=1, rounds=1, multiplier_range=(0.8, 0.8))
    assert run_simulation(pow_cfg, 0, np.array([2.5, 1.0])).active_time.tolist() == [192.0, 480.0]
    big_cfg = config(participant_count=64, team_size=64, rounds=1, multiplier_range=(1.2, 1.2))
    factors = np.full(64, 1.2)
    factors[0] = 0.8
    active_time = run_simulation(big_cfg, 0, factors).active_time
    assert active_time[0] == 14.0625
    assert active_time[1] == 9.375


def test_config_rejects_nonpositive_factors():
    # The engine divides by the factors; only a positive perf_range and a
    # positive override factor reach it.
    for bad in (0.0, -2.0):
        with pytest.raises(ConfigurationError, match="perf_range"):
            config(perf_range=(bad, 1.5))
        with pytest.raises(ConfigurationError, match="factor must be positive"):
            config(high_perf_override=(0, bad))


@pytest.mark.parametrize(
    "field, value",
    [("base_time", 1e13), ("reward_per_round", 1e-13), ("perf_range", (5e-324, 5e-324)),
     ("multiplier_range", (1.0, 2e12)), ("high_perf_override", (0, 1e300))],
)
def test_config_rejects_reals_outside_engine_range(field, value):
    # 600 s / 5e-324 is infinite, and 1e300 squared overflows the correlation.
    with pytest.raises(ConfigurationError, match=r"must lie in \[1e-12, 1e12\]"):
        config(**{field: value})
    config(base_time=1e12, reward_per_round=1e-12, perf_range=(1e-12, 1e12))


# -- execute_round ----------------------------------------------------------------


def test_execute_round_pinned_example():
    # Team t is column t: team 0 is {0, 1}, team 1 is {2, 3}.
    teams = np.array([[0, 2], [1, 3]])
    (winner,) = execute_round(teams[None], np.array([[300.0, 300.0, 300.0, 150.0]]))
    assert winner == 1
    assert teams[:, winner].tolist() == [2, 3]


def test_execute_round_reward_sum_is_reward_per_round():
    # One round's reward goes to the winning team's members, share each.
    cfg = config(participant_count=60, team_size=6, rounds=1)
    result = run_simulation(cfg, run_seed=6)
    assert result.win_count.sum() == cfg.team_size
    assert abs(result.cumulative_reward.sum() - 10.0) < 1e-9


def test_execute_round_pow_winner_is_fastest():
    block = form_teams(2, 1, np.random.default_rng(0), 1)
    (teams,) = block
    (winner,) = execute_round(block, np.array([[540.0, 660.0]]))
    assert winner == 0
    assert teams[:, winner].tolist() == [0]


def test_execute_round_team_time_is_member_sum():
    block = form_teams(30, 5, np.random.default_rng(9), 1)
    (teams,) = block
    member_times = np.random.default_rng(8).uniform(50.0, 150.0, 30)
    (winner,) = execute_round(block, member_times[None])
    team_times = [math.fsum(member_times[team]) for team in teams.T]
    assert abs(team_times[winner] - min(team_times)) <= 1e-9


def test_execute_round_member_times_within_bounds():
    # After one round each participant's active time is its member time.
    cfg = config(participant_count=40, team_size=4, rounds=1)
    result = run_simulation(cfg, run_seed=11)
    work = cfg.base_time / cfg.team_size
    lo = work * 0.8 / result.factors.max()
    hi = work * 1.2 / result.factors.min()
    assert result.active_time.min() >= lo - 1e-12
    assert result.active_time.max() <= hi + 1e-12


@pytest.mark.parametrize("team_size", [1, 3, 24])
def test_block_winners_match_one_round_blocks(team_size):
    # A block's winners are those of its rounds taken one at a time (each in
    # a slice of the scratch the whole block left behind).
    teams = form_teams(24, team_size, np.random.default_rng(5), 9)
    member_times = np.random.default_rng(6).uniform(50.0, 150.0, (9, 24))
    winners = execute_round(teams, member_times)
    assert winners.shape == (9,)
    one_by_one = [execute_round(teams[r:r + 1], member_times[r:r + 1])[0] for r in range(9)]
    assert winners.tolist() == one_by_one


@pytest.mark.parametrize(
    "participants, team_size, rounds",
    [(160, 8, 0), (160, 8, 1), (160, 8, 250), (1600, 1, 25), (1, 1, 2**14 + 1)],
)
def test_run_calls_execute_round_once_per_block(monkeypatch, participants, team_size, rounds):
    calls = []

    def counted(teams, member_times):
        calls.append(len(member_times))
        return execute_round(teams, member_times)

    monkeypatch.setattr(core, "execute_round", counted)
    run_simulation(config(participant_count=participants, team_size=team_size, rounds=rounds), 1)
    block = max(1, core._BLOCK_ELEMENTS // participants)
    assert len(calls) == math.ceil(rounds / block)
    assert sum(calls) == rounds


def test_block_scratch_is_kept_per_thread():
    here = core._block_scratch(102, 4, 40)
    assert all(np.shares_memory(a, b) for a, b in zip(here, core._block_scratch(58, 4, 40)))
    with ThreadPoolExecutor(max_workers=1) as pool:
        there = pool.submit(core._block_scratch, 102, 4, 40).result(timeout=60)
    assert not any(np.shares_memory(a, b) for a, b in zip(here, there))


def test_threads_running_at_once_match_serial_runs():
    # Shared scratch would mix the team times of runs in flight at once.
    configs = [config(participant_count=1600, team_size=size, rounds=20) for size in (4, 4, 8)]
    tasks = [(cfg, seed) for seed in range(16) for cfg in configs]
    serial = [run_simulation(cfg, seed).win_count for cfg, seed in tasks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            threaded = list(pool.map(lambda task: run_simulation(*task).win_count, tasks,
                                     timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 50.0))
def test_winner_invariant_under_time_scaling(seed, scale):
    # Scaling base_time scales every member time by the same constant,
    # so the argmin winners must not move.
    cfg = config(participant_count=24, team_size=4, base_time=600.0)
    scaled = config(participant_count=24, team_size=4, base_time=600.0 * scale)
    assert np.array_equal(
        run_simulation(cfg, seed).win_count, run_simulation(scaled, seed).win_count
    )


# -- run_simulation ----------------------------------------------------------------


def test_zero_rounds_gives_zero_results():
    result = run_simulation(config(rounds=0), run_seed=1)
    assert np.all(result.cumulative_reward == 0)
    assert np.all(result.win_count == 0)
    assert result.total_active_time == 0.0


def test_reward_conservation_over_run():
    cfg = config(participant_count=20, team_size=4, rounds=37)
    result = run_simulation(cfg, run_seed=2)
    expected = cfg.reward_per_round * cfg.rounds
    assert abs(result.cumulative_reward.sum() - expected) <= 1e-6 * expected


def test_reward_equals_share_times_wins():
    # team_size 3 makes the share a non-terminating binary fraction, so this
    # checks bit-exactness, not just closeness.
    cfg = config(participant_count=21, team_size=3, rounds=50)
    result = run_simulation(cfg, run_seed=3)
    share = cfg.reward_per_round / cfg.team_size
    assert np.array_equal(result.cumulative_reward, share * result.win_count)


def test_same_seed_reproduces_bit_identical_result():
    cfg = config(participant_count=16, team_size=4, rounds=30)
    a = run_simulation(cfg, run_seed=11)
    b = run_simulation(cfg, run_seed=11)
    assert np.array_equal(a.cumulative_reward, b.cumulative_reward)
    assert np.array_equal(a.win_count, b.win_count)
    assert np.array_equal(a.active_time, b.active_time)
    assert np.array_equal(a.factors, b.factors)
    assert a.total_active_time == b.total_active_time


def test_different_seeds_differ():
    cfg = config(participant_count=16, team_size=4, rounds=30)
    a = run_simulation(cfg, run_seed=11)
    b = run_simulation(cfg, run_seed=12)
    assert not np.array_equal(a.cumulative_reward, b.cumulative_reward)


def test_pow_winner_each_round_takes_full_reward():
    cfg = config(participant_count=8, team_size=1, rounds=40)
    result = run_simulation(cfg, run_seed=4)
    assert np.array_equal(result.cumulative_reward, 10.0 * result.win_count)
    assert result.win_count.sum() == cfg.rounds


def test_supplied_profile_is_used():
    cfg = config(perf_range=(0.8, 1.5))
    result = run_simulation(cfg, run_seed=5, factors=np.full(4, 1.3))
    assert np.all(result.factors == 1.3)


def test_supplied_profile_length_checked():
    with pytest.raises(ConfigurationError, match="length"):
        run_simulation(config(), run_seed=5, factors=np.ones(3))


def test_expected_total_time_law():
    # Mean per-participant per-round time converges on
    # (base/N) * E[multiplier] * E[1/perf] = (base/N) * 1.0 * ln(1.875)/0.7.
    # Averaged over fresh profiles so one profile's sampling error washes out.
    cfg = config(participant_count=1000, team_size=1, rounds=100, base_time=600.0)
    per_slot = np.mean(
        [
            run_simulation(cfg, run_seed=seed).total_active_time
            / (cfg.rounds * cfg.participant_count)
            for seed in (6, 7, 8)
        ]
    )
    expected = 600.0 * math.log(1.875) / 0.7
    assert abs(per_slot - expected) / expected < 0.02


@pytest.mark.parametrize(
    "participants, team_size, rounds, shared",
    [
        (4096, 1, 42, False),
        (3000, 3, 43, False),
        (4096, 8, 42, False),
        (4096, 8, 42, True),
        (24, 3, 25, False),
        (160, 80, 160, False),
        (160, 1, 160, False),
        (160, 160, 7, False),
        (1, 1, 40, False),
    ],
)
def test_run_matches_contract_v2_oracle(participants, team_size, rounds, shared):
    # Large populations cross several blocks of rounds (and end in a partial
    # one); the oracle draws round by round, so equality shows that no
    # output depends on the block length. At 160 participants a block is 102
    # rounds, so 160 rounds end in a partial second block; a single
    # participant's 40 rounds are added to its total in one block.
    cfg = config(participant_count=participants, team_size=team_size, rounds=rounds,
                 high_perf_override=(participants // 2, 2.5))
    run_seed = 12345 + team_size
    shared_factors = None
    if shared:
        shared_factors = draw_performance_profile(cfg, np.random.default_rng(99))
    result = run_simulation(cfg, run_seed, shared_factors)
    expected_factors = np.random.default_rng(run_seed).uniform(0.8, 1.5, participants)
    expected_factors[participants // 2] = 2.5
    factors = shared_factors if shared else expected_factors
    assert np.array_equal(result.factors, factors)
    wins, active = oracles.contract_v2_run(
        participants, team_size, rounds, run_seed, cfg.work_time, cfg.multiplier_range,
        factors,
    )
    assert result.win_count.tolist() == wins
    assert result.active_time.tolist() == active
