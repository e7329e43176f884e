from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potsim import (
    ConfigurationError,
    PerformanceProfile,
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


# -- draw_performance_profile --------------------------------------------------


def test_degenerate_interval_gives_constant_factors():
    cfg = config(perf_range=(1.0, 1.0))
    profile = draw_performance_profile(cfg, np.random.default_rng(0))
    assert np.all(profile.factors == 1.0)


def test_override_replaces_one_factor():
    cfg = config(
        participant_count=8, team_size=2, high_perf_override=(5, 2.5)
    )
    profile = draw_performance_profile(cfg, np.random.default_rng(1))
    assert profile.factors[5] == 2.5
    others = np.delete(profile.factors, 5)
    assert np.all((others >= 0.8) & (others <= 1.5))


def test_sample_mean_matches_uniform_expectation():
    cfg = config(participant_count=100_000, team_size=1)
    profile = draw_performance_profile(cfg, np.random.default_rng(2))
    assert abs(profile.factors.mean() - 1.15) < 0.01


# -- form_teams ----------------------------------------------------------------


def test_form_teams_partitions_population():
    teams = form_teams(4, 2, np.random.default_rng(0))
    assert teams.shape == (2, 2)
    assert not teams.flags.writeable
    assert sorted(teams.ravel().tolist()) == [0, 1, 2, 3]


def test_form_teams_singletons():
    teams = form_teams(4, 1, np.random.default_rng(0))
    assert teams.shape == (4, 1)
    assert sorted(teams.ravel().tolist()) == [0, 1, 2, 3]


def test_form_teams_rejects_indivisible():
    with pytest.raises(ConfigurationError, match="not divisible"):
        form_teams(4, 3, np.random.default_rng(0))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_form_teams_partition_property(teams, size, seed):
    n = teams * size
    teams = form_teams(n, size, np.random.default_rng(seed))
    assert sorted(teams.ravel().tolist()) == list(range(n))


# -- time formulas ---------------------------------------------------------------


def test_work_time_values():
    assert config(participant_count=64, team_size=1).work_time == 600
    assert config(participant_count=64, team_size=64).work_time == 9.375
    assert config(participant_count=64, team_size=8).work_time == 75


def test_member_times_pinned_values(pinned_stream):
    # member time = work time * multiplier / factor, indexed by participant id.
    pow_cfg = config(participant_count=2, team_size=1, base_time=600.0)
    profile = PerformanceProfile(factors=np.array([2.5, 1.0]))
    _, _, member_times = execute_round(profile, pow_cfg, pinned_stream([1, 0], [0.8, 1.0]))
    assert member_times.tolist() == [192.0, 600.0]
    big_cfg = config(participant_count=64, team_size=64)
    factors = np.full(64, 1.0)
    factors[0] = 0.8
    multipliers = np.full(64, 1.0)
    multipliers[0] = 1.2
    _, _, member_times = execute_round(
        PerformanceProfile(factors=factors), big_cfg, pinned_stream(range(64), multipliers)
    )
    assert member_times[0] == 14.0625
    assert member_times[1] == 9.375


def test_config_rejects_nonpositive_factors():
    # The engine divides by the factors; only a positive perf_range and a
    # positive override factor reach it.
    for bad in (0.0, -2.0):
        with pytest.raises(ConfigurationError, match="perf_range"):
            config(perf_range=(bad, 1.5))
        with pytest.raises(ConfigurationError, match="factor must be positive"):
            config(high_perf_override=(0, bad))


# -- execute_round ----------------------------------------------------------------


def test_execute_round_pinned_example(pinned_stream):
    cfg = config()
    profile = PerformanceProfile(factors=np.array([1.0, 1.0, 1.0, 2.0]))
    stream = pinned_stream([0, 1, 2, 3], [1.0, 1.0, 1.0, 1.0])
    teams, winner, member_times = execute_round(profile, cfg, stream)
    assert teams.tolist() == [[0, 1], [2, 3]]
    assert winner == 1
    assert member_times.tolist() == [300.0, 300.0, 300.0, 150.0]


def test_execute_round_reward_sum_is_reward_per_round():
    # One round's reward goes to the winning team's members, share each.
    cfg = config(participant_count=60, team_size=6, rounds=1)
    result = run_simulation(cfg, run_seed=6)
    assert result.win_count.sum() == cfg.team_size
    assert abs(result.cumulative_reward.sum() - 10.0) < 1e-9


def test_execute_round_pow_winner_is_fastest(pinned_stream):
    cfg = config(participant_count=2, team_size=1)
    profile = PerformanceProfile(factors=np.array([1.0, 1.0]))
    teams, winner, _ = execute_round(profile, cfg, pinned_stream([0, 1], [0.9, 1.1]))
    assert winner == 0
    assert teams[winner].tolist() == [0]


def test_execute_round_team_time_is_member_sum():
    cfg = config(participant_count=30, team_size=5)
    profile = draw_performance_profile(cfg, np.random.default_rng(8))
    teams, winner, member_times = execute_round(profile, cfg, np.random.default_rng(9))
    team_times = [math.fsum(member_times[team]) for team in teams]
    assert abs(team_times[winner] - min(team_times)) <= 1e-9


def test_execute_round_member_times_within_bounds():
    cfg = config(participant_count=40, team_size=4)
    profile = draw_performance_profile(cfg, np.random.default_rng(10))
    _, _, member_times = execute_round(profile, cfg, np.random.default_rng(11))
    work = cfg.base_time / cfg.team_size
    lo = work * 0.8 / profile.factors.max()
    hi = work * 1.2 / profile.factors.min()
    assert member_times.min() >= lo - 1e-12
    assert member_times.max() <= hi + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 50.0))
def test_winner_invariant_under_time_scaling(seed, scale):
    # Scaling base_time scales every member time by the same constant,
    # so the argmin winner must not move.
    cfg = config(participant_count=24, team_size=4, base_time=600.0)
    scaled = config(participant_count=24, team_size=4, base_time=600.0 * scale)
    profile = draw_performance_profile(cfg, np.random.default_rng(seed))
    _, winner, _ = execute_round(profile, cfg, np.random.default_rng(seed + 1))
    _, winner_scaled, _ = execute_round(profile, scaled, np.random.default_rng(seed + 1))
    assert winner == winner_scaled


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
    assert np.array_equal(a.profile.factors, b.profile.factors)
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
    profile = PerformanceProfile(factors=np.full(4, 1.3))
    result = run_simulation(cfg, run_seed=5, profile=profile)
    assert np.all(result.profile.factors == 1.3)


def test_supplied_profile_length_checked():
    profile = PerformanceProfile(factors=np.ones(3))
    with pytest.raises(ConfigurationError, match="length"):
        run_simulation(config(), run_seed=5, profile=profile)


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
