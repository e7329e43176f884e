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


def test_config_rejects_population_above_2_to_the_32():
    # Above 2**32 a flat index no longer fits a sort key's low half.
    assert config(participant_count=1 << 32).participant_count == 1 << 32
    with pytest.raises(ConfigurationError, match=r"at most 2\*\*32, got 4294967297"):
        config(participant_count=(1 << 32) + 1)


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
    # Zero rounds is a scenario with undefined shape statistics; zero runs is none.
    assert config(rounds=0).rounds == 0
    with pytest.raises(ConfigurationError, match="runs must be positive"):
        config(runs=0)


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


LOW_HALF = np.uint64(2**32 - 1)


def raw_words(seed, rounds, n):
    return np.random.default_rng(seed).bit_generator.random_raw((rounds, n))


def ids(teams):
    """A form_teams block's flat indices r * n + i as participant ids i."""
    rounds, team_size, team_count = teams.shape
    n = team_size * team_count
    return teams - np.arange(0, rounds * n, n)[:, None, None]


def test_form_teams_partitions_population():
    teams = form_teams(raw_words(0, 3, 4), 2)
    assert teams.shape == (3, 2, 2)
    assert not teams.flags.writeable
    for round_teams in ids(teams):
        assert sorted(round_teams.ravel().tolist()) == [0, 1, 2, 3]


def test_form_teams_singletons():
    teams = form_teams(raw_words(0, 3, 4), 1)
    assert teams.shape == (3, 1, 4)
    assert not teams.flags.writeable
    assert ids(teams).tolist() == [[[0, 1, 2, 3]]] * 3


def test_form_teams_singletons_draw_nothing():
    # Team order cannot move an argmin over single members, so PoW takes no
    # order from its words: they are left as drawn, low halves and all.
    words = raw_words(0, 5, 4)
    before = words.copy()
    form_teams(words, 1)
    assert np.array_equal(words, before)


def test_form_teams_rejects_indivisible():
    with pytest.raises(ConfigurationError, match="not divisible"):
        form_teams(raw_words(0, 1, 4), 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 8), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_form_teams_partition_property(teams, size, rounds, seed):
    n = teams * size
    teams = form_teams(raw_words(seed, rounds, n), size)
    for round_teams in ids(teams):
        assert sorted(round_teams.ravel().tolist()) == list(range(n))


def tie_round_one(seed):
    """Raw words for 3 rounds of 8 ids; in round 1 the high halves of ids 2 and 5 tie."""
    words = raw_words(seed, 3, 8)
    words[1, 5] = (words[1, 2] & ~LOW_HALF) | (words[1, 5] & LOW_HALF)
    highs = words >> np.uint64(32)
    assert highs[1, 5] == highs[1, 2] and len(set(highs[0])) == len(set(highs[2])) == 8
    return words, highs


def test_form_teams_tied_round_takes_seeded_permutation():
    # In round 1, ids 2 and 5 share their high halves, which a sort of the
    # keys cannot order fairly.
    words, highs = tie_round_one(3)
    teams = ids(form_teams(words.copy(), 2))
    fallback = np.random.default_rng(highs[1, :4]).permutation(8)
    assert teams[1].tolist() == fallback.reshape(2, 4).tolist()
    for r in (0, 2):
        assert teams[r].ravel().tolist() == np.argsort(highs[r]).tolist()
    rounds = [form_teams(words[r:r + 1].copy(), 2)[0] for r in range(3)]
    assert np.array_equal(np.stack(rounds), teams)


def test_form_teams_row_ends_are_not_ties():
    # The largest high half of round 0 equals the smallest of round 1. Rows
    # are separate rounds, so neither takes the fallback.
    shuffle = np.random.default_rng(5)
    highs = np.array([shuffle.permutation(8) + 10, shuffle.permutation(8) + 17], dtype=np.uint64)
    words = (highs << np.uint64(32)) | (raw_words(5, 2, 8) & LOW_HALF)
    teams = ids(form_teams(words, 2))
    for r in (0, 1):
        assert teams[r].ravel().tolist() == np.argsort(highs[r]).tolist()


def test_tied_round_order_ignores_low_halves():
    # The fallback is seeded from high halves only, so the multipliers a
    # round's words give cannot move its order, tied or not.
    words, _ = tie_round_one(3)
    other = words ^ (raw_words(4, 3, 8) & LOW_HALF)
    assert np.array_equal(words >> np.uint64(32), other >> np.uint64(32))
    assert not np.array_equal(words, other)
    assert np.array_equal(form_teams(words, 2), form_teams(other, 2))


def test_form_teams_orders_are_uniform():
    # Chi-square of the 24 orders of 4 ids over 120k rounds, below the 0.001
    # critical value for 23 degrees of freedom; the seed fixes the outcome.
    rounds = 120_000
    orders = ids(form_teams(raw_words(2024, rounds, 4), 2)).reshape(rounds, 4)
    codes = orders @ np.array([64, 16, 4, 1])
    counts = np.unique(codes, return_counts=True)[1]
    assert len(counts) == 24
    expected = rounds / 24
    assert ((counts - expected) ** 2 / expected).sum() < 49.7


def test_form_teams_order_is_independent_of_multipliers():
    # Chi-square of the joint counts of the 24 orders of 4 ids and whether
    # id 0's multiplier lies above its range's midpoint, over 120k rounds,
    # below the 0.001 critical value for 47 degrees of freedom.
    rounds = 120_000
    words = raw_words(2025, rounds, 4)
    upper = (words[:, 0] & LOW_HALF) >= 2**31
    orders = ids(form_teams(words, 2)).reshape(rounds, 4)
    codes = 2 * (orders @ np.array([64, 16, 4, 1])) + upper
    counts = np.unique(codes, return_counts=True)[1]
    assert len(counts) == 48
    expected = rounds / 48
    assert ((counts - expected) ** 2 / expected).sum() < 82.7


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
    block = form_teams(raw_words(0, 1, 2), 1)
    (teams,) = block
    (winner,) = execute_round(block, np.array([[540.0, 660.0]]))
    assert winner == 0
    assert teams[:, winner].tolist() == [0]


def test_execute_round_team_time_is_member_sum():
    block = form_teams(raw_words(9, 1, 30), 5)
    (teams,) = block
    member_times = np.random.default_rng(8).uniform(50.0, 150.0, 30)
    (winner,) = execute_round(block, member_times[None])
    team_times = [math.fsum(member_times[team]) for team in teams.T]
    assert abs(team_times[winner] - min(team_times)) <= 1e-9


@pytest.mark.parametrize("multiplier_range", [(0.8, 1.2), (0.5, 3.0), (1e-12, 1e12), (1.1, 1.1)])
def test_member_times_lie_in_multiplier_range(multiplier_range):
    # After one round each participant's active time is its member time,
    # lo * w / f <= time <= hi * w / f with no tolerance.
    lo, hi = multiplier_range
    cfg = config(participant_count=4096, team_size=8, rounds=1, multiplier_range=multiplier_range)
    result = run_simulation(cfg, run_seed=13)
    assert np.all(lo * cfg.work_time / result.factors <= result.active_time)
    assert np.all(result.active_time <= hi * cfg.work_time / result.factors)


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
    teams = form_teams(raw_words(5, 9, 24), team_size)
    member_times = np.random.default_rng(6).uniform(50.0, 150.0, (9, 24))
    winners = execute_round(teams, member_times)
    assert winners.shape == (9,)
    one_by_one = [execute_round(teams[r:r + 1] - 24 * r, member_times[r:r + 1])[0]
                  for r in range(9)]
    assert winners.tolist() == one_by_one


def test_execute_round_rejects_teams_of_another_block():
    # A slice of a block's teams keeps the block's flat indices: round 2 of a
    # 3-round block of 8 indexes 16..23, past its one row of times. Gathered
    # with "clip", it read winner 0 where the round's winner is 3.
    teams = form_teams(raw_words(5, 3, 8), 2)
    member_times = np.random.default_rng(6).uniform(50.0, 150.0, (3, 8))
    assert execute_round(teams, member_times)[2] == 3
    with pytest.raises(ValueError, match="index outside member times"):
        execute_round(teams[2:3], member_times[2:3])
    assert execute_round(teams[2:3] - 16, member_times[2:3]).tolist() == [3]
    # A negative index was clipped to participant 0 just as silently: round 0
    # shifted down by 5 read winner 0 where the round's winner is 2.
    assert execute_round(teams, member_times)[0] == 2
    with pytest.raises(ValueError, match="index outside member times"):
        execute_round(teams[0:1] - 5, member_times[0:1])


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


def test_partial_block_scratch_is_contiguous():
    # A partial block's arrays must be C-contiguous: a strided index or
    # ``out=`` makes numpy's take and reduce copy through a temporary.
    whole = core._block_scratch(102, 4, 40)
    part = core._block_scratch(58, 4, 40)
    assert [view.shape for view in part] == [(58, 160), (4, 58, 40), (4, 58, 40), (58, 40)]
    assert all(view.flags.c_contiguous for view in part)
    assert all(np.shares_memory(a, b) for a, b in zip(whole, part))


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
    assert result.active_time.sum() == 0.0


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
    assert a.active_time.sum() == b.active_time.sum()


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
            run_simulation(cfg, run_seed=seed).active_time.sum()
            / (cfg.rounds * cfg.participant_count)
            for seed in (6, 7, 8)
        ]
    )
    expected = 600.0 * math.log(1.875) / 0.7
    assert abs(per_slot - expected) / expected < 0.02


def test_two_team_win_law_check_value():
    # The n = 4 check value; a 2M-sample Monte Carlo agreed to 4 places.
    exact = oracles.two_team_win_probabilities((0.8, 1.0, 1.2, 1.5), (0.8, 1.2))
    assert [round(p, 5) for p in exact] == [0.12977, 0.53690, 0.55616, 0.77717]
    assert math.fsum(exact) == pytest.approx(2, abs=1e-12)


# Rounds, seeds and bound were fixed before the test's first run.
WIN_LAW_ROUNDS = 200_000
WIN_LAW_Z_BOUND = 4.5


@pytest.mark.parametrize(
    "factors, run_seed",
    [
        ((0.8, 1.0, 1.2, 1.5), 101),
        ((0.85, 0.95, 1.05, 1.15, 1.3, 1.45), 102),
        ((0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 2.5), 103),
    ],
    ids=["n4", "n6", "n8_override"],
)
def test_two_team_win_frequencies_follow_the_exact_law(factors, run_seed):
    """Win counts at n = 2N follow the exact two-team law, whatever the stream contract.

    Each round's wins of one participant are a Bernoulli draw of its exact
    probability p (``oracles.two_team_win_probabilities``), independent
    across rounds, so over R = 200,000 rounds z = (wins - R p) / sqrt(R p (1 - p))
    is standard normal to within the binomial's normal approximation
    (R p (1 - p) is over 20,000 here). The engine's 2**-32 multiplier grid
    moves p by about 1e-9, far below its SE of about 1e-3. The three cases
    make 4 + 6 + 8 = 18 comparisons; by Bonferroni a correct engine fails
    any of them with probability at most 18 * P(|Z| > 4.5) = 1.2e-4. A
    team formation that keeps 2 random key bits and breaks ties by index,
    with no fallback, gives a largest |z| of 32, 42 and 61 in the three cases.
    """
    n = len(factors)
    cfg = config(participant_count=n, team_size=n // 2, rounds=WIN_LAW_ROUNDS)
    wins = run_simulation(cfg, run_seed, factors=np.array(factors)).win_count.tolist()
    exact = oracles.two_team_win_probabilities(factors, cfg.multiplier_range)
    z = [
        (won - WIN_LAW_ROUNDS * p) / math.sqrt(WIN_LAW_ROUNDS * p * (1 - p))
        for won, p in zip(wins, exact)
    ]
    assert max(map(abs, z)) <= WIN_LAW_Z_BOUND, z


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
        (65536, 2048, 3, False),
        (1600, 64, 25, False),
    ],
)
def test_run_matches_contract_v4_oracle(participants, team_size, rounds, shared):
    # Large populations cross several blocks of rounds (and end in a partial
    # one); the oracle draws round by round, so equality shows that no
    # output depends on the block length. At 160 participants a block is 102
    # rounds, so 160 rounds end in a partial second block. At 1600
    # participants in teams of 64, 25 rounds are blocks of 10, 10 and 5 rounds
    # of 25 teams, the paper-scale shape summed member-major; a single
    # participant's 40 rounds are added to its total in one block. At 65536
    # participants about half the rounds tie, and this seed ties round 1
    # only, so the run takes the seeded fallback between two sorted rounds.
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
    wins, active, tied = oracles.contract_v4_run(
        participants, team_size, rounds, run_seed, cfg.work_time, cfg.multiplier_range,
        factors,
    )
    assert tied == ([1] if participants == 65536 else [])
    assert result.win_count.tolist() == wins
    assert result.active_time.tolist() == active
