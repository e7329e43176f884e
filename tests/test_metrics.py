from __future__ import annotations

import math
import subprocess
import sys
import warnings
from dataclasses import astuple, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import oracles
from potsim import experiments
from potsim.core import RunResult, ScenarioConfig
from potsim.experiments import execute_runs, summarize_runs
from potsim.metrics import (
    DistStats,
    distribution_stats,
    excess_kurtosis,
    participant_ranks,
    pearson_correlation,
    ranking_histogram,
    skewness,
)

finite_floats = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
# Rounded values with a minimum spread, so variances cannot underflow to zero.
moderate_floats = finite_floats.map(lambda x: round(x, 3))


def spread(values) -> float:
    return max(values) - min(values)


# -- pytest settings --------------------------------------------------------------


def test_failing_property_is_reported_and_later_tests_run(tmp_path):
    # Reporting a failing example imports libcst, which warns; pytest's
    # settings must not turn that warning into an INTERNALERROR.
    (tmp_path / "pyproject.toml").write_bytes(
        (Path(__file__).parents[1] / "pyproject.toml").read_bytes()
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n\n"
        "def test_passes():\n"
        "    pass\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
    assert "INTERNALERROR" not in result.stdout + result.stderr


# -- the (runs, n) table contract ---------------------------------------------


def test_statistics_reject_non_tables():
    # Only a 2-D table with at least one column is accepted, by every statistic.
    statistics = (
        distribution_stats,
        skewness,
        excess_kurtosis,
        lambda table: pearson_correlation(table, table),
        lambda table: participant_ranks(table, 0),
    )
    for bad in ([1.0, 2.0, 3.0], np.ones((2, 3, 4)), np.empty((3, 0)), np.empty((0, 0)), 5.0):
        for statistic in statistics:
            with pytest.raises(ValueError, match=r"expected a \(runs, n\) table"):
                statistic(bad)


# -- distribution_stats -----------------------------------------------------


def test_constant_vector():
    stats = distribution_stats([[5, 5, 5, 5], [2, 2, 2, 2]])
    rows = [5, 2]
    assert stats == DistStats(
        mean=rows, std_dev=[0, 0], min=rows, p25=rows, median=rows, p75=rows, max=rows
    )


def test_two_point_vector_population_std():
    stats = distribution_stats([[0, 10]])
    assert stats.mean == [5]
    assert stats.std_dev == [5]
    assert stats.min == [0]
    assert stats.median == [5]
    assert stats.max == [10]


def test_linear_interpolation_percentiles():
    stats = distribution_stats([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]])
    assert stats.p25 == [2, 2]
    assert stats.p75 == [4, 4]


@settings(max_examples=60, deadline=None)
@given(arrays(float, array_shapes(min_dims=2, max_dims=2, max_side=30), elements=finite_floats))
def test_percentile_monotonicity(table):
    stats = distribution_stats(table)
    for row in zip(stats.min, stats.p25, stats.median, stats.p75, stats.max):
        assert list(row) == sorted(row)


# Few distinct values, so rows tie; signed zeros, NaN and infinities, which
# engine data never holds.
_edge_floats = st.sampled_from((0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf)) | st.floats()


@settings(max_examples=300, deadline=None)
@given(arrays(float, array_shapes(min_dims=2, max_dims=2, max_side=69), elements=_edge_floats))
@example(np.array([[0.0, -0.0, 0.0, -0.0, -0.0], [math.inf, 1.0, -math.inf, 0.0, math.nan]]))
def test_percentiles_match_np_percentile_bit_for_bit(table):
    with np.errstate(all="ignore"):
        stats = distribution_stats(table)
        expected = np.percentile(table, [0, 25, 50, 75, 100], axis=1)
    got = np.array([stats.min, stats.p25, stats.median, stats.p75, stats.max], dtype=float)
    assert got.view(np.uint64).tolist() == expected.reshape(got.shape).view(np.uint64).tolist()


# -- skewness / kurtosis ----------------------------------------------------


def test_symmetric_vector_has_zero_skewness():
    assert skewness([[-1, 0, 1], [3, 5, 7]]) == pytest.approx([0, 0], abs=1e-12)


def test_skewness_frozen_example():
    # m2 = 3/16, m3 = 3/32 for [0,0,0,1], so g1 = 2/sqrt(3); mirrored, -g1.
    table = [[0, 0, 0, 1], [1, 1, 1, 0]]
    assert skewness(table) == pytest.approx([2 / math.sqrt(3), -2 / math.sqrt(3)], abs=1e-12)
    assert skewness(table) == pytest.approx([1.1547, -1.1547], abs=1e-4)


def test_skewness_affine_invariance():
    values = [0.5, 1.0, 4.0, 4.5, 9.0]
    transformed = [3 * x + 7 for x in values]
    original, affine = skewness([values, transformed])
    assert affine == pytest.approx(original, rel=1e-12)


def test_two_point_symmetric_kurtosis():
    assert excess_kurtosis([[-1, -1, 1, 1], [3, 5, 5, 3]]) == pytest.approx([-2, -2], abs=1e-12)


def test_uniform_sample_kurtosis():
    sample = np.random.default_rng(3).uniform(0, 1, 100_000)
    assert excess_kurtosis(sample[None]) == pytest.approx([-1.2], abs=0.05)


def test_shape_stats_reject_zero_variance():
    # A zero-variance row, one value long or constant, has no shape: it reads
    # NaN, and the varying rows of the same table keep the oracle's value.
    assert math.isnan(skewness([[7]])[0]) and math.isnan(excess_kurtosis([[7]])[0])
    table = [[2, 2, 2, 2], [0, 0, 0, 1], [2, 2, 2, 2]]
    for statistic, oracle in (
        (skewness, oracles.skewness),
        (excess_kurtosis, oracles.excess_kurtosis),
    ):
        first, varying, last = statistic(table)
        assert math.isnan(first) and math.isnan(last)
        assert math.isclose(varying, oracle(table[1]), rel_tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(moderate_floats, min_size=3, max_size=20),
    st.floats(0.1, 10),
    st.floats(-50, 50),
)
def test_shape_affine_invariance_property(values, scale, shift):
    if spread(values) < 0.01:
        return
    table = [values, [scale * x + shift for x in values], [-x for x in values]]
    skew, transformed_skew, negated_skew = skewness(table)
    kurtosis, transformed_kurtosis, _ = excess_kurtosis(table)
    assert transformed_skew == pytest.approx(skew, rel=1e-6, abs=1e-9)
    assert transformed_kurtosis == pytest.approx(kurtosis, rel=1e-6, abs=1e-9)
    assert negated_skew == pytest.approx(-skew, rel=1e-6, abs=1e-9)


# -- pearson_correlation ------------------------------------------------------


def test_perfect_positive_correlation():
    r = pearson_correlation([[1, 2, 3], [0, 5, 10]], [[3, 5, 7], [-4, -3, -2]])
    assert r == pytest.approx([1.0, 1.0], abs=1e-12)


def test_perfect_negative_correlation():
    assert pearson_correlation([[1, 2, 3]], [[-1, -2, -3]]) == pytest.approx([-1.0], abs=1e-12)


def test_correlation_frozen_example():
    assert pearson_correlation([[1, 2, 3, 4]], [[1, 3, 2, 4]]) == pytest.approx([0.8], abs=1e-12)


def test_correlation_errors():
    with pytest.raises(ValueError, match="mismatch"):
        pearson_correlation([[1, 2, 3]], [[1, 2]])
    with pytest.raises(ValueError, match="mismatch"):
        pearson_correlation([[1, 2, 3], [4, 5, 6]], [[1, 2, 3]])
    # A zero-variance row on either side reads NaN; the other rows keep the
    # oracle's value.
    x = [[1, 1, 1], [1, 2, 3], [1, 2, 3], [7, 7, 7]]
    y = [[1, 2, 3], [1, 3, 2], [4, 4, 4], [7, 7, 7]]
    nan_x, varying, nan_y, nan_both = pearson_correlation(x, y)
    assert math.isnan(nan_x) and math.isnan(nan_y) and math.isnan(nan_both)
    assert math.isclose(varying, oracles.pearson(x[1], y[1]), rel_tol=1e-12)
    assert math.isnan(pearson_correlation([[7]], [[8]])[0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(moderate_floats, moderate_floats), min_size=2, max_size=30))
def test_correlation_bounded(pairs):
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    if spread(xs) < 0.01 or spread(ys) < 0.01:
        return
    [r] = pearson_correlation([xs], [ys])
    assert -1 - 1e-9 <= r <= 1 + 1e-9


# -- ranking --------------------------------------------------------------------


def test_competition_rank_rejects_bad_id():
    with pytest.raises(ValueError, match="participant id"):
        participant_ranks([[1, 2, 3]], 3)
    with pytest.raises(ValueError, match="participant id"):
        participant_ranks([[1, 2, 3]], -1)


def test_ranking_histogram_always_first():
    hist = ranking_histogram([1] * 100)
    assert hist["1"] == 100
    assert hist["11_or_lower"] == 0
    assert sum(hist.values()) == 100


def test_ranking_histogram_bucketing():
    hist = ranking_histogram([3, 15, 11.0, 10])
    assert hist["3"] == 1
    assert hist["10"] == 1
    assert hist["11_or_lower"] == 2
    assert sum(hist.values()) == 4


def test_ranking_histogram_single_run():
    hist = ranking_histogram([2])
    assert hist["2"] == 1 and sum(hist.values()) == 1


def test_ranking_histogram_empty_is_all_zero():
    hist = ranking_histogram(np.empty(0))
    assert list(hist.items()) == [(str(rank), 0) for rank in range(1, 11)] + [("11_or_lower", 0)]


@pytest.mark.parametrize(
    "ranks, message",
    [
        ([1, 0], "a rank must be an integer of at least 1, got 0.0"),
        ([2.5, 1], "a rank must be an integer of at least 1, got 2.5"),
        ([1, math.nan], "a rank must be an integer of at least 1, got nan"),
        ([1, math.inf], "a rank must be an integer of at least 1, got inf"),
        ([[1, 2]], "expected a sequence of ranks, got shape (1, 2)"),
    ],
    ids=["zero", "fractional", "nan", "infinite", "table"],
)
def test_ranking_histogram_rejects_what_is_not_a_rank(ranks, message):
    with pytest.raises(ValueError) as raised:
        ranking_histogram(ranks)
    assert str(raised.value) == message


# -- aggregation over runs (summarize_runs) ----------------------------------------


def make_run(
    wins, share=1.0, factors=(1.0, 1.2, 1.4, 0.9), active=(1.0, 2.0, 3.0, 4.0)
) -> RunResult:
    return RunResult(
        win_count=np.asarray(wins, dtype=np.int64),
        active_time=np.asarray(active, dtype=float),
        factors=np.asarray(factors, dtype=float),
        reward_share=share,
    )


SUMMARY_CONFIG = ScenarioConfig(participant_count=4, team_size=1, rounds=1, runs=1)


def per_run_values(run) -> list[float]:
    """One run's statistics, from one-row tables."""
    rewards = run.cumulative_reward[None]
    return [
        *(value for [value] in astuple(distribution_stats(rewards))),
        *skewness(rewards),
        *excess_kurtosis(rewards),
        *pearson_correlation(run.factors[None], rewards),
        run.active_time.sum(),
    ]


def summary_values(summary) -> list[float]:
    return [
        *astuple(summary.reward_stats),
        *astuple(summary.shape_stats),
        summary.correlation,
        summary.total_active_time_mean,
    ]


def test_aggregate_single_is_identity():
    run = make_run([0, 10, 5, 25])
    assert summary_values(summarize_runs(SUMMARY_CONFIG, [run])) == per_run_values(run)


def test_aggregate_averages_fieldwise():
    a = make_run([0, 10, 20, 590])
    b = make_run([0, 0, 30, 600])
    merged = summarize_runs(replace(SUMMARY_CONFIG, runs=2), [a, b])
    assert merged.reward_stats.max == 595
    assert merged.reward_stats.min == 0
    assert merged.reward_stats.mean == (155 + 157.5) / 2


def test_aggregate_mean_of_constant_means():
    runs = [make_run([10 - i, 10, 10, 10 + i]) for i in range(100)]
    summary = summarize_runs(replace(SUMMARY_CONFIG, runs=100), runs)
    assert summary.reward_stats.mean == pytest.approx(10, rel=1e-12)


def test_aggregate_reals_and_shapes():
    # Every field, shape statistics and reals included, is numpy's mean of
    # the per-run values, bit for bit. Pairwise summation only differs from a
    # running sum past 8 values, so 150 runs pin the order of the additions.
    # A share of 10 / 3 makes every nonzero reward a non-dyadic real.
    rng = np.random.default_rng(8)
    runs = [
        make_run(rng.integers(0, 100, 4), 10 / 3, active=rng.uniform(0, 1e6, 4)) for _ in range(150)
    ]
    columns = zip(*(per_run_values(run) for run in runs))
    expected = [float(np.mean(column)) for column in columns]
    assert summary_values(summarize_runs(replace(SUMMARY_CONFIG, runs=150), runs)) == expected


@pytest.mark.parametrize("given", [2, 4])
def test_summarize_rejects_any_count_but_config_runs(given):
    # A summary of another number of runs than its config says is one that
    # load_bundle rejects, so it is never made.
    runs = (make_run([0, 1, 2, 3]) for _ in range(given))
    with pytest.raises(ValueError, match=f"got {given} runs for a config of 3 runs"):
        summarize_runs(replace(SUMMARY_CONFIG, runs=3), runs)


def frozen_column(run) -> list[float]:
    """One run's statistics as the per-run path computed them, NaN where undefined.

    numpy reduces each 1-D vector and the ratios are Python floats (C
    ``pow``), the arithmetic the golden digests were pinned with.
    """
    rewards, factors = run.cumulative_reward, run.factors
    mean = rewards.mean()
    column = [
        float(mean),
        float(rewards.std()),
        *np.percentile(rewards, [0, 25, 50, 75, 100]).tolist(),
    ]
    deltas = rewards - mean
    squares = deltas * deltas
    moments = (squares, squares * deltas, squares * squares)
    m2, m3, m4 = (float(moment.mean()) for moment in moments)
    column += [m3 / m2**1.5, m4 / m2**2 - 3.0] if m2 else [math.nan] * 2
    dx = factors - factors.mean()
    sx, sy = float((dx * dx).mean()) ** 0.5, m2**0.5
    column.append(float((dx * deltas).mean()) / (sx * sy) if sx and sy else math.nan)
    column.append(float(run.active_time.sum()))
    return column


def hex_column(values) -> list[str]:
    return [float(value).hex() for value in values]


@st.composite
def table_scenarios(draw):
    participants = draw(st.one_of(st.integers(1, 64), st.sampled_from([160, 1600])))
    divisors = [size for size in range(1, participants + 1) if participants % size == 0]
    lo = draw(st.sampled_from([0.8, 1.0]))
    override = draw(st.none() | st.tuples(st.integers(0, participants - 1), st.just(2.5)))
    config = ScenarioConfig(
        participant_count=participants,
        team_size=draw(st.sampled_from(divisors)),
        rounds=draw(st.integers(0, 12)),
        runs=draw(st.integers(1, 40)),
        perf_range=(lo, draw(st.sampled_from([lo, 1.5]))),
        high_perf_override=override,
        redraw_profile_per_run=draw(st.booleans()),
        master_seed=draw(st.integers(0, 2**64 - 1)),
    )
    # The engine's element budget sets the chunk of runs; small budgets put
    # chunk boundaries inside every population's runs.
    elements = draw(st.sampled_from([experiments._BLOCK_ELEMENTS, 1, 50, 200]))
    return config, elements


def pinned_scenario(elements=experiments._BLOCK_ELEMENTS, **fields):
    return ScenarioConfig(**{"team_size": 1, "master_seed": 5, **fields}), elements


@settings(max_examples=60, deadline=None)
@given(table_scenarios())
@example(pinned_scenario(participant_count=1600, team_size=16, rounds=3, runs=35))
@example(pinned_scenario(participant_count=1600, rounds=0, runs=12, high_perf_override=(9, 2.5)))
@example(
    pinned_scenario(
        participant_count=160,
        team_size=8,
        rounds=6,
        runs=40,
        perf_range=(1.2, 1.2),
        redraw_profile_per_run=False,
        elements=500,
    )
)
@example(pinned_scenario(participant_count=1, rounds=4, runs=3))
def test_chunked_table_matches_per_run_statistics(scenario):
    # Every cell of the chunked (statistic, run) table is bit for bit the
    # per-run value: zero rounds (all-NaN shape), a fixed profile (NaN
    # correlation), shared profiles and runs across chunk boundaries.
    config, elements = scenario
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = execute_runs(config)
        with mock.patch.object(experiments, "_BLOCK_ELEMENTS", elements):
            summary = summarize_runs(config, runs)
        assert tuple(summary.per_run) == experiments.per_run_rows(config)
        assert {len(row) for row in summary.per_run.values()} == {config.runs}
        statistics = zip(*(summary.per_run[name] for name in experiments.STATISTICS))
        for run, column in zip(runs, statistics):
            assert hex_column(column) == hex_column(frozen_column(run))
    if config.high_perf_override is None:
        assert summary.ranking is None
    else:
        pid = config.high_perf_override[0]
        ranks = [oracles.competition_rank(run.cumulative_reward.tolist(), pid) for run in runs]
        assert summary.per_run["override_rank"] == tuple(ranks)
        assert summary.per_run["override_wins"] == tuple(run.win_count[pid] for run in runs)
        assert list(summary.ranking.values()) == [ranks.count(rank) for rank in range(1, 11)] + [
            sum(rank >= 11 for rank in ranks)
        ]
