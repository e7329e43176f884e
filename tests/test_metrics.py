from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from potsim.core import RunResult, ScenarioConfig
from potsim.experiments import summarize_runs
from potsim.metrics import (
    DistStats,
    competition_ranks,
    distribution_stats,
    excess_kurtosis,
    pearson_correlation,
    ranking_histogram,
    skewness,
)

finite_floats = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
# Rounded values with a minimum spread, so variances cannot underflow to zero.
moderate_floats = finite_floats.map(lambda x: round(x, 3))


def spread(values) -> float:
    return max(values) - min(values)


class FakeRun:
    def __init__(self, rewards):
        self.cumulative_reward = np.asarray(rewards, dtype=float)


# -- distribution_stats -----------------------------------------------------


def test_constant_vector():
    stats = distribution_stats([5, 5, 5, 5])
    assert stats == DistStats(mean=5, std_dev=0, min=5, p25=5, median=5, p75=5, max=5)


def test_two_point_vector_population_std():
    stats = distribution_stats([0, 10])
    assert stats.mean == 5
    assert stats.std_dev == 5
    assert stats.min == 0
    assert stats.median == 5
    assert stats.max == 10


def test_linear_interpolation_percentiles():
    stats = distribution_stats([1, 2, 3, 4, 5])
    assert stats.p25 == 2
    assert stats.p75 == 4


def test_distribution_stats_rejects_empty():
    with pytest.raises(ValueError):
        distribution_stats([])


@settings(max_examples=60, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=30))
def test_percentile_monotonicity(values):
    stats = distribution_stats(values)
    assert stats.min <= stats.p25 <= stats.median <= stats.p75 <= stats.max


# -- skewness / kurtosis ----------------------------------------------------


def test_symmetric_vector_has_zero_skewness():
    assert skewness([-1, 0, 1]) == pytest.approx(0, abs=1e-12)


def test_skewness_frozen_example():
    # m2 = 3/16, m3 = 3/32 for [0,0,0,1], so g1 = 2/sqrt(3).
    assert skewness([0, 0, 0, 1]) == pytest.approx(2 / math.sqrt(3), abs=1e-12)
    assert skewness([0, 0, 0, 1]) == pytest.approx(1.1547, abs=1e-4)


def test_skewness_affine_invariance():
    values = [0.5, 1.0, 4.0, 4.5, 9.0]
    transformed = [3 * x + 7 for x in values]
    assert skewness(transformed) == pytest.approx(skewness(values), rel=1e-12)


def test_two_point_symmetric_kurtosis():
    assert excess_kurtosis([-1, -1, 1, 1]) == pytest.approx(-2, abs=1e-12)


def test_uniform_sample_kurtosis():
    sample = np.random.default_rng(3).uniform(0, 1, 100_000)
    assert excess_kurtosis(sample) == pytest.approx(-1.2, abs=0.05)


def test_shape_stats_reject_zero_variance():
    with pytest.raises(ValueError, match="zero-variance"):
        skewness([2, 2, 2])
    with pytest.raises(ValueError, match="zero-variance"):
        excess_kurtosis([2, 2, 2])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(moderate_floats, min_size=3, max_size=20),
    st.floats(0.1, 10),
    st.floats(-50, 50),
)
def test_shape_affine_invariance_property(values, scale, shift):
    if spread(values) < 0.01:
        return
    transformed = [scale * x + shift for x in values]
    assert skewness(transformed) == pytest.approx(skewness(values), rel=1e-6, abs=1e-9)
    assert excess_kurtosis(transformed) == pytest.approx(
        excess_kurtosis(values), rel=1e-6, abs=1e-9
    )
    negated = [-x for x in values]
    assert skewness(negated) == pytest.approx(-skewness(values), rel=1e-6, abs=1e-9)


# -- pearson_correlation ------------------------------------------------------


def test_perfect_positive_correlation():
    assert pearson_correlation([1, 2, 3], [3, 5, 7]) == pytest.approx(1.0, abs=1e-12)


def test_perfect_negative_correlation():
    assert pearson_correlation([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0, abs=1e-12)


def test_correlation_frozen_example():
    assert pearson_correlation([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_correlation_errors():
    with pytest.raises(ValueError, match="mismatch"):
        pearson_correlation([1, 2, 3], [1, 2])
    with pytest.raises(ValueError, match="zero-variance"):
        pearson_correlation([1, 1, 1], [1, 2, 3])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(moderate_floats, moderate_floats), min_size=2, max_size=30))
def test_correlation_bounded(pairs):
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    if spread(xs) < 0.01 or spread(ys) < 0.01:
        return
    r = pearson_correlation(xs, ys)
    assert -1 - 1e-9 <= r <= 1 + 1e-9


# -- ranking --------------------------------------------------------------------


def test_competition_rank_examples():
    assert competition_ranks([10, 5, 5]).tolist() == [1, 2, 2]
    assert competition_ranks([7, 7, 7]).tolist() == [1, 1, 1]
    assert competition_ranks([1, 9, 4, 9]).tolist() == [4, 1, 3, 1]


def test_competition_rank_rejects_bad_id():
    with pytest.raises(ValueError, match="participant id"):
        ranking_histogram([FakeRun([1, 2, 3])], 3)
    with pytest.raises(ValueError, match="participant id"):
        ranking_histogram([FakeRun([1, 2, 3])], -1)


def test_ranking_histogram_always_first():
    runs = [FakeRun([20, 5, 5]) for _ in range(100)]
    hist = ranking_histogram(runs, 0)
    assert hist["1"] == 100
    assert hist["11_or_lower"] == 0
    assert sum(hist.values()) == 100


def test_ranking_histogram_bucketing():
    run_rank3 = FakeRun([5, 4, 3, 9, 8] + [0] * 10)
    run_rank15 = FakeRun([1] + list(range(2, 16)))
    hist = ranking_histogram([run_rank3, run_rank15], 0)
    assert hist["3"] == 1
    assert hist["11_or_lower"] == 1
    assert sum(hist.values()) == 2


def test_ranking_histogram_single_run():
    hist = ranking_histogram([FakeRun([1, 2])], 0)
    assert sum(hist.values()) == 1


def test_ranking_histogram_empty_is_all_zero():
    hist = ranking_histogram([], 0)
    assert list(hist.items()) == [(str(rank), 0) for rank in range(1, 11)] + [("11_or_lower", 0)]


# -- aggregation over runs (summarize_runs) ----------------------------------------


def make_run(rewards, factors=(1.0, 1.2, 1.4, 0.9), active=(1.0, 2.0, 3.0, 4.0)) -> RunResult:
    rewards = np.asarray(rewards, dtype=float)
    return RunResult(
        cumulative_reward=rewards,
        win_count=np.zeros(rewards.size, dtype=np.int64),
        active_time=np.asarray(active, dtype=float),
        factors=np.asarray(factors, dtype=float),
    )


SUMMARY_CONFIG = ScenarioConfig(participant_count=4, team_size=1, rounds=1, runs=1)


def per_run_values(run) -> list[float]:
    rewards = run.cumulative_reward
    return [
        *astuple(distribution_stats(rewards)),
        skewness(rewards),
        excess_kurtosis(rewards),
        pearson_correlation(run.factors, rewards),
        run.total_active_time,
    ]


def summary_values(summary) -> list[float]:
    return [
        *astuple(summary.reward_stats),
        *astuple(summary.shape_stats),
        summary.correlation,
        summary.total_active_time_mean,
    ]


def test_aggregate_single_is_identity():
    run = make_run([0.0, 10.0, 5.0, 25.0])
    assert summary_values(summarize_runs(SUMMARY_CONFIG, [run])) == per_run_values(run)


def test_aggregate_averages_fieldwise():
    a = make_run([0.0, 10.0, 20.0, 590.0])
    b = make_run([0.0, 0.0, 30.0, 600.0])
    merged = summarize_runs(SUMMARY_CONFIG, [a, b])
    assert merged.reward_stats.max == 595
    assert merged.reward_stats.min == 0
    assert merged.reward_stats.mean == (155 + 157.5) / 2


def test_aggregate_mean_of_constant_means():
    runs = [make_run([10.0 - i, 10.0, 10.0, 10.0 + i]) for i in range(100)]
    summary = summarize_runs(SUMMARY_CONFIG, runs)
    assert summary.reward_stats.mean == pytest.approx(10, rel=1e-12)


def test_aggregate_reals_and_shapes():
    # Every field, shape statistics and reals included, is numpy's mean of
    # the per-run values, bit for bit. Pairwise summation only differs from a
    # running sum past 8 values, so 150 runs pin the order of the additions.
    rng = np.random.default_rng(8)
    runs = [make_run(rng.uniform(0, 100, 4), active=rng.uniform(0, 1e6, 4)) for _ in range(150)]
    columns = zip(*(per_run_values(run) for run in runs))
    expected = [float(np.mean(column)) for column in columns]
    assert summary_values(summarize_runs(SUMMARY_CONFIG, runs)) == expected


# -- brute-force oracle equivalence ------------------------------------------------


def corpus(rng, count=200):
    vectors = []
    for _ in range(count):
        size = rng.integers(2, 9)
        vectors.append(rng.uniform(-50, 50, size).round(3).tolist())
    return vectors


def test_oracle_equivalence_on_short_vectors():
    rng = np.random.default_rng(123)
    for values in corpus(rng):
        stats = distribution_stats(values)
        assert math.isclose(stats.mean, oracles.mean(values), rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(
            stats.std_dev, oracles.population_std(values), rel_tol=1e-12, abs_tol=1e-12
        )
        for p, got in ((25, stats.p25), (50, stats.median), (75, stats.p75)):
            assert math.isclose(
                got, oracles.percentile_linear(values, p), rel_tol=1e-12, abs_tol=1e-12
            )
        if len(set(values)) > 1:
            assert math.isclose(
                skewness(values), oracles.skewness(values), rel_tol=1e-12, abs_tol=1e-12
            )
            assert math.isclose(
                excess_kurtosis(values),
                oracles.excess_kurtosis(values),
                rel_tol=1e-12,
                abs_tol=1e-12,
            )
