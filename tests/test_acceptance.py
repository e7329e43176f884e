"""Acceptance gate: full-scale reproduction criteria at their stated tolerances.

Runs the two reference-scale sweeps (1600 participants, 1600 rounds, 100
runs, team sizes 1..64; homogeneous and high-performance conditions) once
each and checks every criterion against them, printing one line per
criterion. Use ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

import oracles
from potsim import (
    ScenarioConfig,
    distribution_stats,
    excess_kurtosis,
    pearson_correlation,
    skewness,
)
from potsim.cli import CI_SCALE, PAPER_DEFAULTS, PAPER_TEAM_SIZES, entrypoint
from potsim.experiments import (
    Condition,
    SweepSpec,
    execute_scenario,
)
from potsim.reporting import REFERENCE_TABLES, emit_table

WORKERS = min(8, os.cpu_count() or 1)

POW_ENERGY_REFERENCE = REFERENCE_TABLES["energy"]["PoW"]["total_active_time_1e6_s"] * 1e6
SHAPE_REFERENCE = REFERENCE_TABLES["shape"]
REWARDS_REFERENCE = REFERENCE_TABLES["rewards"]
CORRELATION_REFERENCE = REFERENCE_TABLES["correlation"]


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"[criterion {number:02d}] {name}: {status}{suffix}")


def paper_config(**overrides) -> ScenarioConfig:
    fields = dict(PAPER_DEFAULTS)
    fields.update(overrides)
    return ScenarioConfig(**fields)


def paper_sweep(condition: Condition, **overrides) -> dict:
    spec = SweepSpec(
        base_config=paper_config(**overrides),
        team_sizes=PAPER_TEAM_SIZES,
        conditions=(condition,),
    )
    summaries = [execute_scenario(config, workers=WORKERS) for config in spec.configs]
    return {s.config_echo.team_size: s for s in summaries}


@pytest.fixture(scope="module")
def homogeneous_sweep():
    return paper_sweep(Condition.HOMOGENEOUS, high_perf_override=None)


@pytest.fixture(scope="module")
def high_perf_sweep():
    """The high-performance sweep; each summary keeps the override node's per-run wins."""
    return paper_sweep(Condition.HIGH_PERF)


@pytest.fixture(scope="module")
def ci_scenario():
    return execute_scenario(ScenarioConfig(team_size=4, **CI_SCALE), workers=WORKERS)


def test_criterion_01_reward_conservation(homogeneous_sweep, high_perf_sweep, ci_scenario):
    worst = 0.0
    for summary in (
        list(homogeneous_sweep.values()) + list(high_perf_sweep.values()) + [ci_scenario]
    ):
        cfg = summary.config_echo
        expected = cfg.reward_per_round * cfg.rounds / cfg.participant_count
        worst = max(worst, abs(summary.reward_stats.mean - expected) / expected)
    ok = worst <= 1e-6
    report(1, "reward conservation", ok, f"max relative error {worst:.2e} (gate 1e-6)")
    assert ok


def test_criterion_02_pow_energy_total(homogeneous_sweep):
    simulated = homogeneous_sweep[1].total_active_time_mean
    closed_form = 1600 * 1600 * 600 * math.log(1.875) / 0.7
    rel_reference = abs(simulated - POW_ENERGY_REFERENCE) / POW_ENERGY_REFERENCE
    rel_closed = abs(simulated - closed_form) / closed_form
    ok = rel_reference <= 0.005 and rel_closed <= 0.005
    report(
        2,
        "PoW energy total",
        ok,
        f"{simulated / 1e6:.2f}e6 s vs reference 1378.89e6 ({rel_reference:.2%}) "
        f"and closed form {closed_form / 1e6:.2f}e6 ({rel_closed:.2%}), gate 0.5%",
    )
    assert ok


def test_criterion_03_energy_scales_inversely_with_team_size(homogeneous_sweep):
    pow_total = homogeneous_sweep[1].total_active_time_mean
    deviations = {}
    for team_size in PAPER_TEAM_SIZES[1:]:
        expected = pow_total / team_size
        actual = homogeneous_sweep[team_size].total_active_time_mean
        deviations[team_size] = abs(actual - expected) / expected
    worst = max(deviations.values())
    ok = worst <= 0.02
    report(
        3,
        "1/N energy scaling",
        ok,
        "deviation by N "
        + ", ".join(f"{n}:{d:.3%}" for n, d in deviations.items())
        + " (gate 2%)",
    )
    assert ok


def test_criterion_04_pow_dominance_is_total(high_perf_sweep):
    hist = high_perf_sweep[1].ranking
    ok = hist is not None and hist["1"] == 100 and sum(hist.values()) == 100
    report(4, "PoW override dominance", ok, f"first places {hist['1']}/100")
    assert ok


def test_criterion_05_pots_dominance_dilution(high_perf_sweep):
    runs = PAPER_DEFAULTS["runs"]
    largest = PAPER_TEAM_SIZES[-1]
    first_places = {n: summary.ranking["1"] for n, summary in high_perf_sweep.items()}
    # The node earns reward_per_round / N per win; dividing its mean reward
    # by the population mean gives its reward as a multiple of the average.
    reward_multiple = {
        n: summary.config_echo.reward_per_round / n * summary.means["override_wins"]
        / summary.reward_stats.mean
        for n, summary in high_perf_sweep.items()
    }
    first_place_ok = first_places[largest] < runs
    rising_steps = [
        (a, b)
        for a, b in zip(PAPER_TEAM_SIZES, PAPER_TEAM_SIZES[1:])
        if reward_multiple[a] <= reward_multiple[b]
    ]
    multiple_ok = not rising_steps
    ok = first_place_ok and multiple_ok

    closest_n = min(PAPER_TEAM_SIZES[1:], key=lambda n: abs(first_places[n] - 54))
    soft_hit = abs(first_places[closest_n] - 54) <= 10
    report(
        5,
        "PoTS dominance dilution",
        ok,
        "(a) first places by N "
        + ", ".join(f"{n}:{c}" for n, c in first_places.items())
        + f" (gate: N={largest} < {runs}) {'PASS' if first_place_ok else 'FAIL'}; "
        "(b) node reward / mean reward by N "
        + ", ".join(f"{n}:{m:.1f}" for n, m in reward_multiple.items())
        + f" (gate: strictly decreasing) {'PASS' if multiple_ok else 'FAIL'}; "
        f"soft target ~54 closest at N={closest_n} with {first_places[closest_n]} "
        f"({'met' if soft_hit else 'not met'}, reported only)",
    )
    failures = []
    if not first_place_ok:
        failures.append(
            f"(a) override keeps first place in {first_places[largest]}/{runs} "
            f"runs at N={largest}"
        )
    if not multiple_ok:
        failures.append(
            "(b) override reward multiple does not fall at "
            + ", ".join(
                f"N={a}->{b} ({reward_multiple[a]:.2f} -> {reward_multiple[b]:.2f})"
                for a, b in rising_steps
            )
        )
    assert ok, "; ".join(failures)


def test_criterion_06_shape_convergence(homogeneous_sweep):
    skews = {n: homogeneous_sweep[n].shape_stats.skewness for n in PAPER_TEAM_SIZES}
    kurts = {n: homogeneous_sweep[n].shape_stats.excess_kurtosis for n in PAPER_TEAM_SIZES}
    ordered = [skews[n] for n in PAPER_TEAM_SIZES]
    strictly_decreasing = all(a > b for a, b in zip(ordered, ordered[1:]))

    pow_skew_ref = SHAPE_REFERENCE["PoW"]["skewness"]
    pow_kurt_ref = SHAPE_REFERENCE["PoW"]["excess_kurtosis"]
    pow_skew_ok = abs(skews[1] - pow_skew_ref) <= 0.20 * pow_skew_ref
    pow_kurt_ok = abs(kurts[1] - pow_kurt_ref) <= 0.30 * pow_kurt_ref
    team64_skew_ok = abs(skews[64]) <= 0.1
    team64_kurt_ok = abs(kurts[64] - (-0.66)) <= 0.2

    # The delta report must flag exactly the tolerance-carrying rows that
    # fall outside their bands.
    shape_doc = emit_table(list(homogeneous_sweep.values()), "shape")
    flags = {row["scenario"]: row.get("flagged", {}) for row in shape_doc["rows"]}
    flags_consistent = (
        flags["PoW"].get("skewness") == (not pow_skew_ok)
        and flags["PoW"].get("excess_kurtosis") == (not pow_kurt_ok)
        and flags["PoTS (64)"].get("skewness") == (not team64_skew_ok)
        and flags["PoTS (64)"].get("excess_kurtosis") == (not team64_kurt_ok)
    )

    ok = (
        strictly_decreasing
        and pow_skew_ok
        and pow_kurt_ok
        and team64_skew_ok
        and team64_kurt_ok
        and flags_consistent
    )
    report(
        6,
        "shape convergence",
        ok,
        f"skewness by N {', '.join(f'{n}:{skews[n]:.3f}' for n in PAPER_TEAM_SIZES)}; "
        f"PoW kurtosis {kurts[1]:.2f} (band ±30% of {pow_kurt_ref}); "
        f"PoTS(64) kurtosis {kurts[64]:.3f} (band -0.66±0.2)",
    )
    assert ok


def test_criterion_07_correlation_rises_then_falls(homogeneous_sweep):
    corr = {n: homogeneous_sweep[n].correlation for n in PAPER_TEAM_SIZES}
    peak_n = max(corr, key=corr.get)
    peak = corr[peak_n]
    rising = corr[1] < corr[2] < corr[4] < corr[8]
    falling = corr[16] > corr[32] > corr[64]
    ok = peak_n in (8, 16) and rising and falling and corr[64] < peak

    pow_soft = abs(corr[1] - CORRELATION_REFERENCE["PoW"]["correlation"]) <= 0.1
    peak_soft = peak >= 0.85
    report(
        7,
        "correlation rise and fall",
        ok,
        "corr by N "
        + ", ".join(f"{n}:{corr[n]:.3f}" for n in PAPER_TEAM_SIZES)
        + f"; peak {peak:.3f} at N={peak_n}; soft targets (reported only): "
        f"PoW within ±0.1 of 0.307 {'met' if pow_soft else 'not met'}, "
        f"peak ≥ 0.85 {'met' if peak_soft else 'not met'}",
    )
    assert ok


def test_criterion_08_reward_spread_shrinks_with_team_size(homogeneous_sweep):
    stds = {n: homogeneous_sweep[n].reward_stats.std_dev for n in PAPER_TEAM_SIZES}
    ordered = [stds[n] for n in PAPER_TEAM_SIZES]
    ok = all(a > b for a, b in zip(ordered, ordered[1:]))
    pow_ref = REWARDS_REFERENCE["PoW"]["std_dev"]
    soft = abs(stds[1] - pow_ref) <= 0.20 * pow_ref
    report(
        8,
        "reward spread monotonicity",
        ok,
        "std by N "
        + ", ".join(f"{n}:{stds[n]:.2f}" for n in PAPER_TEAM_SIZES)
        + f"; soft target PoW 54.81±20% {'met' if soft else 'not met'} (reported only)",
    )
    assert ok


def test_criterion_09_determinism_across_worker_counts(tmp_path, monkeypatch):
    ci = ScenarioConfig(team_size=4, high_perf_override=(100, 2.5), **CI_SCALE)
    summary_single = execute_scenario(ci, workers=1)
    summary_pooled = execute_scenario(ci, workers=8)
    library_ok = summary_single == summary_pooled

    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    outputs = {}
    for threads in (1, 8):
        out_dir = tmp_path / f"threads{threads}"
        status = entrypoint(
            [
                "sweep",
                "--ci-scale",
                "--high-perf-id", "100",
                "--team-sizes", "1,2,4,8",
                "--threads", str(threads),
                "--out", str(out_dir),
            ]
        )
        assert status == 0
        outputs[threads] = {
            str(path.relative_to(out_dir)): path.read_bytes()
            for path in sorted(out_dir.rglob("*"))
            if path.is_file()
        }
    files_ok = outputs[1] == outputs[8]
    ok = library_ok and files_ok
    report(
        9,
        "determinism across worker counts",
        ok,
        f"library summaries equal: {library_ok}; "
        f"{len(outputs[1])} output files byte-identical: {files_ok}",
    )
    assert ok


def test_criterion_10_metrics_match_bruteforce_oracle():
    def close(a: float, b: float) -> bool:
        return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))

    rng = np.random.default_rng(2024)
    checked = 0
    failures = []
    for _ in range(400):
        size = int(rng.integers(2, 9))
        values = rng.uniform(-50, 50, size).round(3).tolist()
        # Each draw is a one-row table, and each statistic gives its one value.
        table = [values]
        stats = distribution_stats(table)
        pairs = [
            (stats.mean, oracles.mean(values)),
            (stats.std_dev, oracles.population_std(values)),
            (stats.min, min(values)),
            (stats.p25, oracles.percentile_linear(values, 25)),
            (stats.median, oracles.percentile_linear(values, 50)),
            (stats.p75, oracles.percentile_linear(values, 75)),
            (stats.max, max(values)),
        ]
        if len(set(values)) > 1:
            pairs.append((skewness(table), oracles.skewness(values)))
            pairs.append((excess_kurtosis(table), oracles.excess_kurtosis(values)))
            other = rng.uniform(-50, 50, size).round(3).tolist()
            if len(set(other)) > 1:
                pairs.append(
                    (pearson_correlation(table, [other]), oracles.pearson(values, other))
                )
        for [got], expected in pairs:
            checked += 1
            if not close(got, expected):
                failures.append((values, got, expected))
    ok = not failures
    report(
        10,
        "metrics oracle equivalence",
        ok,
        f"{checked} comparisons on one-row tables of length <= 8 within 1e-12"
        + (f"; first failure {failures[0]}" if failures else ""),
    )
    assert ok
