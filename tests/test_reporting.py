from __future__ import annotations

import io
import math

import numpy as np
import pytest

import oracles
from potsim import (
    ScenarioConfig,
    emit_table,
    execute_runs,
    run_simulation,
    scenario_label,
    summarize_runs,
)
from potsim.experiments import Condition, SweepSpec, sweep_team_sizes
from potsim.reporting import (
    CSV_HEADER,
    REFERENCE_TABLES,
    config_from_dict,
    config_to_dict,
    emit_reward_histogram,
    load_bundle,
    read_participant_csv,
    render_delta_report,
    summary_from_dict,
    summary_to_dict,
    write_bundle,
    write_runs_csv,
)


def small_run(rounds=12, **overrides):
    fields = dict(participant_count=4, team_size=2, rounds=rounds, runs=1, master_seed=1)
    fields.update(overrides)
    return ScenarioConfig(**fields), run_simulation(ScenarioConfig(**fields), run_seed=5)


def sweep_summaries(conditions=(Condition.HOMOGENEOUS,), team_sizes=(1, 2, 4)):
    base = ScenarioConfig(
        participant_count=32,
        team_size=1,
        rounds=30,
        runs=4,
        master_seed=13,
        high_perf_override=(20, 2.5),
    )
    return sweep_team_sizes(SweepSpec(base_config=base, team_sizes=team_sizes, conditions=conditions))


# -- participant CSV -------------------------------------------------------------


def test_csv_header_and_row_count():
    _, run = small_run()
    sink = io.BytesIO()
    assert write_runs_csv([run], sink) == 4
    lines = sink.getvalue().decode("utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == "run_id,participant_id,performance_factor,reward,wins,active_time_seconds,rank"
    assert len(lines) == 5


def test_csv_zero_rounds_all_tied_at_rank_one():
    _, run = small_run(rounds=0)
    sink = io.BytesIO()
    write_runs_csv([run], sink)
    rows = read_participant_csv(io.BytesIO(sink.getvalue()))
    assert all(row["reward"] == 0 for row in rows)
    assert all(row["rank"] == 1 for row in rows)


def test_csv_reemission_byte_identical():
    _, run = small_run()
    first, second = io.BytesIO(), io.BytesIO()
    write_runs_csv([run], first)
    write_runs_csv([run], second)
    assert first.getvalue() == second.getvalue()


def test_csv_round_trip_exact_at_emitted_precision():
    _, run = small_run(rounds=25)
    sink = io.BytesIO()
    write_runs_csv([run], sink)
    rows = read_participant_csv(io.BytesIO(sink.getvalue()))
    for pid, row in enumerate(rows):
        assert row["run_id"] == 0
        assert row["participant_id"] == pid
        assert row["wins"] == int(run.win_count[pid])
        assert row["reward"] == float(f"{run.cumulative_reward[pid]:.6g}")
        assert row["performance_factor"] == float(f"{run.profile.factors[pid]:.6g}")
        assert row["rank"] == oracles.competition_rank(run.cumulative_reward.tolist(), pid)


def test_runs_csv_concatenates_with_run_ids():
    cfg = ScenarioConfig(participant_count=4, team_size=2, rounds=6, runs=3, master_seed=2)
    runs = execute_runs(cfg)
    sink = io.BytesIO()
    assert write_runs_csv(runs, sink) == 12
    rows = read_participant_csv(io.BytesIO(sink.getvalue()))
    assert [row["run_id"] for row in rows] == [0] * 4 + [1] * 4 + [2] * 4


# -- reward histogram --------------------------------------------------------------


def test_histogram_direct_binning():
    assert emit_reward_histogram([0, 0, 5, 10], 5) == [(0.0, 2), (5.0, 1), (10.0, 1)]


def test_histogram_single_bin_when_width_exceeds_max():
    assert emit_reward_histogram([0, 1, 2, 3], 10) == [(0.0, 4)]


def test_histogram_counts_conserved():
    _, run = small_run(rounds=30)
    bins = emit_reward_histogram(run, 7.5)
    assert sum(count for _, count in bins) == 4


def test_histogram_rejects_bad_width():
    with pytest.raises(ValueError, match="bin width"):
        emit_reward_histogram([1.0], 0)


# -- tables ------------------------------------------------------------------------


def test_scenario_labels():
    assert scenario_label(1) == "PoW"
    assert scenario_label(64) == "PoTS (64)"


def test_rewards_table_layout():
    doc = emit_table(sweep_summaries(), "rewards")
    assert doc["columns"] == ["scenario", "mean", "std_dev", "min", "p25", "median", "p75", "max"]
    assert [row["scenario"] for row in doc["rows"]] == ["PoW", "PoTS (2)", "PoTS (4)"]
    assert doc["rows"][0]["reference"] == REFERENCE_TABLES["rewards"]["PoW"]


def test_energy_table_in_million_seconds():
    summaries = sweep_summaries(team_sizes=(1,))
    doc = emit_table(summaries, "energy")
    expected = summaries[0].total_active_time_mean / 1e6
    assert doc["rows"][0]["total_active_time_1e6_s"] == pytest.approx(expected)


def test_ranking_table_requires_high_perf():
    with pytest.raises(ValueError, match="high_perf"):
        emit_table(sweep_summaries(), "ranking")


def test_ranking_table_counts_sum_to_runs():
    summaries = sweep_summaries(conditions=(Condition.HIGH_PERF,), team_sizes=(2, 4))
    doc = emit_table(summaries, "ranking")
    for label, column in doc["scenarios"].items():
        assert sum(column.values()) == 4, label
    assert set(doc["scenarios"]) == {"PoTS (2)", "PoTS (4)"}


def test_tables_prefer_homogeneous_condition():
    summaries = sweep_summaries(
        conditions=(Condition.HOMOGENEOUS, Condition.HIGH_PERF), team_sizes=(1, 2)
    )
    doc = emit_table(summaries, "correlation")
    assert len(doc["rows"]) == 2


def test_unknown_table_id_rejected():
    with pytest.raises(ValueError, match="unknown table"):
        emit_table(sweep_summaries(), "nonsense")


def test_shape_table_flags_out_of_tolerance_rows():
    summaries = sweep_summaries(team_sizes=(1,))
    doc = emit_table(summaries, "shape")
    row = doc["rows"][0]
    # Tiny sweep stats sit far from the full-scale reference, so the
    # tolerance-carrying PoW row must be flagged.
    assert row["scenario"] == "PoW"
    assert "flagged" in row
    assert row["flagged"]["skewness"] is True


def test_delta_report_mentions_flags_and_references():
    summaries = sweep_summaries(team_sizes=(1, 2))
    docs = [emit_table(summaries, which) for which in ("rewards", "shape", "correlation")]
    text = render_delta_report(docs)
    assert "== shape ==" in text
    assert "FLAG" in text
    assert "ref" in text


# -- serialization -----------------------------------------------------------------


def test_config_dict_round_trip():
    cfg = ScenarioConfig(
        participant_count=32,
        team_size=4,
        rounds=10,
        runs=2,
        high_perf_override=(7, 2.5),
        master_seed=99,
    )
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_summary_dict_round_trip():
    for summary in sweep_summaries(
        conditions=(Condition.HOMOGENEOUS, Condition.HIGH_PERF), team_sizes=(1, 2)
    ):
        recovered = summary_from_dict(summary_to_dict(summary))
        assert recovered == summary


def test_summary_round_trip_preserves_nan():
    cfg = ScenarioConfig(participant_count=4, team_size=2, rounds=0, runs=1)
    summary = summarize_runs(cfg, execute_runs(cfg))
    recovered = summary_from_dict(summary_to_dict(summary))
    assert math.isnan(recovered.shape_stats.skewness)
    assert recovered.reward_stats == summary.reward_stats


def test_bundle_write_and_load(tmp_path):
    summaries = sweep_summaries(
        conditions=(Condition.HOMOGENEOUS, Condition.HIGH_PERF), team_sizes=(1, 2)
    )
    base = summaries[0].config_echo
    write_bundle(tmp_path, "sweep", summaries, base)
    bundle = load_bundle(tmp_path)
    assert bundle.kind == "sweep"
    assert bundle.summaries == summaries
    assert (tmp_path / "manifest.json").exists()
    assert sorted(p.name for p in (tmp_path / "summaries").iterdir()) == [
        "high_perf_n001.json",
        "high_perf_n002.json",
        "homogeneous_n001.json",
        "homogeneous_n002.json",
    ]


def test_load_bundle_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_bundle(tmp_path)
