from __future__ import annotations

import dataclasses
import io
import json
import math

import numpy as np
import pytest

import oracles
from potsim.core import ScenarioConfig, run_simulation
from potsim.experiments import (
    Condition,
    SweepSpec,
    execute_runs,
    summarize_runs,
    sweep_team_sizes,
)
from potsim.reporting import (
    CSV_HEADER,
    REFERENCE_TABLES,
    SHAPE_TOLERANCES,
    TABLE_IDS,
    emit_table,
    load_bundle,
    render_delta_report,
    scenario_label,
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
    rows = oracles.read_participant_csv(io.BytesIO(sink.getvalue()))
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
    rows = oracles.read_participant_csv(io.BytesIO(sink.getvalue()))
    for pid, row in enumerate(rows):
        assert row["run_id"] == 0
        assert row["participant_id"] == pid
        assert row["wins"] == int(run.win_count[pid])
        assert row["reward"] == float(f"{run.cumulative_reward[pid]:.6g}")
        assert row["performance_factor"] == float(f"{run.factors[pid]:.6g}")
        assert row["rank"] == oracles.competition_rank(run.cumulative_reward.tolist(), pid)


def test_runs_csv_concatenates_with_run_ids():
    cfg = ScenarioConfig(participant_count=4, team_size=2, rounds=6, runs=3, master_seed=2)
    runs = execute_runs(cfg)
    sink = io.BytesIO()
    assert write_runs_csv(runs, sink) == 12
    rows = oracles.read_participant_csv(io.BytesIO(sink.getvalue()))
    assert [row["run_id"] for row in rows] == [0] * 4 + [1] * 4 + [2] * 4


CSV_ORACLE_CASES = {
    "zero_runs": None,
    "zero_rounds": dict(rounds=0),
    "team_size_1": dict(team_size=1),
    "shared_profile": dict(redraw_profile_per_run=False),
    "override_factor": dict(high_perf_override=(5, 2.5)),
    "exponent_form": dict(base_time=1e9, reward_per_round=1e-7),
}


@pytest.mark.parametrize("overrides", CSV_ORACLE_CASES.values(), ids=CSV_ORACLE_CASES.keys())
def test_runs_csv_matches_row_oracle(overrides):
    runs = []
    if overrides is not None:
        fields = dict(participant_count=8, team_size=2, rounds=12, runs=3, master_seed=4)
        runs = execute_runs(ScenarioConfig(**{**fields, **overrides}))
    sink = io.BytesIO()
    assert write_runs_csv(runs, sink) == 8 * len(runs)
    assert sink.getvalue() == oracles.csv_rows_oracle(runs)


class _FailingSink:
    def write(self, data):
        raise OSError("disk full")


def test_runs_csv_write_failure_is_wrapped():
    _, run = small_run()
    with pytest.raises(OSError, match="participant CSV write failed: disk full"):
        write_runs_csv([run], _FailingSink())


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


@pytest.mark.parametrize("which", TABLE_IDS)
def test_table_without_summaries_is_value_error(which):
    with pytest.raises(ValueError, match="requires at least one"):
        emit_table([], which)


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


def test_pow_shape_bands_center_on_the_reference():
    for metric, (center, _) in SHAPE_TOLERANCES["PoW"].items():
        assert center == REFERENCE_TABLES["shape"]["PoW"][metric]


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
    assert ScenarioConfig(**json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg


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
