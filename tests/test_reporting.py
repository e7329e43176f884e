from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import potsim
from potsim.cli import PAPER_DEFAULTS, parse_and_validate
from potsim.core import ConfigurationError, RunResult, ScenarioConfig, run_simulation
from potsim.csvrows import CSV_HEADER, format_g6
from potsim.experiments import (
    Condition,
    SweepSpec,
    execute_runs,
    execute_scenario,
    summarize_runs,
)
from potsim.reporting import (
    REFERENCE_TABLES,
    SHAPE_TOLERANCES,
    TABLE_IDS,
    emit_table,
    json_bytes,
    load_bundle,
    render_delta_report,
    summary_from_dict,
    summary_label,
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
    spec = SweepSpec(base_config=base, team_sizes=team_sizes, conditions=conditions)
    return [execute_scenario(config) for config in spec.configs]


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
    # Across blocks of CSV_BLOCK_ROWS rows: more runs than one block holds,
    # and runs longer than a block.
    "many_runs": dict(runs=600),
    "run_longer_than_block": dict(participant_count=5000, runs=2),
    "team_size_1_override_many_runs": dict(team_size=1, high_perf_override=(5, 2.5), runs=600),
    "zero_rounds_many_runs": dict(rounds=0, runs=600),
    "exponent_form_many_runs": dict(base_time=1e9, reward_per_round=1e-7, runs=600),
    # Rewards, wins and ranks are keyed by win count: wins above the population
    # reach past the participant ids' digits (alone, and 40 runs ranked in one
    # group), a share of 10/64 makes exact six-digit half-way rewards, one
    # winner leaves most win counts untaken, and wins in the tens of thousands
    # leave gaps of thousands between the win counts taken.
    "wins_above_population": dict(participant_count=4, team_size=1, rounds=3000),
    "wins_above_population_many_runs": dict(participant_count=4, team_size=1, rounds=3000, runs=40),
    "half_way_rewards": dict(participant_count=128, team_size=64, rounds=300),
    "one_winner": dict(team_size=1, high_perf_override=(5, 50.0)),
    "wins_far_above_population": dict(
        participant_count=4, team_size=1, rounds=20000, high_perf_override=(1, 2.0)
    ),
}


@pytest.mark.parametrize("overrides", CSV_ORACLE_CASES.values(), ids=CSV_ORACLE_CASES.keys())
def test_runs_csv_matches_row_oracle(overrides):
    runs = []
    if overrides is not None:
        fields = dict(participant_count=8, team_size=2, rounds=12, runs=3, master_seed=4)
        runs = execute_runs(ScenarioConfig(**{**fields, **overrides}))
    sink = io.BytesIO()
    assert write_runs_csv(runs, sink) == sum(len(run.cumulative_reward) for run in runs)
    assert sink.getvalue() == oracles.csv_rows_oracle(runs)


def test_runs_csv_rejects_runs_of_two_populations():
    # execute_runs gives runs of one population; the writer stacks only those.
    small, other = (
        execute_runs(ScenarioConfig(participant_count=n, team_size=2, rounds=5, runs=3, master_seed=n))
        for n in (8, 6)
    )
    with pytest.raises(ValueError, match="one population"):
        write_runs_csv(small + other, io.BytesIO())
    # Runs of one population but two scenarios: a reward is the share times
    # the wins, and team sizes 2 and 4 give two shares. 256 runs of 8 fill a
    # group of CSV_BLOCK_ROWS rows, so the second share meets the first's
    # rewards in a later group.
    pairs, fours = (
        execute_runs(ScenarioConfig(participant_count=8, team_size=size, rounds=5, runs=256, master_seed=8))
        for size in (2, 4)
    )
    # Shares that are not positive and finite: rewards that fall as the wins
    # grow, and rewards that are NaN.
    run = small[0]
    reversed_rewards = dataclasses.replace(run, reward_share=-run.reward_share)
    nan_rewards = dataclasses.replace(run, reward_share=math.nan)
    for runs in (pairs + fours, [reversed_rewards], [nan_rewards]):
        sink = io.BytesIO()
        with pytest.raises(ValueError, match="one scenario") as raised:
            write_runs_csv(runs, sink)
        assert "\n" not in str(raised.value)
        assert sink.getvalue() == b""


_reals = st.floats(-7, 9).map(lambda exponent: 10.0**exponent)


@st.composite
def _small_configs(draw):
    n = draw(st.integers(1, 64))
    override = draw(st.none() | st.tuples(st.integers(0, n - 1), st.floats(0.5, 60)))
    return ScenarioConfig(
        participant_count=n,
        team_size=draw(st.sampled_from([size for size in range(1, n + 1) if n % size == 0])),
        rounds=draw(st.integers(0, 300)),
        runs=draw(st.integers(1, 40)),
        master_seed=draw(st.integers(0, 2**32)),
        reward_per_round=draw(_reals),
        base_time=draw(_reals),
        high_perf_override=override,
    )


@settings(max_examples=150, deadline=None)
@given(_small_configs(), st.integers(1, 40))
def test_runs_csv_of_any_small_scenario_matches_row_oracle(config, split):
    runs = execute_runs(config)
    whole, chunked = io.BytesIO(), io.BytesIO()
    write_runs_csv(runs, whole)
    split = min(split, len(runs))
    write_runs_csv(runs[:split], chunked)
    write_runs_csv(runs[split:], chunked, first_run=split)
    assert whole.getvalue() == oracles.csv_rows_oracle(runs)
    assert chunked.getvalue() == whole.getvalue()


def test_runs_csv_memory_is_bounded_by_its_block():
    # The raw_export benchmark's 100 runs of 1600 rows: blocks of 2048 rows
    # peak at about 0.6 MiB, blocks of 4096 at 1.1 MiB (0.6 MB more peak RSS)
    # and blocks of 2**14 at 5.2 MiB.
    config = ScenarioConfig(**{**PAPER_DEFAULTS, "team_size": 8, "rounds": 16})
    runs = execute_runs(config)
    with open(os.devnull, "wb") as sink:
        tracemalloc.start()
        try:
            rows = write_runs_csv(runs, sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert rows == 100 * 1600
    assert peak <= 1.5 * 2**20


def test_runs_csv_memory_does_not_grow_with_wins():
    # One participant takes every one of 200,000 rounds. Tables and digits of
    # every win count 0..200,000 would peak at about 11 MiB; the writer's
    # tables hold only the two win counts taken.
    config = ScenarioConfig(
        participant_count=4, team_size=1, rounds=200_000, runs=1, master_seed=1,
        high_perf_override=(1, 50.0),
    )
    runs = execute_runs(config)
    assert runs[0].win_count.max() == 200_000
    sink = io.BytesIO()
    tracemalloc.start()
    try:
        write_runs_csv(runs, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.getvalue() == oracles.csv_rows_oracle(runs)
    assert peak <= 2**20


def test_runs_csv_memory_does_not_grow_with_the_wins_of_many_runs():
    # 100 runs of 1600 rows in one call, as a pooled run hands them to the
    # writer, each with the same 1600 win counts spread over 0..1,599,000.
    # The writer merges the distinct win counts a group at a time and peaks at
    # about 0.9 MiB; the win counts of every run at once, as Python ints,
    # would peak at about 6.4 MiB.
    rng = np.random.default_rng(1)
    wins = np.arange(0, 1_600_000, 1000)
    runs = []
    for _ in range(100):
        win_count = rng.permutation(wins)
        runs.append(
            RunResult(
                win_count=win_count,
                active_time=rng.uniform(1.0, 1e4, 1600),
                factors=rng.uniform(0.5, 2.0, 1600),
                reward_share=0.125,
            )
        )
    with open(os.devnull, "wb") as sink:
        tracemalloc.start()
        try:
            rows = write_runs_csv(runs, sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert rows == 100 * 1600
    assert peak <= 1.5 * 2**20
    first = io.BytesIO()
    write_runs_csv(runs[:1], first)
    assert first.getvalue() == oracles.csv_rows_oracle(runs[:1])


def test_importing_the_cli_leaves_the_csv_writer_unloaded():
    # Every command imports potsim.cli; only a CSV write pays for csvrows and its tables.
    code = "import sys, potsim.cli; print('potsim.csvrows' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(potsim.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "False\n"


def test_commands_never_import_numpy_ma(tmp_path):
    # np.percentile imports all of numpy.ma on its first call; the summaries'
    # percentiles do without it. Team size 160 leaves shape statistics NaN.
    code = "\n".join(
        [
            "import sys",
            "from potsim.cli import entrypoint",
            "for argv in (",
            "    ['sweep', '--ci-scale', '--high-perf-id', '100', '--team-sizes', '1,2,160'],",
            "    ['run', '--ci-scale', '--raw', '--out', 'run'],",
            "    ['report'],",
            "):",
            "    assert entrypoint(argv) == 0, argv",
            "print('numpy.ma' in sys.modules, file=sys.stderr)",
        ]
    )
    env = {k: v for k, v in os.environ.items() if k != "POTSIM_OUT"}
    env["PYTHONPATH"] = str(Path(potsim.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == "False\n"


def _float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Values whose scaled mantissa lies within 2e-7 of a half-integer.
_near_ties = st.builds(
    lambda digits, offset, exponent: (digits + 0.5 + offset) * 10.0**exponent,
    st.integers(10**5, 10**6 - 1),
    st.floats(-2e-7, 2e-7),
    st.integers(-300, 295),
)
_any_float = st.one_of(st.integers(0, 2**64 - 1).map(_float_of_bits), st.floats(), _near_ties)


@settings(max_examples=300, deadline=None)
@given(st.lists(_any_float, min_size=1, max_size=40))
@example([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 2.2250738585072014e-308])
@example([1e-290, 1e290, 9.999995, 99999.95, 999999.5, 1234565.0, 0.0001, 1e-5, -1.23456789e-308])
def test_format_g6_matches_percent_g(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = format_g6(np.array(values))
    assert text.shape == (len(values), 13)
    assert [row[row != 0].tobytes().decode("ascii") for row in text] == [
        "%.6g" % value for value in values
    ]


class _FailingSink:
    def write(self, data):
        raise OSError("disk full")


def test_runs_csv_write_failure_is_wrapped():
    _, run = small_run()
    with pytest.raises(OSError, match="participant CSV write failed: disk full"):
        write_runs_csv([run], _FailingSink())


# -- tables ------------------------------------------------------------------------


def test_summary_labels():
    labels = [summary_label(s) for s in sweep_summaries(team_sizes=(1, 32))]
    assert labels == ["PoW", "PoTS (32)"]


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


def test_table_rejects_two_summaries_of_one_label():
    # Two seeds of one team size give two rows labeled PoTS (2).
    configs = [
        ScenarioConfig(participant_count=8, team_size=2, rounds=5, runs=1, master_seed=seed)
        for seed in (1, 2)
    ]
    summaries = [summarize_runs(cfg, execute_runs(cfg)) for cfg in configs]
    message = "duplicate scenario labels in rewards table inputs: ['PoTS (2)', 'PoTS (2)']"
    with pytest.raises(ConfigurationError) as raised:
        emit_table(summaries, "rewards")
    assert str(raised.value) == message


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


def test_shape_table_leaves_undefined_statistics_unflagged():
    # Zero rounds leave every reward equal, so skewness and kurtosis are NaN.
    base = ScenarioConfig(participant_count=32, team_size=1, rounds=0, runs=2)
    summaries = [execute_scenario(base)]
    row = emit_table(summaries, "shape")["rows"][0]
    assert row["scenario"] == "PoW" and math.isnan(row["skewness"])
    assert "flagged" not in row


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


def test_delta_report_marks_undefined_rows_n_a():
    # Zero rounds leave the shape statistics undefined: the delta is NaN and
    # its relative column reads n/a, as for a zero reference.
    cfg = ScenarioConfig(participant_count=4, team_size=1, rounds=0, runs=1)
    summary = summarize_runs(cfg, execute_runs(cfg))
    text = render_delta_report([emit_table([summary], "shape")])
    rows = [line.split() for line in text.splitlines() if line.startswith("  PoW")]
    assert [row[1:3] + row[-2:] for row in rows] == [
        ["skewness", "nan", "+nan", "(n/a)"],
        ["excess_kurtosis", "nan", "+nan", "(n/a)"],
    ]


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


def mean_bits(summary) -> list[int]:
    return np.array(list(summary.means.values())).view(np.uint64).tolist()


def test_summary_dict_round_trip():
    for summary in sweep_summaries(
        conditions=(Condition.HOMOGENEOUS, Condition.HIGH_PERF), team_sizes=(1, 2)
    ):
        recovered = summary_from_dict(summary_to_dict(summary))
        assert recovered == summary
    # Through the written JSON, every derived mean keeps its bits: on the
    # ci_sweep golden command's scenarios, and with NaN rows after zero rounds.
    sweep = parse_and_validate(
        ["sweep", "--ci-scale", "--high-perf-id", "100", "--team-sizes", "1,2,4,5,8,10,16,20,32,40,80"]
    ).sweep
    summaries = [execute_scenario(config) for config in sweep.configs]
    zero_rounds = ScenarioConfig(participant_count=4, team_size=2, rounds=0, runs=3)
    summaries.append(summarize_runs(zero_rounds, execute_runs(zero_rounds)))
    assert len(summaries) == 23 and math.isnan(summaries[-1].correlation)
    for summary in summaries:
        recovered = summary_from_dict(json.loads(json_bytes(summary_to_dict(summary))))
        assert mean_bits(recovered) == mean_bits(summary)


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
    assert load_bundle(tmp_path) == summaries
    assert json.loads((tmp_path / "manifest.json").read_text())["kind"] == "sweep"
    assert (tmp_path / "manifest.json").exists()
    assert sorted(p.name for p in (tmp_path / "summaries").iterdir()) == [
        "high_perf_n001.json",
        "high_perf_n002.json",
        "homogeneous_n001.json",
        "homogeneous_n002.json",
    ]


def test_bundle_of_two_summaries_with_one_file_name_writes_nothing(tmp_path):
    # Populations of 8 and 16 at team size 2 both name homogeneous_n002.json.
    summaries = [
        execute_scenario(ScenarioConfig(participant_count=n, team_size=2, rounds=3, runs=1))
        for n in (8, 16)
    ]
    with pytest.raises(ValueError, match="distinct files"):
        write_bundle(tmp_path / "out", "sweep", summaries, summaries[0].config_echo)
    assert not (tmp_path / "out").exists()


def test_load_bundle_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_bundle(tmp_path)
