from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import potsim
from potsim import cli, experiments
from potsim.cli import (
    PAPER_DEFAULTS,
    CliInvocation,
    entrypoint,
    main,
    parse_and_validate,
)
from potsim.core import ConfigurationError
from potsim.experiments import execute_runs, run_chunks, summarize_runs
from potsim.metrics import RANKING_BUCKETS
from potsim.reporting import load_bundle, write_bundle, write_runs_csv


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


# -- parse_and_validate -------------------------------------------------------


def test_paper_defaults_with_team_size_override():
    invocation = parse_and_validate(["run", "--paper-defaults", "--team-size", "8"])
    cfg = invocation.config
    assert cfg.participant_count == 1600
    assert cfg.team_size == 8
    assert cfg.rounds == 1600
    assert cfg.runs == 100
    assert cfg.base_time == 600.0
    assert cfg.reward_per_round == 10.0
    assert cfg.perf_range == (0.8, 1.5)
    assert cfg.multiplier_range == (0.8, 1.2)
    assert cfg.high_perf_override == (1000, 2.5)


def test_indivisible_population_is_usage_error():
    with pytest.raises(ConfigurationError, match="not divisible"):
        parse_and_validate(["run", "--participants", "10", "--team-size", "3"])


def test_sweep_spec_parses_team_sizes():
    invocation = parse_and_validate(
        ["sweep", "--paper-defaults", "--team-sizes", "1,2,4,8,16,32,64"]
    )
    assert invocation.sweep.team_sizes == (1, 2, 4, 8, 16, 32, 64)
    # Override present, so both conditions by default: 14 scenarios.
    assert len(invocation.sweep.conditions) == 2


def test_sweep_conditions_flag():
    invocation = parse_and_validate(
        ["sweep", "--ci-scale", "--homogeneous", "--team-sizes", "1,2", "--conditions", "homogeneous"]
    )
    assert [c.value for c in invocation.sweep.conditions] == ["homogeneous"]


def test_high_perf_condition_without_override_is_usage_error():
    with pytest.raises(ConfigurationError, match="override"):
        parse_and_validate(
            ["sweep", "--ci-scale", "--homogeneous", "--conditions", "high_perf", "--team-sizes", "1"]
        )


def test_unknown_flag_is_usage_error():
    with pytest.raises(ConfigurationError):
        parse_and_validate(["run", "--bogus"])


def test_config_file_and_flag_precedence(tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(
        json.dumps(
            {
                "participant_count": 40,
                "team_size": 4,
                "rounds": 9,
                "runs": 2,
                "master_seed": 77,
            }
        )
    )
    invocation = parse_and_validate(
        ["run", "--config", str(config_file), "--team-size", "8"]
    )
    assert invocation.config.participant_count == 40
    assert invocation.config.team_size == 8
    assert invocation.config.master_seed == 77


def test_config_file_unknown_key(tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"participants": 40}))
    with pytest.raises(ConfigurationError, match="unknown keys"):
        parse_and_validate(["run", "--config", str(config_file)])


def test_unreadable_config_is_usage_error(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read"):
        parse_and_validate(["run", "--config", str(tmp_path / "missing.json")])


def test_non_utf8_config_exits_1_with_one_line(tmp_path, capsys):
    config_file = tmp_path / "config.json"
    config_file.write_bytes(b"\xff\xfe{}")
    assert entrypoint(["run", "--config", str(config_file), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "is not valid JSON" in err


def test_json_array_config_exits_1_with_one_line(tmp_path, capsys):
    config_file = tmp_path / "config.json"
    config_file.write_text("[1, 2]")
    assert entrypoint(["run", "--config", str(config_file), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "must hold a JSON object" in err


def test_ci_scale_preset():
    invocation = parse_and_validate(["run", "--ci-scale"])
    assert invocation.config.participant_count == 160
    assert invocation.config.rounds == 160
    assert invocation.config.runs == 20
    assert invocation.config.high_perf_override is None


def test_homogeneous_strips_override():
    invocation = parse_and_validate(["run", "--paper-defaults", "--homogeneous"])
    assert invocation.config.high_perf_override is None


def test_high_perf_flags_fill_defaults():
    invocation = parse_and_validate(["run", "--ci-scale", "--high-perf-id", "100"])
    assert invocation.config.high_perf_override == (100, 2.5)
    invocation = parse_and_validate(["run", "--high-perf-factor", "3.0"])
    assert invocation.config.high_perf_override == (1000, 3.0)


@pytest.mark.parametrize(
    "flags, override",
    [(["--high-perf-factor", "3"], [5, 3.0]), (["--high-perf-id", "7"], [7, 2.0])],
    ids=["factor", "id"],
)
def test_high_perf_flag_keeps_other_half_of_config_override(tmp_path, flags, override):
    config_file = tmp_path / "config.json"
    config_file.write_text(
        json.dumps({"participant_count": 160, "rounds": 4, "runs": 2, "high_perf_override": [5, 2.0]})
    )
    out = tmp_path / "out"
    assert entrypoint(["run", "--config", str(config_file), *flags, "--out", str(out)]) == 0
    summary = json.loads((out / "summaries" / "high_perf_n001.json").read_text())
    assert summary["config"]["high_perf_override"] == override


def test_shared_profile_and_mult_range_reach_the_config():
    config = parse_and_validate(
        ["run", "--ci-scale", "--shared-profile", "--mult-range", "0.9,1.1"]
    ).config
    assert config.redraw_profile_per_run is False
    assert config.multiplier_range == (0.9, 1.1)


def test_unknown_condition_error_names_the_valid_ones():
    with pytest.raises(ConfigurationError, match="homogeneous.*high_perf"):
        parse_and_validate(["sweep", "--ci-scale", "--conditions", "bogus"])


def test_default_override_id_must_fit_population():
    with pytest.raises(ConfigurationError, match="high_perf_override"):
        parse_and_validate(["run", "--ci-scale", "--high-perf-factor", "3.0"])


def test_out_dir_env_default(monkeypatch, tmp_path):
    monkeypatch.setenv("POTSIM_OUT", str(tmp_path / "from_env"))
    invocation = parse_and_validate(["run", "--ci-scale"])
    assert invocation.out_dir == tmp_path / "from_env"


def test_empty_out_dir_env_counts_as_unset(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("POTSIM_OUT", "")
    argv = ["run", "--participants", "4", "--team-size", "2", "--rounds", "3", "--runs", "1"]
    assert entrypoint(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "wrote potsim_out"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["potsim_out"]
    assert (tmp_path / "potsim_out" / "manifest.json").is_file()
    assert parse_and_validate(["report"]).from_dir == Path("potsim_out")


@pytest.mark.parametrize(
    "epoch", ["abc", "1.5", "100000000000000000000", "-100000000000000000", "67768036191676799"]
)
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_bad_source_date_epoch_exits_1_before_any_run(monkeypatch, tmp_path, capsys, epoch, command):
    def no_run(*args, **kwargs):
        raise AssertionError("ran before SOURCE_DATE_EPOCH was checked")

    monkeypatch.setattr(experiments, "execute_runs", no_run)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    out = tmp_path / "out"
    assert entrypoint([command, "--ci-scale", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "SOURCE_DATE_EPOCH" in err[0]
    assert not out.exists()


def test_empty_source_date_epoch_counts_as_unset(monkeypatch, tmp_path):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "")
    argv = ["run", "--participants", "4", "--team-size", "2", "--rounds", "3", "--runs", "1"]
    assert entrypoint(argv + ["--out", str(tmp_path)]) == 0
    stamp = json.loads((tmp_path / "manifest.json").read_text())["created_utc"]
    # The time of the write, not a fixed epoch.
    assert time.strptime(stamp, "%Y-%m-%dT%H:%M:%SZ").tm_year >= 2024


# -- main / entrypoint ---------------------------------------------------------


def run_args(tmp_path, *extra):
    return [
        "run",
        "--participants", "16",
        "--team-size", "4",
        "--rounds", "10",
        "--runs", "3",
        "--seed", "5",
        "--out", str(tmp_path),
        *extra,
    ]


# Runs of 1600 participants, summarized and written 10 runs at a time.
STREAMED = ["run", "--participants", "1600", "--team-size", "8", "--rounds", "2"]


def test_run_zero_rounds_succeeds(tmp_path, capsys):
    status = entrypoint(run_args(tmp_path, "--rounds", "0", "--raw"))
    assert status == 0
    summary = json.loads((tmp_path / "summaries" / "homogeneous_n004.json").read_text())
    assert summary["reward_stats"]["mean"] == 0
    csv_lines = (tmp_path / "runs.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 16 * 3


def test_run_writes_summary_with_config_echo(tmp_path):
    assert entrypoint(run_args(tmp_path)) == 0
    summary = json.loads((tmp_path / "summaries" / "homogeneous_n004.json").read_text())
    assert summary["config"]["participant_count"] == 16
    assert summary["config"]["master_seed"] == 5
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["kind"] == "run"
    assert manifest["base_config"]["team_size"] == 4


def test_report_after_sweep_emits_energy_table(tmp_path, capsys):
    sweep_dir = tmp_path / "sweep"
    status = entrypoint(
        [
            "sweep",
            "--participants", "16",
            "--team-size", "1",
            "--rounds", "10",
            "--runs", "3",
            "--team-sizes", "1,2,4",
            "--out", str(sweep_dir),
        ]
    )
    assert status == 0
    status = entrypoint(
        ["report", "--from", str(sweep_dir), "--table", "energy", "--out", str(sweep_dir)]
    )
    assert status == 0
    doc = json.loads((sweep_dir / "tables" / "energy.json").read_text())
    assert doc["table"] == "energy"
    assert [row["scenario"] for row in doc["rows"]] == ["PoW", "PoTS (2)", "PoTS (4)"]
    assert (sweep_dir / "delta_report.txt").exists()


def test_report_all_skips_ranking_without_high_perf(tmp_path):
    sweep_dir = tmp_path / "sweep"
    entrypoint(
        [
            "sweep",
            "--participants", "16",
            "--rounds", "10",
            "--runs", "2",
            "--team-sizes", "1,2",
            "--out", str(sweep_dir),
        ]
    )
    assert entrypoint(["report", "--from", str(sweep_dir)]) == 0
    names = sorted(p.name for p in (sweep_dir / "tables").iterdir())
    assert names == ["correlation.json", "energy.json", "rewards.json", "shape.json"]


def test_report_explicit_ranking_without_high_perf_is_usage_error(tmp_path, capsys):
    sweep_dir = tmp_path / "sweep"
    entrypoint(
        [
            "sweep",
            "--participants", "16",
            "--rounds", "10",
            "--runs", "2",
            "--team-sizes", "1",
            "--out", str(sweep_dir),
        ]
    )
    status = entrypoint(["report", "--from", str(sweep_dir), "--table", "ranking"])
    assert status == 1


def test_usage_error_exit_status(tmp_path, capsys):
    assert entrypoint(["run", "--participants", "10", "--team-size", "3"]) == 1
    assert "not divisible" in capsys.readouterr().err


def test_runtime_error_exit_status(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    assert entrypoint(["report", "--from", str(missing)]) == 2


@pytest.mark.parametrize("detail", ["Unable to allocate 74.5 GiB", ""])
def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch, detail):
    def exhausted(config, workers=1, indices=None):
        raise MemoryError(*([detail] if detail else []))

    monkeypatch.setattr("potsim.experiments.execute_runs", exhausted)
    assert entrypoint(run_args(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: out of memory{': ' + detail if detail else ''}"]


def test_out_of_memory_in_a_later_chunk_replaces_no_file(tmp_path, capsys, monkeypatch):
    # run writes runs.csv a chunk of runs at a time; a failure after the
    # first chunk leaves the bundle already in --out as it was.
    argv = [*STREAMED, "--runs", "25", "--out", str(tmp_path)]
    assert entrypoint(argv) == 0
    before = read_tree(tmp_path)
    chunks = []

    def exhausted_later(config, workers=1, indices=None):
        chunks.append(indices)
        if len(chunks) == 2:
            raise MemoryError
        return execute_runs(config, workers, indices)

    monkeypatch.setattr(experiments, "execute_runs", exhausted_later)
    capsys.readouterr()
    assert entrypoint([*argv, "--raw", "--seed", "6"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: out of memory"]
    assert chunks == [range(0, 10), range(10, 20)]
    assert not (tmp_path / "runs.csv").exists() and not list(tmp_path.rglob(".*.tmp"))
    assert read_tree(tmp_path) == before


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_out_naming_a_file_exits_2_before_any_run(tmp_path, capsys, monkeypatch, command):
    calls = []

    def counted(config, workers=1, indices=None):
        calls.append(config)
        return execute_runs(config, workers, indices)

    monkeypatch.setattr(experiments, "execute_runs", counted)
    target = tmp_path / "taken"
    target.write_text("a file, not a directory\n")
    sizes = ["--team-sizes", "1,2,4"] if command == "sweep" else []
    assert entrypoint([command, "--ci-scale", *sizes, "--out", str(target)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "taken" in err[0]
    assert calls == []
    assert target.read_text() == "a file, not a directory\n"


def _drop(key):
    def edit(data):
        del data[key]
        return data

    return edit


def _mean(value):
    # null is not here: it is how an undefined statistic (NaN) is written.
    def edit(summary):
        summary["reward_stats"]["mean"] = value
        return summary

    return edit


def _empty_summaries(manifest):
    manifest["summaries"] = []
    return manifest


def _number_name(manifest):
    manifest["summaries"] = [5]
    return manifest


def _set(key, value):
    def edit(data):
        data[key] = value
        return data

    return edit


def _drop_config_field(key, field):
    def edit(data):
        del data[key][field]
        return data

    return edit


def _rank_count(key, value):
    def edit(summary):
        summary["ranking"][key] = value
        return summary

    return edit


def _config_field(field, value):
    def edit(summary):
        summary["config"][field] = value
        return summary

    return edit


def _with(change):
    def edit(data):
        change(data)
        return data

    return edit


def _per_run_entry(name, index, value):
    def edit(summary):
        summary["per_run"][name][index] = value
        return summary

    return edit


def _undefined_skewness(summary):
    """Run 0's skewness and so the mean as bare NaN, which json.dumps writes by default."""
    summary["per_run"]["skewness"][0] = math.nan
    summary["shape_stats"]["skewness"] = math.nan
    return summary


def _list_copy(tmp_path, name):
    """List a copy of the run's summary as ``name`` in the manifest; returns the copy's path."""
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["summaries"].append(name)
    manifest_path.write_text(json.dumps(manifest))
    copy = tmp_path / "summaries" / name
    copy.write_bytes((tmp_path / "summaries" / "homogeneous_n004.json").read_bytes())
    return copy


# The ranking that the high_perf bundle's per-run ranks give: first in each of its 3 runs.
FIRST_EVERY_RUN = {bucket: 3 * (bucket == "1") for bucket in RANKING_BUCKETS}


def _not_derived(ranking, derived=FIRST_EVERY_RUN):
    return f"key 'ranking' is {ranking!r}, not the {derived!r} that its config and per_run give"


BAD_BUNDLES = [
    ("summary", _drop("correlation"), "missing key 'correlation'"),
    ("manifest", _drop("summaries"), "missing key 'summaries'"),
    ("manifest", _number_name, "key 'summaries' must be a list of file names"),
    ("summary", lambda summary: [summary], "expected a JSON object, got list"),
    ("summary", _mean("10.0"), "key 'reward_stats' is {'mean': '10.0', "),
    ("summary", _mean(True), "key 'reward_stats' is {'mean': True, "),
    ("ranking", _rank_count("1", 2.7), _not_derived({**FIRST_EVERY_RUN, "1": 2.7})),
    ("ranking", _rank_count("2", "1"), _not_derived({**FIRST_EVERY_RUN, "2": "1"})),
    ("ranking", _rank_count("3", True), _not_derived({**FIRST_EVERY_RUN, "3": True})),
    ("ranking", _config_field("high_perf_override", [3.9, 2.5]),
     "high_perf_override id must be an integer, got 3.9"),
    ("ranking", _config_field("high_perf_override", ["3", 2.5]),
     "high_perf_override id must be an integer, got '3'"),
    ("manifest", _empty_summaries, "key 'summaries' lists no summary files"),
    ("summary", _drop_config_field("config", "perf_range"), "missing key 'config.perf_range'"),
    ("manifest", _drop_config_field("base_config", "master_seed"),
     "missing key 'base_config.master_seed'"),
    ("manifest", _drop("kind"), "missing key 'kind'"),
    ("manifest", _set("summaries", ["../summaries/homogeneous_n004.json"]),
     "key 'summaries' must list plain, unique file names"),
    ("manifest", _set("summaries", ["/outside.json"]),
     "key 'summaries' must list plain, unique file names"),
    ("manifest", _set("summaries", ["homogeneous_n004.json"] * 2),
     "key 'summaries' must list plain, unique file names"),
    ("summary", _set("reward_stats", []), "key 'reward_stats' is [], not the {'mean': "),
    ("summary", _set("config", []), "key 'config' must be an object, got []"),
    ("summary", _set("ranking", []), _not_derived([], None)),
    # The label and condition must be the ones the config gives.
    ("summary", _config_field("team_size", 8), "key 'label' is 'PoTS (4)', not the 'PoTS (8)'"),
    ("summary", _config_field("high_perf_override", [3, 2.5]),
     "missing key 'per_run.override_rank'"),
    # A summary must sit under the file name its config gives.
    ("summary", _with(lambda s: s.update(label="PoTS (8)", config={**s["config"], "team_size": 8})),
     "its config names the file 'homogeneous_n008.json', not 'homogeneous_n004.json'"),
    ("copy", lambda summary: summary,
     "its config names the file 'homogeneous_n004.json', not 'homogeneous_n008.json'"),
    # Every aggregate is checked against the per-run table, which a summary
    # written before the table was kept does not have.
    ("summary", _drop("per_run"), "missing key 'per_run'"),
    ("summary", _with(lambda s: s["per_run"]["mean"].pop()),
     "key 'per_run.mean' must list 3 numbers or nulls, got ["),
    ("summary", _with(lambda s: s["per_run"]["max"].append(0.0)),
     "key 'per_run.max' must list 3 numbers or nulls, got ["),
    ("summary", _per_run_entry("p25", 0, "1.0"),
     "key 'per_run.p25' must list 3 numbers or nulls, got ['1.0', "),
    ("summary", _per_run_entry("p75", 1, True),
     "key 'per_run.p75' must list 3 numbers or nulls, got ["),
    ("summary", _drop_config_field("per_run", "skewness"), "missing key 'per_run.skewness'"),
    ("summary", _per_run_entry("median", 2, 10**400), "int too large to convert to float"),
    ("summary", _with(lambda s: s["reward_stats"].update(mean=s["reward_stats"]["mean"] * 2)),
     "key 'reward_stats' is {'mean': "),
    ("summary", _set("condition", "high_perf"),
     "key 'condition' is 'high_perf', not the 'homogeneous'"),
    ("summary", _set("label", "PoTS (8)"), "key 'label' is 'PoTS (8)', not the 'PoTS (4)'"),
    # The ranking is derived from the override's per-run ranks, whole numbers from 1 up.
    ("ranking", _with(lambda s: s["ranking"].update({"1": s["ranking"]["1"] + 996})),
     _not_derived({**FIRST_EVERY_RUN, "1": 999})),
    ("summary", _set("ranking", FIRST_EVERY_RUN), _not_derived(FIRST_EVERY_RUN, None)),
    ("ranking", _set("ranking", None), _not_derived(None)),
    ("ranking", _drop_config_field("per_run", "override_rank"),
     "missing key 'per_run.override_rank'"),
    ("ranking", _per_run_entry("override_rank", 0, 1.5),
     "a rank must be an integer of at least 1, got 1.5"),
    ("ranking", _per_run_entry("override_rank", 1, 0),
     "a rank must be an integer of at least 1, got 0.0"),
    ("ranking", _per_run_entry("override_rank", 2, None),
     "a rank must be an integer of at least 1, got nan"),
    # Undefined values are written as null; NaN and Infinity are not JSON.
    ("summary", _undefined_skewness, "non-standard JSON value NaN"),
    ("manifest", _set("created_utc", math.inf), "non-standard JSON value Infinity"),
]


@pytest.mark.parametrize(
    "target, edit, message",
    BAD_BUNDLES,
    ids=["missing_summary_key", "missing_manifest_summaries", "non_string_name", "non_object_json",
         "non_number_value", "bool_value", "fractional_rank_count", "string_rank_count",
         "bool_rank_count", "fractional_override_id", "string_override_id", "empty_summaries",
         "missing_config_field", "missing_base_config_field", "missing_manifest_kind",
         "parent_dir_name", "absolute_name", "repeated_name", "list_reward_stats", "list_config",
         "list_ranking", "other_team_size", "override_in_homogeneous", "relabelled_team_size",
         "copy_under_second_name", "no_per_run", "short_per_run_list", "unequal_per_run_lists",
         "string_per_run_entry", "bool_per_run_entry", "missing_statistic", "huge_int_entry",
         "edited_reward_mean", "other_condition", "other_label", "ranking_counts_not_runs",
         "ranking_without_override", "null_ranking_with_override", "missing_override_rank",
         "fractional_rank", "zero_rank", "null_rank", "bare_nan_statistic",
         "bare_infinity_in_manifest"],
)
def test_malformed_bundle_exits_2_with_one_line(tmp_path, capsys, target, edit, message):
    if target == "ranking":
        assert entrypoint(run_args(tmp_path, "--high-perf-id", "3")) == 0
        path = tmp_path / "summaries" / "high_perf_n004.json"
    else:
        assert entrypoint(run_args(tmp_path)) == 0
        path = tmp_path / ("manifest.json" if target == "manifest" else "summaries/homogeneous_n004.json")
    if target == "copy":
        path = _list_copy(tmp_path, "homogeneous_n008.json")
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()
    assert entrypoint(["report", "--from", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {path}: ") and message in err


@pytest.mark.parametrize(
    "target, status",
    [("config.json", 1), ("manifest.json", 2), ("summaries/homogeneous_n004.json", 2)],
    ids=["config", "manifest", "summary"],
)
def test_deeply_nested_json_exits_with_one_line(tmp_path, capsys, target, status):
    # Raw text, since json.dumps cannot nest this deep.
    assert entrypoint(run_args(tmp_path)) == 0
    path = tmp_path / target
    if target.startswith("summaries/"):
        # It parses, but the null-for-NaN pass over it recurses past the limit.
        path.write_text('{"deep": ' + "[" * 600 + "]" * 600 + ", " + path.read_text()[1:])
    else:
        path.write_text("[" * 200_000)
    if target == "config.json":
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    else:
        argv = ["report", "--from", str(tmp_path)]
    capsys.readouterr()
    assert entrypoint(argv) == status
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("error: ") and str(path) in err


def _block(tmp_path, name):
    """Put a directory where the file ``name`` was, so writing it fails."""
    (tmp_path / name).unlink()
    (tmp_path / name).mkdir()


def test_failed_runs_csv_write_exits_2_and_leaves_no_temp_file(tmp_path, capsys):
    assert entrypoint(run_args(tmp_path, "--raw")) == 0
    _block(tmp_path, "runs.csv")
    capsys.readouterr()
    assert entrypoint(run_args(tmp_path, "--raw", "--seed", "6")) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "runs.csv" in err
    assert sorted(read_tree(tmp_path)) == ["manifest.json", "summaries/homogeneous_n004.json"]
    assert (tmp_path / "runs.csv").is_dir()


def test_failed_report_write_exits_2_and_leaves_no_temp_file(tmp_path, capsys):
    assert entrypoint(run_args(tmp_path)) == 0
    (tmp_path / "delta_report.txt").mkdir()
    capsys.readouterr()
    assert entrypoint(["report", "--from", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not list(tmp_path.rglob(".*.tmp"))
    assert (tmp_path / "delta_report.txt").is_dir()


def test_blocked_delta_report_replaces_no_table(tmp_path, capsys):
    assert entrypoint(run_args(tmp_path)) == 0
    assert entrypoint(["report", "--from", str(tmp_path)]) == 0
    tables = read_tree(tmp_path / "tables")
    assert entrypoint(run_args(tmp_path, "--seed", "6")) == 0
    _block(tmp_path, "delta_report.txt")
    capsys.readouterr()
    assert entrypoint(["report", "--from", str(tmp_path)]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert read_tree(tmp_path / "tables") == tables
    assert not list(tmp_path.rglob(".*.tmp"))


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_failed_bundle_write_replaces_no_file(tmp_path, capsys, command):
    argv = run_args(tmp_path, "--raw")
    if command == "sweep":
        argv = ["sweep", "--ci-scale", "--team-sizes", "1,2,4", "--runs", "2", "--out", str(tmp_path)]
    assert entrypoint(argv) == 0
    before = read_tree(tmp_path)
    # The bundle moves its last summary into place first, so this fails
    # after every temp file is written and before any file is replaced.
    blocked = "summaries/homogeneous_n004.json"
    _block(tmp_path, blocked)
    capsys.readouterr()
    assert entrypoint(argv + ["--seed", "6"]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    del before[blocked]
    assert read_tree(tmp_path) == before


def test_threads_do_not_change_output_files(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    single = tmp_path / "threads1"
    pooled = tmp_path / "threads8"
    base = [
        "sweep",
        "--ci-scale",
        "--high-perf-id", "100",
        "--team-sizes", "1,2,4",
        "--runs", "6",
        "--rounds", "40",
    ]
    assert entrypoint(base + ["--threads", "1", "--out", str(single)]) == 0
    assert entrypoint(base + ["--threads", "8", "--out", str(pooled)]) == 0
    assert read_tree(single) == read_tree(pooled)


@pytest.mark.parametrize(
    "runs, flags",
    [
        (1, []),
        (9, []),
        (10, []),
        (11, []),
        (21, []),
        (11, ["--homogeneous"]),
        (11, ["--shared-profile"]),
        (21, ["--threads", "2"]),
    ],
)
def test_streamed_run_equals_the_whole_list_output(tmp_path, monkeypatch, runs, flags):
    # run executes, summarizes and writes 10 runs of 1600 at a time; its files
    # equal the row oracle and the summary of every run at once.
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    argv = [*STREAMED, "--runs", str(runs), "--raw", *flags]
    assert entrypoint([*argv, "--out", str(tmp_path / "streamed")]) == 0
    config = parse_and_validate(argv).config
    assert run_chunks(config) == [range(i, min(i + 10, runs)) for i in range(0, runs, 10)]
    whole = execute_runs(config)
    expected = tmp_path / "whole"
    expected.mkdir()
    write_bundle(expected, "run", [summarize_runs(config, whole)], config, runs_csv="runs.csv")
    (expected / "runs.csv").write_bytes(oracles.csv_rows_oracle(whole))
    assert read_tree(tmp_path / "streamed") == read_tree(expected)


def _peak_memory(argv):
    """The tracemalloc peak of one command, which must succeed."""
    tracemalloc.start()
    try:
        assert entrypoint(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_is_flat_in_the_number_of_runs(tmp_path, capsys):
    # One chunk of runs is held at a time, about 38 KB a run at n = 1600;
    # holding every run would add about 7 MiB at 200 runs.
    def peak(runs):
        return _peak_memory([*STREAMED, "--runs", str(runs), "--raw", "--out", str(tmp_path)])

    peak(1)  # imports the CSV writer and builds its tables
    assert peak(200) - peak(20) <= 0.5 * 2**20


# A sweep of two scenarios of 1600 participants, each streamed 10 runs at a time.
SWEPT = ["sweep", "--participants", "1600", "--team-sizes", "1,8", "--rounds", "2"]


def test_sweep_memory_is_flat_in_the_number_of_runs(tmp_path, capsys):
    # Each scenario holds one chunk of runs at a time, as run does.
    def peak(runs):
        return _peak_memory([*SWEPT, "--runs", str(runs), "--out", str(tmp_path)])

    peak(1)
    assert peak(200) - peak(20) <= 0.5 * 2**20


@pytest.mark.parametrize(
    "runs, flags",
    [(1, []), (10, []), (11, []), (21, []), (21, ["--threads", "2"])],
)
def test_streamed_sweep_equals_the_whole_list_output(tmp_path, monkeypatch, runs, flags):
    # Both conditions, so the high_perf scenarios' rankings are streamed too.
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    argv = [*SWEPT, "--high-perf-id", "1000", "--runs", str(runs), *flags]
    assert entrypoint([*argv, "--out", str(tmp_path / "streamed")]) == 0
    spec = parse_and_validate(argv).sweep
    assert len(spec.configs) == 4
    assert run_chunks(spec.configs[0]) == [range(i, min(i + 10, runs)) for i in range(0, runs, 10)]
    expected = tmp_path / "whole"
    expected.mkdir()
    whole = [summarize_runs(c, execute_runs(c)) for c in spec.configs]
    write_bundle(expected, "sweep", whole, spec.base_config)
    assert read_tree(tmp_path / "streamed") == read_tree(expected)


@pytest.mark.parametrize(
    "flags, chunks",
    [([], [range(0, 10), range(10, 20), range(20, 21)]), (["--threads", "2"], [range(0, 21)])],
)
def test_run_executes_and_writes_through_cli_a_chunk_at_a_time(
    tmp_path, monkeypatch, serial_pool, flags, chunks
):
    # The benchmark's tracer wraps experiments.execute_runs, where it collects
    # the workers' spans, and cli.write_runs_csv. So run executes each
    # run_chunks range through experiments' global and writes it through cli's.
    executed, written = [], []

    def execute(config, workers=1, indices=None):
        executed.append(indices)
        return execute_runs(config, workers, indices)

    def write(runs, sink, first_run=0):
        written.append(first_run)
        return write_runs_csv(runs, sink, first_run)

    monkeypatch.setattr(experiments, "execute_runs", execute)
    monkeypatch.setattr(cli, "write_runs_csv", write)
    argv = ["run", "--participants", "1600", "--rounds", "2", "--runs", "21", "--raw", *flags]
    assert entrypoint([*argv, "--out", str(tmp_path)]) == 0
    assert executed == chunks
    assert written == [indices.start for indices in chunks]


def test_pooled_run_starts_one_pool(tmp_path, monkeypatch, serial_pool):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    argv = [*STREAMED, "--runs", "100", "--threads", "2", "--out", str(tmp_path)]
    assert entrypoint(argv) == 0
    assert serial_pool == [(2, 12)]


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``python -c code args`` in a fresh interpreter that imports this potsim."""
    env = dict(os.environ, PYTHONPATH=str(Path(potsim.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=False
    )


@pytest.mark.parametrize(
    "call, command",
    [
        ("parse_and_validate", ["run", "--ci-scale"]),
        ("parse_and_validate", ["sweep", "--ci-scale", "--team-sizes", "1,2,4"]),
        ("entrypoint", ["run", "--ci-scale", "--runs", "2"]),
    ],
    ids=["parse_run", "parse_sweep", "whole_run"],
)
def test_serial_command_start_up_loads_no_pool_or_metadata(tmp_path, call, command):
    # Only --threads > 1 pays for the process pool. Nothing reads the package
    # metadata, not even a whole run's manifest write.
    code = (
        f"import sys; from potsim.cli import {call}; {call}(sys.argv[1:]); "
        "print(sorted({'concurrent.futures', 'multiprocessing', 'importlib.metadata', 'email'}"
        " & set(sys.modules)))"
    )
    done = run_python(code, *command, "--threads", "1", "--out", str(tmp_path))
    assert (done.returncode, done.stderr, done.stdout.splitlines()[-1]) == (0, "", "[]")
    if call == "entrypoint":
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["version"] == potsim.__version__


def test_version_prints_one_line_and_exits_0():
    done = run_python("from potsim.cli import entrypoint; entrypoint(['--version'])")
    assert (done.returncode, done.stderr, done.stdout) == (0, "", f"potsim {potsim.__version__}\n")


def _strict_json(path: Path):
    def reject(token):
        raise ValueError(f"{path} holds the non-standard JSON constant {token}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


@pytest.mark.parametrize(
    "argv",
    [["--team-size", "160", "--runs", "2", "--rounds", "10"], ["--rounds", "0"]],
    ids=["one_team", "zero_rounds"],
)
def test_undefined_statistics_are_written_as_null(tmp_path, argv):
    # Zero reward variance leaves skewness, excess kurtosis and correlation undefined.
    assert entrypoint(["run", "--ci-scale", *argv, "--out", str(tmp_path)]) == 0
    assert entrypoint(["report", "--from", str(tmp_path)]) == 0
    documents = {
        path.relative_to(tmp_path).as_posix(): _strict_json(path)
        for path in sorted(tmp_path.rglob("*.json"))
    }
    (summary_name,) = (name for name in documents if name.startswith("summaries/"))
    assert documents[summary_name]["correlation"] is None
    assert documents[summary_name]["shape_stats"] == {"skewness": None, "excess_kurtosis": None}
    assert documents["tables/correlation.json"]["rows"][0]["correlation"] is None
    assert documents["tables/shape.json"]["rows"][0]["skewness"] is None
    (summary,) = load_bundle(tmp_path)
    assert math.isnan(summary.correlation) and math.isnan(summary.shape_stats.skewness)


def test_main_requires_validated_invocation(tmp_path):
    invocation = CliInvocation(subcommand="report", tables=("energy",), from_dir=tmp_path, out_dir=tmp_path)
    with pytest.raises(FileNotFoundError):
        main(invocation)


BAD_CONFIG_FILES = [
    {"team_size": 2.0},
    {"rounds": 2.5},
    {"runs": 2.0},
    {"runs": 0},
    {"high_perf_override": [1000.0, 2.5]},
    {"master_seed": True},
    {"base_time": "600"},
    {"perf_range": 5},
    {"high_perf_override": [1, 2.5, 3]},
    {"redraw_profile_per_run": 0},
    {"perf_range": [5e-324, 5e-324]},
]
BAD_FLAGS = [
    ["--perf-range", "0.8,inf"],
    ["--perf-range", "a,b"],
    ["--base-time", "nan"],
    ["--reward", "inf"],
    ["--high-perf-factor", "nan"],
    ["--perf-range", "1"],
    ["--threads", "0"],
    ["--participants", "4294967297"],
]
BAD_SWEEP_FLAGS = [
    ["--team-sizes", "2,2"],
    ["--team-sizes=-4"],
    ["--team-sizes=0"],
    ["--runs", "0"],
    ["--conditions", "homogeneous,homogeneous"],
    ["--team-sizes", "a"],
    ["--team-sizes", ","],
    ["--conditions", "bogus"],
    ["--conditions", ","],
]
# A high-perf flag completes a pair from the config file; anything else there is rejected.
BAD_CONFIG_AND_FLAGS = [({"high_perf_override": [1, 2.5, 3]}, ["--high-perf-factor", "3"])]


@pytest.mark.parametrize(
    "command, config, flags",
    [("run", c, []) for c in BAD_CONFIG_FILES]
    + [("run", {}, f) for f in BAD_FLAGS]
    + [("sweep", {}, f) for f in BAD_SWEEP_FLAGS]
    + [("run", c, f) for c, f in BAD_CONFIG_AND_FLAGS],
    ids=[json.dumps(c) for c in BAD_CONFIG_FILES]
    + [" ".join(f) for f in BAD_FLAGS]
    + ["sweep " + " ".join(f) for f in BAD_SWEEP_FLAGS]
    + [f"{json.dumps(c)} {' '.join(f)}" for c, f in BAD_CONFIG_AND_FLAGS],
)
def test_bad_config_input_exits_1_with_one_line(tmp_path, capsys, command, config, flags):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"rounds": 2, "runs": 1, **config}))
    argv = [command, "--config", str(config_file), *flags, "--out", str(tmp_path / "out")]
    assert entrypoint(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not (tmp_path / "out").exists()


# Any JSON value; NaN and infinities are not JSON.
reals = st.floats(allow_nan=False, allow_infinity=False)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | reals | st.text(max_size=5),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)
# A config is drawn with valid values of any magnitude (the three sizes
# always present and small, so that no example falls back to the 1600 x
# 1600 x 100 defaults). Then, in most examples, one key is set to any JSON
# value; a size only to a non-integer or a negative one, so that it stays small.
positive_reals = st.floats(min_value=0, exclude_min=True, allow_infinity=False) | st.sampled_from(
    (1e-12, 1e12)
)
sizes = {
    "participant_count": st.sampled_from((1, 4, 12, 24)),
    "rounds": st.integers(0, 6),
    "runs": st.integers(0, 3),
}
typed_fields = {
    "team_size": st.sampled_from((1, 2, 4)),
    "base_time": positive_reals,
    "reward_per_round": positive_reals,
    "perf_range": st.lists(positive_reals, min_size=2, max_size=2).map(sorted),
    "multiplier_range": st.lists(positive_reals, min_size=2, max_size=2).map(sorted),
    "high_perf_override": st.tuples(st.integers(0, 3), positive_reals).map(list),
    "master_seed": st.integers(0, 2**64 - 1),
    "redraw_profile_per_run": st.booleans(),
}
assert set(sizes) | set(typed_fields) == set(PAPER_DEFAULTS)
bad_sizes = st.integers(max_value=-1) | json_values.filter(
    lambda v: isinstance(v, bool) or not isinstance(v, int)
)
other_keys = st.sampled_from(sorted(typed_fields)) | st.text(max_size=5).filter(
    lambda key: key not in sizes
)
config_objects = st.builds(
    lambda config, edit: config if edit is None else {**config, edit[0]: edit[1]},
    st.fixed_dictionaries(sizes, optional=typed_fields),
    st.none()
    | st.tuples(other_keys, json_values)
    | st.tuples(st.sampled_from(sorted(sizes)), bad_sizes),
)


@settings(max_examples=150, deadline=None)
@given(config=config_objects)
def test_any_json_config_runs_or_exits_1_with_one_line(config):
    with tempfile.TemporaryDirectory() as tmp:
        config_file = Path(tmp) / "config.json"
        config_file.write_text(json.dumps(config))
        stderr = io.StringIO()
        # A warning would reach stderr as two more lines, so it counts as output.
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(
            stderr
        ), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            status = entrypoint(["run", "--config", str(config_file), "--out", str(Path(tmp) / "out")])
    err = stderr.getvalue()
    assert status in (0, 1), err
    assert len(err.splitlines()) <= 1 and "Traceback" not in err
    assert not caught, [str(w.message) for w in caught]
