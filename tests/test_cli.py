from __future__ import annotations

import json
from pathlib import Path

import pytest

from potsim.cli import (
    CliInvocation,
    UsageError,
    entrypoint,
    main,
    parse_and_validate,
)


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
    with pytest.raises(UsageError, match="not divisible"):
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
    with pytest.raises(UsageError, match="override"):
        parse_and_validate(
            ["sweep", "--ci-scale", "--homogeneous", "--conditions", "high_perf", "--team-sizes", "1"]
        )


def test_unknown_flag_is_usage_error():
    with pytest.raises(UsageError):
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
    with pytest.raises(UsageError, match="unknown keys"):
        parse_and_validate(["run", "--config", str(config_file)])


def test_unreadable_config_is_usage_error(tmp_path):
    with pytest.raises(UsageError, match="cannot read"):
        parse_and_validate(["run", "--config", str(tmp_path / "missing.json")])


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


def test_default_override_id_must_fit_population():
    with pytest.raises(UsageError, match="high_perf_override"):
        parse_and_validate(["run", "--ci-scale", "--high-perf-factor", "3.0"])


def test_out_dir_env_default(monkeypatch, tmp_path):
    monkeypatch.setenv("POTSIM_OUT", str(tmp_path / "from_env"))
    invocation = parse_and_validate(["run", "--ci-scale"])
    assert invocation.out_dir == tmp_path / "from_env"


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


def _drop_correlation(summary):
    del summary["correlation"]
    return summary


def _drop_summaries(manifest):
    del manifest["summaries"]
    return manifest


def _null_mean(summary):
    summary["reward_stats"]["mean"] = None
    return summary


def _number_name(manifest):
    manifest["summaries"] = [5]
    return manifest


BAD_BUNDLES = [
    ("summary", _drop_correlation, "missing key 'correlation'"),
    ("manifest", _drop_summaries, "missing key 'summaries'"),
    ("manifest", _number_name, "key 'summaries' must be a list of file names"),
    ("summary", lambda summary: [summary], "expected a JSON object, got list"),
    ("summary", _null_mean, "key 'mean' must be a number, got None"),
]


@pytest.mark.parametrize(
    "target, edit, message",
    BAD_BUNDLES,
    ids=["missing_summary_key", "missing_manifest_summaries", "non_string_name", "non_object_json",
         "non_number_value"],
)
def test_malformed_bundle_exits_2_with_one_line(tmp_path, capsys, target, edit, message):
    assert entrypoint(run_args(tmp_path)) == 0
    path = tmp_path / "manifest.json"
    if target == "summary":
        path = tmp_path / "summaries" / "homogeneous_n004.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()
    assert entrypoint(["report", "--from", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {path}: ") and message in err


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


def test_main_requires_validated_invocation(tmp_path):
    invocation = CliInvocation(subcommand="report", tables=("energy",), from_dir=tmp_path, out_dir=tmp_path)
    with pytest.raises(FileNotFoundError):
        main(invocation)


BAD_CONFIG_FILES = [
    {"team_size": 2.0},
    {"rounds": 2.5},
    {"runs": 2.0},
    {"high_perf_override": [1000.0, 2.5]},
    {"master_seed": True},
    {"base_time": "600"},
    {"perf_range": 5},
    {"high_perf_override": [1, 2.5, 3]},
    {"redraw_profile_per_run": 0},
]
BAD_FLAGS = [
    ["--perf-range", "0.8,inf"],
    ["--perf-range", "a,b"],
    ["--base-time", "nan"],
    ["--reward", "inf"],
    ["--high-perf-factor", "nan"],
]


@pytest.mark.parametrize(
    "config, flags",
    [(c, []) for c in BAD_CONFIG_FILES] + [({}, f) for f in BAD_FLAGS],
    ids=[json.dumps(c) for c in BAD_CONFIG_FILES] + [" ".join(f) for f in BAD_FLAGS],
)
def test_bad_config_input_exits_1_with_one_line(tmp_path, capsys, config, flags):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"rounds": 2, "runs": 1, **config}))
    argv = ["run", "--config", str(config_file), *flags, "--out", str(tmp_path / "out")]
    assert entrypoint(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not (tmp_path / "out").exists()
