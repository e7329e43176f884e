from __future__ import annotations

import contextlib
import io
import json
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potsim import cli
from potsim.cli import (
    PAPER_DEFAULTS,
    CliInvocation,
    entrypoint,
    main,
    parse_and_validate,
)
from potsim.core import ConfigurationError


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

    monkeypatch.setattr(cli, "execute_runs", no_run)
    monkeypatch.setattr(cli, "sweep_team_sizes", no_run)
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
    def exhausted(config, workers=1):
        raise MemoryError(*([detail] if detail else []))

    monkeypatch.setattr("potsim.cli.execute_runs", exhausted)
    assert entrypoint(run_args(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: out of memory{': ' + detail if detail else ''}"]


def _drop(key):
    def edit(data):
        del data[key]
        return data

    return edit


def _null_mean(summary):
    summary["reward_stats"]["mean"] = None
    return summary


def _empty_summaries(manifest):
    manifest["summaries"] = []
    return manifest


def _number_name(manifest):
    manifest["summaries"] = [5]
    return manifest


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


def _override(value):
    def edit(summary):
        summary["config"]["high_perf_override"] = value
        return summary

    return edit


BAD_BUNDLES = [
    ("summary", _drop("correlation"), "missing key 'correlation'"),
    ("manifest", _drop("summaries"), "missing key 'summaries'"),
    ("manifest", _number_name, "key 'summaries' must be a list of file names"),
    ("summary", lambda summary: [summary], "expected a JSON object, got list"),
    ("summary", _null_mean, "key 'mean' must be a number, got None"),
    ("ranking", _rank_count("1", 2.7), "key '1' must be a non-negative integer, got 2.7"),
    ("ranking", _rank_count("2", "1"), "key '2' must be a non-negative integer, got '1'"),
    ("ranking", _rank_count("3", True), "key '3' must be a non-negative integer, got True"),
    ("ranking", _override([3.9, 2.5]), "high_perf_override id must be an integer, got 3.9"),
    ("ranking", _override(["3", 2.5]), "high_perf_override id must be an integer, got '3'"),
    ("manifest", _empty_summaries, "key 'summaries' lists no summary files"),
    ("summary", _drop_config_field("config", "perf_range"), "missing key 'config.perf_range'"),
    ("manifest", _drop_config_field("base_config", "master_seed"),
     "missing key 'base_config.master_seed'"),
    ("manifest", _drop("kind"), "missing key 'kind'"),
]


@pytest.mark.parametrize(
    "target, edit, message",
    BAD_BUNDLES,
    ids=["missing_summary_key", "missing_manifest_summaries", "non_string_name", "non_object_json",
         "non_number_value", "fractional_rank_count", "string_rank_count", "bool_rank_count",
         "fractional_override_id", "string_override_id", "empty_summaries",
         "missing_config_field", "missing_base_config_field", "missing_manifest_kind"],
)
def test_malformed_bundle_exits_2_with_one_line(tmp_path, capsys, target, edit, message):
    if target == "ranking":
        assert entrypoint(run_args(tmp_path, "--high-perf-id", "3")) == 0
        path = tmp_path / "summaries" / "high_perf_n004.json"
    else:
        assert entrypoint(run_args(tmp_path)) == 0
        path = tmp_path / ("summaries/homogeneous_n004.json" if target == "summary" else "manifest.json")
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()
    assert entrypoint(["report", "--from", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {path}: ") and message in err


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
    {"perf_range": [5e-324, 5e-324]},
]
BAD_FLAGS = [
    ["--perf-range", "0.8,inf"],
    ["--perf-range", "a,b"],
    ["--base-time", "nan"],
    ["--reward", "inf"],
    ["--high-perf-factor", "nan"],
]
BAD_SWEEP_FLAGS = [
    ["--team-sizes", "2,2"],
    ["--team-sizes=-4"],
    ["--team-sizes=0"],
    ["--conditions", "homogeneous,homogeneous"],
]


@pytest.mark.parametrize(
    "command, config, flags",
    [("run", c, []) for c in BAD_CONFIG_FILES]
    + [("run", {}, f) for f in BAD_FLAGS]
    + [("sweep", {}, f) for f in BAD_SWEEP_FLAGS],
    ids=[json.dumps(c) for c in BAD_CONFIG_FILES]
    + [" ".join(f) for f in BAD_FLAGS]
    + ["sweep " + " ".join(f) for f in BAD_SWEEP_FLAGS],
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
