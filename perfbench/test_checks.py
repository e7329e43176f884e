"""Tiny-scale self-test of the benchmark: its checks, digest, tracer and exit status.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._import_potsim()

from checks import Expect, check_output, failed_scenarios, output_digest, strict_json  # noqa: E402
from potsim.cli import entrypoint  # noqa: E402
from tracing import Tracer  # noqa: E402

EXPECT = Expect(scenarios=1, participants=16, rounds=8, runs=3, raw=True)


def _potsim(out: Path, *argv: str) -> Path:
    assert entrypoint([*argv, "--seed", "7", "--out", str(out)]) == 0
    assert entrypoint(["report", "--from", str(out)]) == 0
    return out


@pytest.fixture
def bundle(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    return _potsim(tmp_path / "out", "run", "--participants", "16", "--team-size", "4",
                   "--rounds", "8", "--runs", "3", "--high-perf-id", "3", "--raw")


def _summary_path(out: Path) -> Path:
    (path,) = (out / "summaries").glob("*.json")
    return path


def _edit_summary(out: Path, edit) -> None:
    path = _summary_path(out)
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def _failed(out: Path) -> int:
    return failed_scenarios(check_output(out, EXPECT), EXPECT)


def test_clean_output_passes(bundle):
    problems = check_output(bundle, EXPECT)
    assert not any(problems.values()), problems
    assert _failed(bundle) == 0


def test_altered_reward_mean_is_caught(bundle):
    _edit_summary(bundle, lambda d: d["reward_stats"].update(mean=d["reward_stats"]["mean"] * (1 + 1e-8)))
    assert _failed(bundle) == 1


def test_ranking_counts_must_sum_to_runs(bundle):
    _edit_summary(bundle, lambda d: d["ranking"].update({"1": d["ranking"]["1"] + 1}))
    assert _failed(bundle) == 1


def test_nan_token_is_caught(bundle):
    path = _summary_path(bundle)
    data = json.loads(path.read_text(encoding="utf-8"))
    data["correlation"] = float("nan")
    path.write_text(json.dumps(data), encoding="utf-8")  # json.dumps writes a bare NaN
    assert _failed(bundle) == 1


def test_missing_csv_row_is_caught(bundle):
    path = bundle / "runs.csv"
    path.write_text("".join(path.read_text(encoding="utf-8").splitlines(keepends=True)[:-1]),
                    encoding="utf-8")
    assert _failed(bundle) == EXPECT.scenarios


def test_wrong_csv_reward_sum_is_caught(bundle):
    path = bundle / "runs.csv"
    header, first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
    columns = first.rstrip("\n").split(",")
    reward = header.rstrip("\n").split(",").index("reward")
    columns[reward] = repr(float(columns[reward]) + 1.0)
    path.write_text(header + ",".join(columns) + "\n" + "".join(rest), encoding="utf-8")
    assert _failed(bundle) == EXPECT.scenarios


def test_digest_repeats_and_tracks_content(bundle, tmp_path):
    again = _potsim(tmp_path / "again", "run", "--participants", "16", "--team-size", "4",
                    "--rounds", "8", "--runs", "3", "--high-perf-id", "3", "--raw")
    assert output_digest(again) == output_digest(bundle)
    _edit_summary(again, lambda d: d.update(total_active_time_mean=d["total_active_time_mean"] + 1))
    assert output_digest(again) != output_digest(bundle)


@pytest.mark.xfail(strict=True, reason="a single team of everyone has zero reward variance; "
                   "its summary holds bare NaN shape and correlation tokens")
def test_single_team_summary_is_strict_json(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    out = tmp_path / "out"
    assert entrypoint(["run", "--participants", "16", "--team-size", "16", "--rounds", "8",
                       "--runs", "3", "--high-perf-id", "3", "--seed", "7", "--out", str(out)]) == 0
    strict_json(_summary_path(out))


def test_tracer_collects_worker_spans_without_changing_output(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    argv = ("sweep", "--participants", "16", "--team-sizes", "1,4", "--rounds", "8",
            "--runs", "4", "--threads", "2")
    plain = _potsim(tmp_path / "plain", *argv)
    tracer = Tracer()
    patches = tracer.install()
    try:
        traced = _potsim(tmp_path / "traced", *argv)
    finally:
        tracer.uninstall(patches)
    assert output_digest(traced) == output_digest(plain)
    totals = tracer.take()
    assert totals["core.run_simulation", "calls"] == 8  # 2 scenarios x 4 runs, in pool workers
    assert totals["core.run_simulation", "work"] == 8 * 8
    assert totals["core.execute_round", "calls"] == 8 * 8
    assert totals["experiments.execute_runs", "calls"] == 2
    assert totals["cli.main", "calls"] == 2
    for name, field in totals:
        if field == "self":
            assert 0 <= totals[name, "self"] <= totals[name, "busy"] + 1e-9, name


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "raw_export", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
