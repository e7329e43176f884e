"""Pinned output bytes: any change to the engine, the random stream, the
statistics or the writers shows up as a changed digest.

The whole-tree digest covers every file a command and a following
``report --from`` write, except ``manifest.json`` (it holds the version and a
timestamp). The reported digest covers only what ``report`` and ``--raw``
write: ``tables/``, ``delta_report.txt`` and ``runs.csv``, so a change to the
summary files alone leaves it as it is. Files are fed in sorted
relative-POSIX-path order as ``path + b"\\0" + bytes``.
The pinned values were taken with numpy 2.4.6; numpy's Generator keeps its
streams stable across releases, so a change here is a change in potsim.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from potsim.cli import entrypoint


REPORTED = ("tables/", "delta_report.txt", "runs.csv")

COMMANDS = {
    "ci_sweep": ["sweep", "--ci-scale", "--high-perf-id", "100",
                 "--team-sizes", "1,2,4,5,8,10,16,20,32,40,80"],
    "paper_run_raw": ["run", "--paper-defaults", "--team-size", "8", "--rounds", "16",
                      "--runs", "4", "--raw"],
}


def tree_digest(root: Path, reported_only: bool = False) -> str:
    files = {
        path.relative_to(root).as_posix(): path
        for path in root.rglob("*")
        if path.is_file() and path.name != "manifest.json"
    }
    digest = hashlib.sha256()
    for name in sorted(files):
        if not reported_only or name.startswith(REPORTED):
            digest.update(name.encode("utf-8") + b"\0" + files[name].read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The tree a golden command and a following ``report --from`` write, made once per command."""
    trees = {}

    def tree(command: str) -> Path:
        if command not in trees:
            out = tmp_path_factory.mktemp(command)
            assert entrypoint(COMMANDS[command] + ["--out", str(out)]) == 0
            assert entrypoint(["report", "--from", str(out)]) == 0
            trees[command] = out
        return trees[command]

    return tree


@pytest.mark.parametrize(
    "command, expected",
    [
        ("ci_sweep", "0ddb041a5fae13e9d79ccebf5449cea877dfa832daa3030e25ba8fca5d4eb74b"),
        ("paper_run_raw", "9b73b8b8abd8aa6159719da7b0d577e4242e7b03a322ac04de9cfe829f5d35a9"),
    ],
    ids=["ci_sweep", "paper_run_raw"],
)
def test_output_bytes_are_pinned(written, command, expected):
    assert tree_digest(written(command)) == expected


@pytest.mark.parametrize(
    "command, expected",
    [
        ("ci_sweep", "6d82bb0d58e425269cfa394cda176cc0e4c70328bc7f764a76158d93b9b16a07"),
        ("paper_run_raw", "30e92aeac59a75c00d9d93053e9716bf34fa615b07c6da8d120adf18e79c9baf"),
    ],
    ids=["ci_sweep", "paper_run_raw"],
)
def test_reported_bytes_are_pinned(written, command, expected):
    assert tree_digest(written(command), reported_only=True) == expected
