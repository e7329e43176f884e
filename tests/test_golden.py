"""Pinned output bytes: any change to the engine, the random stream, the
statistics or the writers shows up as a changed digest.

The digest covers every file a command and a following ``report --from``
write, except ``manifest.json`` (it holds the version and a timestamp). Files
are fed in sorted relative-POSIX-path order as ``path + b"\\0" + bytes``.
The pinned values were taken with numpy 2.4.6; numpy's Generator keeps its
streams stable across releases, so a change here is a change in potsim.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from potsim.cli import entrypoint


def tree_digest(root: Path) -> str:
    files = {
        path.relative_to(root).as_posix(): path
        for path in root.rglob("*")
        if path.is_file() and path.name != "manifest.json"
    }
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode("utf-8") + b"\0" + files[name].read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["sweep", "--ci-scale", "--high-perf-id", "100",
             "--team-sizes", "1,2,4,5,8,10,16,20,32,40,80"],
            "8c46234e613a0a6df897a4bccb1a8ed33c0f40daff53a16b8b42a2a9e91ee426",
        ),
        (
            ["run", "--paper-defaults", "--team-size", "8", "--rounds", "16", "--runs", "4", "--raw"],
            "85103404741f2ee20057dc508f9d7f3259ebdfcbb0bc702dc955c8613baec27d",
        ),
    ],
    ids=["ci_sweep", "paper_run_raw"],
)
def test_output_bytes_are_pinned(tmp_path, capsys, argv, expected):
    assert entrypoint(argv + ["--out", str(tmp_path)]) == 0
    assert entrypoint(["report", "--from", str(tmp_path)]) == 0
    assert tree_digest(tmp_path) == expected
