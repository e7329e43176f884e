"""Correctness checks on a potsim output tree, independent of potsim's own code.

The checks read only the files a user gets: ``manifest.json``,
``summaries/*.json``, ``tables/*.json`` and, when raw rows were asked for,
``runs.csv``. Expected sizes come from the workload definition, not from
the config echo inside the output.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

MEAN_REL_TOL = 1e-9
# runs.csv prints rewards with 6 significant digits.
CSV_SUM_REL_TOL = 1e-6
# Every workload has a high_perf condition, so report writes all five tables.
TABLES = ("rewards", "energy", "shape", "correlation", "ranking")
BUNDLE = "bundle"
DIGEST_CHUNK = 1 << 16


@dataclass(frozen=True)
class Expect:
    """What a workload asked potsim for."""

    scenarios: int
    participants: int
    rounds: int
    runs: int
    reward: float = 10.0
    raw: bool = False


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(path: Path):
    """Parse JSON, rejecting NaN, Infinity and -Infinity."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def _check_summary(data: dict, expect: Expect) -> list[str]:
    problems = []
    config = data["config"]
    for key, want in (
        ("participant_count", expect.participants),
        ("rounds", expect.rounds),
        ("runs", expect.runs),
        ("reward_per_round", expect.reward),
    ):
        if config[key] != want:
            problems.append(f"config {key} is {config[key]}, expected {want}")
    mean = data["reward_stats"]["mean"]
    want_mean = expect.reward * expect.rounds / expect.participants
    if abs(mean - want_mean) > MEAN_REL_TOL * abs(want_mean):
        problems.append(f"reward mean {mean!r} != reward x rounds / participants = {want_mean!r}")
    ranking = data["ranking"]
    if data["condition"] == "high_perf":
        if not isinstance(ranking, dict) or sum(ranking.values()) != expect.runs:
            problems.append(f"ranking counts {ranking} do not sum to {expect.runs} runs")
    elif ranking is not None:
        problems.append(f"{data['condition']} scenario carries a ranking")
    return problems


def _check_runs_csv(path: Path, expect: Expect) -> list[str]:
    # Streamed row by row, so the check holds less memory than potsim's
    # writer and peak_rss_mb stays potsim's.
    sums = [0.0] * expect.runs
    rows = 0
    with path.open(encoding="utf-8", newline="") as source:
        reader = csv.reader(source)
        header = next(reader, [])
        run_col, reward_col = header.index("run_id"), header.index("reward")
        for row in reader:
            run_id = int(row[run_col])
            if not 0 <= run_id < expect.runs:
                return [f"runs.csv run_id {run_id} outside 0..{expect.runs - 1}"]
            sums[run_id] += float(row[reward_col])
            rows += 1
    want_rows = expect.runs * expect.participants
    if rows != want_rows:
        return [f"runs.csv has {rows} rows, expected {want_rows}"]
    want = expect.rounds * expect.reward
    return [f"run {i} rewards sum to {total!r}, expected {want!r}"
            for i, total in enumerate(sums) if abs(total - want) > CSV_SUM_REL_TOL * want]


def check_output(out_dir: Path, expect: Expect) -> dict[str, list[str]]:
    """Problems found, keyed by summary file name or ``BUNDLE``; empty lists when clean."""
    out_dir = Path(out_dir)
    problems: dict[str, list[str]] = {BUNDLE: []}
    try:
        names = strict_json(out_dir / "manifest.json")["summaries"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {BUNDLE: [f"manifest unreadable: {exc}"]}
    if len(names) != expect.scenarios:
        problems[BUNDLE].append(f"{len(names)} summaries, expected {expect.scenarios}")
    for name in names:
        try:
            problems[name] = _check_summary(strict_json(out_dir / "summaries" / name), expect)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems[name] = [f"unreadable: {exc!r}"]
    for table in TABLES:
        path = out_dir / "tables" / f"{table}.json"
        try:
            strict_json(path)
        except (OSError, ValueError) as exc:
            problems[BUNDLE].append(f"table {table}: {exc}")
    if expect.raw:
        path = out_dir / "runs.csv"
        try:
            problems[BUNDLE].extend(_check_runs_csv(path, expect))
        except (OSError, ValueError, IndexError) as exc:
            problems[BUNDLE].append(f"runs.csv unreadable: {exc}")
    return problems


def failed_scenarios(problems: dict[str, list[str]], expect: Expect) -> int:
    """Scenarios whose output fails; a bundle-level problem fails every scenario."""
    if problems.get(BUNDLE):
        return expect.scenarios
    return min(expect.scenarios, sum(1 for found in problems.values() if found))


def output_digest(out_dir: Path) -> str:
    """sha256 over every file of the output tree, by relative path and content."""
    out_dir = Path(out_dir)
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        name = path.relative_to(out_dir).as_posix().encode()
        digest.update(len(name).to_bytes(8, "big") + name)
        digest.update(path.stat().st_size.to_bytes(8, "big"))
        with path.open("rb") as source:
            while chunk := source.read(DIGEST_CHUNK):
                digest.update(chunk)
    return digest.hexdigest()
