"""Result serialization: participant CSVs, table documents, and summary bundles.

Two output tiers: raw per-participant CSV rows for external analysis, and
structured table documents that mirror the published result tables this
simulator reproduces. Published reference values ride along as metadata so
a delta report can print computed-vs-reference differences.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from contextlib import ExitStack, contextmanager
from functools import partial
from pathlib import Path
from typing import IO, Iterator, Sequence

from . import __version__
from .core import ConfigurationError, RunResult, ScenarioConfig
from .experiments import Condition, ScenarioSummary, per_run_rows
from .metrics import RANKING_BUCKETS

TOOL_NAME = "potsim"
TABLE_IDS = ("rewards", "ranking", "energy", "shape", "correlation")

# Published reference results, keyed by scenario label. The ranking reference
# does not state which team size its team column used, so it is keyed by
# mechanism only.
REFERENCE_TABLES: dict[str, dict] = {
    "rewards": {
        "PoW": {"mean": 10.00, "std_dev": 54.81, "min": 0.00, "p25": 0.00, "median": 0.00, "p75": 0.00, "max": 592.80},
        "PoTS (2)": {"mean": 10.00, "std_dev": 21.42, "min": 0.00, "p25": 0.00, "median": 0.00, "p75": 5.61, "max": 130.30},
        "PoTS (4)": {"mean": 10.00, "std_dev": 13.06, "min": 0.00, "p25": 0.00, "median": 3.50, "p75": 16.69, "max": 66.35},
        "PoTS (8)": {"mean": 10.00, "std_dev": 8.63, "min": 0.00, "p25": 2.50, "median": 7.58, "p75": 16.22, "max": 41.04},
        "PoTS (16)": {"mean": 10.00, "std_dev": 5.70, "min": 0.04, "p25": 5.02, "median": 9.38, "p75": 14.34, "max": 28.19},
        "PoTS (32)": {"mean": 10.00, "std_dev": 3.72, "min": 1.84, "p25": 6.99, "median": 9.94, "p75": 12.81, "max": 21.09},
        "PoTS (64)": {"mean": 10.00, "std_dev": 2.38, "min": 3.97, "p25": 8.15, "median": 10.05, "p75": 11.78, "max": 16.91},
    },
    "ranking": {
        "PoW": {"1": 100, "2": 0, "3": 0, "4": 0, "5": 0, "6": 0, "7": 0, "8": 0, "9": 0, "10": 0, "11_or_lower": 0},
        "PoTS (team size unspecified)": {"1": 54, "2": 13, "3": 4, "4": 4, "5": 3, "6": 2, "7": 2, "8": 3, "9": 2, "10": 1, "11_or_lower": 12},
    },
    "energy": {
        "PoW": {"total_active_time_1e6_s": 1378.89},
        "PoTS (2)": {"total_active_time_1e6_s": 689.91},
        "PoTS (4)": {"total_active_time_1e6_s": 344.59},
        "PoTS (8)": {"total_active_time_1e6_s": 172.43},
        "PoTS (16)": {"total_active_time_1e6_s": 86.28},
        "PoTS (32)": {"total_active_time_1e6_s": 43.10},
        "PoTS (64)": {"total_active_time_1e6_s": 21.53},
    },
    "shape": {
        "PoW": {"skewness": 6.846, "excess_kurtosis": 51.47},
        "PoTS (2)": {"skewness": 2.529, "excess_kurtosis": 6.19},
        "PoTS (4)": {"skewness": 1.414, "excess_kurtosis": 1.28},
        "PoTS (8)": {"skewness": 0.792, "excess_kurtosis": -0.22},
        "PoTS (16)": {"skewness": 0.404, "excess_kurtosis": -0.67},
        "PoTS (32)": {"skewness": 0.167, "excess_kurtosis": -0.72},
        "PoTS (64)": {"skewness": 0.008, "excess_kurtosis": -0.66},
    },
    "correlation": {
        "PoW": {"correlation": 0.307},
        "PoTS (2)": {"correlation": 0.663},
        "PoTS (4)": {"correlation": 0.831},
        "PoTS (8)": {"correlation": 0.892},
        "PoTS (16)": {"correlation": 0.898},
        "PoTS (32)": {"correlation": 0.882},
        "PoTS (64)": {"correlation": 0.855},
    },
}

# Shape rows with stated reproduction tolerances, as (center, band): a value
# farther than band from center is flagged in table documents and the delta
# report. The PoW bands are 20% and 30% of the reference value.
SHAPE_TOLERANCES: dict[str, dict[str, tuple[float, float]]] = {
    "PoW": {"skewness": (6.846, 0.20 * 6.846), "excess_kurtosis": (51.47, 0.30 * 51.47)},
    "PoTS (64)": {"skewness": (0.0, 0.1), "excess_kurtosis": (-0.66, 0.2)},
}


def scenario_label(team_size: int) -> str:
    """Scenario display label: team size 1 is the classic PoW race."""
    return "PoW" if team_size == 1 else f"PoTS ({team_size})"


def summary_label(summary: ScenarioSummary) -> str:
    return scenario_label(summary.config_echo.team_size)


def emission_timestamp() -> str:
    """UTC ISO-8601 second timestamp; honors SOURCE_DATE_EPOCH for reproducible output.

    An empty SOURCE_DATE_EPOCH counts as unset. A value that is not an
    integer, or that ``time.gmtime`` or ``time.strftime`` rejects, is a
    ConfigurationError.
    """
    epoch = os.environ.get("SOURCE_DATE_EPOCH") or None
    try:
        return time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime(None if epoch is None else int(epoch))
        )
    except (ValueError, OverflowError, OSError) as exc:
        raise ConfigurationError(
            f"SOURCE_DATE_EPOCH must be an integer number of seconds, got {epoch!r}: {exc}"
        ) from None


# -- participant CSV ----------------------------------------------------------


def write_runs_csv(runs: Sequence[RunResult], destination: IO[bytes], first_run: int = 0) -> int:
    """Write the runs of one scenario into one CSV, run_id ``first_run`` plus the run's position.

    Returns the number of rows. Runs of two populations or two reward shares
    (as runs of two scenarios can be), or of a share that is not positive and
    finite, raise ``ValueError``. ``csvrows.write_rows`` writes the rows. The call at
    ``first_run`` 0 writes the header, alone if it has no runs, so chunks written
    in turn to one sink, the first of them not empty, make one file.
    """
    # Imported here, so that only a CSV write compiles the formatter and builds its tables.
    from .csvrows import write_rows

    try:
        return write_rows(runs, destination, first_run)
    except OSError as exc:
        raise OSError(f"participant CSV write failed: {exc}") from exc


def _select_summaries(summaries: Sequence[ScenarioSummary], which: str) -> list[ScenarioSummary]:
    if which == "ranking":
        chosen = [s for s in summaries if s.ranking is not None]
    else:
        homogeneous = [s for s in summaries if s.condition is Condition.HOMOGENEOUS]
        chosen = homogeneous or list(summaries)
    if not chosen:
        kind = "high_perf scenario" if which == "ranking" else "scenario"
        raise ConfigurationError(f"{which} table requires at least one {kind} summary")
    chosen = sorted(chosen, key=lambda s: s.config_echo.team_size)
    labels = [summary_label(s) for s in chosen]
    if len(set(labels)) != len(labels):
        raise ConfigurationError(f"duplicate scenario labels in {which} table inputs: {labels}")
    return chosen


# The values of one summary's row in each table of rows, keyed by table id.
_ROW_VALUES = {
    "rewards": lambda s: dataclasses.asdict(s.reward_stats),
    "energy": lambda s: {"total_active_time_1e6_s": s.total_active_time_mean / 1e6},
    "shape": lambda s: dataclasses.asdict(s.shape_stats),
    "correlation": lambda s: {"correlation": s.correlation},
}


def _flags(label: str, values: dict[str, float]) -> dict[str, bool]:
    """Which values lie outside their SHAPE_TOLERANCES band; only shape metrics have bands."""
    return {
        metric: abs(values[metric] - center) > band
        for metric, (center, band) in SHAPE_TOLERANCES.get(label, {}).items()
        if not math.isnan(values.get(metric, math.nan))
    }


def emit_table(summaries: Sequence[ScenarioSummary], which: str) -> dict:
    """Build a machine-readable analog of one published result table.

    Rows are keyed by scenario label; reference values (when published for
    that label) are attached per row. Shape rows with stated reproduction
    tolerances carry a ``flagged`` entry marking out-of-tolerance results.
    """
    if which not in TABLE_IDS:
        raise ConfigurationError(f"unknown table id {which!r}, expected one of {TABLE_IDS}")
    chosen = _select_summaries(summaries, which)

    if which == "ranking":
        return {
            "table": "ranking",
            "rank_labels": list(RANKING_BUCKETS),
            "scenarios": {summary_label(s): s.ranking for s in chosen},
            "reference": REFERENCE_TABLES["ranking"],
        }

    rows = []
    for s in chosen:
        label, values = summary_label(s), _ROW_VALUES[which](s)
        row = {"scenario": label, **values, "reference": REFERENCE_TABLES[which].get(label)}
        if flags := _flags(label, values):
            row["flagged"] = flags
        rows.append(row)
    # Every summary gives the same keys.
    return {"table": which, "columns": ["scenario", *values], "rows": rows}


def render_delta_report(tables: Sequence[dict]) -> str:
    """Human-readable computed-vs-reference report for emitted table documents."""
    lines = []
    for doc in tables:
        lines.append(f"== {doc['table']} ==")
        if doc["table"] == "ranking":
            for prefix, columns in (("", doc["scenarios"]), ("reference ", doc["reference"])):
                for label, col in columns.items():
                    cells = ", ".join(f"{k}={v}" for k, v in col.items())
                    lines.append(f"  {prefix}{label}: {cells}")
        for row in doc.get("rows", []):
            for metric in doc["columns"][1:]:
                computed = row[metric]
                line = f"  {row['scenario']:<12} {metric:<24} {computed:>12.4f}"
                if row["reference"] is not None:
                    ref = row["reference"][metric]
                    delta = computed - ref
                    if ref != 0 and not math.isnan(delta):
                        rel = f"{abs(delta) / abs(ref):.1%}"
                    else:
                        rel = "0.0%" if delta == 0 else "n/a"
                    mark = "  FLAG" if row.get("flagged", {}).get(metric) else ""
                    line += f" ref {ref:>10.4f}  delta {delta:>+10.4f} ({rel}){mark}"
                lines.append(line)
        lines.append("")
    return "\n".join(lines)


# -- summary/bundle serialization -------------------------------------------


def summary_to_dict(summary: ScenarioSummary) -> dict:
    return {
        "label": summary_label(summary),
        "condition": summary.condition.value,
        "config": dataclasses.asdict(summary.config_echo),
        "reward_stats": dataclasses.asdict(summary.reward_stats),
        "shape_stats": dataclasses.asdict(summary.shape_stats),
        "correlation": summary.correlation,
        "total_active_time_mean": summary.total_active_time_mean,
        "ranking": summary.ranking,
        "per_run": summary.per_run,
    }


def _config(data: dict, key: str) -> ScenarioConfig:
    """The config under ``key``, which must give every field: none is defaulted."""
    fields = data[key]
    if not isinstance(fields, dict):
        raise TypeError(f"key {key!r} must be an object, got {fields!r}")
    for field in dataclasses.fields(ScenarioConfig):
        if field.name not in fields:
            raise KeyError(f"{key}.{field.name}")
    return ScenarioConfig(**fields)


def _per_run(data: dict, config: ScenarioConfig) -> dict[str, tuple[float, ...]]:
    """The per-run table: each row's list of ``config.runs`` numbers, ``null`` reading as NaN."""
    table, runs = data["per_run"], config.runs
    if not isinstance(table, dict):
        raise TypeError(f"key 'per_run' must be an object, got {table!r}")
    rows = {}
    for name in per_run_rows(config):
        if name not in table:
            raise KeyError(f"per_run.{name}")
        row = table[name]
        if not isinstance(row, list) or len(row) != runs or {*map(type, row)} - {int, float, type(None)}:
            raise TypeError(f"key 'per_run.{name}' must list {runs} numbers or nulls, got {row!r}")
        rows[name] = tuple(math.nan if value is None else float(value) for value in row)
    return rows


def summary_from_dict(data: dict) -> ScenarioSummary:
    """The summary that data's config and per_run give, from JSON or ``summary_to_dict``.

    Every other key must hold what ``summary_to_dict`` derives from them.
    """
    data = _null_for_nan(data)
    config = _config(data, "config")
    summary = ScenarioSummary(config, _per_run(data, config))
    derived = _null_for_nan(summary_to_dict(summary))
    for key in derived:
        if key not in ("config", "per_run") and data[key] != derived[key]:
            raise ValueError(f"key {key!r} is {data[key]!r}, "
                             f"not the {derived[key]!r} that its config and per_run give")
    return summary


def _summary_filename(summary: ScenarioSummary) -> str:
    return f"{summary.condition.value}_n{summary.config_echo.team_size:03d}.json"


@contextmanager
def atomic_writer(path: Path) -> Iterator[IO[bytes]]:
    """A binary sink whose bytes replace ``path`` only when the block succeeds.

    The bytes go to a temp file beside ``path``, which ``os.replace`` moves
    into place at the end of the block. If the block or the move fails or is
    interrupted, the temp file is removed and ``path`` keeps its old content.
    """
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as sink:
            yield sink
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _null_for_nan(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {key: _null_for_nan(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_for_nan(item) for item in value]
    return value


def json_bytes(payload: dict) -> bytes:
    """Standard JSON: an undefined statistic (NaN) is written as ``null``."""
    return (json.dumps(_null_for_nan(payload), indent=2, allow_nan=False) + "\n").encode("utf-8")


def write_files(files: Sequence[tuple[Path, bytes]]) -> None:
    """Replace each path with its bytes through ``atomic_writer``.

    Every temp file is written and flushed before any is moved, and they are
    moved in reverse order, so the first file listed replaces its old version
    last. A failed or interrupted write removes the temp files not yet moved.
    """
    with ExitStack() as stack:
        for path, data in files:
            sink = stack.enter_context(atomic_writer(path))
            sink.write(data)
            sink.flush()


def write_bundle(
    out_dir: Path,
    kind: str,
    summaries: Sequence[ScenarioSummary],
    base_config: ScenarioConfig,
    runs_csv: str | None = None,
) -> None:
    """Write per-scenario summary JSONs plus a manifest into out_dir.

    All go through one ``write_files``, and the manifest replaces its old
    version last.
    """
    out_dir = Path(out_dir)
    summaries_dir = out_dir / "summaries"
    summaries_dir.mkdir(parents=True, exist_ok=True)
    names = [_summary_filename(summary) for summary in summaries]
    # A sweep rejects a repeated team size or condition, so every summary names its own file.
    files = {
        summaries_dir / name: json_bytes(summary_to_dict(summary))
        for name, summary in zip(names, summaries)
    }
    manifest = {
        "tool": TOOL_NAME,
        "version": __version__,
        "created_utc": emission_timestamp(),
        "kind": kind,
        "base_config": dataclasses.asdict(base_config),
        "summaries": names,
        "runs_csv": runs_csv,
    }
    write_files([(out_dir / "manifest.json", json_bytes(manifest)), *files.items()])


def _no_constant(name: str):
    raise ValueError(f"non-standard JSON value {name}; an undefined value is null")


def _read_json_object(path: Path, parse):
    """parse() of the JSON object in path; malformed content is a ValueError naming the file."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"), parse_constant=_no_constant)
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON object, got {type(data).__name__}")
        return parse(data)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _summary_names(data: dict) -> list[str]:
    names = data["summaries"]
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise TypeError(f"key 'summaries' must be a list of file names, got {names!r}")
    if not names:
        raise ValueError("key 'summaries' lists no summary files")
    # A name with a path part would read a file outside summaries/.
    plain = all(name not in ("", "..") and Path(name).name == name for name in names)
    if not plain or len(set(names)) < len(names):
        raise ValueError(f"key 'summaries' must list plain, unique file names, got {names!r}")
    # Read only to check them: a manifest without these fields is malformed.
    _ = data["kind"], _config(data, "base_config"), data["created_utc"], data["version"]
    return names


def _listed_summary(name: str, data: dict) -> ScenarioSummary:
    """The summary in data, which the manifest lists as ``name``; that must be its file name."""
    summary = summary_from_dict(data)
    if (expected := _summary_filename(summary)) != name:
        raise ValueError(f"its config names the file {expected!r}, not {name!r}")
    return summary


def load_bundle(out_dir: Path) -> list[ScenarioSummary]:
    """The summaries that out_dir's manifest lists, read back in its order.

    A missing manifest is a FileNotFoundError; a malformed manifest or
    summary, or a summary listed under another scenario's file name, is a
    ValueError naming the file and the missing or bad key.
    """
    out_dir = Path(out_dir)
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json under {out_dir}")
    names = _read_json_object(manifest_path, _summary_names)
    folder = out_dir / "summaries"
    return [_read_json_object(folder / name, partial(_listed_summary, name)) for name in names]
