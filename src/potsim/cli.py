"""Command-line entry point: configure, run, and report on experiments.

Configuration precedence, lowest to highest: built-in defaults, config file
(flat JSON object with ScenarioConfig field names), presets
(--paper-defaults, --ci-scale), then individual flags. --high-perf-id and
--high-perf-factor keep the other half of an override set below them, else
of (1000, 2.5). Exit codes: 0 on success, 1 on a bad flag, config or table
request (one ConfigurationError line), 2 on a runtime failure (an unreadable
or malformed bundle, a failed write, out of memory).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .core import ConfigurationError, ScenarioConfig
from .experiments import Condition, SweepSpec, execute_scenario
# Not called here: perfbench/tracing.py patches them in cli. ROADMAP item 14 drops both.
from .experiments import execute_runs, summarize_runs  # noqa: F401
from .reporting import (
    TABLE_IDS,
    atomic_writer,
    emission_timestamp,
    emit_table,
    json_bytes,
    load_bundle,
    render_delta_report,
    summary_label,
    write_bundle,
    write_files,
    write_runs_csv,
)

OUT_DIR_ENV = "POTSIM_OUT"
DEFAULT_OUT_DIR = "potsim_out"

# Reference experiment parameterization: ScenarioConfig's defaults, run at
# 1600 participants x 1600 rounds x 100 runs with node 1000 pinned at 2.5.
PAPER_DEFAULTS = asdict(
    ScenarioConfig(
        participant_count=1600, team_size=1, rounds=1600, runs=100, high_perf_override=(1000, 2.5)
    )
)

# Small preset for fast property checks; preserves invariants, not magnitudes.
CI_SCALE = {"participant_count": 160, "rounds": 160, "runs": 20}

PAPER_TEAM_SIZES = (1, 2, 4, 8, 16, 32, 64)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigurationError(message)


@dataclass(frozen=True)
class CliInvocation:
    """A validated command invocation ready for main()."""

    subcommand: str
    config: ScenarioConfig | None = None
    sweep: SweepSpec | None = None
    threads: int = 1
    out_dir: Path = Path(DEFAULT_OUT_DIR)
    raw: bool = False
    tables: tuple[str, ...] = ()
    from_dir: Path | None = None


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigurationError(f"{flag} expects LO,HI, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigurationError(f"{flag} expects two numbers, got {text!r}") from exc


def _parse_list(text: str, flag: str, parse, entries: str) -> tuple:
    try:
        return tuple(parse(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise ConfigurationError(f"{flag} expects a comma-separated {entries} list: {exc}") from exc


# Each flag that sets one ScenarioConfig field: flag, field, type, metavar.
# A LO,HI pair is parsed after argparse, so that its message names the flag.
_FIELD_FLAGS = (
    ("--participants", "participant_count", int, "N"),
    ("--team-size", "team_size", int, "N"),
    ("--rounds", "rounds", int, "R"),
    ("--runs", "runs", int, "K"),
    ("--base-time", "base_time", float, "SECONDS"),
    ("--reward", "reward_per_round", float, "UNITS"),
    ("--perf-range", "perf_range", _parse_pair, "LO,HI"),
    ("--mult-range", "multiplier_range", _parse_pair, "LO,HI"),
    ("--seed", "master_seed", int, "S"),
)
_SIZES = "{participant_count} participants, {rounds} rounds, {runs} runs"


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="flat JSON config file")
    parser.add_argument(
        "--paper-defaults",
        action="store_true",
        help="load the reference experiment parameterization ({}, override id {} factor {})".format(
            _SIZES.format_map(PAPER_DEFAULTS), *PAPER_DEFAULTS["high_perf_override"]
        ),
    )
    parser.add_argument(
        "--ci-scale",
        action="store_true",
        help=f"small preset ({_SIZES.format_map(CI_SCALE)}) for fast checks; "
        "preserves invariants, not reference magnitudes",
    )
    for flag, field, kind, metavar in _FIELD_FLAGS:
        kind = None if kind is _parse_pair else kind
        seed = f"master seed (default {PAPER_DEFAULTS[field]})" if flag == "--seed" else None
        parser.add_argument(flag, dest=field, type=kind, metavar=metavar, help=seed)
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--homogeneous",
        action="store_true",
        help="drop any high-performance override from the effective config",
    )
    group.add_argument("--high-perf-id", type=int, metavar="ID")
    parser.add_argument("--high-perf-factor", type=float, metavar="F")
    parser.add_argument(
        "--shared-profile",
        action="store_true",
        help="reuse one performance profile across all runs instead of redrawing",
    )
    parser.add_argument("--threads", type=int, default=1, metavar="K")
    parser.add_argument("--out", metavar="DIR", help=f"output directory (or ${OUT_DIR_ENV})")


def _load_config_file(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    except (RecursionError, ValueError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    unknown = set(data) - set(PAPER_DEFAULTS)
    if unknown:
        raise ConfigurationError(f"config file {path} has unknown keys: {sorted(unknown)}")
    return data


def _effective_config(args: argparse.Namespace) -> ScenarioConfig:
    fields = dict(PAPER_DEFAULTS, high_perf_override=None)
    if args.config:
        fields.update(_load_config_file(args.config))
    if args.paper_defaults:
        fields.update(PAPER_DEFAULTS)
    if args.ci_scale:
        fields.update(CI_SCALE)
    for flag, field, kind, _ in _FIELD_FLAGS:
        value = getattr(args, field)
        if value is not None:
            fields[field] = _parse_pair(value, flag) if kind is _parse_pair else value
    # A high-perf flag keeps the other half of the override merged below it;
    # anything but a pair there is left for ScenarioConfig to reject.
    halves = (args.high_perf_id, args.high_perf_factor)
    below = fields["high_perf_override"]
    below = PAPER_DEFAULTS["high_perf_override"] if below is None else below
    if halves != (None, None) and isinstance(below, (list, tuple)) and len(below) == 2:
        fields["high_perf_override"] = tuple(b if f is None else f for b, f in zip(below, halves))
    if args.homogeneous:
        fields["high_perf_override"] = None
    if args.shared_profile:
        fields["redraw_profile_per_run"] = False
    return ScenarioConfig(**fields)


def _out_dir(flag: str | None) -> Path:
    """The --out/--from directory, else $POTSIM_OUT, else potsim_out; empty counts as unset."""
    return Path(flag or os.environ.get(OUT_DIR_ENV) or DEFAULT_OUT_DIR)


def build_parser() -> _Parser:
    parser = _Parser(prog="potsim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="COMMAND")

    run = sub.add_parser("run", help="execute one scenario and write its summary")
    _add_config_flags(run)
    run.add_argument(
        "--raw", action="store_true", help="also write per-participant rows to runs.csv"
    )

    sweep = sub.add_parser("sweep", help="execute a team-size sweep")
    _add_config_flags(sweep)
    sweep.add_argument(
        "--team-sizes",
        metavar="CSV",
        default=",".join(str(n) for n in PAPER_TEAM_SIZES),
        help="comma-separated team sizes (default %(default)s)",
    )
    sweep.add_argument(
        "--conditions",
        metavar="CSV",
        help="subset of homogeneous,high_perf (default: homogeneous, plus "
        "high_perf when an override is configured)",
    )

    report = sub.add_parser("report", help="emit result tables from written summaries")
    report.add_argument("--from", dest="from_dir", metavar="DIR", help="results directory")
    report.add_argument(
        "--table",
        choices=TABLE_IDS + ("all",),
        default="all",
        help="which table to emit (default %(default)s)",
    )
    report.add_argument("--out", metavar="DIR", help="where to write table documents")
    return parser


def parse_and_validate(arguments: list[str]) -> CliInvocation:
    """Parse flags, apply the config file and overrides, validate invariants."""
    args = build_parser().parse_args(arguments)

    if args.subcommand == "report":
        from_dir = _out_dir(args.from_dir)
        out_dir = Path(args.out) if args.out else from_dir
        tables = TABLE_IDS if args.table == "all" else (args.table,)
        return CliInvocation(
            subcommand="report", tables=tables, from_dir=from_dir, out_dir=out_dir
        )

    config = _effective_config(args)
    if args.threads < 1:
        raise ConfigurationError(f"--threads must be at least 1, got {args.threads}")
    out_dir = _out_dir(args.out)
    # A bad SOURCE_DATE_EPOCH fails here, not when the bundle is written after every run.
    emission_timestamp()

    if args.subcommand == "run":
        return CliInvocation(
            subcommand="run", config=config, threads=args.threads, out_dir=out_dir, raw=args.raw
        )

    team_sizes = _parse_list(args.team_sizes, "--team-sizes", int, "integer")
    if args.conditions is not None:
        conditions = _parse_list(args.conditions, "--conditions", Condition, " or ".join(Condition))
    elif config.high_perf_override is not None:
        conditions = (Condition.HOMOGENEOUS, Condition.HIGH_PERF)
    else:
        conditions = (Condition.HOMOGENEOUS,)
    sweep = SweepSpec(base_config=config, team_sizes=team_sizes, conditions=conditions)
    return CliInvocation(
        subcommand="sweep", config=config, sweep=sweep, threads=args.threads, out_dir=out_dir
    )


# Each scenario's stdout line, by subcommand, from its summary s.
_SCENARIO_LINES = {
    "run": "{label}: {s.config_echo.runs} runs x {s.config_echo.rounds} rounds, "
    "mean reward {s.reward_stats.mean:.4f}, total active time {time:.2f}e6 s",
    "sweep": "{label:<10} {s.condition.value:<12} std {s.reward_stats.std_dev:>8.2f}  "
    "time {time:>9.2f}e6 s",
}


def _cmd_scenarios(invocation: CliInvocation) -> int:
    """run or sweep: execute and summarize each scenario in turn, then write one bundle."""
    configs = (invocation.config,) if invocation.sweep is None else invocation.sweep.configs
    out, kind = invocation.out_dir, invocation.subcommand
    # Made before the first run, so an --out that cannot be a directory
    # fails at once, not after every run.
    out.mkdir(parents=True, exist_ok=True)
    runs_csv = "runs.csv" if invocation.raw else None
    # runs.csv is written while the runs are summarized, and moved into
    # place after the bundle is written, so a failed run or bundle write
    # keeps the old runs.csv as well.
    with ExitStack() as stack:
        sink = None if runs_csv is None else stack.enter_context(atomic_writer(out / runs_csv))
        write = None if sink is None else lambda runs, first: write_runs_csv(runs, sink, first)
        summaries = [execute_scenario(c, invocation.threads, write) for c in configs]
        if sink is not None:
            sink.flush()
        write_bundle(out, kind, summaries, invocation.config, runs_csv=runs_csv)
    for summary in summaries:
        time = summary.total_active_time_mean / 1e6
        print(_SCENARIO_LINES[kind].format(label=summary_label(summary), s=summary, time=time))
    print(f"wrote {out}")
    return 0


def _cmd_report(invocation: CliInvocation) -> int:
    summaries = load_bundle(invocation.from_dir)
    requested = list(invocation.tables)
    if invocation.tables == TABLE_IDS and not any(s.ranking is not None for s in summaries):
        requested.remove("ranking")
    documents = [emit_table(summaries, table) for table in requested]
    text = render_delta_report(documents)
    tables_dir = invocation.out_dir / "tables"
    tables_dir.mkdir(parents=True, exist_ok=True)
    # The report is listed last, so it is moved into place first: if it
    # cannot be replaced, neither is any table.
    write_files(
        [(tables_dir / f"{doc['table']}.json", json_bytes(doc)) for doc in documents]
        + [(invocation.out_dir / "delta_report.txt", text.encode("utf-8"))]
    )
    print(text)
    return 0


def main(invocation: CliInvocation) -> int:
    """Dispatch a validated invocation; returns the process exit status."""
    if invocation.subcommand == "report":
        return _cmd_report(invocation)
    return _cmd_scenarios(invocation)


def entrypoint(argv: list[str] | None = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    try:
        return main(parse_and_validate(arguments))
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entrypoint())
