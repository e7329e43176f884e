"""Command-line entry point: configure, run, and report on experiments.

Configuration precedence, lowest to highest: built-in defaults, config file
(flat JSON object with ScenarioConfig field names), presets
(--paper-defaults, --ci-scale), then individual flags. Exit codes: 0 on
success, 1 on a bad flag, config or table request (one ConfigurationError
line), 2 on a runtime failure (an unreadable or malformed bundle, a failed
write, out of memory).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .core import DEFAULT_MASTER_SEED, ConfigurationError, ScenarioConfig
from .experiments import (
    Condition,
    SweepSpec,
    execute_runs,
    summarize_runs,
    sweep_team_sizes,
)
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

# Reference experiment parameterization: 1600 participants racing 1600
# rounds of 600 s base time for a reward of 10, repeated over 100 runs,
# factors uniform on [0.8, 1.5], multipliers on [0.8, 1.2].
PAPER_DEFAULTS = {
    "participant_count": 1600,
    "team_size": 1,
    "rounds": 1600,
    "runs": 100,
    "base_time": 600.0,
    "reward_per_round": 10.0,
    "perf_range": (0.8, 1.5),
    "multiplier_range": (0.8, 1.2),
    "high_perf_override": (1000, 2.5),
    "master_seed": DEFAULT_MASTER_SEED,
    "redraw_profile_per_run": True,
}

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


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise ConfigurationError(f"{flag} expects a comma-separated integer list: {exc}") from exc


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="flat JSON config file")
    parser.add_argument(
        "--paper-defaults",
        action="store_true",
        help="load the reference experiment parameterization "
        "(1600 participants, 1600 rounds, 100 runs, override id 1000 factor 2.5)",
    )
    parser.add_argument(
        "--ci-scale",
        action="store_true",
        help="small preset (160 participants, 160 rounds, 20 runs) for fast checks; "
        "preserves invariants, not reference magnitudes",
    )
    parser.add_argument("--participants", type=int, metavar="N")
    parser.add_argument("--team-size", type=int, metavar="N")
    parser.add_argument("--rounds", type=int, metavar="R")
    parser.add_argument("--runs", type=int, metavar="K")
    parser.add_argument("--base-time", type=float, metavar="SECONDS")
    parser.add_argument("--reward", type=float, metavar="UNITS")
    parser.add_argument("--perf-range", metavar="LO,HI")
    parser.add_argument("--mult-range", metavar="LO,HI")
    parser.add_argument(
        "--seed", type=int, metavar="S", help=f"master seed (default {DEFAULT_MASTER_SEED})"
    )
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
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    allowed = set(PAPER_DEFAULTS)
    unknown = set(data) - allowed
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

    overrides = {
        "participant_count": args.participants,
        "team_size": args.team_size,
        "rounds": args.rounds,
        "runs": args.runs,
        "base_time": args.base_time,
        "reward_per_round": args.reward,
        "master_seed": args.seed,
    }
    fields.update({k: v for k, v in overrides.items() if v is not None})
    if args.perf_range is not None:
        fields["perf_range"] = _parse_pair(args.perf_range, "--perf-range")
    if args.mult_range is not None:
        fields["multiplier_range"] = _parse_pair(args.mult_range, "--mult-range")
    if args.high_perf_id is not None or args.high_perf_factor is not None:
        pid, factor = PAPER_DEFAULTS["high_perf_override"]
        fields["high_perf_override"] = (
            pid if args.high_perf_id is None else args.high_perf_id,
            factor if args.high_perf_factor is None else args.high_perf_factor,
        )
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
            subcommand="run",
            config=config,
            threads=args.threads,
            out_dir=out_dir,
            raw=args.raw,
        )

    team_sizes = _parse_int_list(args.team_sizes, "--team-sizes")
    if args.conditions is not None:
        names = [part for part in args.conditions.split(",") if part != ""]
        try:
            conditions = tuple(Condition(name) for name in names)
        except ValueError as exc:
            raise ConfigurationError(
                f"--conditions entries must be one of "
                f"{[c.value for c in Condition]}: {exc}"
            ) from exc
    elif config.high_perf_override is not None:
        conditions = (Condition.HOMOGENEOUS, Condition.HIGH_PERF)
    else:
        conditions = (Condition.HOMOGENEOUS,)
    sweep = SweepSpec(base_config=config, team_sizes=team_sizes, conditions=conditions)
    return CliInvocation(
        subcommand="sweep", config=config, sweep=sweep, threads=args.threads, out_dir=out_dir
    )


def _cmd_run(invocation: CliInvocation) -> int:
    config = invocation.config
    # Made before the first run, so an --out that cannot be a directory
    # fails at once, not after every run.
    invocation.out_dir.mkdir(parents=True, exist_ok=True)
    runs = execute_runs(config, workers=invocation.threads)
    summary = summarize_runs(config, runs)
    runs_csv = None
    # runs.csv is moved into place after the bundle is written, so a failed
    # bundle write keeps the old runs.csv as well.
    with ExitStack() as stack:
        if invocation.raw:
            runs_csv = "runs.csv"
            sink = stack.enter_context(atomic_writer(invocation.out_dir / runs_csv))
            write_runs_csv(runs, sink)
            sink.flush()
        write_bundle(invocation.out_dir, "run", [summary], config, runs_csv=runs_csv)
    print(
        f"{summary_label(summary)}: {config.runs} runs x {config.rounds} rounds, "
        f"mean reward {summary.reward_stats.mean:.4f}, "
        f"total active time {summary.total_active_time_mean / 1e6:.2f}e6 s"
    )
    print(f"wrote {invocation.out_dir}")
    return 0


def _cmd_sweep(invocation: CliInvocation) -> int:
    invocation.out_dir.mkdir(parents=True, exist_ok=True)
    summaries = sweep_team_sizes(invocation.sweep, workers=invocation.threads)
    write_bundle(invocation.out_dir, "sweep", summaries, invocation.sweep.base_config)
    for summary in summaries:
        print(
            f"{summary_label(summary):<10} {summary.condition.value:<12} "
            f"std {summary.reward_stats.std_dev:>8.2f}  "
            f"time {summary.total_active_time_mean / 1e6:>9.2f}e6 s"
        )
    print(f"wrote {invocation.out_dir}")
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
    if invocation.subcommand == "run":
        return _cmd_run(invocation)
    if invocation.subcommand == "sweep":
        return _cmd_sweep(invocation)
    return _cmd_report(invocation)


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
