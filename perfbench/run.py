"""potsim benchmark: drives ``potsim.cli.entrypoint`` in-process on one workload.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; potsim is imported from ``src/``.
``--trace 0`` repeats the workload for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced iterations,
then runs the engine probes, and reports the per-layer metrics. Every
iteration's output is checked (see checks.py). Human-readable lines come
first; the last line of stdout is one JSON object. Exit status is 1 when
any check fails and 2 when potsim cannot be found. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from checks import Expect, check_output, failed_scenarios, output_digest
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 9
MIN_ITERATIONS = 3
PROBE_PARTICIPANTS = 1600
PROBE_ROUNDS = 400
PROBE_TEAM_SIZES = (1, 8, 64)
FLOOR_CALLS = 2000
PROBE_REPEATS = 5
REFERENCE_REPS = 200
SETUP_CODE = "import sys; from potsim.cli import parse_and_validate; parse_and_validate(sys.argv[1:])"
# The set-up reference: an interpreter start and the numpy import, without potsim.
SETUP_REFERENCE_CODE = "import numpy"


@dataclass(frozen=True)
class Workload:
    """A potsim command (seed and output directory appended) followed by ``report``."""

    argv: tuple[str, ...]
    expect: Expect

    def command(self, seed: int, out: Path) -> list[str]:
        return [*self.argv, "--seed", str(seed), "--out", str(out)]

    def participant_rounds(self) -> int:
        e = self.expect
        return e.scenarios * e.participants * e.rounds * e.runs


# Why each workload exists and what it should move: README.md.
WORKLOADS = {
    "paper_sweep": Workload(
        ("sweep", "--paper-defaults", "--team-sizes", "1,2,4,8,16,32,64", "--runs", "1",
         "--threads", "1"),
        Expect(scenarios=14, participants=1600, rounds=1600, runs=1),
    ),
    # --paper-defaults --ci-scale is rejected (override id 1000 is outside 160
    # participants), so the override id is set inside the population. Team
    # size 160 is left out: its summaries hold bare NaN tokens. One worker:
    # two make the time depend on the second core, which the reference
    # kernel does not see; fanout_overhead() measures the pool instead.
    "ci_sweep": Workload(
        ("sweep", "--ci-scale", "--high-perf-id", "100", "--team-sizes",
         "1,2,4,5,8,10,16,20,32,40,80", "--threads", "1"),
        Expect(scenarios=22, participants=160, rounds=160, runs=20),
    ),
    "raw_export": Workload(
        ("run", "--paper-defaults", "--team-size", "8", "--rounds", "16", "--runs", "100",
         "--raw", "--threads", "1"),
        Expect(scenarios=1, participants=1600, rounds=16, runs=100, raw=True),
    ),
}


def _import_potsim() -> None:
    if not (SRC / "potsim" / "cli.py").is_file():
        print(f"error: potsim sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import potsim.cli

    if Path(potsim.cli.__file__).resolve().parent != SRC / "potsim":
        print(f"error: imported potsim from {potsim.cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _read(path: str | Path) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose is not None:
        return loose
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def host_record() -> dict:
    import numpy

    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    quota = _read("/sys/fs/cgroup/cpu.max")
    if quota is None:  # cgroup v1
        v1 = (_read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"),
              _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us"))
        quota = None if None in v1 else " ".join(v1)
    source = hashlib.sha256()
    for path in sorted((SRC / "potsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cgroup_cpu_quota": quota,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "src_sha256": source.hexdigest(),
    }


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def child_seconds(command: list[str], env: dict) -> float:
    """Wall seconds of a child process, from start to exit."""
    start = perf_counter()
    # No timeout: with one, subprocess polls the child with sleeps of up to 50 ms.
    subprocess.run(command, env=env, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def reference_seconds(stream) -> float:
    """Wall seconds of a fixed kernel of numpy draws and float formatting.

    It runs only numpy and the benchmark's own code, so no change to potsim
    can alter it; timed next to each iteration, it measures how fast the
    host is at that moment (README.md, "Steadiness").
    """
    start = perf_counter()
    for _ in range(REFERENCE_REPS):
        stream.permutation(PROBE_PARTICIPANTS)
        ",".join(format(value, ".6g") for value in stream.uniform(0.8, 1.2, 100).tolist())
    return perf_counter() - start


def around_reference(reference, measure):
    """measure() timed between two calls of reference(): its result and their mean seconds."""
    before = reference()
    result = measure()
    return result, (before + reference()) / 2


@dataclass(frozen=True)
class Sample:
    """One iteration: wall and CPU seconds, and the reference kernel's seconds around it."""

    wall: float
    cpu: float
    reference: float


class Runner:
    """Runs, times and checks workload iterations in one output directory."""

    def __init__(self, workload: Workload, seed: int, out: Path) -> None:
        import numpy as np

        self.workload, self.seed, self.out = workload, seed, out
        self.stream = np.random.default_rng(seed)
        self.digest: str | None = None
        self.attempted = 0
        self.failed = 0

    def iterate(self) -> Sample:
        """One workload iteration, timed between two reference kernels; records its check."""
        (wall, cpu), reference = around_reference(lambda: reference_seconds(self.stream),
                                                  self._run_and_check)
        return Sample(wall, cpu, reference)

    def _run_and_check(self) -> tuple[float, float]:
        from potsim.cli import entrypoint

        expect = self.workload.expect
        shutil.rmtree(self.out, ignore_errors=True)
        commands = (self.workload.command(self.seed, self.out), ["report", "--from", str(self.out)])
        codes = []
        cpu0 = _cpu_seconds()
        start = perf_counter()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for argv in commands:
                try:
                    codes.append(entrypoint(argv))
                except Exception:
                    traceback.print_exc()
                    codes.append(None)
        wall = perf_counter() - start
        cpu = _cpu_seconds() - cpu0

        self.attempted += expect.scenarios
        if codes != [0, 0]:
            print(f"check: potsim exit codes {codes}", file=sys.stderr)
            self.failed += expect.scenarios
            return wall, cpu
        problems = check_output(self.out, expect)
        for where, found in problems.items():
            for problem in found:
                print(f"check: {where}: {problem}", file=sys.stderr)
        failed = failed_scenarios(problems, expect)
        digest = output_digest(self.out)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            print(f"check: output digest {digest} differs from {self.digest}", file=sys.stderr)
            failed = expect.scenarios
        self.failed += failed
        return wall, cpu


def _timed_loop(deadline: float, step) -> int:
    """Call step() until the next call would likely pass the deadline; at least MIN_ITERATIONS.

    step() returns the seconds it took.
    """
    took: list[float] = []
    while len(took) < MIN_ITERATIONS or perf_counter() + statistics.median(took) <= deadline:
        start = perf_counter()
        step()
        took.append(perf_counter() - start)
    return len(took)


def _metric_line(name: str, unit: str, values: list[float]) -> str:
    q1, median, q3 = _quartiles(values)
    return f"{name:<28} {median:.6g} {unit}  (q1 {q1:.6g} q3 {q3:.6g} n {len(values)})"


def end_to_end(runner: Runner, deadline: float) -> tuple[dict, list[str]]:
    command = [sys.executable, "-c", SETUP_CODE, *runner.workload.command(runner.seed, runner.out)]
    reference_command = [sys.executable, "-c", SETUP_REFERENCE_CODE]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child_seconds(command, env)  # warms the file cache
    runner.iterate()  # warm-up: lazy imports, page cache, allocator
    samples: list[Sample] = []
    setup: list[tuple[float, float]] = []  # (seconds, set-up reference seconds around them)
    start = perf_counter()
    spacing = (deadline - start) / SETUP_SAMPLES

    def set_up() -> None:
        setup.append(around_reference(lambda: child_seconds(reference_command, env),
                                      lambda: child_seconds(command, env)))

    def step() -> None:
        # Set-up samples are spread over the run so they see the same host as the iterations.
        while len(setup) < SETUP_SAMPLES and perf_counter() >= start + len(setup) * spacing:
            set_up()
        samples.append(runner.iterate())

    _timed_loop(deadline, step)
    while len(setup) < SETUP_SAMPLES:
        set_up()
    work = runner.workload.participant_rounds()
    # The gated metrics divide each iteration by the reference kernel timed
    # around it (README.md, "Steadiness"); the raw seconds are printed too.
    gated = {
        "wall_per_ref": ("ref", [s.wall / s.reference for s in samples]),
        "participant_rounds_per_ref": ("1/ref", [work * s.reference / s.wall for s in samples]),
        "setup_per_ref": ("ref", [seconds / reference for seconds, reference in setup]),
        "setup_s": ("s", [seconds for seconds, _ in setup]),
    }
    raw = {
        "wall_s": ("s", [s.wall for s in samples]),
        "participant_rounds_per_s": ("1/s", [work / s.wall for s in samples]),
        "cpu_s": ("s", [s.cpu for s in samples]),
    }
    # A high-water mark of the whole run: one sample, so its quartiles are itself.
    gated["peak_rss_mb"] = ("MB", [_peak_rss_mb()])
    metrics = {name: {"value": statistics.median(values), "unit": unit}
               for name, (unit, values) in gated.items()}
    lines = [_metric_line(name, unit, values) for name, (unit, values) in {**gated, **raw}.items()]
    return metrics, lines


def _per_call_us(call, calls: int = FLOOR_CALLS) -> float:
    """Median over PROBE_REPEATS batches of the µs per call of call()."""
    batches = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        for _ in range(calls):
            call()
        batches.append((perf_counter() - start) / calls * 1e6)
    return statistics.median(batches)


def engine_probes(seed: int) -> dict[str, float]:
    """numpy floor at the engine's shapes, and run_simulation µs per round by team size."""
    import numpy as np

    from potsim.core import ScenarioConfig, run_simulation

    n = PROBE_PARTICIPANTS
    stream = np.random.default_rng(seed)
    member_times = stream.uniform(0.8, 1.2, n)
    teams = stream.permutation(n).reshape(n // 8, 8)
    probes = {
        "core.floor.permutation_us": _per_call_us(lambda: stream.permutation(n)),
        "core.floor.uniform_us": _per_call_us(lambda: stream.uniform(0.8, 1.2, n)),
        "core.floor.gather_us": _per_call_us(lambda: member_times[teams].sum(axis=1)),
    }
    for size in PROBE_TEAM_SIZES:
        config = ScenarioConfig(participant_count=n, team_size=size, rounds=PROBE_ROUNDS, runs=1,
                                high_perf_override=(n // 2, 2.5), master_seed=seed)
        probes[f"core.round_us.n{size:03d}"] = _per_call_us(
            lambda: run_simulation(config, seed), calls=1) / PROBE_ROUNDS
    return probes


def fanout_overhead(runner: Runner) -> float:
    """execute_runs seconds at 2 workers minus half the seconds at 1, on the workload's scenarios."""
    from potsim import experiments
    from potsim.cli import parse_and_validate

    invocation = parse_and_validate(runner.workload.command(runner.seed, runner.out))
    if invocation.sweep is None:
        configs = [invocation.config]
    else:
        spec = invocation.sweep
        configs = [experiments.scenario_config(spec.base_config, size, condition)
                   for condition in spec.conditions for size in spec.team_sizes]
    # A single run never reaches the pool, so each scenario gets at least two.
    configs = [replace(config, runs=max(config.runs, 2)) for config in configs]
    busy = {}
    for workers in (1, 2):
        start = perf_counter()
        for config in configs:
            experiments.execute_runs(config, workers=workers)
        busy[workers] = perf_counter() - start
    return busy[2] - busy[1] / 2


def per_layer(runner: Runner, deadline: float) -> tuple[dict, list[str]]:
    tracer = Tracer()
    totals: Counter = Counter()
    untraced: list[float] = []
    traced: list[float] = []
    runner.iterate()  # warm-up

    def step() -> None:
        sample = runner.iterate()
        untraced.append(sample.wall / sample.reference)
        patches = tracer.install()
        try:
            sample = runner.iterate()
        finally:
            tracer.uninstall(patches)
        traced.append(sample.wall / sample.reference)
        totals.update(tracer.take())
        csv = runner.out / "runs.csv"
        totals["csv", "bytes"] += csv.stat().st_size if csv.exists() else 0

    iterations = _timed_loop(deadline, step)

    def get(name: str, field: str) -> float:
        return totals[name, field] / iterations

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    sim_busy = get("core.run_simulation", "busy")
    form_busy = get("core.form_teams", "busy")
    csv_busy = get("reporting.write_runs_csv", "busy")
    csv_rows = get("reporting.write_runs_csv", "work")
    metrics = {
        "core.run_simulation.calls": (get("core.run_simulation", "calls"), "count"),
        "core.run_simulation.busy_s": (sim_busy, "s"),
        "core.run_simulation.self_s": (get("core.run_simulation", "self"), "s"),
        "core.round_us": (ratio(sim_busy, get("core.run_simulation", "work")) * 1e6, "us"),
        "core.execute_round.busy_s": (get("core.execute_round", "busy"), "s"),
        "core.execute_round.self_s": (get("core.execute_round", "self"), "s"),
        "core.form_teams.busy_s": (form_busy, "s"),
        "core.form_teams.us_per_call": (ratio(form_busy, get("core.form_teams", "calls")) * 1e6, "us"),
        "core.draw_performance_profile.busy_s": (get("core.draw_performance_profile", "busy"), "s"),
        "experiments.execute_runs.calls": (get("experiments.execute_runs", "calls"), "count"),
        "experiments.execute_runs.busy_s": (get("experiments.execute_runs", "busy"), "s"),
        "experiments.summarize_runs.self_s": (get("experiments.summarize_runs", "self"), "s"),
        "metrics.distribution_stats.busy_s": (get("metrics.distribution_stats", "busy"), "s"),
        "metrics.shape.busy_s": (get("metrics.skewness", "busy") + get("metrics.excess_kurtosis", "busy"), "s"),
        "metrics.pearson_correlation.busy_s": (get("metrics.pearson_correlation", "busy"), "s"),
        "metrics.ranking_histogram.busy_s": (get("metrics.ranking_histogram", "busy"), "s"),
        "reporting.write_runs_csv.busy_s": (csv_busy, "s"),
        "reporting.csv_rows": (csv_rows, "count"),
        "reporting.csv_rows_per_s": (ratio(csv_rows, csv_busy), "1/s"),
        "reporting.csv_bytes": (get("csv", "bytes"), "bytes"),
        "reporting.write_bundle.busy_s": (get("reporting.write_bundle", "busy"), "s"),
        "reporting.load_bundle.busy_s": (get("reporting.load_bundle", "busy"), "s"),
        "reporting.emit_table.busy_s": (get("reporting.emit_table", "busy"), "s"),
        "reporting.render_delta_report.busy_s": (get("reporting.render_delta_report", "busy"), "s"),
        "cli.parse_and_validate.busy_s": (get("cli.parse_and_validate", "busy"), "s"),
        "cli.main.self_s": (get("cli.main", "self"), "s"),
        "trace.overhead_frac": (statistics.median(traced) / statistics.median(untraced) - 1, "ratio"),
    }
    for name, value in engine_probes(runner.seed).items():
        metrics[name] = (value, "us")
    metrics["experiments.fanout_overhead_s"] = (fanout_overhead(runner), "s")
    lines = [f"traced iterations {iterations} (each after an untraced one); values are per iteration"]
    lines += [f"{name:<40} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be a 64-bit unsigned integer")
    start = perf_counter()
    _import_potsim()
    # Pins manifest.json's timestamp so the output digest is a function of the seed alone.
    os.environ["SOURCE_DATE_EPOCH"] = "0"

    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runner = Runner(WORKLOADS[args.workload], args.seed, scratch / "out")
        measure = per_layer if args.trace else end_to_end
        metrics, lines = measure(runner, start + args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print("host " + json.dumps(host_record(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"output_digest {runner.digest}")
    print(f"{'failed_frac':<26} {runner.failed / runner.attempted:.6g} 1  "
          f"({runner.failed} of {runner.attempted} scenarios)")
    for line in lines:
        print(line)
    correct = runner.failed == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
