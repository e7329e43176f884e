"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 [--out FILE]

Runs ``perfbench/run.py`` once per (seed, workload) with the run length of
BENCHMARK.json, seeds in the outer loop so slow drift of the host spreads
over every workload. For each end-to-end metric it prints the median over
the seeds and the spread (q3 - q1) / median next to the metric's bound; the
raw seconds that run.py prints but does not gate get the same summary.
Each workload then gets one traced run, with the first seed. ``--out``
writes all of it, with the host record, as one JSON file.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A metric line of run.py: name, median, unit, then the quartiles.
METRIC_LINE = re.compile(r"^(\S+)\s+(\S+) (\S+)  \(q1 ")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict, dict]:
    """One benchmark run: (result line, host record, median of every printed metric line)."""
    command = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}")
    host = next(json.loads(line[5:]) for line in lines if line.startswith("host "))
    printed = {m[1]: float(m[2]) for m in map(METRIC_LINE.match, lines) if m}
    return json.loads(lines[-1]), host, printed


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    printed = {w: {} for w in workloads}
    host = None
    for seed in seeds:
        for workload in workloads:
            result, host, lines = run_once(spec, workload, seed, trace=0)
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            for name, value in lines.items():
                printed[workload].setdefault(name, []).append(value)
            print(f"seed {seed} {workload}: " + "  ".join(
                f"{name} {metric['value']:.5g}" for name, metric in result["metrics"].items()), flush=True)

    report = {"host": host, "run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    steady = True
    for workload in workloads:
        rows = {}
        for metric in spec["end_to_end"]:
            row = spread(values[workload][metric["name"]])
            row["bound"] = metric["bound"]
            rows[metric["name"]] = row
            # setup_s is in raw seconds and follows the host's speed; setup_per_ref
            # is the steady form of the same measurement.
            ok = metric["name"] == "setup_s" or row["spread"] < metric["bound"] / 3
            steady &= ok
            print(f"{workload:<12} {metric['name']:<26} median {row['median']:<12.5g} "
                  f"spread {row['spread']:.4f} bound {metric['bound']} {'ok' if ok else 'WIDE'}")
        raw = {name: spread(medians) for name, medians in printed[workload].items()
               if name not in rows}
        for name, row in raw.items():
            print(f"{workload:<12} {name:<26} median {row['median']:<12.5g} "
                  f"spread {row['spread']:.4f} (printed, not gated)")
        report["workloads"][workload] = {"end_to_end": rows, "values": values[workload],
                                         "printed": raw}
        traced, _, _ = run_once(spec, workload, seeds[0], trace=1)
        report["workloads"][workload]["per_layer"] = {
            name: metric["value"] for name, metric in traced["metrics"].items()}
    print("every spread below a third of its bound" if steady else "some spreads are too wide")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
