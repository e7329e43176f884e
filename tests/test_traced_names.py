"""The benchmark's tracer wraps potsim functions by module and name.

``perfbench/tracing.py`` replaces each of them in the module that looks it
up, so a refactor that moves or renames one breaks ``perfbench/run.py
--trace``, and one that stops calling it through that module leaves its
per-layer metrics at zero. These tests read that file and check that every
name still resolves and that a traced command records every span. The
benchmark also reads a sweep's fields, which the last test pins.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from potsim.cli import entrypoint, parse_and_validate
from potsim.experiments import scenario_config

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_is_callable():
    tracing = load_tracing()
    calls = tracing._layer_calls()
    assert calls
    unresolved = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in calls
        if not callable(getattr(module, attr, None))
    ]
    assert unresolved == []


def test_every_traced_name_is_called(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    patches = tracer.install()
    try:
        run = ["run", "--ci-scale", "--high-perf-id", "3", "--runs", "3", "--raw"]
        assert entrypoint([*run, "--out", str(tmp_path)]) == 0
        assert entrypoint(["report", "--from", str(tmp_path)]) == 0
    finally:
        tracer.uninstall(patches)
    recorded = {span[0] for span in tracer.spans}
    assert {name for _, _, name, _ in tracing._layer_calls()} - recorded == set()


def test_sweep_fields_the_benchmark_reads_rebuild_the_configs():
    # perfbench/run.py's fanout_overhead rebuilds a sweep's configs from these
    # fields with scenario_config, so renaming any of them breaks --trace.
    argv = ["sweep", "--ci-scale", "--high-perf-id", "100", "--team-sizes", "1,2,4"]
    spec = parse_and_validate(argv).sweep
    configs = [
        scenario_config(spec.base_config, size, condition)
        for condition in spec.conditions
        for size in spec.team_sizes
    ]
    assert len(configs) == 6 and tuple(configs) == spec.configs
