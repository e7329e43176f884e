"""In-memory spans around potsim's public functions, recorded from outside.

Each wrapped name is replaced in the module that looks it up (``cli`` calls
``execute_runs`` through its own import, ``experiments`` calls
``run_simulation`` and the stats functions through its own), so a span
covers exactly the calls the program makes. Spans are kept in memory and
summarized after each traced iteration.

Pool workers are forked from the traced process and inherit the wrappers.
A worker ships the spans of each run back attached to the ``RunResult`` it
returns; the ``execute_runs`` wrapper in the benchmark process detaches
them. ``perf_counter`` is CLOCK_MONOTONIC on Linux, so start and end times
from the workers compare with the parent's.
"""

from __future__ import annotations

import functools
import itertools
import os
from collections import Counter, defaultdict
from time import perf_counter

_SHIPPED = "_perfbench_spans"


def _rounds(args, result):
    return args[0].rounds


def _rows(args, result):
    return result


def _layer_calls():
    """(module, attribute, span name, options) for every traced call site."""
    from potsim import cli, core, experiments

    return [
        (core, "execute_round", "core.execute_round", {}),
        (core, "form_teams", "core.form_teams", {}),
        (core, "draw_performance_profile", "core.draw_performance_profile", {}),
        (experiments, "draw_performance_profile", "core.draw_performance_profile", {}),
        (experiments, "run_simulation", "core.run_simulation", {"work": _rounds, "ship": True}),
        (experiments, "execute_runs", "experiments.execute_runs", {"harvest": True}),
        (cli, "execute_runs", "experiments.execute_runs", {"harvest": True}),
        (experiments, "summarize_runs", "experiments.summarize_runs", {}),
        (cli, "summarize_runs", "experiments.summarize_runs", {}),
        (experiments, "distribution_stats", "metrics.distribution_stats", {}),
        (experiments, "skewness", "metrics.skewness", {}),
        (experiments, "excess_kurtosis", "metrics.excess_kurtosis", {}),
        (experiments, "pearson_correlation", "metrics.pearson_correlation", {}),
        (experiments, "ranking_histogram", "metrics.ranking_histogram", {}),
        (cli, "write_runs_csv", "reporting.write_runs_csv", {"work": _rows}),
        (cli, "write_bundle", "reporting.write_bundle", {}),
        (cli, "load_bundle", "reporting.load_bundle", {}),
        (cli, "emit_table", "reporting.emit_table", {}),
        (cli, "render_delta_report", "reporting.render_delta_report", {}),
        (cli, "parse_and_validate", "cli.parse_and_validate", {}),
        (cli, "main", "cli.main", {}),
    ]


class Tracer:
    """Span recorder; ``install()`` patches the layer calls, ``uninstall()`` restores them."""

    def __init__(self) -> None:
        self.owner = os.getpid()
        self.pid = self.owner
        self.spans: list[tuple] = []
        self._stack: list[tuple] = []
        self._ids = itertools.count()

    def _wrap(self, original, name, work=None, ship=False, harvest=False):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            pid = os.getpid()
            if pid != tracer.pid:
                # First traced call in a forked worker: drop the parent's copy.
                tracer.pid, tracer.spans = pid, []
            span_id = (pid, next(tracer._ids))
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
            amount = work(args, result) if work else 0
            tracer.spans.append((name, start, end, span_id, parent, amount))
            if ship and pid != tracer.owner:
                object.__setattr__(result, _SHIPPED, tracer.spans)
                tracer.spans = []
            if harvest:
                for run in result:
                    tracer.spans.extend(vars(run).pop(_SHIPPED, ()))
            return result

        return traced

    def install(self) -> list:
        patches = []
        for module, attr, name, options in _layer_calls():
            original = getattr(module, attr)
            patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, **options))
        return patches

    @staticmethod
    def uninstall(patches: list) -> None:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)

    def take(self) -> Counter:
        """Summarize and clear the recorded spans (see ``summarize``)."""
        spans, self.spans = self.spans, []
        return summarize(spans)


def _covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def summarize(spans) -> Counter:
    """Totals keyed (span name, field) for the fields calls, busy, self and work.

    busy sums the spans' durations. self is a span's duration minus the part
    of it that its child spans cover; children running in parallel workers
    are counted once. work sums the amount each span reported (rounds run,
    rows written).
    """
    children = defaultdict(list)
    for _, start, end, _, parent, _ in spans:
        children[parent].append((start, end))
    totals: Counter = Counter()
    for name, start, end, span_id, _, amount in spans:
        totals[name, "calls"] += 1
        totals[name, "busy"] += end - start
        totals[name, "self"] += end - start - _covered(children.get(span_id, ()), start, end)
        totals[name, "work"] += amount
    return totals
