"""The benchmark's tracer wraps potsim functions by module and name.

``perfbench/tracing.py`` replaces each of them in the module that looks it
up, so a refactor that moves or renames one breaks ``perfbench/run.py
--trace``. This test reads that file and checks every name still resolves.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_is_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    calls = tracing._layer_calls()
    assert calls
    unresolved = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in calls
        if not callable(getattr(module, attr, None))
    ]
    assert unresolved == []
