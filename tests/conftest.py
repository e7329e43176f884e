from __future__ import annotations

import concurrent.futures

import pytest

from potsim import ScenarioConfig


@pytest.fixture
def ci_config() -> ScenarioConfig:
    # Mirrors the CLI --ci-scale preset.
    return ScenarioConfig(participant_count=160, team_size=4, rounds=160, runs=20, master_seed=7)


@pytest.fixture
def serial_pool(monkeypatch):
    """Stands in for ProcessPoolExecutor: records (pool size, chunksize), runs tasks here."""
    calls = []

    class SerialPool:
        def __init__(self, max_workers):
            self.size = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            calls.append((self.size, chunksize))
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return calls
