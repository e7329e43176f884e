from __future__ import annotations

import pytest

from potsim import ScenarioConfig


@pytest.fixture
def ci_config() -> ScenarioConfig:
    # Mirrors the CLI --ci-scale preset.
    return ScenarioConfig(participant_count=160, team_size=4, rounds=160, runs=20, master_seed=7)
