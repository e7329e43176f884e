"""Round-by-round engine for team-sprint consensus simulation.

Participants are randomly partitioned into teams each round. Every member
works a fixed share of the team's base round time, sped up or slowed down by
a per-participant performance factor and a fresh per-round multiplier:

    member time = (base_time / team_size) * multiplier / performance factor

A team's completion time is the sum of its members' times (members
contribute sequentially), and the fastest team wins the round's fixed
reward, split equally among its members. Team size 1 reduces to classic
individual proof-of-work racing.

There is one engine path: ``run_simulation`` calls ``execute_round`` once
per round, which calls ``form_teams``. Rounds return plain arrays and the
run accumulates wins and member times; rewards are built from the win
counts at the end of the run. The two round functions stay separate and are
looked up through this module's globals, so the benchmark's tracer
(``perfbench/tracing.py``) can wrap them by name.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

DEFAULT_MASTER_SEED = 42


class ConfigurationError(ValueError):
    """A scenario configuration violates one of its invariants."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameterization of one experiment condition.

    ``high_perf_override`` is an optional ``(participant_id, factor)`` pair
    that pins one participant's performance factor after the uniform draw,
    used to study dominance of a single fast node.

    ``redraw_profile_per_run`` selects whether each run draws a fresh set of
    performance factors (independent repetitions) or all runs share one
    profile drawn from the master seed.
    """

    participant_count: int
    team_size: int
    rounds: int
    runs: int
    base_time: float = 600.0
    reward_per_round: float = 10.0
    perf_range: tuple[float, float] = (0.8, 1.5)
    multiplier_range: tuple[float, float] = (0.8, 1.2)
    high_perf_override: tuple[int, float] | None = None
    master_seed: int = DEFAULT_MASTER_SEED
    redraw_profile_per_run: bool = True

    def __post_init__(self) -> None:
        # Counts, ids and the seed must be true integers (a JSON 2.0 or true
        # is rejected) and every real must be finite, so a bad config file
        # or flag stops here with one message instead of deep in numpy.
        override = self.high_perf_override
        ranges = {"perf_range": self.perf_range, "multiplier_range": self.multiplier_range}
        pairs = ranges if override is None else dict(ranges, high_perf_override=override)
        for name, pair in pairs.items():
            _require(
                isinstance(pair, (tuple, list)) and len(pair) == 2,
                f"{name} must be a pair, got {pair!r}",
            )
        integers = {
            "participant_count": self.participant_count,
            "team_size": self.team_size,
            "rounds": self.rounds,
            "runs": self.runs,
            "master_seed": self.master_seed,
        }
        reals = {"base_time": self.base_time, "reward_per_round": self.reward_per_round}
        for name, (lo, hi) in ranges.items():
            reals[f"{name} lo"], reals[f"{name} hi"] = lo, hi
        if override is not None:
            integers["high_perf_override id"], reals["high_perf_override factor"] = override
        for name, value in integers.items():
            _require(
                isinstance(value, numbers.Integral) and not isinstance(value, bool),
                f"{name} must be an integer, got {value!r}",
            )
        for name, value in reals.items():
            _require(
                isinstance(value, numbers.Real)
                and not isinstance(value, bool)
                and math.isfinite(value),
                f"{name} must be a finite number, got {value!r}",
            )
        _require(
            isinstance(self.redraw_profile_per_run, bool),
            f"redraw_profile_per_run must be true or false, got {self.redraw_profile_per_run!r}",
        )

        n = self.participant_count
        _require(n >= 1, f"participant_count must be positive, got {n}")
        _require(self.team_size >= 1, f"team_size must be positive, got {self.team_size}")
        _require(
            n % self.team_size == 0,
            f"participant count {n} is not divisible by team size {self.team_size}",
        )
        _require(self.rounds >= 0, f"rounds must be non-negative, got {self.rounds}")
        _require(self.runs >= 0, f"runs must be non-negative, got {self.runs}")
        _require(self.base_time > 0, f"base_time must be positive, got {self.base_time}")
        _require(
            self.reward_per_round > 0,
            f"reward_per_round must be positive, got {self.reward_per_round}",
        )
        for name, (lo, hi) in ranges.items():
            _require(0 < lo <= hi, f"{name} must satisfy 0 < lo <= hi, got [{lo}, {hi}]")
        if override is not None:
            pid, factor = override
            _require(0 <= pid < n, f"high_perf_override id {pid} outside population of {n}")
            _require(factor > 0, f"high_perf_override factor must be positive, got {factor}")
        _require(
            0 <= self.master_seed < (1 << 64),
            f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}",
        )

    @property
    def team_count(self) -> int:
        return self.participant_count // self.team_size

    @property
    def work_time(self) -> float:
        """Each member's nominal share of a round, base_time / team_size."""
        return self.base_time / self.team_size


@dataclass(frozen=True)
class PerformanceProfile:
    """Per-participant performance factors for one run, indexed by id."""

    factors: np.ndarray


@dataclass(frozen=True)
class RunResult:
    """Accumulated outcome of one seeded run.

    ``active_time`` holds each participant's summed simulated time across
    all rounds; every participant works every round, winners and losers
    alike, which is what makes total time the energy proxy.
    """

    cumulative_reward: np.ndarray
    win_count: np.ndarray
    active_time: np.ndarray
    profile: PerformanceProfile

    @property
    def total_active_time(self) -> float:
        return float(self.active_time.sum())


def draw_performance_profile(
    config: ScenarioConfig, stream: np.random.Generator
) -> PerformanceProfile:
    """Draw factors independently uniform on perf_range, then apply the override."""
    lo, hi = config.perf_range
    factors = stream.uniform(lo, hi, config.participant_count)
    if config.high_perf_override is not None:
        pid, factor = config.high_perf_override
        factors[pid] = factor
    factors.flags.writeable = False
    return PerformanceProfile(factors=factors)


def form_teams(
    participant_count: int, team_size: int, stream: np.random.Generator
) -> np.ndarray:
    """Randomly partition participants into consecutive chunks of a shuffle.

    A uniformly random permutation of all ids is cut into team_size chunks,
    so the result is an exact partition by construction: a read-only
    (team_count, team_size) id array whose row t lists team t's members.
    """
    if team_size < 1 or participant_count % team_size != 0:
        raise ConfigurationError(
            f"participant count {participant_count} is not divisible "
            f"by team size {team_size}"
        )
    order = stream.permutation(participant_count)
    teams = order.reshape(participant_count // team_size, team_size)
    teams.flags.writeable = False
    return teams


def execute_round(
    profile: PerformanceProfile, config: ScenarioConfig, stream: np.random.Generator
) -> tuple[np.ndarray, int, np.ndarray]:
    """Play one round; return (teams, winning team index, member times).

    Stream consumption order is fixed: one permutation for team formation,
    then one multiplier per participant (indexed by id). Member times are
    indexed by participant id; a team's time is the sum over its members;
    the winner is the argmin team index, which also breaks the measure-zero
    ties toward the lowest index. The winning team's members are
    ``teams[winner]``.
    """
    teams = form_teams(config.participant_count, config.team_size, stream)
    lo, hi = config.multiplier_range
    multipliers = stream.uniform(lo, hi, config.participant_count)
    member_times = config.work_time * multipliers / profile.factors
    winner = int(np.argmin(member_times[teams].sum(axis=1)))
    return teams, winner, member_times


def run_simulation(
    config: ScenarioConfig,
    run_seed: int,
    profile: PerformanceProfile | None = None,
) -> RunResult:
    """Execute one run of config.rounds rounds from a single seeded stream.

    The stream first feeds the profile draw (unless a pre-drawn profile is
    supplied for shared-profile scenarios), then each round in sequence.
    Identical (config, run_seed, profile) always reproduce the same result.
    """
    stream = np.random.default_rng(run_seed)
    if profile is None:
        profile = draw_performance_profile(config, stream)
    elif len(profile.factors) != config.participant_count:
        raise ConfigurationError(
            f"profile length {len(profile.factors)} does not match "
            f"participant count {config.participant_count}"
        )

    n = config.participant_count
    win_count = np.zeros(n, dtype=np.int64)
    active_time = np.zeros(n)
    for _ in range(config.rounds):
        teams, winner, member_times = execute_round(profile, config, stream)
        win_count[teams[winner]] += 1
        active_time += member_times

    # Built from win counts so reward == share * wins holds bit-exactly.
    cumulative_reward = (config.reward_per_round / config.team_size) * win_count
    for arr in (cumulative_reward, win_count, active_time):
        arr.flags.writeable = False
    return RunResult(
        cumulative_reward=cumulative_reward,
        win_count=win_count,
        active_time=active_time,
        profile=profile,
    )
