"""Round-by-round engine for team-sprint consensus simulation.

Participants are randomly partitioned into teams each round. Every member
works a fixed share of the team's base round time, sped up or slowed down by
a per-participant performance factor and a fresh per-round multiplier:

    member time = (base_time / team_size) * multiplier / performance factor

A team's completion time is the sum of its members' times (members
contribute sequentially), and the fastest team wins the round's fixed
reward, split equally among its members. Team size 1 reduces to classic
individual proof-of-work racing.

Stream contract (v2). A run seed feeds three streams: ``default_rng(seed)``
draws the performance profile, and the two children of
``SeedSequence(seed).spawn(2)`` draw the multipliers and the team orders.
Rounds are drawn in blocks: one ``uniform`` call of shape (rounds, n) and
one ``form_teams`` call per block, where each round's order is a uniformly
random permutation of the ids, consumed exactly as one ``permutation(n)``
call. Team size 1 draws no order, since order cannot move an argmin over
single members. The block length is a fixed rule of the participant count,
and no output depends on it: the streams are read in the same sequence
whatever the block, member times are added to the totals one round after
another in round order, and wins are integer counts.

There is one engine path: ``run_simulation`` calls ``form_teams`` and
``execute_round`` once per block, and ``execute_round`` returns the winners
of every round of the block. Both are looked up through this module's
globals, so the benchmark's tracer (``perfbench/tracing.py``) can wrap them
by name.
"""

from __future__ import annotations

import math
import numbers
import threading
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
            # Stored as a tuple, so a config read from JSON lists equals and
            # hashes like one built from tuples.
            object.__setattr__(self, name, tuple(pair))
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
        # Within these bounds the engine's times and the statistics' fourth
        # moments stay finite and nonzero at any run size that can be computed.
        for name, value in reals.items():
            _require(1e-12 <= value <= 1e12, f"{name} must lie in [1e-12, 1e12], got {value}")
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
class RunResult:
    """Accumulated outcome of one seeded run.

    ``active_time`` holds each participant's summed simulated time across
    all rounds; every participant works every round, winners and losers
    alike, which is what makes total time the energy proxy. ``factors`` is
    the run's read-only performance profile, indexed by id.
    """

    cumulative_reward: np.ndarray
    win_count: np.ndarray
    active_time: np.ndarray
    factors: np.ndarray

    @property
    def total_active_time(self) -> float:
        return float(self.active_time.sum())


def draw_performance_profile(config: ScenarioConfig, stream: np.random.Generator) -> np.ndarray:
    """Read-only factors, independently uniform on perf_range, then the override."""
    lo, hi = config.perf_range
    factors = stream.uniform(lo, hi, config.participant_count)
    if config.high_perf_override is not None:
        pid, factor = config.high_perf_override
        factors[pid] = factor
    factors.flags.writeable = False
    return factors


# Elements per block of rounds: 2**14 float64 member times, and as many
# gather indices and gathered times, are 128 KiB each.
_BLOCK_ELEMENTS = 2**14


def form_teams(
    participant_count: int, team_size: int, stream: np.random.Generator, rounds: int
) -> np.ndarray:
    """Randomly partition participants into teams for a block of rounds.

    Returns a read-only (rounds, team_size, team_count) id array: in round
    r, column t of ``teams[r]`` lists team t's members. Each round's order is
    a uniformly random permutation of all ids, cut into team_size rows of
    team_count ids, so every round is an exact partition by construction.
    Team size 1 draws nothing and returns the identity.
    """
    if team_size < 1 or participant_count % team_size != 0:
        raise ConfigurationError(
            f"participant count {participant_count} is not divisible "
            f"by team size {team_size}"
        )
    ids = np.arange(participant_count)
    if team_size == 1:
        return np.broadcast_to(ids, (rounds, 1, participant_count))
    teams = np.tile(ids, (rounds, 1))
    stream.permuted(teams, axis=1, out=teams)
    teams.flags.writeable = False
    return teams.reshape(rounds, team_size, participant_count // team_size)


# execute_round's scratch, kept per thread and replaced only when a block
# needs another shape or more rounds. Freed after every block or run, block-
# sized scratch lets glibc's malloc trim the heap and fault the same pages in
# again: about 44k page faults, some 15% of the time, in a sweep of 22
# scenarios of 160 participants x 160 rounds x 20 runs. It holds one block:
# about 320 KiB, or above 2**14 participants three arrays of one round.
_scratch = threading.local()


def _block_scratch(rounds: int, team_size: int, team_count: int) -> tuple[np.ndarray, ...]:
    """This thread's gather indices, gathered times and team times for a block."""
    shape = (rounds, team_size, team_count)
    buffers = getattr(_scratch, "buffers", None)
    if buffers is None or buffers[0].shape[1:] != shape[1:] or len(buffers[0]) < rounds:
        buffers = np.empty(shape, np.intp), np.empty(shape), np.empty((rounds, team_count))
        _scratch.buffers = buffers
    return tuple(buffer[:rounds] for buffer in buffers)


def execute_round(teams: np.ndarray, member_times: np.ndarray) -> np.ndarray:
    """Return the winning team index of every round in a block.

    ``teams`` is one ``form_teams`` block of shape (rounds, team_size,
    team_count), team t of round r being column t of ``teams[r]``, and row r
    of ``member_times`` holds round r's times by participant id. A team's
    time is the sum down its column, added member by member, and the winner
    is the argmin, which also breaks the measure-zero ties toward the lowest
    index. Round r's winning members are ``teams[r, :, winners[r]]``.
    """
    rounds, n = member_times.shape
    index, gathered, team_times = _block_scratch(rounds, *teams.shape[1:])
    np.add(teams, np.arange(0, rounds * n, n).reshape(rounds, 1, 1), out=index)
    # Every index is in range by construction, so "clip" moves none; unlike
    # the default "raise", it writes into ``out`` without a temporary copy.
    member_times.take(index, out=gathered, mode="clip")
    return np.add.reduce(gathered, axis=1, out=team_times).argmin(axis=1)


def run_simulation(
    config: ScenarioConfig,
    run_seed: int,
    factors: np.ndarray | None = None,
) -> RunResult:
    """Execute one run of config.rounds rounds from one run seed.

    ``default_rng(run_seed)`` draws the performance factors (unless pre-drawn
    factors are supplied for shared-profile scenarios); the rounds draw from
    the two spawned child streams, as the module docstring sets out.
    Identical (config, run_seed, factors) always reproduce the same result.
    """
    if factors is None:
        factors = draw_performance_profile(config, np.random.default_rng(run_seed))
    elif len(factors) != config.participant_count:
        raise ConfigurationError(
            f"profile length {len(factors)} does not match "
            f"participant count {config.participant_count}"
        )
    multiplier_stream, team_stream = (
        np.random.default_rng(child) for child in np.random.SeedSequence(run_seed).spawn(2)
    )

    n = config.participant_count
    lo, hi = config.multiplier_range
    block = max(1, _BLOCK_ELEMENTS // n)
    win_count = np.zeros(n, dtype=np.int64)
    active_time = np.zeros(n)
    # Size this thread's scratch for the run's largest block before the first
    # block is drawn: allocated inside the first block instead, above its
    # arrays, it took more page faults and about 0.4 MB more peak RSS.
    _block_scratch(min(block, config.rounds), config.team_size, config.team_count)
    for first in range(0, config.rounds, block):
        rounds = min(block, config.rounds - first)
        teams = form_teams(n, config.team_size, team_stream, rounds)
        member_times = multiplier_stream.uniform(lo, hi, (rounds, n))
        member_times *= config.work_time
        member_times /= factors
        winners = execute_round(teams, member_times)
        winning_members = teams[np.arange(rounds), :, winners]
        win_count += np.bincount(winning_members.ravel(), minlength=n)
        # Add the block to the totals round after round, with no temporary:
        # the totals go into row 0, and the reduction down the rows adds one
        # row at a time. A single participant's column would be summed
        # pairwise instead, so it is accumulated.
        member_times[0] += active_time
        if n > 1:
            np.add.reduce(member_times, axis=0, out=active_time)
        else:
            active_time[0] = np.add.accumulate(member_times[:, 0])[-1]
        # Only one block is held at a time: drop this one before drawing the next.
        del teams, member_times

    # Built from win counts so reward == share * wins holds bit-exactly.
    cumulative_reward = (config.reward_per_round / config.team_size) * win_count
    for arr in (cumulative_reward, win_count, active_time):
        arr.flags.writeable = False
    return RunResult(
        cumulative_reward=cumulative_reward,
        win_count=win_count,
        active_time=active_time,
        factors=factors,
    )
