"""Round-by-round engine for team-sprint consensus simulation.

Participants are randomly partitioned into teams each round. Every member
works a fixed share of the team's base round time, sped up or slowed down by
a per-participant performance factor and a fresh per-round multiplier:

    member time = (base_time / team_size) * multiplier / performance factor

A team's completion time is the sum of its members' times (members
contribute sequentially), and the fastest team wins the round's fixed
reward, split equally among its members. Team size 1 reduces to classic
individual proof-of-work racing.

Stream contract (v4). A run seed feeds two streams: ``default_rng(seed)``
draws the performance profile, and the rounds read raw 64-bit words from
``default_rng(SeedSequence(seed).spawn(1)[0])``. Round r reads one word per
participant, word i being participant i's, and each word serves twice:

- Its low 32 bits, ``low``, give the multiplier
  ``lo + (hi - lo) * low * 2**-32`` on ``multiplier_range`` [lo, hi). With
  ``slope = (hi - lo) * 2**-32 * work_time / f`` and
  ``offset = lo * work_time / f`` for a participant of factor f, its member
  time is ``low * slope + offset``, evaluated in that order.
- Its high 32 bits order the round's teams. The key of participant i is
  the word's high half over the flat index ``r * n + i`` as its low half;
  sorting a round's keys orders the ids by their high halves, exactly
  uniformly whenever those are distinct, and the low halves of the sorted
  keys index the round's member times directly. A round where two high
  halves tie takes ``default_rng(high halves of words[:4]).permutation(n)``
  instead: still uniform, seeded from the high halves alone so the order
  stays independent of the multipliers, and reading nothing more from the
  stream. Expected tied rounds per round are about n**2 / 2**33: 3e-6 at
  n = 160, 3e-4 at n = 1600 and about 0.5 at n = 65536, where a tied round
  is still correct but pays for a sort and a permutation. Team size 1 uses
  only the low halves and sorts nothing, since order cannot move an argmin
  over single members.

The halves are taken arithmetically, so no output depends on the host's
byte order. Rounds are drawn in blocks: one ``random_raw`` call of shape
(rounds, n) and one ``form_teams`` call per block.

The block length is a fixed rule of the participant count, and no output
depends on it: the round stream is read in the same sequence whatever the
block, a round's order does not depend on its place in the block, member
times are added to the totals one round after another in round order, and
wins are integer counts.

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
    master_seed: int = 42
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
        # A sort key's low half holds a flat index of the block (see form_teams).
        _require(n <= 1 << 32, f"participant_count must be at most 2**32, got {n}")
        _require(self.team_size >= 1, f"team_size must be positive, got {self.team_size}")
        _require(
            n % self.team_size == 0,
            f"participant count {n} is not divisible by team size {self.team_size}",
        )
        _require(self.rounds >= 0, f"rounds must be non-negative, got {self.rounds}")
        _require(self.runs >= 1, f"runs must be positive, got {self.runs}")
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
    the run's read-only performance profile, indexed by id. ``reward_share``
    is each winner's take of a round, the round's reward over the team size.
    """

    win_count: np.ndarray
    active_time: np.ndarray
    factors: np.ndarray
    reward_share: float

    @property
    def cumulative_reward(self) -> np.ndarray:
        """Each participant's summed reward, the share times the wins, computed on access."""
        return self.reward_share * self.win_count


def draw_performance_profile(config: ScenarioConfig, stream: np.random.Generator) -> np.ndarray:
    """Read-only factors, independently uniform on perf_range, then the override."""
    lo, hi = config.perf_range
    factors = stream.uniform(lo, hi, config.participant_count)
    if config.high_perf_override is not None:
        pid, factor = config.high_perf_override
        factors[pid] = factor
    factors.flags.writeable = False
    return factors


# Elements per block of rounds: 2**14 raw words, member times, flat indices
# and gathered times are 128 KiB each. A block thus holds at most
# max(2**14, n) elements, so every flat index r * n + i fits the low half of
# a sort key.
_BLOCK_ELEMENTS = 2**14
_HIGH_HALF = np.uint64(0xFFFFFFFF00000000)
_LOW_HALF = np.uint64(0xFFFFFFFF)


def form_teams(words: np.ndarray, team_size: int) -> np.ndarray:
    """Randomly partition participants into teams for a block of rounds.

    ``words`` is the block's (rounds, n) array of raw words, row r holding
    round r's word of each participant by id. Returns a read-only (rounds,
    team_size, team_count) array of flat indices ``r * n + i`` into the
    block's (rounds, n) member times: in round r, column t lists team t's
    members. Each round's order is a uniformly random permutation of all
    ids, taken from the words' high halves as the module docstring sets out
    and cut into team_size rows of team_count ids, so every round is an
    exact partition by construction. The words are sorted in place and the
    result is a view of them, so read their low halves first. Team size 1
    sorts nothing and returns the identity order.
    """
    rounds, n = words.shape
    if team_size < 1 or n % team_size != 0:
        raise ConfigurationError(
            f"participant count {n} is not divisible by team size {team_size}"
        )
    flat = _block_scratch(rounds, team_size, n // team_size)[0]
    if team_size == 1:
        return flat.view(np.int64).reshape(rounds, 1, n)
    fallback_seeds = words[:, :4] >> np.uint64(32)
    words &= _HIGH_HALF
    words |= flat
    words.sort(axis=1)
    # Neighbours in a sorted row share their high halves exactly when their
    # XOR fits in the low half. One pass over the whole block, row ends
    # included, is half the time of a pass row by row; only a hit is looked
    # at row by row.
    keys = words.ravel()
    tied = ()
    if keys.size and (keys[1:] ^ keys[:-1]).min() <= _LOW_HALF:
        tied = np.flatnonzero((words[:, 1:] ^ words[:, :-1] <= _LOW_HALF).any(axis=1))
    words &= _LOW_HALF
    teams = words.view(np.int64)
    for r in tied:
        teams[r] = np.random.default_rng(fallback_seeds[r]).permutation(n) + r * n
    teams.flags.writeable = False
    return teams.reshape(rounds, team_size, n // team_size)


# The engine's scratch, kept per thread and replaced only when a block needs
# another shape or more rounds. Freed after every block or run, block-sized
# scratch lets glibc's malloc trim the heap and fault the same pages in
# again: about 44k page faults, some 15% of the time, in a sweep of 22
# scenarios of 160 participants x 160 rounds x 20 runs. It holds one block:
# 128 KiB each of flat indices, member-major indices and member-major
# gathered times, and at most 64 KiB of team times, or above 2**14
# participants the four arrays of one round. Each is one flat buffer, and a
# block takes C-contiguous prefix views of it, so a partial block is written
# in place like a whole one. Team size 1 reads only the flat indices.
_scratch = threading.local()


def _block_scratch(rounds: int, team_size: int, team_count: int) -> tuple[np.ndarray, ...]:
    """This thread's views for one block, each a C-contiguous prefix of a kept buffer.

    Returns the read-only (rounds, n) flat indices r * n + i, the
    (team_size, rounds, team_count) member-major indices and gathered times,
    and the (rounds, team_count) team times.
    """
    n = team_size * team_count
    kept = getattr(_scratch, "kept", None)
    if kept is None or kept[0] != (team_size, team_count) or kept[1][0].size < rounds * n:
        flat = np.arange(rounds * n, dtype=np.uint64)
        flat.flags.writeable = False
        buffers = flat, np.empty(rounds * n, dtype=np.int64), np.empty(rounds * n)
        kept = (team_size, team_count), (*buffers, np.empty(rounds * team_count))
        _scratch.kept = kept
    flat, index, gathered, team_times = kept[1]
    block = (team_size, rounds, team_count)
    return (
        flat[: rounds * n].reshape(rounds, n),
        index[: rounds * n].reshape(block),
        gathered[: rounds * n].reshape(block),
        team_times[: rounds * team_count].reshape(rounds, team_count),
    )


def execute_round(teams: np.ndarray, member_times: np.ndarray) -> np.ndarray:
    """Return the winning team index of every round in a block.

    ``member_times`` holds the block's member times, row r by participant id
    for round r, and ``teams`` is the block's ``form_teams`` result: flat
    indices r * n + i into ``member_times``, team t of round r being column
    t of ``teams[r]``. The times are gathered member-major, slot by slot
    into a (team_size, rounds, team_count) scratch, and summed down its
    first axis, so a team's time is added slot 0 first, one member at a
    time, over contiguous rows of every round's teams at once. The winner
    is the argmin, which also breaks the measure-zero ties toward the lowest
    index. Round r's winning members are ``teams[r, :, winners[r]] - r * n``.
    A ``teams`` block that indexes below 0 or past ``member_times`` raises
    ValueError.
    """
    if len(teams) and (teams[0].min() < 0 or teams[-1].max() >= member_times.size):
        # A block's smallest indices are in its first round and its largest
        # in its last; one outside the times means ``teams`` and
        # ``member_times`` are of different blocks.
        raise ValueError(
            f"teams of {len(teams)} rounds index outside member times of shape "
            f"{member_times.shape}: pass a whole form_teams block and its times"
        )
    if teams.shape[1] == 1:
        # Single-member teams are ``form_teams``' identity: team t is
        # participant t, so the winner is the argmin of the times as they are.
        return member_times.argmin(axis=1)
    _, index, gathered, team_times = _block_scratch(len(member_times), *teams.shape[1:])
    # ``take`` would copy the strided transpose into a fresh temporary every
    # block, which glibc can trim from the heap top and fault in again: up to
    # 31k page faults in one pass of the sweep above. The kept index is not.
    np.copyto(index, teams.transpose(1, 0, 2))
    # Every index is in range, as checked above, so "clip" moves none; unlike
    # the default "raise", it writes into ``out`` without a temporary copy.
    member_times.take(index, out=gathered, mode="clip")
    return np.add.reduce(gathered, axis=0, out=team_times).argmin(axis=1)


def run_simulation(
    config: ScenarioConfig,
    run_seed: int,
    factors: np.ndarray | None = None,
) -> RunResult:
    """Execute one run of config.rounds rounds from one run seed.

    ``default_rng(run_seed)`` draws the performance factors (unless pre-drawn
    factors are supplied for shared-profile scenarios); the rounds read the
    spawned child stream, as the module docstring sets out.
    Identical (config, run_seed, factors) always reproduce the same result.
    """
    seed = np.random.SeedSequence(run_seed)
    if factors is None:
        factors = draw_performance_profile(config, np.random.Generator(np.random.PCG64(seed)))
    elif len(factors) != config.participant_count:
        raise ConfigurationError(
            f"profile length {len(factors)} does not match "
            f"participant count {config.participant_count}"
        )
    stream = np.random.PCG64(seed.spawn(1)[0])

    n = config.participant_count
    lo, hi = config.multiplier_range
    # member time = low * slope + offset, as the module docstring sets out.
    slope = (hi - lo) * 2.0**-32 * config.work_time / factors
    offset = lo * config.work_time / factors
    block = max(1, _BLOCK_ELEMENTS // n)
    win_count = np.zeros(n, dtype=np.int64)
    active_time = np.zeros(n)
    # Size this thread's scratch for the run's largest block before the first
    # block is drawn: allocated inside the first block instead, above its
    # arrays, it took more page faults and about 0.4 MB more peak RSS.
    _block_scratch(min(block, config.rounds), config.team_size, config.team_count)
    for first in range(0, config.rounds, block):
        rounds = min(block, config.rounds - first)
        words = stream.random_raw((rounds, n))
        # Truncating to uint32 keeps the low halves whatever the byte order.
        member_times = words.astype(np.uint32).astype(np.float64)
        member_times *= slope
        member_times += offset
        teams = form_teams(words, config.team_size)
        winners = execute_round(teams, member_times)
        # Subtracting each round's offset r * n is cheaper than an int64 modulo.
        offsets = np.arange(0, rounds * n, n)[:, None]
        winning_members = teams[np.arange(rounds), :, winners] - offsets
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
        del words, teams, member_times

    for arr in (win_count, active_time):
        arr.flags.writeable = False
    return RunResult(
        win_count=win_count,
        active_time=active_time,
        factors=factors,
        reward_share=config.reward_per_round / config.team_size,
    )
