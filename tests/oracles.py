"""Independent brute-force implementations used as test oracles.

Everything here is written directly from the defining formulas with plain
Python floats and math.fsum, deliberately sharing no code with the package.
numpy supplies only the random streams the engine's contract names.
"""

from __future__ import annotations

import csv
import math

import numpy as np

MASK64 = (1 << 64) - 1


def mean(values):
    return math.fsum(values) / len(values)


def central_moment(values, order):
    m = mean(values)
    return math.fsum((x - m) ** order for x in values) / len(values)


def population_std(values):
    return math.sqrt(central_moment(values, 2))


def percentile_linear(values, p):
    """Linear interpolation between closest ranks at index p/100 * (n-1)."""
    ordered = sorted(values)
    position = p / 100 * (len(ordered) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    fraction = position - lower
    return ordered[lower] * (1 - fraction) + ordered[upper] * fraction


def skewness(values):
    m2 = central_moment(values, 2)
    return central_moment(values, 3) / m2**1.5


def excess_kurtosis(values):
    m2 = central_moment(values, 2)
    return central_moment(values, 4) / m2**2 - 3.0


def pearson(xs, ys):
    mx, my = mean(xs), mean(ys)
    cov = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys)) / len(xs)
    return cov / (population_std(xs) * population_std(ys))


def competition_rank(rewards, participant):
    return 1 + sum(1 for value in rewards if value > rewards[participant])


def csv_rows_oracle(runs):
    """The bytes of runs.csv, one f-string row per participant with format(x, '.6g') reals."""
    lines = ["run_id,participant_id,performance_factor,reward,wins,active_time_seconds,rank"]
    for run_id, run in enumerate(runs):
        rewards = run.cumulative_reward.tolist()
        for pid in range(len(rewards)):
            lines.append(
                f"{run_id},{pid},{format(float(run.factors[pid]), '.6g')},"
                f"{format(float(rewards[pid]), '.6g')},{int(run.win_count[pid])},"
                f"{format(float(run.active_time[pid]), '.6g')},{competition_rank(rewards, pid)}"
            )
    return "".join(line + "\n" for line in lines).encode("utf-8")


def read_participant_csv(source):
    """Parse runs.csv bytes back into one dict per row, typed by column."""
    types = {"run_id": int, "participant_id": int, "performance_factor": float, "reward": float,
             "wins": int, "active_time_seconds": float, "rank": int}
    reader = csv.DictReader(source.read().decode("utf-8").splitlines())
    return [{key: cast(record[key]) for key, cast in types.items()} for record in reader]


def splitmix64_outputs(seed, count):
    """Transcription of the published SplitMix64 reference algorithm."""
    x = seed & MASK64
    out = []
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


# First five outputs of the reference algorithm, frozen from the
# transcription above (seed 0 additionally cross-checked against the widely
# quoted value 0xE220A8397B1DCDAF).
SPLITMIX64_SEED0 = (
    16294208416658607535,
    7960286522194355700,
    487617019471545679,
    17909611376780542444,
    1961750202426094747,
)
SPLITMIX64_SEED1234567 = (
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
)


def contract_v3_order(n, team_stream):
    """One round's team order under stream contract v3, from Python ints.

    The round reads n raw words. Word i keeps its high 64 - b bits, with
    b = (n - 1).bit_length(), and takes id i as its low b bits; sorting the
    keys sorts the ids by their high bits. If two high parts are equal, the
    round's order is instead default_rng(first four raw words).permutation(n).
    """
    words = team_stream.bit_generator.random_raw(n).tolist()
    b = (n - 1).bit_length()
    highs = [word >> b for word in words]
    if len(set(highs)) < n:
        return np.random.default_rng(words[:4]).permutation(n).tolist()
    return [pid for _, pid in sorted(zip(highs, range(n)))]


def contract_v3_run(participant_count, team_size, rounds, run_seed, work_time,
                    multiplier_range, factors):
    """One run of stream contract v3, round by round: (win counts, active times).

    The two children of SeedSequence(run_seed).spawn(2) draw the multipliers
    and the team orders: one uniform(lo, hi, n) and, unless team_size is 1,
    one contract_v3_order per round. The order is cut into team_size rows of
    team_count ids and team t is column t. Member times are (work_time * m) / f
    in Python floats, team times are summed slot by slot, and the first
    lowest team wins.
    """
    multiplier_stream, team_stream = (
        np.random.default_rng(child) for child in np.random.SeedSequence(run_seed).spawn(2)
    )
    n = participant_count
    team_count = n // team_size
    lo, hi = multiplier_range
    factors = [float(f) for f in factors]
    wins = [0] * n
    active = [0.0] * n
    for _ in range(rounds):
        order = list(range(n)) if team_size == 1 else contract_v3_order(n, team_stream)
        multipliers = multiplier_stream.uniform(lo, hi, n).tolist()
        times = [(work_time * m) / f for m, f in zip(multipliers, factors)]
        teams = [[order[slot * team_count + t] for slot in range(team_size)]
                 for t in range(team_count)]
        team_times = []
        for team in teams:
            total = 0.0
            for member in team:
                total += times[member]
            team_times.append(total)
        for member in teams[team_times.index(min(team_times))]:
            wins[member] += 1
        active = [a + x for a, x in zip(active, times)]
    return wins, active
