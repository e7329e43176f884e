"""Independent brute-force implementations used as test oracles.

Everything here is written directly from the defining formulas with plain
Python floats and math.fsum, deliberately sharing no code with the package.
numpy supplies only the random streams the engine's contract names.
"""

from __future__ import annotations

import csv
import itertools
import math
from fractions import Fraction

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


def contract_v4_order(words):
    """One round's team order under stream contract v4, from its raw words as Python ints.

    The ids are sorted by their words' high 32 bits. If two high halves are
    equal, the round's order is instead
    default_rng(high halves of the first four words).permutation(n).
    """
    highs = [word >> 32 for word in words]
    if len(set(highs)) < len(words):
        return np.random.default_rng(highs[:4]).permutation(len(words)).tolist()
    return [pid for _, pid in sorted(zip(highs, range(len(words))))]


def contract_v4_run(participant_count, team_size, rounds, run_seed, work_time,
                    multiplier_range, factors):
    """One run of stream contract v4, round by round: (win counts, active times, tied rounds).

    Every round reads n raw words from default_rng(SeedSequence(run_seed).spawn(1)[0]).
    The low 32 bits of word i give participant i's member time
    low * slope + offset, with slope = (hi - lo) * 2**-32 * work_time / f and
    offset = lo * work_time / f, in Python floats. Unless team_size is 1, the
    words give the round's contract_v4_order, cut into team_size rows of
    team_count ids with team t as column t. Team times are summed slot by
    slot, and the first lowest team wins.
    """
    stream = np.random.default_rng(np.random.SeedSequence(run_seed).spawn(1)[0])
    n = participant_count
    team_count = n // team_size
    lo, hi = multiplier_range
    slopes = [(hi - lo) * 2**-32 * work_time / float(f) for f in factors]
    offsets = [lo * work_time / float(f) for f in factors]
    wins = [0] * n
    active = [0.0] * n
    tied = []
    for r in range(rounds):
        words = stream.bit_generator.random_raw(n).tolist()
        times = [(word & 0xFFFFFFFF) * slope + offset
                 for word, slope, offset in zip(words, slopes, offsets)]
        order = list(range(n))
        if team_size > 1:
            order = contract_v4_order(words)
            if len({word >> 32 for word in words}) < n:
                tied.append(r)
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
    return wins, active, tied


def two_team_win_probabilities(factors, multiplier_range):
    """Each participant's exact chance to be on the winning team of two teams of n/2.

    Member i's time is proportional to m_i / f_i, each m_i independently
    uniform on multiplier_range [lo, hi); a team's time is its members' sum and
    the lower sum wins. Team A wins with P(sum_A - sum_B < 0). With U_i uniform
    on [0, 1), a member of A adds lo/f_i + w_i U_i and a member of B adds
    -hi/f_i + w_i (1 - U_i), w_i = (hi - lo)/f_i, so the difference is a shift
    c plus S = sum_i w_i U_i, and P = F(-c) for the CDF of a sum of k = n
    independent uniforms, an inclusion-exclusion over the 2^k corners:

        F(t) = sum over subsets J of (-1)^|J| max(0, t - sum_J w)^k / (k! prod w).

    The alternating sum cancels heavily, so it is evaluated in Fractions (a
    float is an exact rational) and rounded once per participant. A uniform
    order cut into two teams makes each of the C(n, n/2) / 2 partitions
    equally likely; a participant's probability is the mean over them.
    """
    lo, hi = (Fraction(x) for x in multiplier_range)
    inverse = [1 / Fraction(f) for f in factors]
    n = len(inverse)
    widths = [(hi - lo) * v for v in inverse]
    scale = math.factorial(n) * math.prod(widths)
    corners = [
        (len(subset), sum((widths[i] for i in subset), Fraction(0)))
        for size in range(n + 1)
        for subset in itertools.combinations(range(n), size)
    ]

    def team_a_wins(team_a):
        t = -sum(lo * v if i in team_a else -hi * v for i, v in enumerate(inverse))
        return sum(
            (-1) ** size * (t - reach) ** n for size, reach in corners if t > reach
        ) / scale

    # The partitions listed by the team that holds participant 0.
    partitions = [set(c) for c in itertools.combinations(range(n), n // 2) if 0 in c]
    totals = [Fraction(0)] * n
    for team_a in partitions:
        p = team_a_wins(team_a)
        for i in range(n):
            totals[i] += p if i in team_a else 1 - p
    return [float(total / len(partitions)) for total in totals]
