"""Statistical evaluation of run results.

All moment-based statistics use population (divide-by-n) estimators, and
percentiles interpolate linearly between closest ranks, i.e. the p-th
percentile sits at fractional index p/100 * (n-1) of the sorted sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Keys of a ranking histogram, in order: ranks 1..10, then every lower rank.
RANKING_BUCKETS = (*map(str, range(1, 11)), "11_or_lower")


@dataclass(frozen=True)
class DistStats:
    """Location and spread summary of a reward vector."""

    mean: float
    std_dev: float
    min: float
    p25: float
    median: float
    p75: float
    max: float


@dataclass(frozen=True)
class ShapeStats:
    """Standardized third and fourth moments; defined only for variance > 0."""

    skewness: float
    excess_kurtosis: float


def _as_float_array(values, minimum: int = 1) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if arr.size < minimum:
        raise ValueError(f"need at least {minimum} values, got {arr.size}")
    return arr


def distribution_stats(values) -> DistStats:
    """Mean, population standard deviation, and linear-interpolation percentiles."""
    arr = _as_float_array(values)
    p0, p25, p50, p75, p100 = np.percentile(arr, [0, 25, 50, 75, 100])
    return DistStats(
        mean=float(arr.mean()),
        std_dev=float(arr.std()),
        min=float(p0),
        p25=float(p25),
        median=float(p50),
        p75=float(p75),
        max=float(p100),
    )


def _central_moments(values, orders: tuple[int, ...]) -> tuple[float, ...]:
    arr = _as_float_array(values, minimum=2)
    deltas = arr - arr.mean()
    m2 = float((deltas * deltas).mean())
    if m2 == 0.0:
        raise ValueError("shape statistics are undefined for zero-variance input")
    return tuple(m2 if k == 2 else float((deltas**k).mean()) for k in orders)


def skewness(values) -> float:
    """Population skewness m3 / m2^(3/2)."""
    m2, m3 = _central_moments(values, (2, 3))
    return m3 / m2**1.5


def excess_kurtosis(values) -> float:
    """Population kurtosis m4 / m2^2, minus 3 so a normal scores 0."""
    m2, m4 = _central_moments(values, (2, 4))
    return m4 / m2**2 - 3.0


def pearson_correlation(x, y) -> float:
    """Pearson product-moment correlation of two equal-length vectors."""
    ax = _as_float_array(x, minimum=2)
    ay = _as_float_array(y, minimum=2)
    if ax.size != ay.size:
        raise ValueError(f"length mismatch: {ax.size} vs {ay.size}")
    dx = ax - ax.mean()
    dy = ay - ay.mean()
    sx = float((dx * dx).mean()) ** 0.5
    sy = float((dy * dy).mean()) ** 0.5
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation is undefined for zero-variance input")
    return float((dx * dy).mean()) / (sx * sy)


def competition_ranks(rewards) -> np.ndarray:
    """Standard competition ranks: 1 + number of strictly richer participants."""
    arr = _as_float_array(rewards)
    return 1 + np.searchsorted(-np.sort(arr)[::-1], -arr, side="left")


def ranking_histogram(runs: Sequence, participant: int) -> dict[str, int]:
    """Count one participant's per-run competition ranks over ``RANKING_BUCKETS``.

    Zero runs give all-zero counts.
    """
    counts = dict.fromkeys(RANKING_BUCKETS, 0)
    for run in runs:
        size = len(run.cumulative_reward)
        if not 0 <= participant < size:
            raise ValueError(f"participant id {participant} outside population of {size}")
        rank = int(competition_ranks(run.cumulative_reward)[participant])
        counts[RANKING_BUCKETS[min(rank, len(RANKING_BUCKETS)) - 1]] += 1
    return counts
