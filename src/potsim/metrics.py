"""Statistical evaluation of run results.

Every statistic takes a ``(runs, n)`` table, one run per row and n >= 1,
and any other shape raises ``ValueError``. All moment-based statistics use
population (divide-by-n) estimators, and percentiles interpolate linearly
between closest ranks, i.e. the p-th percentile sits at fractional index
p/100 * (n-1) of the sorted sample. ``distribution_stats``, ``skewness``,
``excess_kurtosis`` and ``pearson_correlation`` give one value per row,
NaN where the row's statistic is undefined (zero variance). The shape and
correlation ratios are Python floats computed one row at a time: numpy's
vector ``power`` can differ from C ``pow`` in the last bit.
``participant_ranks`` gives one participant's rank in each row; only
``ranking_histogram``, which counts such ranks by bucket, takes a 1-D
sequence of them instead of a table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Keys of a ranking histogram, in order: ranks 1..10, then every lower rank.
RANKING_BUCKETS = (*map(str, range(1, 11)), "11_or_lower")
# The percentiles of ``DistStats``, min to max, as fractions.
_QUANTILES = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class DistStats:
    """Location and spread of rewards: per row (lists), or averaged over runs (floats)."""

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


def _table(values) -> np.ndarray:
    """``values`` as a float (runs, n) table with n >= 1, or ValueError."""
    table = np.asarray(values, dtype=float)
    if table.ndim != 2 or table.shape[1] < 1:
        raise ValueError(f"expected a (runs, n) table with n >= 1, got shape {table.shape}")
    return table


def _centered(table: np.ndarray) -> np.ndarray:
    """Deviations from the mean of each row."""
    return table - table.mean(axis=1, keepdims=True)


def distribution_stats(values) -> DistStats:
    """Mean, population standard deviation, and linear-interpolation percentiles.

    The percentiles are numpy's ``linear`` method bit for bit, taken from
    one partition of each row: ``np.percentile`` itself imports all of
    ``numpy.ma`` on its first call.
    """
    table = _table(values)
    # Moments first: with the partitioned copy alive, their temporaries
    # would fault in fresh pages (about 600 per call at 100 x 1600).
    means, std_devs = table.mean(axis=1).tolist(), table.std(axis=1).tolist()
    last = table.shape[1] - 1
    # numpy's ranks: the floor of each fractional index and the rank above
    # it, both -1 at the end, where the weight from the floor is index + 1.
    ats = [q * last for q in _QUANTILES]
    lows = [math.floor(at) if at < last else -1 for at in ats]
    highs = [low + 1 if low >= 0 else -1 for low in lows]
    weights = np.subtract(ats, lows)
    # The ranks numpy partitions at, so each zero keeps the sign it has there.
    ordered = np.partition(table, sorted({0, -1, *lows, *highs}), axis=1)
    below, above = ordered[:, lows], ordered[:, highs]
    span = above - below
    percentiles = below + span * weights
    np.subtract(above, span * (1 - weights), out=percentiles, where=weights >= 0.5)
    # A row holding NaN partitions a NaN last and reports that value at every rank.
    np.copyto(percentiles, ordered[:, -1:], where=np.isnan(ordered[:, -1:]))
    return DistStats(means, std_devs, *percentiles.T.tolist())


def _standardized_moment(values, order: int, scale) -> list[float]:
    """``scale(m_order, m2)`` of each row, NaN where m2 is zero."""
    deltas = _centered(_table(values))
    squares = deltas * deltas
    # Products, not ``power``: numpy's ``deltas**order`` is about 25 times slower.
    powers = squares * deltas if order == 3 else squares * squares
    m2s = squares.mean(axis=1).tolist()
    mks = powers.mean(axis=1).tolist()
    return [scale(mk, m2) if m2 else float("nan") for m2, mk in zip(m2s, mks)]


def skewness(values) -> list[float]:
    """Population skewness m3 / m2^(3/2)."""
    return _standardized_moment(values, 3, lambda m3, m2: m3 / m2**1.5)


def excess_kurtosis(values) -> list[float]:
    """Population kurtosis m4 / m2^2, minus 3 so a normal scores 0."""
    return _standardized_moment(values, 4, lambda m4, m2: m4 / m2**2 - 3.0)


def pearson_correlation(x, y) -> list[float]:
    """Pearson product-moment correlation of each pair of rows of two equal-shape tables."""
    ax, ay = _table(x), _table(y)
    if ax.shape != ay.shape:
        raise ValueError(f"shape mismatch: {ax.shape} vs {ay.shape}")
    dx, dy = _centered(ax), _centered(ay)
    vxs, vys, covs = ((a * b).mean(axis=1).tolist() for a, b in ((dx, dx), (dy, dy), (dx, dy)))
    return [
        cov / (vx**0.5 * vy**0.5) if vx and vy else float("nan")
        for vx, vy, cov in zip(vxs, vys, covs)
    ]


def participant_ranks(rewards, participant: int) -> np.ndarray:
    """One participant's competition rank in each row: 1 + the number of strictly richer."""
    table = _table(rewards)
    size = table.shape[1]
    if not 0 <= participant < size:
        raise ValueError(f"participant id {participant} outside population of {size}")
    return 1 + np.count_nonzero(table > table[:, participant, None], axis=1)


def ranking_histogram(ranks) -> dict[str, int]:
    """Count a sequence of integer ranks >= 1 over ``RANKING_BUCKETS``, else ValueError."""
    values = np.asarray(ranks, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"expected a sequence of ranks, got shape {values.shape}")
    bad = ~((values >= 1) & (values == np.floor(values)) & np.isfinite(values))
    if bad.any():
        raise ValueError(f"a rank must be an integer of at least 1, got {values[bad][0].item()!r}")
    buckets = len(RANKING_BUCKETS)
    counts = np.bincount(np.minimum(values, buckets).astype(np.intp) - 1, minlength=buckets)
    return dict(zip(RANKING_BUCKETS, counts.tolist()))
