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
``competition_ranks`` ranks each row, and ``ranking_histogram`` counts one
participant's ranks over the rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Keys of a ranking histogram, in order: ranks 1..10, then every lower rank.
RANKING_BUCKETS = (*map(str, range(1, 11)), "11_or_lower")


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
    """Mean, population standard deviation, and linear-interpolation percentiles."""
    table = _table(values)
    percentiles = np.percentile(table, [0, 25, 50, 75, 100], axis=1)
    return DistStats(table.mean(axis=1).tolist(), table.std(axis=1).tolist(), *percentiles.tolist())


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


def competition_ranks(rewards) -> np.ndarray:
    """Standard competition ranks: 1 + number of strictly richer participants.

    A ``(runs, n)`` table is ranked row by row in one pass, and the ranks
    have the table's shape.
    """
    table = _table(rewards)
    size = table.shape[1]
    # Flat index of each row's values, richest first; ties in any order.
    order = np.argsort(-table, axis=1)
    order += np.arange(0, table.size, size)[:, None]
    ranked = table.ravel()[order]
    # Down each sorted row, a place takes the place where its tie began.
    richer = np.zeros(table.shape, dtype=np.intp)
    richer[:, 1:] = np.where(ranked[:, 1:] != ranked[:, :-1], np.arange(1, size), 0)
    np.maximum.accumulate(richer, axis=1, out=richer)
    ranks = np.empty(table.size, dtype=np.intp)
    ranks[order] = richer + 1
    return ranks.reshape(table.shape)


def ranking_histogram(rewards, participant: int) -> dict[str, int]:
    """Count one participant's competition ranks over ``RANKING_BUCKETS``.

    ``rewards`` is a (runs, n) table, one run per row; the participant's
    rank in a run is 1 + the number of strictly richer participants, as in
    ``competition_ranks``. Zero runs give all-zero counts.
    """
    table = _table(rewards)
    size = table.shape[1]
    if not 0 <= participant < size:
        raise ValueError(f"participant id {participant} outside population of {size}")
    ranks = 1 + np.count_nonzero(table > table[:, participant, None], axis=1)
    buckets = len(RANKING_BUCKETS)
    counts = np.bincount(np.minimum(ranks, buckets) - 1, minlength=buckets)
    return dict(zip(RANKING_BUCKETS, counts.tolist()))
