"""Statistical evaluation of run results.

All moment-based statistics use population (divide-by-n) estimators, and
percentiles interpolate linearly between closest ranks, i.e. the p-th
percentile sits at fractional index p/100 * (n-1) of the sorted sample.

``distribution_stats``, ``skewness``, ``excess_kurtosis`` and
``pearson_correlation`` reduce over the last axis. A vector gives floats
and raises ``ValueError`` where a statistic is undefined. A ``(runs, n)``
table, one run per row, gives a list of floats with one value per row, NaN
where the row's statistic is undefined; each value equals, bit for bit,
the float its row gives as a vector. ``ranking_histogram`` counts one
participant's ranks over the rows of such a table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Keys of a ranking histogram, in order: ranks 1..10, then every lower rank.
RANKING_BUCKETS = (*map(str, range(1, 11)), "11_or_lower")


@dataclass(frozen=True)
class DistStats:
    """Location and spread summary of a reward vector (of each row of a table)."""

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
    """A vector of at least ``minimum`` values, or a table of non-empty rows."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError(f"expected a 1-D vector or a 2-D table, got shape {arr.shape}")
    # A table row too short for a statistic gives NaN, like any undefined row.
    least = minimum if arr.ndim == 1 else 1
    if arr.shape[-1] < least:
        raise ValueError(f"need at least {least} values, got {arr.shape[-1]}")
    return arr


def _centered(arr: np.ndarray) -> np.ndarray:
    """Deviations from the mean of each row, as a table (one row for a vector)."""
    rows = np.atleast_2d(arr)
    return rows - rows.mean(axis=1, keepdims=True)


def _by_row(arr: np.ndarray, values: list, undefined: str):
    """A table's values, None as NaN; a vector's one value, or ValueError if None.

    The values are Python floats computed one row at a time: numpy's vector
    ``power`` can differ from C ``pow`` in the last bit.
    """
    if arr.ndim == 2:
        return [float("nan") if value is None else value for value in values]
    if values[0] is None:
        raise ValueError(undefined)
    return values[0]


def distribution_stats(values) -> DistStats:
    """Mean, population standard deviation, and linear-interpolation percentiles."""
    arr = _as_float_array(values)
    percentiles = np.percentile(arr, [0, 25, 50, 75, 100], axis=-1)
    return DistStats(arr.mean(axis=-1).tolist(), arr.std(axis=-1).tolist(), *percentiles.tolist())


def _standardized_moment(values, order: int, scale) -> float | list[float]:
    """``scale(m_order, m2)`` of each row, undefined where m2 is zero."""
    arr = _as_float_array(values, minimum=2)
    deltas = _centered(arr)
    squares = deltas * deltas
    # Products, not ``power``: numpy's ``deltas**order`` is about 25 times slower.
    powers = squares * deltas if order == 3 else squares * squares
    m2s = squares.mean(axis=1).tolist()
    mks = powers.mean(axis=1).tolist()
    return _by_row(
        arr,
        [scale(mk, m2) if m2 else None for m2, mk in zip(m2s, mks)],
        "shape statistics are undefined for zero-variance input",
    )


def skewness(values) -> float | list[float]:
    """Population skewness m3 / m2^(3/2)."""
    return _standardized_moment(values, 3, lambda m3, m2: m3 / m2**1.5)


def excess_kurtosis(values) -> float | list[float]:
    """Population kurtosis m4 / m2^2, minus 3 so a normal scores 0."""
    return _standardized_moment(values, 4, lambda m4, m2: m4 / m2**2 - 3.0)


def pearson_correlation(x, y) -> float | list[float]:
    """Pearson product-moment correlation of two equal-length vectors (or tables)."""
    ax = _as_float_array(x, minimum=2)
    ay = _as_float_array(y, minimum=2)
    if ax.shape != ay.shape:
        raise ValueError(f"length mismatch: {ax.shape} vs {ay.shape}")
    dx, dy = _centered(ax), _centered(ay)
    vxs, vys, covs = ((a * b).mean(axis=1).tolist() for a, b in ((dx, dx), (dy, dy), (dx, dy)))
    return _by_row(
        ax,
        [cov / (vx**0.5 * vy**0.5) if vx and vy else None for vx, vy, cov in zip(vxs, vys, covs)],
        "correlation is undefined for zero-variance input",
    )


def competition_ranks(rewards) -> np.ndarray:
    """Standard competition ranks: 1 + number of strictly richer participants.

    A ``(runs, n)`` table is ranked row by row in one pass, and the ranks
    have the table's shape.
    """
    arr = _as_float_array(rewards)
    rows = np.atleast_2d(arr)
    size = rows.shape[1]
    # Flat index of each row's values, richest first; ties in any order.
    order = np.argsort(-rows, axis=1)
    order += np.arange(0, rows.size, size)[:, None]
    ranked = rows.ravel()[order]
    # Down each sorted row, a place takes the place where its tie began.
    richer = np.zeros(rows.shape, dtype=np.intp)
    richer[:, 1:] = np.where(ranked[:, 1:] != ranked[:, :-1], np.arange(1, size), 0)
    np.maximum.accumulate(richer, axis=1, out=richer)
    ranks = np.empty(rows.size, dtype=np.intp)
    ranks[order] = richer + 1
    return ranks.reshape(arr.shape)


def ranking_histogram(rewards, participant: int) -> dict[str, int]:
    """Count one participant's competition ranks over ``RANKING_BUCKETS``.

    ``rewards`` is a (runs, n) table, one run per row; the participant's
    rank in a run is 1 + the number of strictly richer participants, as in
    ``competition_ranks``. Zero runs give all-zero counts.
    """
    table = np.asarray(rewards, dtype=float)
    if table.ndim != 2:
        raise ValueError(f"expected a (runs, n) table, got shape {table.shape}")
    size = table.shape[1]
    if not 0 <= participant < size:
        raise ValueError(f"participant id {participant} outside population of {size}")
    ranks = 1 + np.count_nonzero(table > table[:, participant, None], axis=1)
    buckets = len(RANKING_BUCKETS)
    counts = np.bincount(np.minimum(ranks, buckets) - 1, minlength=buckets)
    return dict(zip(RANKING_BUCKETS, counts.tolist()))
