"""The rows of runs.csv, built in numpy as byte tables.

``reporting.write_runs_csv`` imports this module on its first call, so only
a CSV write pays for compiling it and for building its lookup tables.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import IO, Sequence

import numpy as np

from .core import RunResult

# Rows of runs.csv built at a time. The writer holds about 300 bytes per row
# of a block, whatever the number of runs, plus tables by distinct win count;
# a run longer than a block adds a copy of its own columns and ranks. Blocks
# of 4096 rows write 100 runs of 1600 participants 5-13% faster, but add
# 0.6 MB to the process's peak RSS.
CSV_BLOCK_ROWS = 2048

# format_g6 gathers a value's text from 16 source bytes: its six mantissa
# digits at bytes 0-2 and 4-6, "." at 3, "0" at 7, "e" at 8, NUL at 9-11,
# and the exponent's sign and three digits at 12-15.
_MANTISSA_DIGITS = (0, 1, 2, 4, 5, 6)
_POINT, _ZERO, _E, _NUL, _SIGN = 3, 7, 8, 9, 12
_G6_WIDTH = 13  # the longest '%.6g' text, as of -1.23457e-308
# The text's layout depends on the exponent's class (fixed point for
# -4 <= e < 6, else exponent form with two or three exponent digits, and
# +0.0 on its own) and on how many mantissa digits are kept once trailing
# zeros are stripped. Layout class c keeping k digits is row 7 * c + k.
_CLASSES = (*range(-4, 6), 10, 100, None)
# Tables keyed by an exponent e in [-_EXP, _EXP] hold it at e + _EXP.
_EXP = 300
# A scaled value this close to a half-integer is formatted by Python.
_TIE = 0.5 - 1e-7


def _g6_layout(exponent: int | None, kept: int) -> list[int]:
    """Source byte of each text byte, for a class's exponent keeping ``kept`` digits."""
    digits = list(_MANTISSA_DIGITS[:kept])
    if exponent is None:
        text = [_ZERO]
    elif exponent >= 6:
        fraction = [_POINT, *digits[1:]] if kept > 1 else []
        text = [_MANTISSA_DIGITS[0], *fraction, _E, _SIGN, *range(16 - len(str(exponent)), 16)]
    elif exponent >= 0:
        whole = list(_MANTISSA_DIGITS[: exponent + 1])
        text = whole + ([_POINT, *digits[exponent + 1 :]] if kept > exponent + 1 else [])
    else:
        text = [_ZERO, _POINT, *[_ZERO] * (-exponent - 1), *digits]
    return text + [_NUL] * (_G6_WIDTH - len(text))


def _words(columns) -> np.ndarray:
    """Rows of four byte values as uint32 words holding those bytes."""
    return np.ascontiguousarray(np.column_stack(columns), dtype=np.uint8).view(np.uint32).ravel()


_exponents = np.arange(-_EXP, _EXP + 1)
_triples = np.arange(1000)
_digits = _triples[:, None] // np.array([100, 10, 1]) % 10 + ord("0")
_trailing_zeros = sum(_triples % 10**k == 0 for k in (1, 2, 3))
_classes = np.select(
    [(_exponents >= -4) & (_exponents < 6), np.abs(_exponents) < 100],
    [_exponents + 4, _CLASSES.index(10)],
    _CLASSES.index(100),
)
# 10**(5 - e) by exponent, parsed from text so correctly rounded.
_SCALE = np.array([float(f"1e{5 - e}") for e in range(-_EXP, _EXP + 1)])
_LAYOUT_ROW = 7 * _classes  # the first layout row of the exponent's class
_EXP_WORDS = _words([np.where(_exponents < 0, ord("-"), ord("+")), _digits[np.abs(_exponents)]])
_HIGH_WORDS = _words([_digits, np.full(1000, ord("."))])  # by triple: its digits, then "."
_LOW_WORDS = _words([_digits, np.full(1000, ord("0"))])  # by triple: its digits, then "0"
_KEPT_HIGH = 3 - _trailing_zeros  # digits kept of a leading triple once its trailing zeros go
_KEPT_LOW = np.where(_triples > 0, 6 - _trailing_zeros, 0)  # the same for the trailing triple
_E_WORD = np.frombuffer(b"e\0\0\0", dtype=np.uint32)[0]
_LAYOUTS = np.array([_g6_layout(c, k) for c in _CLASSES for k in range(7)], dtype=np.intp)


def format_g6(values: np.ndarray) -> np.ndarray:
    """``'%.6g' % x`` of each value, as rows of 13 ASCII bytes padded with NUL.

    A value x in [1e-290, 1e290] has exponent e = floor(log10(x)), and its
    six digits are D = rint(x * 10**(5 - e)), where the power comes from a
    table of correctly rounded powers. e moves by one where D falls outside
    [10**5, 10**6). The product is within about 5e-10 of the exact
    x * 10**(5 - e), so D is the correctly rounded six digits that Python
    prints unless that product lies within 1e-7 of a half-integer. Such
    values, values outside the range, non-finite and negative values
    (-0.0 too) are formatted by Python itself; +0.0 is ``0``. The text is
    then gathered from D's digits and e by a layout row chosen by e's class
    and the number of digits kept, as ``%g`` lays it out.
    """
    x = np.asarray(values, dtype=float)
    vector = (x >= 1e-290) & (x <= 1e290)
    zero = (x == 0) & ~np.signbit(x)
    positive = np.where(vector, x, 1.0)
    at = np.floor(np.log10(positive)).astype(np.intp) + _EXP
    scaled = positive * _SCALE[at]
    mantissa = np.rint(scaled)
    slow = np.abs(scaled - mantissa) > _TIE
    moved = np.flatnonzero((mantissa < 1e5) | (mantissa >= 1e6))
    if moved.size:
        at[moved] += np.where(mantissa[moved] < 1e5, -1, 1)
        scaled = positive[moved] * _SCALE[at[moved]]
        again = np.rint(scaled)
        mantissa[moved] = again
        slow[moved] |= (np.abs(scaled - again) > _TIE) | (again < 1e5) | (again >= 1e6)
    slow |= ~(vector | zero)
    mantissa[slow] = 1e5
    high, low = np.divmod(mantissa.astype(np.intp), 1000)
    source = np.empty((len(x), 4), dtype=np.uint32)
    np.take(_HIGH_WORDS, high, out=source[:, 0])
    np.take(_LOW_WORDS, low, out=source[:, 1])
    source[:, 2] = _E_WORD
    np.take(_EXP_WORDS, at, out=source[:, 3])
    layout = _LAYOUT_ROW[at] + np.maximum(_KEPT_HIGH[high], _KEPT_LOW[low])
    layout[zero] = 7 * _CLASSES.index(None)
    index = np.take(_LAYOUTS, layout, axis=0)
    index += np.arange(0, 16 * len(x), 16)[:, None]
    text = np.take(source.view(np.uint8).ravel(), index)
    for row, value in zip(np.flatnonzero(slow).tolist(), x[slow].tolist()):
        exact = ("%.6g" % value).encode("ascii")
        text[row] = 0
        text[row, : len(exact)] = np.frombuffer(exact, dtype=np.uint8)
    return text


def _decimal_digits(values: np.ndarray) -> np.ndarray:
    """Each non-negative integer's ASCII digits, right-aligned in rows padded with NUL."""
    width = len(str(int(values.max(initial=0))))
    text = np.empty((len(values), width), dtype=np.uint8)
    rest = values
    for column in reversed(range(width)):
        rest, digit = np.divmod(rest, 10)
        text[:, column] = digit + ord("0")
    # Leading zeros: the columns left of each value's first digit.
    text[:, :-1][values[:, None] < 10 ** np.arange(width - 1, 0, -1)] = 0
    return text


@lru_cache(maxsize=1)
def _participant_digits(n: int) -> np.ndarray:
    """Digits of 0..n, the participant ids and ranks of a population of n, built once per n."""
    return _decimal_digits(np.arange(n + 1))


def _csv_rows(fields: Sequence[np.ndarray]) -> bytes:
    """CSV rows of the fields' NUL-padded texts, with the NULs dropped (no CSV byte is NUL)."""
    widths = [field.shape[1] for field in fields]
    table = np.full((len(fields[0]), sum(widths) + len(fields)), ord(","), dtype=np.uint8)
    at = 0
    for field, width in zip(fields, widths):
        table[:, at : at + width] = field
        at += width + 1
    table[:, -1] = ord("\n")
    return table.tobytes().translate(None, b"\0")


# The columns of runs.csv, in the order of the fields that write_rows builds.
CSV_HEADER = "run_id,participant_id,performance_factor,reward,wins,active_time_seconds,rank"


def _column(group: Sequence[RunResult], name: str) -> np.ndarray:
    return np.concatenate([getattr(run, name) for run in group])


def _win_levels(groups: Sequence[Sequence[RunResult]]) -> np.ndarray:
    """The distinct win counts of the runs, sorted.

    The table is merged a group at a time, so it grows with the distinct win
    counts, not with the rounds or the runs.
    """
    levels = np.zeros(0, dtype=np.int64)
    for group in groups:
        # Sorted and deduplicated by hand: np.unique and np.union1d import
        # numpy.ma, which no command otherwise loads.
        merged = np.sort(np.concatenate([levels, _column(group, "win_count")]))
        distinct = np.ones(len(merged), dtype=bool)
        np.not_equal(merged[1:], merged[:-1], out=distinct[1:])
        levels = merged[distinct]
    return levels


def write_rows(runs: Sequence[RunResult], destination: IO[bytes], first_run: int = 0) -> int:
    """Write rows of runs.csv for the runs of one scenario; returns the row count.

    run_id is ``first_run`` plus the run's position, and the call at
    ``first_run`` 0 writes the header, alone if it has no runs (a file of zero
    runs), so a file written a chunk of runs at a time from a non-empty first
    chunk has one header. The runs are stacked into groups of at most
    ``CSV_BLOCK_ROWS`` rows; a run longer than a block is a group of its own,
    written in several blocks. Each block is one (rows, width) byte table with
    every field in a slot of fixed width, padded with NUL, and is written with
    the NULs dropped. Factors and active times come from ``format_g6``; the
    other columns are rows of tables. Rewards and wins come from tables of
    the distinct win counts, built once per call, so each distinct reward,
    the reward share times the wins, is formatted once; ranks and
    participant ids come from one digit table of 0..n. A positive share
    ranks rewards as it ranks wins, so runs of two populations or two reward
    shares, or of a share that is not positive and finite, raise
    ``ValueError`` before anything is written.
    """
    populations = {len(run.win_count) for run in runs}
    if len(populations) > 1:
        raise ValueError(f"runs.csv takes runs of one population, got {sorted(populations)}")
    shares = {run.reward_share for run in runs}
    if len(shares) > 1 or not all(0 < share < math.inf for share in shares):
        raise ValueError(
            "runs.csv takes the runs of one scenario, of one positive and finite reward share, "
            f"got {sorted(shares)}"
        )
    n, share = max(populations, default=1), max(shares, default=1.0)
    group_runs = max(1, CSV_BLOCK_ROWS // n)
    groups = [runs[first : first + group_runs] for first in range(0, len(runs), group_runs)]
    levels = _win_levels(groups)
    rewards, wins_text = format_g6(share * levels), _decimal_digits(levels)
    ids = _participant_digits(n)
    if first_run == 0:
        destination.write(f"{CSV_HEADER}\n".encode("utf-8"))
    for first, group in zip(range(first_run, first_run + len(runs), group_runs), groups):
        slots = levels.searchsorted(_column(group, "win_count"))
        # A rank is 1 + the number of the run's participants with more wins.
        # Keys run * levels + slot give each run a range of its own, so the
        # keys at most a participant's are n per earlier run plus those of its
        # own run with at most its wins.
        run = np.repeat(np.arange(len(group)), n)
        keys = run * len(levels) + slots
        at_most = np.sort(keys).searchsorted(keys, "right")
        ranks = (run + 1) * n + 1 - at_most
        factors, active_time = _column(group, "factors"), _column(group, "active_time")
        run_ids = _decimal_digits(np.arange(first, first + len(group)))
        for start in range(0, len(slots), CSV_BLOCK_ROWS):
            rows = np.arange(start, min(start + CSV_BLOCK_ROWS, len(slots)))
            block = slice(start, start + len(rows))
            fields = (
                run_ids.take(rows // n, axis=0),
                ids.take(rows % n, axis=0),
                format_g6(factors[block]),
                rewards.take(slots[block], axis=0),
                wins_text.take(slots[block], axis=0),
                format_g6(active_time[block]),
                ids.take(ranks[block], axis=0),
            )
            destination.write(_csv_rows(fields))
    return n * len(runs)
