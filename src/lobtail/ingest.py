"""Tick-file parsing and estimator-ready sample preparation.

Tick CSV format (one file per asset and trading day): header
``timestamp_ns,side,level,price,volume`` with side in {B, A}, UTF-8, LF line
endings.  The sub-sampler records the last order-book volume at each grid
instant inside liquid market hours; block maxima and threshold exceedances
are derived from the resulting series.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .core import EstimationError, SeriesKey, Side, VolumeSeries, _frozen_array
from .stable import sample_quantile

__all__ = [
    "DayTicks",
    "MarketHours",
    "SampleKind",
    "PreparedSample",
    "ParseReport",
    "TickFileError",
    "parse_tick_file",
    "subsample_last",
    "full_sample",
    "block_maxima",
    "pot_exceedances",
]


class TickFileError(RuntimeError):
    """Unreadable tick file or one failing the malformed-row guard."""


_ASK_BY_SIDE_CODE = {"B": False, "A": True}
_COLUMNS = ("timestamp_ns", "side", "level", "price", "volume")
MAX_MALFORMED_FRACTION = 0.01


@dataclass(frozen=True)
class MarketHours:
    """Liquid market hours, seconds since midnight exchange-local."""

    open_s: int
    close_s: int

    def __post_init__(self):
        if not 0 <= self.open_s < self.close_s <= 86400:
            raise ValueError(
                f"market hours need 0 <= open < close <= 86400, got "
                f"[{self.open_s}, {self.close_s}]"
            )


class SampleKind(enum.Enum):
    FULL = "full"
    BLOCK_MAXIMA = "block_maxima"
    POT_EXCEEDANCES = "pot_exceedances"


@dataclass(frozen=True)
class PreparedSample:
    """Estimator-ready data derived from one volume series.

    BlockMaxima: ``block_len`` grid points per block, trailing partial block
    discarded.  PotExceedances: data are the positive excesses x - u over the
    threshold u at ``threshold_percentile``.
    """

    kind: SampleKind
    data: np.ndarray
    provenance: SeriesKey
    block_len: Optional[int] = None
    threshold: Optional[float] = None
    threshold_percentile: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_array(self.data))

    def meta_dict(self) -> dict:
        out = {"kind": self.kind.value, "n": int(self.data.size),
               "series": self.provenance.label()}
        if self.kind is SampleKind.BLOCK_MAXIMA:
            out["block_len"] = self.block_len
        elif self.kind is SampleKind.POT_EXCEEDANCES:
            out["threshold"] = self.threshold
            out["threshold_percentile"] = self.threshold_percentile
            out["exceedance_count"] = int(self.data.size)
        return out


@dataclass(frozen=True)
class ParseReport:
    """Per-file ingestion report.

    skipped counts every dropped row; malformed counts the subset that failed
    structurally (bad types, unknown side, a timestamp or volume outside
    int64), the signature of a wrong schema.
    """

    rows: int
    skipped: int
    malformed: int
    first_errors: tuple[str, ...]


@dataclass(frozen=True)
class DayTicks:
    """One day's accepted ticks as columns, grouped by (side, level).

    Group ``5 * side + level - 1`` (side 0 for bid, 1 for ask) holds rows
    ``offsets[g]:offsets[g + 1]`` in file order, so its timestamps are
    non-decreasing.  Prices are checked when parsing but not kept.
    """

    timestamps_ns: np.ndarray
    volumes: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_columns(cls, timestamps_ns, asks, levels, volumes) -> "DayTicks":
        """Group row columns by (side, level); ``asks`` is true on ask rows.

        Each (side, level) must list its timestamps in non-decreasing order.
        """
        levels = np.asarray(levels, dtype=np.int64)
        if not np.all((levels >= 1) & (levels <= 5)):
            raise ValueError("tick levels must lie in [1, 5]")
        group = np.asarray(asks, dtype=np.int8) * 5 + (levels - 1).astype(np.int8)
        order = np.argsort(group, kind="stable")
        return cls(
            timestamps_ns=np.asarray(timestamps_ns, dtype=np.int64)[order],
            volumes=np.asarray(volumes, dtype=float)[order],
            offsets=np.searchsorted(group[order], np.arange(11)),
        )

    def __len__(self) -> int:
        return len(self.timestamps_ns)

    def group(self, side: Side, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Timestamps and volumes of one (side, level), in time order."""
        if not 1 <= level <= 5:
            raise ValueError(f"tick level {level} outside [1, 5]")
        g = 5 * (side is Side.ASK) + level - 1
        lo, hi = self.offsets[g], self.offsets[g + 1]
        return self.timestamps_ns[lo:hi], self.volumes[lo:hi]


# Row columns of the body lines: timestamp, ask flag, level, volume,
# and the message of each structurally malformed row by its index.
_Rows = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict[int, str]]

_ROW_DTYPE = np.dtype([("timestamp_ns", np.int64), ("side", "U8"),
                       ("level", np.int64), ("price", np.float64), ("volume", np.int64)])
_BLANK_LINES = ("\n", "\r\n", "\r")
# Where numpy's text conversion disagrees with the csv module and Python's
# int/float: numpy drops trailing NULs from strings and strips the ASCII
# separators \x1c-\x1f around numbers as whitespace.
_LOADTXT_UNSAFE = "\x00\x1c\x1d\x1e\x1f"
_INT64 = np.iinfo(np.int64)


def _convert_row(cells: list) -> tuple[int, bool, int, int]:
    """(timestamp, ask, level, volume) of one row's cells in ``_COLUMNS`` order.

    A cell the row lacks is None.  Raises ValueError.
    """
    try:
        ts = int(cells[0])
        side_code = cells[1].strip()
        level = int(cells[2])
        float(cells[3])
        volume = int(cells[4])
    except (ValueError, TypeError, AttributeError) as exc:
        raise ValueError(str(exc)) from exc
    if side_code not in _ASK_BY_SIDE_CODE:
        raise ValueError(f"unknown side {side_code!r}")
    for name, value in (("timestamp_ns", ts), ("volume", volume)):
        if not _INT64.min <= value <= _INT64.max:
            raise ValueError(f"{name} {value} outside int64")
    return ts, _ASK_BY_SIDE_CODE[side_code], level, volume


def _rows_by_cell(lines: list[str], usecols: list[int]) -> _Rows:
    """Rows of ``lines`` converted one cell at a time with Python's int/float."""
    columns: list[list] = [[], [], [], []]
    errors: dict[int, str] = {}
    for row in csv.reader(lines):
        if not row:  # blank records are not rows
            continue
        try:
            values = _convert_row([row[j] if j < len(row) else None for j in usecols])
        except ValueError as exc:
            errors[len(columns[0])] = str(exc)
            values = (0, False, 0, 0)
        for column, value in zip(columns, values):
            column.append(value)
    ts, asks, levels, volumes = columns
    try:
        level_arr = np.array(levels, dtype=np.int64)
    except OverflowError:  # kept exact for the row's message
        level_arr = np.array(levels, dtype=object)
    return (np.array(ts, dtype=np.int64), np.array(asks, dtype=bool), level_arr,
            np.array(volumes, dtype=np.int64), errors)


def _loadtxt_unsafe(lines: list[str]) -> bool:
    """Whether a line holds a character numpy reads differently from csv."""
    text = "".join(lines)  # freed before loadtxt allocates its table
    return any(c in text for c in _LOADTXT_UNSAFE)


def _rows_by_loadtxt(lines: list[str], usecols: list[int]) -> Optional[_Rows]:
    """Rows of ``lines`` from one ``np.loadtxt`` call.

    None when loadtxt rejects a cell, could read a row differently from
    the csv module and Python's int/float, or reads a side other than
    exactly ``A`` or ``B``: ``_convert_row`` alone carries the side rule.
    """
    records = len(lines) - sum(map(lines.count, _BLANK_LINES))
    if records == 0:
        return _rows_by_cell([], usecols)
    if max(map(len, lines)) >= csv.field_size_limit() or _loadtxt_unsafe(lines):
        return None
    try:
        table = np.loadtxt(lines, dtype=_ROW_DTYPE, delimiter=",", comments=None,
                           quotechar='"', usecols=usecols, ndmin=1)
    except ValueError:
        return None
    asks = table["side"] == "A"
    # a record spanning lines (quoted line break) is left to the csv module
    if len(table) != records or not np.all(asks | (table["side"] == "B")):
        return None
    return table["timestamp_ns"], asks, table["level"], table["volume"], {}


def parse_tick_file(path) -> tuple[DayTicks, ParseReport]:
    """Parse one tick CSV; bad rows are counted and skipped with a report.

    Raises TickFileError for an unreadable or undecodable file, a header
    missing one of the five columns, or more than 1 percent structurally
    malformed rows (that level of damage means the schema is wrong rather
    than the data dirty).  Rows that parse but break a record invariant
    (negative volume, bad level, time going backwards) are quality skips and
    do not trip the guard.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), [])
            missing = [col for col in _COLUMNS if col not in header]
            if missing:
                raise TickFileError(f"{path}: header missing columns {missing}")
            lines = fh.readlines()
        # a column named twice is read from its last occurrence, as csv.DictReader does
        index = {name: j for j, name in enumerate(header)}
        usecols = [index[col] for col in _COLUMNS]
        # one loadtxt call for the whole body; any cell it cannot read
        # exactly sends the day to the cell-by-cell path
        body = _rows_by_loadtxt(lines, usecols)
        if body is None:
            body = _rows_by_cell(lines, usecols)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise TickFileError(f"cannot read {path}: {exc}") from exc
    del lines

    ts, asks, levels, volumes, malformed_errors = body
    rows = len(ts)
    malformed = np.zeros(rows, dtype=bool)
    malformed[list(malformed_errors)] = True
    if rows > 0 and len(malformed_errors) / rows > MAX_MALFORMED_FRACTION:
        raise TickFileError(
            f"{path}: {len(malformed_errors)}/{rows} malformed rows exceeds the "
            f"{MAX_MALFORMED_FRACTION:.0%} guard (wrong schema?)"
        )
    # A row is kept when it parses, its level and volume are valid and its
    # timestamp is not below the last kept row's.  Rows failing only the
    # time rule never raise the running maximum, so the maximum over earlier
    # otherwise-valid rows is the last kept timestamp.
    level_ok = (levels >= 1) & (levels <= 5)
    valid = ~malformed & level_ok & (volumes >= 0)
    last_ts = np.maximum.accumulate(np.concatenate(([0], np.where(valid, ts, 0))))[:-1]
    backwards = ~malformed & (ts < last_ts)
    kept = valid & ~backwards

    errors = []
    for i in np.flatnonzero(~kept)[:10]:
        if malformed[i]:
            reason = malformed_errors[i]
        elif backwards[i]:
            reason = f"timestamp {ts[i]} decreases"
        elif not level_ok[i]:
            reason = f"level {levels[i]} outside [1, 5]"
        else:
            reason = f"negative volume {volumes[i]}"
        errors.append(f"row {i + 1}: {reason}")

    ticks = DayTicks.from_columns(ts[kept], asks[kept], levels[kept], volumes[kept])
    report = ParseReport(
        rows=rows, skipped=rows - len(ticks),
        malformed=len(malformed_errors), first_errors=tuple(errors),
    )
    return ticks, report


def subsample_last(ticks: DayTicks, key: SeriesKey, hours: MarketHours) -> VolumeSeries:
    """Record the last order-book volume at each grid instant.

    The grid covers open + resolution up to close, stepped by the key's
    resolution; each grid value is the volume of the latest tick for the
    key's (side, level) with timestamp <= grid time (ties included), i.e.
    the book state carries forward between events.  Grid points before the
    first tick are dropped from the head of the emitted series.
    """
    res = key.resolution_s
    grid_s = np.arange(hours.open_s + res, hours.close_s + 1, res, dtype=np.int64)
    if grid_s.size == 0:
        raise EstimationError("market hours shorter than one sampling interval")

    times_ns, vols = ticks.group(key.side, key.level)
    if times_ns.size == 0:
        raise EstimationError(f"no ticks for {key.side.value} level {key.level}")

    idx = np.searchsorted(times_ns, grid_s * 1_000_000_000, side="right") - 1
    have = idx >= 0
    if not np.any(have):
        raise EstimationError("no order-book state at or before any grid instant")
    first = int(np.argmax(have))
    return VolumeSeries(
        key=key,
        timestamps=grid_s[first:],
        values=vols[idx[first:]],
    )


def full_sample(series: VolumeSeries) -> PreparedSample:
    """The whole series as an estimator-ready sample (stable fits use this)."""
    return PreparedSample(kind=SampleKind.FULL, data=series.values, provenance=series.key)


def block_maxima(series: VolumeSeries, block_len: int) -> PreparedSample:
    """Per-block maxima; the trailing partial block is discarded."""
    if block_len < 1:
        raise ValueError(f"block_len must be >= 1, got {block_len}")
    n = len(series)
    if n < block_len:
        raise EstimationError(f"series length {n} shorter than one block of {block_len}")
    m = n // block_len
    data = series.values[: m * block_len].reshape(m, block_len).max(axis=1)
    return PreparedSample(
        kind=SampleKind.BLOCK_MAXIMA,
        data=data,
        provenance=series.key,
        block_len=block_len,
    )


def pot_exceedances(series: VolumeSeries, threshold_percentile: float = 0.8) -> PreparedSample:
    """Peaks over threshold: positive excesses x - u over the empirical quantile u.

    The threshold uses the ``sample_quantile`` convention (linear
    interpolation at plotting positions (2i - 1) / (2n)).  Excesses keep time
    order.  Zero exceedances raise EstimationError naming u.
    """
    if len(series) == 0:
        raise EstimationError("cannot take exceedances of an empty series")
    if not 0.0 <= threshold_percentile < 1.0:
        raise ValueError("threshold_percentile must lie in [0, 1)")
    u = float(sample_quantile(series.values, threshold_percentile))
    mask = series.values > u
    if not np.any(mask):
        raise EstimationError(f"no exceedances above threshold u={u}")
    return PreparedSample(
        kind=SampleKind.POT_EXCEEDANCES,
        data=series.values[mask] - u,
        provenance=series.key,
        threshold=u,
        threshold_percentile=threshold_percentile,
    )
