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
from typing import Optional, Sequence

import numpy as np

from .core import SeriesKey, Side, VolumeSeries
from .stable import sample_quantile

__all__ = [
    "TickRecord",
    "MarketHours",
    "SampleKind",
    "PreparedSample",
    "ParseReport",
    "TickFileError",
    "EmptySeriesError",
    "ThresholdError",
    "parse_tick_file",
    "subsample_last",
    "full_sample",
    "block_maxima",
    "pot_exceedances",
]


class TickFileError(RuntimeError):
    """Unreadable tick file or one failing the malformed-row guard."""


class EmptySeriesError(ValueError):
    """No order-book state available at any grid instant."""


class ThresholdError(ValueError):
    """POT preparation found no exceedances; carries the threshold."""

    def __init__(self, message: str, threshold: float):
        super().__init__(message)
        self.threshold = threshold


_SIDE_CODES = {"B": Side.BID, "A": Side.ASK}
_COLUMNS = ("timestamp_ns", "side", "level", "price", "volume")
MAX_MALFORMED_FRACTION = 0.01


@dataclass(frozen=True)
class TickRecord:
    """One consolidated depth update: volume standing at (side, level)."""

    timestamp_ns: int
    side: Side
    level: int
    price: float
    volume: int


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
    threshold u at ``threshold_percentile``; ``exceedance_count`` is J.
    """

    kind: SampleKind
    data: np.ndarray
    provenance: SeriesKey
    block_len: Optional[int] = None
    threshold: Optional[float] = None
    threshold_percentile: Optional[float] = None

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def exceedance_count(self) -> int:
        if self.kind is not SampleKind.POT_EXCEEDANCES:
            raise AttributeError("exceedance_count only applies to POT samples")
        return int(self.data.size)

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
    structurally (bad types, unknown side), the signature of a wrong schema.
    """

    path: str
    rows: int
    parsed: int
    skipped: int
    malformed: int
    first_errors: tuple[str, ...]


class _MalformedRow(ValueError):
    """Row does not parse under the schema."""


class _InvalidRow(ValueError):
    """Row parses but violates a tick-record invariant."""


def _parse_row(row: dict, last_ts: int) -> TickRecord:
    try:
        ts = int(row["timestamp_ns"])
        side_code = row["side"].strip()
        level = int(row["level"])
        price = float(row["price"])
        volume = int(row["volume"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise _MalformedRow(str(exc)) from exc
    if side_code not in _SIDE_CODES:
        raise _MalformedRow(f"unknown side {side_code!r}")
    if ts < last_ts:
        raise _InvalidRow(f"timestamp {ts} decreases")
    if not 1 <= level <= 5:
        raise _InvalidRow(f"level {level} outside [1, 5]")
    if volume < 0:
        raise _InvalidRow(f"negative volume {volume}")
    return TickRecord(
        timestamp_ns=ts, side=_SIDE_CODES[side_code], level=level, price=price, volume=volume
    )


def parse_tick_file(path) -> tuple[list[TickRecord], ParseReport]:
    """Parse one tick CSV; bad rows are counted and skipped with a report.

    Raises TickFileError for an unreadable file, a header missing one of the
    five columns, or more than 1 percent structurally malformed rows (that
    level of damage means the schema is wrong rather than the data dirty).  Rows that
    parse but break a record invariant (negative volume, bad level, time
    going backwards) are quality skips and do not trip the guard.
    """
    path = Path(path)
    records: list[TickRecord] = []
    errors: list[str] = []
    rows = 0
    malformed = 0
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            missing = [col for col in _COLUMNS if col not in header]
            if missing:
                raise TickFileError(f"{path}: header missing columns {missing}")
            last_ts = 0
            for row in reader:
                rows += 1
                try:
                    rec = _parse_row(row, last_ts)
                except (_MalformedRow, _InvalidRow) as exc:
                    if isinstance(exc, _MalformedRow):
                        malformed += 1
                    if len(errors) < 10:
                        errors.append(f"row {rows}: {exc}")
                    continue
                last_ts = rec.timestamp_ns
                records.append(rec)
    except OSError as exc:
        raise TickFileError(f"cannot read {path}: {exc}") from exc

    if rows > 0 and malformed / rows > MAX_MALFORMED_FRACTION:
        raise TickFileError(
            f"{path}: {malformed}/{rows} malformed rows exceeds the "
            f"{MAX_MALFORMED_FRACTION:.0%} guard (wrong schema?)"
        )
    report = ParseReport(
        path=str(path), rows=rows, parsed=len(records), skipped=rows - len(records),
        malformed=malformed, first_errors=tuple(errors),
    )
    return records, report


def subsample_last(
    ticks: Sequence[TickRecord], key: SeriesKey, hours: MarketHours
) -> VolumeSeries:
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
        raise EmptySeriesError("market hours shorter than one sampling interval")

    times = []
    vols = []
    for t in ticks:
        if t.side is key.side and t.level == key.level:
            times.append(t.timestamp_ns)
            vols.append(t.volume)
    if not times:
        raise EmptySeriesError(f"no ticks for {key.side.value} level {key.level}")
    times_ns = np.asarray(times, dtype=np.int64)
    vols_arr = np.asarray(vols, dtype=float)

    idx = np.searchsorted(times_ns, grid_s * 1_000_000_000, side="right") - 1
    have = idx >= 0
    if not np.any(have):
        raise EmptySeriesError("no order-book state at or before any grid instant")
    first = int(np.argmax(have))
    return VolumeSeries(
        key=key,
        timestamps=grid_s[first:],
        values=vols_arr[idx[first:]],
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
        raise ValueError(f"series length {n} shorter than one block of {block_len}")
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

    The threshold uses the package-wide quantile convention (linear
    interpolation at plotting positions (2i - 1) / (2n)).  Excesses keep time
    order.  Zero exceedances raise ThresholdError carrying u.
    """
    if len(series) == 0:
        raise EmptySeriesError("cannot take exceedances of an empty series")
    if not 0.0 <= threshold_percentile < 1.0:
        raise ValueError("threshold_percentile must lie in [0, 1)")
    u = float(sample_quantile(series.values, threshold_percentile))
    mask = series.values > u
    if not np.any(mask):
        raise ThresholdError(f"no exceedances above threshold u={u}", threshold=u)
    return PreparedSample(
        kind=SampleKind.POT_EXCEEDANCES,
        data=series.values[mask] - u,
        provenance=series.key,
        threshold=u,
        threshold_percentile=threshold_percentile,
    )
