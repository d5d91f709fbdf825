"""Reference tick-file parser: one ``csv.DictReader`` row at a time.

The row-by-row parser that ``lobtail.ingest.parse_tick_file`` replaces,
kept as the oracle the columnar parser is checked against.  It builds one
``TickRecord`` per accepted row and applies the row rules in order: a row
that does not convert (bad cell, unknown side, a timestamp or volume outside
int64) is malformed; a row whose timestamp is below the last accepted one,
whose level lies outside [1, 5] or whose volume is negative is skipped.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lobtail.core import Side
from lobtail.ingest import MAX_MALFORMED_FRACTION, ParseReport, TickFileError

_SIDE_CODES = {"B": Side.BID, "A": Side.ASK}
_COLUMNS = ("timestamp_ns", "side", "level", "price", "volume")
_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class TickRecord:
    """One consolidated depth update: volume standing at (side, level)."""

    timestamp_ns: int
    side: Side
    level: int
    price: float
    volume: int


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
    for name, value in (("timestamp_ns", ts), ("volume", volume)):
        if not _INT64.min <= value <= _INT64.max:
            raise _MalformedRow(f"{name} {value} outside int64")
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
    """Parse one tick CSV row by row; same report and errors as the library parser."""
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
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise TickFileError(f"cannot read {path}: {exc}") from exc

    if rows > 0 and malformed / rows > MAX_MALFORMED_FRACTION:
        raise TickFileError(
            f"{path}: {malformed}/{rows} malformed rows exceeds the "
            f"{MAX_MALFORMED_FRACTION:.0%} guard (wrong schema?)"
        )
    report = ParseReport(
        rows=rows, skipped=rows - len(records),
        malformed=malformed, first_errors=tuple(errors),
    )
    return records, report


def group_arrays(records: list[TickRecord], side: Side, level: int):
    """Timestamps (int64) and volumes (float) of one (side, level), in file order."""
    picked = [r for r in records if r.side is side and r.level == level]
    return (np.array([r.timestamp_ns for r in picked], dtype=np.int64),
            np.array([r.volume for r in picked], dtype=float))
