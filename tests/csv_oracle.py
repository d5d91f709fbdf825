"""Reference CSV text: every cell formatted on its own.

The per-cell rule that the columnar ``lobtail.report.write_csv`` replaces,
kept as the oracle it is checked against.  The table arrives as columns and
is read back row by row, so a cell of an ndarray column is a numpy scalar,
as it was when callers passed ``zip(...)`` rows.
"""

from __future__ import annotations

import math

import numpy as np


def fmt(value) -> str:
    """Shortest round-trip decimal text; empty for NaN/None."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    f = float(value)
    if math.isnan(f):
        return ""
    return repr(f)


def quote(text: str) -> str:
    """RFC 4180: quoted, with quotes doubled, when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_text(header, columns) -> str:
    lines = [",".join(map(quote, header))]
    for row in zip(*columns):
        lines.append(",".join(quote(v) if isinstance(v, str) else fmt(v) for v in row))
    return "\n".join(lines) + "\n"
