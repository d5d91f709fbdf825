"""Deterministic CSV/JSON emitters for the batch pipeline.

Every CSV goes through ``write_csv``, which takes its table as columns and
picks each column's cell rule once: an integer is its decimal digits, a
float its shortest round-trip repr with NaN as an empty cell, a boolean
``true``/``false``, ``None`` an empty cell, and text is RFC 4180 (quoted, its
quotes doubled, when it holds a comma, a quote or a line break).  JSON
writes NaN as null.  Re-runs under a fixed seed produce byte-identical
trees.  Files are UTF-8 with LF line endings, '.' decimal separator and no
thousands separators.  The writers only write: the caller makes each directory.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import FitResult
from .diagnostics import CurvePoints, HourlyMedianMatrix
from .ingest import PreparedSample

SCHEMA_VERSION = 2

__all__ = [
    "SCHEMA_VERSION",
    "write_csv",
    "write_json",
    "write_series_csv",
    "write_curve_csv",
    "write_prepared_sample",
    "write_heatmap_csv",
    "fit_to_dict",
]


def _cell(value) -> str:
    """One cell of a column that is not a numeric or boolean ndarray."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    f = float(value)
    return "" if math.isnan(f) else repr(f)


def _quote(text: str) -> str:
    """A str cell as RFC 4180 text: quoted, with its quotes doubled, when it
    holds a comma, a quote or a line break; verbatim otherwise."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(column) -> list[str]:
    """The column's cells as text, by a rule chosen once from its dtype."""
    if isinstance(column, np.ndarray):
        kind = column.dtype.kind
        if kind == "b":
            return ["true" if v else "false" for v in column.tolist()]
        if kind in "iu":
            return list(map(str, column.tolist()))
        if kind == "f":
            cells = list(map(repr, column.astype(float, copy=False).tolist()))
            for i in np.flatnonzero(np.isnan(column)).tolist():
                cells[i] = ""
            return cells
    return [_cell(v) for v in column]


def write_csv(path: Path, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """CSV of ``columns``, one per header name and all of one length."""
    if len(columns) != len(header) or len({len(col) for col in columns}) > 1:
        raise ValueError(f"{path.name}: {len(header)} header names need as many "
                         f"columns of one length, got lengths {[len(c) for c in columns]}")
    lines = [",".join(map(_quote, header)), *map(",".join, zip(*map(_cells, columns)))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _jsonable(obj):
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return None if math.isnan(f) else f
    return obj


def write_json(path: Path, payload: dict) -> None:
    body = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    path.write_text(body + "\n", encoding="utf-8", newline="\n")


def write_series_csv(path: Path, timestamps: np.ndarray, values: np.ndarray) -> None:
    write_csv(path, ["t_s", "volume"], [timestamps, values])


def write_curve_csv(path: Path, curve: CurvePoints) -> None:
    if curve.lo is not None and curve.hi is not None:
        write_csv(path, ["x", "y", "lo", "hi"], [curve.xs, curve.ys, curve.lo, curve.hi])
    else:
        write_csv(path, ["x", "y"], [curve.xs, curve.ys])


def write_prepared_sample(csv_path: Path, sample: PreparedSample) -> None:
    write_csv(csv_path, ["index", "value"], [np.arange(sample.data.size), sample.data])
    write_json(csv_path.with_suffix(".meta.json"), sample.meta_dict())


def write_heatmap_csv(path: Path, hm: HourlyMedianMatrix) -> None:
    header = ["hour"] + [d.isoformat() for d in hm.days]
    write_csv(path, header, [hm.hours, *hm.matrix.T])


def fit_to_dict(fit: FitResult) -> dict:
    out = {
        "family": fit.family.value,
        "method": fit.method.value,
        "params": dataclasses.asdict(fit.params),
        "sample_size": fit.sample_size,
        "converged": fit.converged,
        "ks_statistic": fit.ks_statistic,
        "ks_pvalue": fit.ks_pvalue,
        "notes": list(fit.notes),
    }
    if fit.covariance is not None:
        out["covariance"] = fit.covariance.tolist()
    return out
