"""Exploratory diagnostics for volume series: descriptive statistics, hourly
median heat-map matrices, long-memory (Hurst) estimation via detrended
fluctuation analysis, and the tail plots (mean excess, Hill, QQ against the
exponential).
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .core import EstimationError, Side, VolumeSeries

__all__ = [
    "DescriptiveStats",
    "CurvePoints",
    "HourlyMedianMatrix",
    "descriptive",
    "hourly_medians",
    "hourly_median_matrix",
    "mean_excess_curve",
    "hill_curve",
    "qq_exponential",
    "hurst_dfa",
    "dfa_window_grid",
]

_DFA_MIN_WINDOW = 8
_DFA_WINDOW_RATIO = math.sqrt(2.0)


@dataclass(frozen=True)
class DescriptiveStats:
    """Moment-based summary.  Kurtosis is the non-excess Pearson moment ratio
    (Gaussian -> 3); skew the standardized third moment; std uses the n-1
    denominator.  Degenerate (constant) data report NaN skew/kurtosis."""

    max: float
    min: float
    median: float
    mean: float
    std: float
    kurtosis: float
    skew: float


@dataclass(frozen=True)
class CurvePoints:
    """Paired plot data; lo/hi carry the pointwise bands where defined (Hill)."""

    xs: np.ndarray
    ys: np.ndarray
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.shape != ys.shape:
            raise ValueError("xs and ys must have equal length")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)


def descriptive(data) -> DescriptiveStats:
    """Descriptive statistics for one intraday series (length >= 4)."""
    x = np.asarray(data, dtype=float)
    if x.size < 4:
        raise EstimationError(f"need at least 4 observations, got {x.size}")
    m = float(x.mean())
    centered = x - m
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        skew = kurt = float("nan")
    else:
        skew = float(np.mean(centered**3) / m2**1.5)
        kurt = float(np.mean(centered**4) / m2**2)
    return DescriptiveStats(
        max=float(x.max()),
        min=float(x.min()),
        median=float(np.median(x)),
        mean=m,
        std=float(x.std(ddof=1)),
        kurtosis=kurt,
        skew=skew,
    )


@dataclass(frozen=True)
class HourlyMedianMatrix:
    """hour x trading-day medians for one (side, level); NaN marks empty hours."""

    hours: np.ndarray      # integer hour-of-day labels (rows)
    days: tuple            # trading days (columns), sorted
    matrix: np.ndarray     # shape (len(hours), len(days))


def hourly_medians(series: VolumeSeries) -> dict[int, float]:
    """Median volume of each hour of day the series covers, in hour order."""
    hours = (series.timestamps // 3600).astype(int)
    return {int(h): float(np.median(series.values[hours == h])) for h in np.unique(hours)}


def hourly_median_matrix(
    medians: Mapping[tuple[Side, int, datetime.date], Mapping[int, float]]
) -> dict[tuple[Side, int], HourlyMedianMatrix]:
    """Fold per-day hourly medians into one hour x day matrix per (side, level).

    ``medians`` maps (side, level, trading day) to that series'
    ``hourly_medians``, all of one asset and resolution.  Rows span the hour
    range seen anywhere in the input.
    """
    covered = [h for by_hour in medians.values() for h in by_hour]
    if not covered:
        raise ValueError("series set contains no observations")
    hours = np.arange(min(covered), max(covered) + 1)

    groups: dict[tuple[Side, int], dict[datetime.date, Mapping[int, float]]] = {}
    for (side, level, day), by_hour in medians.items():
        groups.setdefault((side, level), {})[day] = by_hour

    out = {}
    for group, by_day in groups.items():
        days = tuple(sorted(by_day))
        mat = np.full((hours.size, len(days)), np.nan)
        for col, day in enumerate(days):
            for h, med in by_day[day].items():
                mat[h - hours[0], col] = med
        out[group] = HourlyMedianMatrix(hours=hours, days=days, matrix=mat)
    return out


def mean_excess_curve(data) -> CurvePoints:
    """Sample mean excess e(u) = sum of excesses over u / count exceeding u.

    The thresholds are the sorted unique data values excluding the top three
    order statistics (the rightmost mean-excess points are dominated by one
    or two observations).  A positive slope at large u is the heavy-tail
    signature; for exact GPD data the slope is gamma / (1 - gamma).
    """
    x = np.sort(np.asarray(data, dtype=float))
    if x.size < 4:
        raise EstimationError(f"need at least 4 observations, got {x.size}")
    us = np.unique(x[x < x[-3]])
    if us.size == 0:
        raise EstimationError("no usable thresholds below the sample maximum")

    # suffix sums make e(u) O((n + m) log n) instead of O(n m)
    suffix = np.concatenate([np.cumsum(x[::-1])[::-1], [0.0]])
    idx = np.searchsorted(x, us, side="right")
    counts = x.size - idx
    sums = suffix[idx] - counts * us
    ys = sums / counts
    return CurvePoints(xs=us, ys=ys)


def hill_curve(data, k_max: int) -> CurvePoints:
    """Hill statistic H_k over the k largest order statistics, k = 3..k_max.

    With descending order statistics x(1) >= ... >= x(n),
    H_k = (1/(k-1)) sum_{i<k} [ln x(i) - ln x(k)], reported on the extreme
    value index scale (H_k estimates 1/alpha for a Pareto(alpha) tail; the
    published display equates the sum to the inverse index, which conflicts
    with the standard convention, so the standard one is used).  lo/hi carry
    the pointwise 95 percent bands H_k (1 -+ 1.96 / sqrt(k)).  The threshold
    axis is the exceedance count k.
    """
    x = np.asarray(data, dtype=float)
    if np.any(x <= 0):
        raise EstimationError("Hill estimator requires strictly positive data")
    n = x.size
    if not 3 <= k_max <= n:
        raise ValueError(f"k_max must lie in [3, {n}], got {k_max}")
    logs = np.log(np.sort(x)[::-1])
    ks = np.arange(3, k_max + 1)
    prefix = np.cumsum(logs)
    h = prefix[ks - 2] / (ks - 1) - logs[ks - 1]
    half_width = 1.96 / np.sqrt(ks)
    return CurvePoints(
        xs=ks.astype(float),
        ys=h,
        lo=h * (1.0 - half_width),
        hi=h * (1.0 + half_width),
    )


def qq_exponential(data) -> CurvePoints:
    """Sorted data against exponential quantiles -ln(1 - p) at p = (i - 1/2)/n.

    Concavity of the points (ys growing faster than xs) diagnoses a
    sub-exponential right tail; exponential data fall on the diagonal.
    """
    ys = np.sort(np.asarray(data, dtype=float))
    if ys.size == 0:
        raise ValueError("data must be non-empty")
    n = ys.size
    p = (np.arange(1, n + 1) - 0.5) / n
    xs = -np.log1p(-p)
    return CurvePoints(xs=xs, ys=ys)


def dfa_window_grid(n: int) -> np.ndarray:
    """Geometric window-length grid from _DFA_MIN_WINDOW to n // 4, ratio _DFA_WINDOW_RATIO."""
    w_max = n // 4
    if w_max < _DFA_MIN_WINDOW:
        return np.array([], dtype=int)
    ws = [_DFA_MIN_WINDOW]
    while ws[-1] < w_max:
        nxt = max(int(round(ws[-1] * _DFA_WINDOW_RATIO)), ws[-1] + 1)
        if nxt > w_max:
            break
        ws.append(nxt)
    return np.asarray(ws, dtype=int)


def hurst_dfa(series) -> tuple[float, CurvePoints]:
    """Hurst exponent by first-order detrended fluctuation analysis.

    Integrates the mean-centered series, splits the profile into
    non-overlapping windows of each length w, removes a least-squares line
    per window, and fits the log-log slope of the RMS fluctuation F(w).
    The window lengths are dfa_window_grid(n), geometric from 8 to n/4 with
    ratio sqrt(2), so every window fits at least four times.
    H is invariant under affine transforms of the input.
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    ws = dfa_window_grid(n)
    if ws.size < 4:
        raise EstimationError(f"need at least 4 window sizes, got {ws.size}")

    profile = np.cumsum(x - x.mean())
    fs = np.empty(ws.size)
    for w_idx, w in enumerate(ws):
        m = n // w
        segs = profile[: m * w].reshape(m, w)
        t = np.arange(w, dtype=float)
        t_mean = t.mean()
        t_center = t - t_mean
        denom = float(np.sum(t_center**2))
        slopes = segs @ t_center / denom
        inters = segs.mean(axis=1) - slopes * t_mean
        resid = segs - (inters[:, None] + slopes[:, None] * t)
        fs[w_idx] = math.sqrt(float(np.mean(resid**2)))
    if np.any(fs == 0.0):
        raise EstimationError("degenerate series: zero fluctuation")
    log_w = np.log(ws.astype(float))
    log_f = np.log(fs)
    h = float(np.polyfit(log_w, log_f, 1)[0])
    return h, CurvePoints(xs=log_w, ys=log_f)
