"""Goodness-of-fit: one-sample Kolmogorov-Smirnov against a fitted CDF,
percentile-wise theoretical-vs-empirical comparison, and the subsample study
showing the sample-size effect on KS p-values.

The test is run one-sample against a CDF whose parameters were estimated on
the same data, so the p-values are anti-conservative; they are a ranking
guide, not calibrated significance levels.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import gev, gpd, stable
from .core import EstimationError, Family, FitResult
from .stable import sample_quantile

__all__ = [
    "ks_statistic",
    "kolmogorov_pvalue",
    "percentile_comparison",
    "ks_subsample_study",
    "fit_cdf",
    "DEFAULT_PROBES",
]

DEFAULT_PROBES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
_KOLMOGOROV_TERMS = 100
_KOLMOGOROV_TOL = 1e-10


def kolmogorov_pvalue(lam: float) -> float:
    """Asymptotic Kolmogorov tail probability Q(lam) = 2 sum (-1)^(k-1) exp(-2 k^2 lam^2)."""
    if lam < 0.15:  # 100 terms do not converge below; 1 - Q(0.15) ~ 2e-23
        return 1.0
    total = 0.0
    for k in range(1, _KOLMOGOROV_TERMS + 1):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < _KOLMOGOROV_TOL:
            break
    return min(max(total, 0.0), 1.0)


def ks_statistic(data, cdf: Callable[[np.ndarray], np.ndarray]) -> tuple[float, float]:
    """One-sample KS distance and its asymptotic p-value at sqrt(n) D.

    D is the supremum over the sorted sample of max(|i/n - F(x_i)|,
    |(i-1)/n - F(x_i)|).  A CDF probe that decreases along the sorted data
    (beyond 1e-12) is rejected as non-monotone with EstimationError.
    """
    x = np.sort(np.asarray(data, dtype=float))
    n = x.size
    if n < 1:
        raise ValueError("data must be non-empty")
    f = np.asarray(cdf(x), dtype=float)
    if f.shape != x.shape:
        raise ValueError("cdf must evaluate elementwise on an array")
    if np.any(np.diff(f) < -1e-12):
        raise EstimationError("cdf probe is non-monotone on the data range")
    i = np.arange(1, n + 1)
    d_plus = np.abs(i / n - f)
    d_minus = np.abs((i - 1) / n - f)
    d = float(np.max(np.maximum(d_plus, d_minus)))
    return d, kolmogorov_pvalue(math.sqrt(n) * d)


def fit_cdf(fit: FitResult) -> Callable[[np.ndarray], np.ndarray]:
    """CDF of a FitResult's fitted distribution, usable with ks_statistic."""
    params = fit.params
    if fit.family is Family.STABLE:
        return lambda x: stable.stable_cdf(x, params)
    if fit.family is Family.GEV:
        return lambda x: gev.gev_cdf(x, params)
    return lambda x: gpd.gpd_cdf(x, params)


def percentile_comparison(
    data, cdf: Callable[[np.ndarray], np.ndarray]
) -> list[tuple[float, float]]:
    """Fitted CDF evaluated at the empirical quantiles of ``DEFAULT_PROBES``.

    An exact fit returns the probe value itself in every row; shortfall at
    the high probes flags an underestimated tail.  The CDF is called once,
    on all probe quantiles.
    """
    x = np.asarray(data, dtype=float)
    if x.size == 0:
        raise ValueError("data must be non-empty")
    values = np.asarray(cdf(sample_quantile(x, np.asarray(DEFAULT_PROBES))), dtype=float)
    return [(p, float(v)) for p, v in zip(DEFAULT_PROBES, values)]


def ks_subsample_study(
    data,
    fit: FitResult,
    subsample_n: int,
    replicates: int,
    seed: int,
) -> tuple[float, float]:
    """KS p-value on the full sample versus seeded uniform subsamples.

    Returns (pvalue_full, mean p-value over ``replicates`` subsamples of size
    ``subsample_n`` drawn without replacement).  Large samples reject far
    more readily for the same distributional distance.
    """
    x = np.asarray(data, dtype=float)
    if not 1 <= subsample_n < x.size:
        raise ValueError(f"subsample_n must lie in [1, {x.size}), got {subsample_n}")
    # the fitted CDF is evaluated once, on the full sample; every KS call
    # below looks its points' values up there, which is exact because each
    # point is a sample value and its CDF value does not depend on the others
    x_sorted = np.sort(x)
    f_sorted = np.asarray(fit_cdf(fit)(x_sorted), dtype=float)

    def cdf(points):
        return f_sorted[np.searchsorted(x_sorted, points)]

    _, p_full = ks_statistic(x, cdf)
    rng = np.random.default_rng(seed)
    p_subs = []
    for _ in range(replicates):
        idx = rng.choice(x.size, size=subsample_n, replace=False)
        _, p_sub = ks_statistic(x[idx], cdf)
        p_subs.append(p_sub)
    p_sub_mean = float(np.mean(p_subs)) if p_subs else float("nan")
    return p_full, p_sub_mean
