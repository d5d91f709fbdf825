"""Seeded synthetic estimator-comparison studies.

Reproduces the method-comparison experiments on generated data: GEV MLE
versus the mixed L-moment profile at small and large sample sizes, the GPD
MLE / Pickands / EPM comparison with percentile-cutoff variants, and the KS
sample-size case study on quantile-fitted stable samples.  Every study is
bit-reproducible under a fixed master seed; per-replicate seeds derive from
(master seed, block, replicate).

The published figures do not state their true parameter values, so the
defaults here (gamma grids around 0, sigma = 1) are this package's choice;
only the qualitative bias/variance orderings are asserted against them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import EstimationError, FitResult, GevParams, GpdParams, StableParams, child_seed
from . import gev, gof, gpd, stable

__all__ = [
    "StudyResult",
    "gev_method_comparison",
    "gpd_method_comparison",
    "ks_case_study",
]

_KS_LEVEL = 0.1  # significance level of the KS case study's rejection rates
_KS_SUB_REPLICATES = 5  # seeded subsamples per KS case-study replicate


@dataclass
class StudyResult:
    """Long-form estimate rows plus summary rows and qualitative check flags."""

    estimates: list[dict] = field(default_factory=list)
    summary: list[dict] = field(default_factory=list)
    checks: dict = field(default_factory=dict)


def _summary_value(result: StudyResult, key: str, **match):
    """``key`` of the first summary row whose columns equal ``match``; NaN if none does."""
    for row in result.summary:
        if all(row[col] == value for col, value in match.items()):
            return row[key]
    return math.nan


def _replicate(
    result: StudyResult,
    draw: Callable[[int], np.ndarray],
    variants: Sequence[tuple[dict, Callable[[np.ndarray, int], FitResult]]],
    truth: dict[str, float],
    stats: Callable[[np.ndarray, float], dict],
    replicates: int,
) -> None:
    """Fit every variant on each replicate's sample, then summarize each parameter.

    ``draw(rep)`` gives replicate ``rep``'s sample; a variant is its leading
    columns and a call ``fit(sample, rep)``.  Each (replicate, variant) adds
    one estimate row with the ``truth`` parameters, or NaNs, ``failed`` and
    the error when the fit raises EstimationError.  Each (variant, parameter)
    then adds one summary row: ``stats`` of the successful values (a NaN
    sample when none succeeded) plus the failure count.
    """
    collected = [{pname: [] for pname in truth} for _ in variants]
    failures = [0] * len(variants)
    for rep in range(replicates):
        sample = draw(rep)
        for i, (columns, fit) in enumerate(variants):
            row = {**columns, "replicate": rep}
            try:
                params = fit(sample, rep).params
            except EstimationError as exc:
                failures[i] += 1
                row.update(dict.fromkeys(truth, math.nan), failed=True, error=str(exc))
            else:
                for pname in truth:
                    row[pname] = getattr(params, pname)
                    collected[i][pname].append(row[pname])
                row["failed"] = False
            result.estimates.append(row)
    for (columns, _), values, n_failed in zip(variants, collected, failures):
        for pname, true in truth.items():
            arr = np.asarray(values[pname] or [math.nan], dtype=float)
            result.summary.append({**columns, "parameter": pname, "true": true,
                                   **stats(arr, true), "failures": n_failed,
                                   "replicates": replicates})


def _mean_bias_variance(values: np.ndarray, true: float) -> dict:
    mean = float(values.mean())
    return {"mean": mean, "bias": mean - true, "variance": float(values.var())}


def _median_variance_iqr(values: np.ndarray, true: float) -> dict:
    """Median, variance and interquartile range; the quartiles are ``np.percentile``'s
    (order statistics at (i - 1) / (n - 1)), not ``sample_quantile``'s (2i - 1) / (2n)."""
    return {"median": float(np.median(values)), "variance": float(values.var()),
            "iqr": float(np.subtract(*np.percentile(values, [75, 25])))}


def gev_method_comparison(
    true_params: GevParams,
    sample_sizes: Sequence[int] = (50, 10000),
    replicates: int = 20,
    seed: int = 0,
) -> StudyResult:
    """Fit MLE and mixed L-moments on replicated GEV samples.

    Emits per-replicate estimates and, per (n, method, parameter), the mean,
    bias and variance over successful replicates; failures are counted, not
    hidden.
    """
    result = StudyResult()
    truth = {"mu": true_params.mu, "sigma": true_params.sigma, "gamma": true_params.gamma}
    for n_idx, n in enumerate(sample_sizes):
        _replicate(
            result,
            lambda rep: gev.gev_sample(true_params, n, child_seed(seed, n_idx, rep)),
            [({"n": n, "method": "mle"}, lambda x, rep: gev.fit_gev_mle(x)),
             ({"n": n, "method": "mixed_lmoments"}, lambda x, rep: gev.fit_gev_mixed(x))],
            truth, _mean_bias_variance, replicates,
        )

    n_small, n_large = min(sample_sizes), max(sample_sizes)
    stat = functools.partial(_summary_value, result, parameter="gamma")
    result.checks = {
        "small_n_variance_mle_exceeds_mixed": bool(
            stat("variance", n=n_small, method="mle")
            > stat("variance", n=n_small, method="mixed_lmoments")
        ),
        "small_n_abs_bias_mixed_exceeds_mle": bool(
            abs(stat("bias", n=n_small, method="mixed_lmoments"))
            > abs(stat("bias", n=n_small, method="mle"))
        ),
        "large_n_both_methods_recover_shape": bool(
            abs(stat("bias", n=n_large, method="mle")) <= 0.05
            and abs(stat("bias", n=n_large, method="mixed_lmoments")) <= 0.05
        ),
    }
    return result


def gpd_method_comparison(
    true_params: GpdParams,
    n: int = 500,
    replicates: int = 20,
    epm_start_percentiles: Sequence[float] = (0.0, 0.5, 0.75),
    seed: int = 0,
) -> StudyResult:
    """Fit MLE, Pickands and EPM (per start percentile) on replicated GPD samples."""
    result = StudyResult()
    variants = [
        ({"method": "mle", "start_percentile": None}, lambda y, rep: gpd.fit_gpd_mle(y)),
        ({"method": "pickands", "start_percentile": None},
         lambda y, rep: gpd.fit_gpd_pickands(y)),
    ] + [
        ({"method": "epm", "start_percentile": sp}, lambda y, rep, sp=sp: gpd.fit_gpd_epm(
            y, start_percentile=sp, seed=child_seed(seed, 1, rep)))
        for sp in epm_start_percentiles
    ]
    _replicate(
        result,
        lambda rep: gpd.gpd_sample(true_params, n, child_seed(seed, 0, rep)) - true_params.mu,
        variants,
        {"gamma": true_params.gamma, "sigma": true_params.sigma},
        _median_variance_iqr, replicates,
    )

    stat = functools.partial(_summary_value, result, parameter="gamma")
    medians = [stat("median", method="mle"), stat("median", method="pickands")]
    medians += [stat("median", method="epm", start_percentile=sp) for sp in epm_start_percentiles]
    spreads = [stat("variance", method="epm", start_percentile=sp)
               for sp in epm_start_percentiles]
    result.checks = {
        "method_medians_within_015": bool(
            np.isfinite(medians).all() and (max(medians) - min(medians)) <= 0.3
        ),
        "epm_median_above_truth": bool(
            stat("median", method="epm",
                 start_percentile=epm_start_percentiles[-1] if epm_start_percentiles else None)
            > true_params.gamma
        ),
        "epm_spread_decreasing_in_start": bool(
            all(a > b for a, b in zip(spreads, spreads[1:]))
        ),
    }
    return result


def ks_case_study(
    stable_params: StableParams,
    n_full: int = 3888,
    n_sub: int = 200,
    replicates: int = 20,
    seed: int = 0,
) -> StudyResult:
    """KS p-values on quantile-fitted stable samples, full versus subsample.

    Each replicate draws n_full stable variates, fits by the quantile method,
    and compares the full-sample KS p-value against the mean over seeded
    subsamples of size n_sub.  The summary reports rejection rates at
    ``_KS_LEVEL``.
    """
    result = StudyResult()
    p_fulls: list[float] = []
    p_subs: list[float] = []
    for rep in range(replicates):
        data = stable.stable_sample(stable_params, n_full, child_seed(seed, 0, rep))
        fit = stable.fit_mcculloch(data)
        p_full, p_sub = gof.ks_subsample_study(
            data, fit, subsample_n=n_sub, replicates=_KS_SUB_REPLICATES,
            seed=child_seed(seed, 1, rep),
        )
        p_fulls.append(p_full)
        p_subs.append(p_sub)
        result.estimates.append(
            {"replicate": rep, "pvalue_full": p_full, "pvalue_sub_mean": p_sub}
        )
    if replicates > 0:
        reject_full = float(np.mean([p < _KS_LEVEL for p in p_fulls]))
        reject_sub = float(np.mean([p < _KS_LEVEL for p in p_subs]))
        result.summary.append(
            {
                "n_full": n_full,
                "n_sub": n_sub,
                "level": _KS_LEVEL,
                "reject_rate_full": reject_full,
                "reject_rate_sub": reject_sub,
                "mean_pvalue_full": float(np.mean(p_fulls)),
                "mean_pvalue_sub": float(np.mean(p_subs)),
                "replicates": replicates,
            }
        )
        result.checks = {
            "full_sample_rejects_at_least_as_often": bool(reject_full >= reject_sub),
        }
    return result
