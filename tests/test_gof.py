import math

import numpy as np
import pytest

from lobtail.core import (EstimationError, Family, FitResult, GevParams, GpdParams, Method,
                          StableParams)
from lobtail.gof import (
    DEFAULT_PROBES,
    fit_cdf,
    kolmogorov_pvalue,
    ks_statistic,
    ks_subsample_study,
    percentile_comparison,
)
from lobtail.gpd import gpd_cdf, gpd_quantile, gpd_sample
from lobtail.stable import sample_quantile, stable_sample

P_GPD = GpdParams(gamma=0.3, sigma=1.0)
P_STABLE = StableParams(alpha=1.7, beta=0.5, gamma=1.0, delta=0.0)


def _gpd_cdf(x):
    return gpd_cdf(x, P_GPD)


def test_ks_exact_quantiles():
    # data at F^{-1}((i - 1/2)/n) gives D = 0.5/n exactly
    n = 200
    ps = (np.arange(1, n + 1) - 0.5) / n
    data = gpd_quantile(ps, P_GPD)
    d, _ = ks_statistic(data, _gpd_cdf)
    assert d == pytest.approx(0.5 / n, abs=1e-12)


def test_ks_single_datum_at_median():
    d, _ = ks_statistic([gpd_quantile(0.5, P_GPD)], _gpd_cdf)
    assert d == pytest.approx(0.5)


def test_ks_d_in_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(20):
        data = rng.exponential(1.0, size=rng.integers(1, 100))
        d, p = ks_statistic(data, _gpd_cdf)
        assert 0.0 <= d <= 1.0
        assert 0.0 <= p <= 1.0


def test_ks_invariant_under_increasing_transform():
    rng = np.random.default_rng(1)
    data = gpd_sample(P_GPD, 500, 3)

    def transformed_cdf(x):
        return gpd_cdf(np.expm1(x), P_GPD)

    d0, _ = ks_statistic(data, _gpd_cdf)
    d1, _ = ks_statistic(np.log1p(data), transformed_cdf)
    assert d1 == pytest.approx(d0, abs=1e-12)


def test_ks_rejects_non_monotone_cdf():
    data = np.linspace(0.1, 5.0, 50)
    with pytest.raises(EstimationError, match="non-monotone"):
        ks_statistic(data, lambda x: np.sin(x))


def test_pvalue_decreasing_in_n_for_fixed_d():
    d = 0.08
    ps = [kolmogorov_pvalue(math.sqrt(n) * d) for n in (50, 100, 400, 1600)]
    assert all(a > b for a, b in zip(ps, ps[1:]))


def test_kolmogorov_pvalue_reference_points():
    # classic table: Q(1.36) ~ 0.049
    assert kolmogorov_pvalue(1.36) == pytest.approx(0.049, abs=0.002)
    assert kolmogorov_pvalue(0.0) == 1.0
    assert kolmogorov_pvalue(3.0) < 1e-7


def test_kolmogorov_pvalue_matches_scipy():
    # the small-lam end is where the alternating series has not converged
    from scipy.special import kolmogorov

    for lam in np.concatenate([np.geomspace(1e-6, 3.0, 300), np.linspace(0.1, 0.3, 81)]):
        assert kolmogorov_pvalue(float(lam)) == pytest.approx(kolmogorov(lam), abs=1e-10)


def test_ks_calibration_light():
    # 40-replicate sanity check at a 10% level; the full calibration runs in
    # the acceptance suite
    rejections = 0
    for r in range(40):
        data = gpd_sample(P_GPD, 200, 1000 + r)
        _, p = ks_statistic(data, _gpd_cdf)
        rejections += p < 0.1
    assert 0 <= rejections <= 10


# ---------------------------------------------------------------------------
# percentile comparison
# ---------------------------------------------------------------------------


def test_percentile_comparison_self():
    rng = np.random.default_rng(2)
    data = rng.exponential(1.0, 400)
    sorted_data = np.sort(data)

    def ecdf(x):
        return np.searchsorted(sorted_data, x, side="right") / sorted_data.size

    rows = percentile_comparison(data, ecdf)
    for p, val in rows:
        assert val == pytest.approx(p, abs=1.0 / data.size + 1e-12)


def test_percentile_comparison_default_probes():
    rows = percentile_comparison(np.arange(1.0, 101.0), _gpd_cdf)
    assert [p for p, _ in rows] == list(DEFAULT_PROBES)
    assert len(rows) == 11


@pytest.mark.parametrize("family, method, params", [
    (Family.STABLE, Method.MCCULLOCH, StableParams(1.6, 0.3, 20.0, 50.0)),
    (Family.GEV, Method.MLE, GevParams(mu=50.0, sigma=15.0, gamma=0.2)),
    (Family.GPD, Method.MLE, GpdParams(gamma=0.3, sigma=20.0, mu=10.0)),
])
def test_percentile_comparison_one_cdf_call_matches_per_probe(family, method, params):
    # integer volumes with ties, like the pipeline's samples
    data = np.round(np.random.default_rng(8).gamma(2.0, 30.0, 720)) + 10.0
    cdf = fit_cdf(FitResult(family=family, method=method, params=params,
                            sample_size=data.size, converged=True))
    calls = []
    rows = percentile_comparison(data, lambda x: calls.append(np.shape(x)) or cdf(x))
    assert calls == [(len(DEFAULT_PROBES),)]
    per_probe = [(p, float(cdf(np.array([sample_quantile(data, p)]))[0]))
                 for p in DEFAULT_PROBES]
    assert rows == per_probe


def test_percentile_comparison_heavy_tail_misfit():
    # a thin-tailed model on heavy-tailed data overshoots at the top probe:
    # the empirical 0.99 quantile sits far beyond the model's own 0.99
    # quantile, so the model CDF there exceeds 0.99
    n = 2000
    ps = (np.arange(1, n + 1) - 0.5) / n
    pareto = (1 - ps) ** (-1 / 1.2)
    mean = pareto.mean()
    rows = percentile_comparison(pareto, lambda x: 1 - np.exp(-np.maximum(x, 0) / mean))
    vals = dict(rows)
    assert vals[0.99] > 0.99
    # and the bulk probes undershoot (scale dragged up by the tail)
    assert vals[0.5] < 0.5


# ---------------------------------------------------------------------------
# subsample study
# ---------------------------------------------------------------------------


def _fit_for(params):
    return FitResult(family=Family.GPD, method=Method.MLE, params=params,
                     sample_size=10, converged=True)


def test_subsample_near_identity():
    data = gpd_sample(P_GPD, 500, 8)
    p_full, p_sub = ks_subsample_study(data, _fit_for(P_GPD), subsample_n=499,
                                       replicates=1, seed=1)
    assert p_sub == pytest.approx(p_full, abs=0.15)


def test_subsample_study_shows_sample_size_effect():
    # mild misspecification: fitted scale off by 8 percent
    data = gpd_sample(P_GPD, 4000, 9)
    off = GpdParams(gamma=0.3, sigma=1.08)
    p_full, p_sub = ks_subsample_study(data, _fit_for(off), subsample_n=200,
                                       replicates=20, seed=2)
    assert p_full < p_sub


def test_subsample_rejects_oversized_subsample():
    data = gpd_sample(P_GPD, 100, 5)
    with pytest.raises(ValueError):
        ks_subsample_study(data, _fit_for(P_GPD), subsample_n=100, replicates=2, seed=0)


def _subsample_study_oracle(data, fit, subsample_n, replicates, seed):
    # the study as it was: the fitted CDF evaluated anew on every subsample
    x = np.asarray(data, dtype=float)
    cdf = fit_cdf(fit)
    rng = np.random.default_rng(seed)
    p_subs = [ks_statistic(x[rng.choice(x.size, size=subsample_n, replace=False)], cdf)[1]
              for _ in range(replicates)]
    return ks_statistic(x, cdf)[1], float(np.mean(p_subs))


@pytest.mark.parametrize("fit, data", [
    # rounded, so sample values tie
    (_fit_for(P_GPD), np.round(gpd_sample(P_GPD, 600, 11) * 4) / 4),
    (FitResult(family=Family.STABLE, method=Method.MCCULLOCH, params=P_STABLE,
               sample_size=300, converged=True), stable_sample(P_STABLE, 300, 12)),
])
def test_subsample_study_evaluates_the_cdf_once(monkeypatch, fit, data):
    import lobtail.gof as gof_mod

    expected = _subsample_study_oracle(data, fit, 40, 6, 3)
    calls = []
    monkeypatch.setattr(gof_mod, "fit_cdf", lambda f: (lambda x: calls.append(np.shape(x))
                                                       or fit_cdf(f)(x)))
    assert ks_subsample_study(data, fit, subsample_n=40, replicates=6, seed=3) == expected
    assert calls == [(data.size,)]


def test_fit_cdf_dispatch():
    fit = _fit_for(GpdParams(gamma=0.0, sigma=2.0))
    cdf = fit_cdf(fit)
    assert cdf(np.array([2.0]))[0] == pytest.approx(1 - math.exp(-1.0))


def test_subsample_study_non_rejecting_when_well_specified():
    # correctly specified model: both p-value summaries sit far from the
    # rejection region on average
    p_fulls, p_subs = [], []
    for seed in range(5):
        data = gpd_sample(P_GPD, 1500, 300 + seed)
        p_full, p_sub = ks_subsample_study(data, _fit_for(P_GPD), subsample_n=200,
                                           replicates=10, seed=seed)
        p_fulls.append(p_full)
        p_subs.append(p_sub)
    assert np.mean(p_fulls) > 0.2
    assert np.mean(p_subs) > 0.2
