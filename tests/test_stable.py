import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import norm

from lobtail.core import EstimationError, Family, Method, StableParams
from lobtail.stable import (
    MCCULLOCH_TABLES,
    fit_mcculloch,
    sample_quantile,
    stable_cdf,
    stable_cf,
    stable_sample,
)

GAUSS = StableParams(alpha=2.0, beta=0.0, gamma=1.0, delta=0.0)
CAUCHY = StableParams(alpha=1.0, beta=0.0, gamma=1.0, delta=0.0)


# ---------------------------------------------------------------------------
# characteristic function
# ---------------------------------------------------------------------------


def test_cf_gaussian_member():
    assert stable_cf(1.0, GAUSS) == pytest.approx(math.exp(-1.0))


def test_cf_at_origin_is_one():
    for p in (GAUSS, CAUCHY, StableParams(1.3, -0.7, 2.5, -3.0)):
        assert stable_cf(0.0, p) == 1.0


def test_cf_cauchy_member():
    for t in (0.3, 1.0, 2.7):
        assert stable_cf(t, CAUCHY) == pytest.approx(math.exp(-abs(t)))
        assert stable_cf(-t, CAUCHY) == pytest.approx(math.exp(-abs(t)))


def test_cf_matches_sampler_empirically():
    # empirical CF of CMS draws converges to the analytic CF
    p = StableParams(alpha=1.6, beta=0.4, gamma=1.5, delta=0.5)
    x = stable_sample(p, 200_000, seed=31)
    for t in (0.2, 0.7):
        emp = np.exp(1j * t * x).mean()
        assert abs(emp - stable_cf(t, p)) < 0.01


# ---------------------------------------------------------------------------
# CDF
# ---------------------------------------------------------------------------


def test_cdf_symmetric_at_delta():
    for p in (GAUSS, StableParams(1.5, 0.0, 2.0, 3.0), StableParams(0.8, 0.0, 1.0, -1.0)):
        assert stable_cdf(p.delta, p) == pytest.approx(0.5, abs=1e-10)


def test_cdf_gaussian_member():
    # alpha = 2 is Gaussian with variance 2 gamma^2
    assert stable_cdf(2.0, GAUSS) == pytest.approx(norm.cdf(2.0 / math.sqrt(2)), abs=1e-8)


def test_cdf_cauchy_member():
    assert stable_cdf(1.0, CAUCHY) == pytest.approx(0.75, abs=1e-12)


def test_cdf_duality_identity():
    for alpha, beta in ((1.5, 0.7), (0.8, -0.4), (1.2, 1.0), (1.9, 0.2)):
        pa = StableParams(alpha, beta, 1.0, 0.0)
        pb = StableParams(alpha, -beta, 1.0, 0.0)
        for x in (-2.0, -0.5, 0.3, 1.7):
            assert stable_cdf(-x, pa) + stable_cdf(x, pb) == pytest.approx(1.0, abs=1e-8)


def test_cdf_monotone_and_limits():
    # a power-law member still has ~1e-3 of tail mass beyond 50 gamma, so the
    # 1e-6 limit check probes much further out where the tail truly vanishes
    for alpha, beta in ((1.7, 0.5), (0.9, -0.8), (1.3, 0.0)):
        p = StableParams(alpha, beta, 2.0, 1.0)
        xs = np.linspace(-40.0, 40.0, 81)
        vals = stable_cdf(xs, p)
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals.min() >= 0.0 and vals.max() <= 1.0
        assert stable_cdf(50 * p.gamma, p) > 1.0 - 0.01
        assert stable_cdf(-1e9 * p.gamma, p) < 1e-6
        assert stable_cdf(1e9 * p.gamma, p) > 1.0 - 1e-6
    assert stable_cdf(-50.0, GAUSS) < 1e-6 and stable_cdf(50.0, GAUSS) > 1 - 1e-6


def test_cdf_self_consistent_with_sampler():
    p = StableParams(alpha=1.5, beta=0.0, gamma=1.0, delta=0.0)
    x = np.sort(stable_sample(p, 100_000, seed=5))
    probes = x[np.linspace(500, x.size - 500, 25).astype(int)]
    ecdf = np.searchsorted(x, probes, side="right") / x.size
    theo = stable_cdf(probes, p)
    assert float(np.max(np.abs(ecdf - theo))) < 0.01


def test_cdf_self_consistent_with_sampler_skewed_alpha_one():
    p = StableParams(alpha=1.0, beta=0.5, gamma=1.0, delta=0.0)
    x = np.sort(stable_sample(p, 100_000, seed=6))
    probes = x[np.linspace(500, x.size - 500, 15).astype(int)]
    ecdf = np.searchsorted(x, probes, side="right") / x.size
    theo = stable_cdf(probes, p)
    assert float(np.max(np.abs(ecdf - theo))) < 0.01


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------


def test_sample_deterministic_under_seed():
    p = StableParams(1.4, 0.3, 1.0, 0.0)
    a = stable_sample(p, 1000, seed=9)
    b = stable_sample(p, 1000, seed=9)
    assert np.array_equal(a, b)
    c = stable_sample(p, 1000, seed=10)
    assert not np.array_equal(a, c)


def test_sample_gaussian_member_variance():
    p = StableParams(2.0, 0.0, 1.5, 0.0)
    x = stable_sample(p, 1_000_000, seed=17)
    assert x.var() / 2 == pytest.approx(p.gamma**2, rel=0.05)


# ---------------------------------------------------------------------------
# sample_quantile
# ---------------------------------------------------------------------------


def test_plotting_positions_n5():
    # positions (2i-1)/(2n) for n=5: the extreme order statistics sit at
    # p = 0.1 and 0.9 exactly
    data = [10.0, 20.0, 30.0, 40.0, 50.0]
    for i, p in enumerate((0.1, 0.3, 0.5, 0.7, 0.9)):
        assert sample_quantile(data, p) == data[i]


def test_quantile_interpolation_two_points():
    assert sample_quantile([10.0, 20.0], 0.5) == 15.0


def test_quantile_clamps_to_extremes():
    data = [3.0, 1.0, 4.0, 1.0, 5.0]
    assert sample_quantile(data, 0.999) == 5.0
    assert sample_quantile(data, 0.001) == 1.0


# ---------------------------------------------------------------------------
# McCulloch fit
# ---------------------------------------------------------------------------


def test_fit_gaussian_data():
    rng = np.random.default_rng(100)
    fit = fit_mcculloch(rng.normal(0.0, 1.0, 1_000_000))
    assert fit.family is Family.STABLE and fit.method is Method.MCCULLOCH
    assert 1.95 <= fit.params.alpha <= 2.0
    assert abs(fit.params.beta) <= 0.1


def test_fit_exactly_symmetric_data_has_zero_beta():
    base = np.linspace(0.5, 40.0, 400)
    data = np.concatenate([-base, base])
    fit = fit_mcculloch(data)
    assert fit.params.beta == pytest.approx(0.0, abs=1e-12)


def test_fit_recovers_stable_parameters():
    truth = StableParams(alpha=1.5, beta=0.5, gamma=2.0, delta=1.0)
    fits = [fit_mcculloch(stable_sample(truth, 100_000, seed=200 + r)) for r in range(20)]
    alpha = np.mean([f.params.alpha for f in fits])
    beta = np.mean([f.params.beta for f in fits])
    gamma = np.mean([f.params.gamma for f in fits])
    delta = np.mean([f.params.delta for f in fits])
    assert alpha == pytest.approx(1.5, abs=0.05)
    assert beta == pytest.approx(0.5, abs=0.15)
    assert gamma == pytest.approx(2.0, abs=0.1)
    assert delta == pytest.approx(1.0, abs=0.1)


def test_fit_location_scale_equivariance_exact():
    rng = np.random.default_rng(4)
    x = rng.standard_t(df=3, size=5000)  # heavy-tailed, irrelevant which law
    a, b = 2.5, -7.0
    f0 = fit_mcculloch(x)
    f1 = fit_mcculloch(a * x + b)
    # quantile interpolation is equivariant up to last-ulp rounding
    assert f1.params.alpha == pytest.approx(f0.params.alpha, abs=1e-12)
    assert f1.params.beta == pytest.approx(f0.params.beta, abs=1e-12)
    assert f1.params.gamma == pytest.approx(a * f0.params.gamma, rel=1e-12)
    assert f1.params.delta == pytest.approx(a * f0.params.delta + b, rel=1e-12, abs=1e-9)


def test_fit_reflection_flips_beta_and_delta():
    x = stable_sample(StableParams(1.4, 0.6, 1.0, 0.5), 20000, seed=77)
    f0 = fit_mcculloch(x)
    f1 = fit_mcculloch(-x)
    assert f1.params.alpha == pytest.approx(f0.params.alpha, abs=1e-12)
    assert f1.params.beta == pytest.approx(-f0.params.beta, abs=1e-12)
    assert f1.params.gamma == pytest.approx(f0.params.gamma, rel=1e-12)
    assert f1.params.delta == pytest.approx(-f0.params.delta, rel=1e-12)


def test_fit_degenerate_scale():
    with pytest.raises(EstimationError, match="degenerate scale"):
        fit_mcculloch(np.ones(100))


def test_fit_small_sample_rejected():
    with pytest.raises(EstimationError):
        fit_mcculloch(np.arange(10.0))


def test_fit_gaussian_clamp_is_flagged():
    # exact Gaussian quantiles have nu_alpha = 2.4387, marginally below the
    # table floor; the fit clamps and says so
    grid = norm.ppf((2 * np.arange(1, 10_001) - 1) / 20_000)
    fit = fit_mcculloch(grid)
    assert fit.params.alpha == 2.0
    assert not fit.converged
    assert any("clamped" in note for note in fit.notes)


def test_fit_iqr_scaling_is_equivariant_noop():
    x = stable_sample(StableParams(1.7, 0.2, 3.0, -2.0), 30000, seed=12)
    plain = fit_mcculloch(x)
    scaled = fit_mcculloch(x, iqr_scale=True)
    assert scaled.params.alpha == pytest.approx(plain.params.alpha, abs=1e-12)
    assert scaled.params.gamma == pytest.approx(plain.params.gamma, rel=1e-9)
    assert scaled.params.delta == pytest.approx(plain.params.delta, rel=1e-9)


def test_tables_orientation():
    # spot anchors: symmetric column of psi_1 at nu_alpha = 2.439 gives
    # alpha = 2; the scale ratio at (alpha=2, beta=0) is 1.908
    a, b, interior = MCCULLOCH_TABLES.alpha_beta(2.439, 0.0)
    assert a == 2.0 and b == 0.0 and interior
    assert MCCULLOCH_TABLES.nu_gamma(2.0, 0.0) == pytest.approx(1.908)
    assert MCCULLOCH_TABLES.nu_zeta(1.0, 1.0) == pytest.approx(-0.576)
    assert MCCULLOCH_TABLES.nu_zeta(1.0, -1.0) == pytest.approx(0.576)
    assert MCCULLOCH_TABLES.nu_zeta(1.0, 0.25) == pytest.approx(-0.098)


def test_fit_determinism():
    x = stable_sample(StableParams(1.3, 0.1, 1.0, 0.0), 5000, seed=3)
    f0, f1 = fit_mcculloch(x), fit_mcculloch(x)
    assert f0.params == f1.params


def test_cdf_far_tail_boundary_layer():
    # the far tail reduces to an endpoint boundary layer in the integral;
    # compare against the leading Pareto-series term, which the quadrature
    # must reproduce to a few percent that far out
    p = StableParams(1.5, -0.6, 1.3, -0.7)
    x = 120.0
    z1 = (x - p.delta) / p.gamma + p.beta * math.tan(math.pi * p.alpha / 2)
    series = (
        (1 + p.beta) * math.gamma(p.alpha) * math.sin(math.pi * p.alpha / 2)
        / math.pi * z1**-p.alpha
    )
    tail = 1.0 - stable_cdf(x, p)
    assert tail == pytest.approx(series, rel=0.03)
    # totally skewed away: the opposite tail is super-exponentially small
    p_skew = StableParams(1.2, -1.0, 1.3, -0.7)
    assert 1.0 - stable_cdf(2000.0, p_skew) < 1e-12
    # and the heavy side matches its series term
    z1 = (-2000.0 - p_skew.delta) / p_skew.gamma + p_skew.beta * math.tan(
        math.pi * p_skew.alpha / 2)
    series = 2 * math.gamma(1.2) * math.sin(0.6 * math.pi) / math.pi * abs(z1)**-1.2
    assert stable_cdf(-2000.0, p_skew) == pytest.approx(series, rel=0.03)


def test_cdf_in_worker_threads_matches_serial_and_keeps_warning_filters():
    # the pipeline evaluates CDFs of several trading days at once; the
    # quadrature must neither race on values nor rewrite the process-wide
    # warning filters that another thread installs meanwhile
    params = [StableParams(1.7, 0.5, 1.0, 0.0), StableParams(0.8, -0.3, 2.0, 1.0),
              StableParams(1.002, 0.4, 1.0, 0.0), StableParams(1.3, 0.9, 0.5, -2.0)]
    x = np.linspace(-20.0, 20.0, 41)
    want = [stable_cdf(x, p) for p in params]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with warnings.catch_warnings():
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(stable_cdf, x, p) for p in params * 2]
                marker = ("ignore", None, UserWarning, None, 0)
                warnings.filterwarnings("ignore", category=UserWarning)
                got = [f.result(timeout=120) for f in futures]
            assert warnings.filters[0] == marker
    finally:
        sys.setswitchinterval(switch)
    for g, w in zip(got, want * 2):
        np.testing.assert_array_equal(g, w)
