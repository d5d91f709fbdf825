import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import norm

import stable_oracle
from lobtail import stable
from lobtail.core import EstimationError, Family, Method, StableParams, child_seed
from lobtail.stable import (
    fit_mcculloch,
    sample_quantile,
    stable_cdf,
    stable_sample,
)

GAUSS = StableParams(alpha=2.0, beta=0.0, gamma=1.0, delta=0.0)
CAUCHY = StableParams(alpha=1.0, beta=0.0, gamma=1.0, delta=0.0)


# ---------------------------------------------------------------------------
# characteristic function (the oracle in stable_oracle, and the sampler)
# ---------------------------------------------------------------------------


def test_cf_gaussian_member():
    assert stable_oracle.stable_cf(1.0, GAUSS) == pytest.approx(math.exp(-1.0))


def test_cf_at_origin_is_one():
    for p in (GAUSS, CAUCHY, StableParams(1.3, -0.7, 2.5, -3.0)):
        assert stable_oracle.stable_cf(0.0, p) == 1.0


def test_cf_cauchy_member():
    for t in (0.3, 1.0, 2.7):
        assert stable_oracle.stable_cf(t, CAUCHY) == pytest.approx(math.exp(-abs(t)))
        assert stable_oracle.stable_cf(-t, CAUCHY) == pytest.approx(math.exp(-abs(t)))


def test_cf_matches_sampler_empirically():
    # empirical CF of CMS draws converges to the analytic CF
    p = StableParams(alpha=1.6, beta=0.4, gamma=1.5, delta=0.5)
    x = stable_sample(p, 200_000, seed=31)
    for t in (0.2, 0.7):
        emp = np.exp(1j * t * x).mean()
        assert abs(emp - stable_oracle.stable_cf(t, p)) < 0.01


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


_ORACLE_MAGNITUDES = (1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 1e3, 1e4, 1e5, 1e6)
_ORACLE_XS = np.array([0.0, *_ORACLE_MAGNITUDES, *(-m for m in _ORACLE_MAGNITUDES)])


# both sides of alpha = 1 just outside the snap window, and inside it
@pytest.mark.parametrize("alpha", (0.6, 0.9, 0.994, 1.006, 1.2, 1.5, 1.7, 1.99,
                                   0.997, 1.0, 1.003))
def test_cdf_matches_quadrature_oracle(alpha):
    # the vectorized engine against the scalar adaptive-quadrature reference
    # in tests/stable_oracle.py, out to |x| = 1e6, at the documented 1e-8
    # tiny |beta| on both sides of the alpha = 1 Cauchy cutoff at 1e-10
    for beta in (-1.0, -0.5, 0.0, 0.5, 1.0, -1e-9, 1e-12, -1e-300):
        got = stable_cdf(_ORACLE_XS, StableParams(alpha, beta, 1.0, 0.0))
        want = [stable_oracle.oracle_cdf(x, alpha, beta) for x in _ORACLE_XS]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-8,
                                   err_msg=f"alpha={alpha}, beta={beta}")


def test_oracle_matches_gaussian_member():
    for x in (-3.0, -0.4, 1.1, 4.0):
        assert stable_oracle.oracle_cdf(x, 2.0, 0.0) == pytest.approx(
            norm.cdf(x / math.sqrt(2)), abs=1e-9)


@pytest.mark.parametrize("alpha", (1.9999995, 1.9999999))
def test_cdf_resolves_the_bend_next_to_phi_one_as_alpha_tends_to_two(alpha):
    # log U drops by ~0.6 within ~(2 - alpha) of phi = 1, inside one level
    # panel and closer to its edge than any Gauss-Kronrod node; unresolved,
    # it costs ~1e-8 with an error estimate near 0
    xs = np.array([-5.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 5.0])
    for beta in (-0.3, 0.7):
        got = stable_cdf(xs, StableParams(alpha, beta, 1.0, 0.0))
        want = [stable_oracle.oracle_cdf(x, alpha, beta) for x in xs]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10, err_msg=f"beta={beta}")


@pytest.mark.parametrize("alpha", (0.99, 0.994, 1.006, 1.01))
def test_cdf_far_tails_next_to_alpha_one_window(alpha):
    # just outside the snap window the kernel exponent alpha/(1-alpha) is
    # beyond +-100; both far tails must still follow the Pareto term
    p = StableParams(alpha, 0.0, 1.0, 0.0)
    coef = math.gamma(alpha) * math.sin(math.pi * alpha / 2) / math.pi
    for x in (1e3, 1e5):
        pareto = coef * x**-alpha
        assert 1.0 - stable_cdf(x, p) == pytest.approx(pareto, rel=0.03)
        assert stable_cdf(-x, p) == pytest.approx(pareto, rel=0.03)


_POOL = (-1e6, -300.0, -2.5, -0.5, 0.0, 0.25, 1.0, 3.0, 40.0, 1e5)


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.sampled_from((0.6, 0.994, 1.0, 1.003, 1.006, 1.5, 1.99)) | st.floats(0.5, 2.0),
    beta=st.sampled_from((-1.0, 0.0, 1.0)) | st.floats(-1.0, 1.0),
    x=st.sampled_from(((), (1,), (40,), (3, 7))).flatmap(lambda shape: arrays(
        np.float64, shape,
        elements=st.sampled_from(_POOL) | st.floats(-1e6, 1e6, allow_subnormal=False))),
)
@example(alpha=1.7, beta=0.5, x=np.linspace(-50.0, 50.0, 41))
@example(alpha=1.0, beta=2.38e-307, x=np.array(-1e6))
def test_cdf_value_does_not_depend_on_batch(alpha, beta, x):
    # each value equals the same point evaluated alone, bit for bit, with
    # repeated points and with more distinct points than one work block
    # holds, so that neighbours fall in different blocks
    p = StableParams(alpha, beta, 1.3, -0.4)
    got = stable_cdf(x, p)
    assert np.shape(got) == x.shape
    for idx in np.ndindex(x.shape):
        assert np.asarray(got)[idx] == stable_cdf(float(x[idx]), p)


def test_cdf_rejects_non_finite_value():
    with pytest.raises(EstimationError, match=r"quadrature achieved inf > 1e-08"):
        stable_cdf(np.array([0.0, math.nan]), StableParams(1.5, 0.2, 1.0, 0.0))


def test_cdf_raises_when_error_estimate_exceeds_tolerance(monkeypatch):
    # a Gauss check rule 1% off makes the K21 - G10 estimate ~1e-2 of the
    # integral
    monkeypatch.setattr(stable, "_GAUSS_WEIGHTS", stable._GAUSS_WEIGHTS * 1.01)
    with pytest.raises(EstimationError, match="alpha=1.5") as info:
        stable_cdf(np.array([-1.0, 2.0]), StableParams(1.5, 0.2, 1.0, 0.0))
    assert float(str(info.value).split()[4]) > 1e-3  # "stable CDF quadrature achieved <tol>"


def test_kronrod_table_is_the_qk21_pair():
    # the 10 Gauss nodes and weights are leggauss(10); K21 integrates x^k on
    # [-1, 1] exactly up to degree 31 and G10 up to 19, and neither the next
    # even power
    nodes, weights = np.polynomial.legendre.leggauss(10)
    gauss = stable._NODES[:10]
    order = np.argsort(gauss)
    np.testing.assert_allclose(gauss[order], nodes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(stable._GAUSS_WEIGHTS[order], weights, rtol=0, atol=1e-15)
    assert stable._NODES.size == 21 and np.unique(stable._NODES).size == 21
    for rule, x, degree in ((stable._KRONROD_WEIGHTS, stable._NODES, 31),
                            (stable._GAUSS_WEIGHTS, gauss, 19)):
        for k in range(degree + 2):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert (abs(rule @ x**k - exact) < 1e-15) == (k <= degree), (degree, k)


def test_cdf_kernel_work_per_point_on_a_ks_case_sample(monkeypatch):
    # the KsCase study's sample and fit: log U is evaluated for the level
    # table, not per point (the per-point rule took ~2,544 kernel values a
    # point)
    data = stable_sample(StableParams(1.7, 0.5, 1.0, 0.0), 3888, child_seed(0, 0, 0))
    kernel = stable._log_u_not1
    seen = []

    def counting(phi, alpha, theta):
        seen.append(np.size(phi))
        return kernel(phi, alpha, theta)

    monkeypatch.setattr(stable, "_log_u_not1", counting)
    stable_cdf(data, fit_mcculloch(data).params)
    assert sum(seen) <= 10 * np.unique(data).size


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


def test_fit_converged_means_no_clamp_note():
    rng = np.random.default_rng(12)
    samples = [
        rng.standard_normal(500),
        rng.standard_cauchy(500),
        rng.uniform(size=300),  # nu_alpha below the table
        np.round(rng.pareto(0.3, 400), 1),  # nu_alpha above the table
        rng.uniform(size=300) ** 6,
        stable_sample(StableParams(alpha=1.5, beta=0.3, gamma=1.0, delta=0.0), 800, 3),
        stable_sample(StableParams(alpha=1.1, beta=-0.6, gamma=2.0, delta=1.0), 800, 4),
    ]
    fits = [fit_mcculloch(x) for x in samples]
    assert any(f.converged for f in fits) and any(not f.converged for f in fits)
    for fit in fits:
        assert fit.converged is (not fit.notes)  # a Python bool, no table clamp note
        assert fit.converged == (not any("clamped" in note for note in fit.notes))


def test_tables_orientation():
    # spot anchors: symmetric column of psi_1 at nu_alpha = 2.439 gives
    # alpha = 2; the scale ratio at (alpha=2, beta=0) is 1.908
    a, b = stable._table_alpha_beta(2.439, 0.0)
    assert a == 2.0 and b == 0.0
    assert stable._table_nu_gamma(2.0, 0.0) == pytest.approx(1.908)
    assert stable._table_nu_zeta(1.0, 1.0) == pytest.approx(-0.576)
    assert stable._table_nu_zeta(1.0, -1.0) == pytest.approx(0.576)
    assert stable._table_nu_zeta(1.0, 0.25) == pytest.approx(-0.098)


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
