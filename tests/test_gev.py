import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import genextreme

import gev_mle_oracle
import shape_zero_oracle
from lobtail import gev
from lobtail.core import (EULER_GAMMA, EstimationError, GevParams, Method, _polish_tol, bisect,
                          child_seed)
from lobtail.gev import (
    LMoments,
    MLE_GAMMA_BOUNDS,
    fit_gev_lmom,
    fit_gev_mixed,
    fit_gev_mle,
    gev_cdf,
    gev_quantile,
    gev_sample,
    sample_lmoments,
    _gev_negloglik_derivs,
    _location_scale_at,
    _shape_from_tau3,
)


def brute_force_lmoment(data, r):
    """Average the order-statistic combination over every size-r subsample."""
    x = np.asarray(data, dtype=float)
    total = 0.0
    count = 0
    for subset in itertools.combinations(x, r):
        ordered = sorted(subset)
        acc = 0.0
        for k in range(r):
            acc += (-1) ** k * math.comb(r - 1, k) * ordered[r - 1 - k]
        total += acc / r
        count += 1
    return total / count


# ---------------------------------------------------------------------------
# distribution functions
# ---------------------------------------------------------------------------


def test_gumbel_cdf_at_location():
    p = GevParams(mu=2.0, sigma=1.5, gamma=0.0)
    assert gev_cdf(2.0, p) == pytest.approx(math.exp(-1.0))


def test_quantile_cdf_roundtrip_all_shape_signs():
    rng = np.random.default_rng(1)
    for g in (-0.4, 0.0, 0.3, 1.2):
        p = GevParams(mu=0.5, sigma=2.0, gamma=g)
        for q in rng.uniform(0.01, 0.99, 10):
            assert gev_cdf(gev_quantile(q, p), p) == pytest.approx(q, abs=1e-10)


@pytest.mark.parametrize("g", [5e-324, -5e-324, 1e-310, 1e-301])
def test_quantile_of_a_vanishing_shape_is_gumbel(g):
    # g ln(-ln q) is subnormal here; 5e-324 used to give quantiles in {0, 1}
    q = np.linspace(0.01, 0.99, 99)
    gumbel = gev_quantile(q, GevParams(mu=0.5, sigma=2.0, gamma=0.0))
    assert np.array_equal(gev_quantile(q, GevParams(mu=0.5, sigma=2.0, gamma=g)), gumbel)


@pytest.mark.parametrize("g", [5e-324, -5e-324, 1e-310, 1e-301])
def test_cdf_of_a_vanishing_shape_is_gumbel(g):
    # log1p(g z) / g divides by a subnormal g; 5e-324 gave 0.368 at x = 0.3, not 0.477
    x = np.linspace(-3.0, 8.0, 111)
    gumbel = gev_cdf(x, GevParams(mu=0.5, sigma=2.0, gamma=0.0))
    assert np.array_equal(gev_cdf(x, GevParams(mu=0.5, sigma=2.0, gamma=g)), gumbel)
    assert gev_cdf(0.3, GevParams(mu=0.0, sigma=1.0, gamma=g)) == pytest.approx(0.4767, abs=1e-4)


def test_support_lower_endpoint_positive_shape():
    # support starts at mu - sigma/gamma = -2; just inside, the CDF is
    # positive once t^(-1/g) is representable
    p = GevParams(mu=0.0, sigma=1.0, gamma=0.5)
    assert gev_cdf(-2.0, p) == 0.0
    assert gev_cdf(-1.9, p) > 0.0


def test_support_upper_endpoint_negative_shape():
    p = GevParams(mu=0.0, sigma=1.0, gamma=-0.5)
    assert gev_cdf(2.0, p) == 1.0
    assert gev_cdf(5.0, p) == 1.0


def test_quantile_rejects_bad_probability():
    p = GevParams(0.0, 1.0, 0.1)
    for q in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            gev_quantile(q, p)


def test_sample_deterministic():
    p = GevParams(0.0, 1.0, 0.2)
    assert np.array_equal(gev_sample(p, 100, 5), gev_sample(p, 100, 5))


# ---------------------------------------------------------------------------
# sample L-moments
# ---------------------------------------------------------------------------


def test_lambda2_matches_pairwise_identity():
    # the (n-1)-(K-n) weighting equals half the mean absolute pairwise
    # difference; on {0, 1} that is 0.5
    rng = np.random.default_rng(2)
    for n in (2, 5, 9):
        x = rng.uniform(0, 10, n)
        i = np.arange(1, n + 1)
        xs = np.sort(x)
        weighted = float(np.sum(((i - 1) - (n - i)) * xs) / (n * (n - 1)))
        pairwise = np.abs(x[:, None] - x[None, :]).sum() / (2 * n * (n - 1))
        assert weighted == pytest.approx(pairwise, rel=1e-12)
    xs01 = np.array([0.0, 1.0])
    assert float(np.sum(((np.arange(1, 3) - 1) - (2 - np.arange(1, 3))) * xs01) / 2) == 0.5


def test_lmoments_basics():
    lm = sample_lmoments([1.0, 2.0, 3.0])
    assert lm.lambda1 == pytest.approx(2.0)
    assert lm.tau3 == pytest.approx(0.0, abs=1e-14)


def test_lmoments_exponential_grid_tau3():
    # exponential L-skewness is 1/3
    n = 10_000
    p = (2 * np.arange(1, n + 1) - 1) / (2 * n)
    lm = sample_lmoments(-np.log1p(-p))
    assert lm.tau3 == pytest.approx(1.0 / 3.0, abs=0.01)


def test_lmoments_match_brute_force_oracle():
    rng = np.random.default_rng(3)
    for n in (4, 7, 10):
        x = rng.uniform(-5, 5, n)
        lm = sample_lmoments(x)
        assert lm.lambda1 == pytest.approx(brute_force_lmoment(x, 1), abs=1e-12)
        assert lm.lambda2 == pytest.approx(brute_force_lmoment(x, 2), abs=1e-12)
        assert lm.tau3 * lm.lambda2 == pytest.approx(brute_force_lmoment(x, 3), abs=1e-12)


def test_lmoments_degenerate():
    with pytest.raises(EstimationError):
        sample_lmoments(np.ones(20))


def test_unit_l_skewness_is_a_data_failure():
    # one spike over a constant level has tau3 = 1, so the shape solves to
    # g = 1 where Gamma(1 - g) is infinite: sigma = 0 and mu = NaN
    x = [5.0] * 39 + [9.0]
    assert sample_lmoments(x).tau3 == pytest.approx(1.0)
    with pytest.raises(EstimationError, match="no finite location and positive scale"):
        fit_gev_lmom(x)
    # the MLE then starts from its moment fallback instead of failing
    fit = fit_gev_mle(x)
    assert fit.params.sigma > 0 and math.isfinite(fit.params.mu)


# ---------------------------------------------------------------------------
# pure L-moment fit
# ---------------------------------------------------------------------------


def test_shape_equation_gumbel_point():
    tau3_at_zero = 2.0 * math.log(3.0) / math.log(2.0) - 3.0
    g, interior = _shape_from_tau3(tau3_at_zero)
    assert g == pytest.approx(0.0, abs=1e-9)
    assert interior


def test_shape_root_bits_equal_the_array_bisection_on_the_tau3_grid():
    # oracle: core.bisect on the whole grid at once, whose roots equal those of
    # core.bisect on each 0-d bracket; numpy's expm1 on both sides, as
    # math.expm1 rounds differently from it under AVX-512 dispatch
    ln2, ln3 = math.log(2.0), math.log(3.0)
    grid = np.concatenate([np.linspace(-1.0 / 3.0, 1.0, 20_001),
                           2.0 * ln3 / ln2 - 3.0 + np.linspace(-1e-3, 1e-3, 2_201)])
    target = (grid + 3.0) / 2.0
    lo = np.where(target < ln3 / ln2, -1.0, 0.0)
    want = bisect(lambda g: np.expm1(g * ln3) / np.expm1(g * ln2) < target, lo, lo + 1.0, 60)
    got = np.array([_shape_from_tau3(float(t))[0] for t in grid])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_gumbel_limit_scale_location():
    mu, sigma = _location_scale_at(0.0, 10.0, 2.0)
    assert sigma == pytest.approx(2.0 / math.log(2.0))
    assert mu == pytest.approx(10.0 - EULER_GAMMA * sigma)


def test_lmom_fit_recovers_shape():
    truth = GevParams(mu=0.0, sigma=1.0, gamma=0.2)
    ghats = [fit_gev_lmom(gev_sample(truth, 10_000, seed=50 + r)).params.gamma
             for r in range(20)]
    assert np.mean(ghats) == pytest.approx(0.2, abs=0.03)


def test_lmom_fit_method_tag():
    fit = fit_gev_lmom(gev_sample(GevParams(0, 1, 0.1), 500, 1))
    assert fit.method is Method.MOM


def test_lmom_fit_unsolvable_tau3():
    # strongly left-skewed data push tau3 below the -1/3 value attained at
    # the gamma = -1 bracket end
    x = np.concatenate([[-6e9, -2e9, -1e9], np.zeros(30)])
    with pytest.raises(EstimationError):
        fit_gev_lmom(x)


@pytest.mark.parametrize("tau3", [1.0, 1.0 - 1e-9, 1.0 - 1e-3, -1.0 / 3.0])
def test_lmom_fit_at_the_ends_of_the_shape_bracket(monkeypatch, tau3):
    # Gamma(1 - g) has its pole at g = 1, so a shape within 1e-6 of +1 is a
    # data failure; the -1 end fits, unconverged and noted
    import lobtail.gev as gev_mod

    monkeypatch.setattr(gev_mod, "sample_lmoments", lambda x: LMoments(10.0, 2.0, tau3))
    x = np.arange(20.0)
    if tau3 > 1.0 - 1e-6:
        with pytest.raises(EstimationError, match="no finite location and positive scale"):
            fit_gev_lmom(x)
        return
    fit = fit_gev_lmom(x)
    assert fit.params.sigma > 0 and math.isfinite(fit.params.mu)
    if tau3 > 0:
        assert fit.converged and fit.notes == ()
        assert fit.params.gamma == pytest.approx(0.999, abs=1e-4)
    else:
        assert fit.params.gamma == pytest.approx(-1.0, abs=1e-12)
        assert not fit.converged
        assert fit.notes == ("shape solution at the [-1, 1] bracket boundary",)


def test_lmom_fit_equivariance_exact():
    x = gev_sample(GevParams(0.3, 1.2, 0.15), 2000, 9)
    a, b = 3.0, -2.0
    f0, f1 = fit_gev_lmom(x), fit_gev_lmom(a * x + b)
    assert f1.params.gamma == pytest.approx(f0.params.gamma, abs=1e-9)
    assert f1.params.sigma == pytest.approx(a * f0.params.sigma, rel=1e-9)
    assert f1.params.mu == pytest.approx(a * f0.params.mu + b, rel=1e-9)


# ---------------------------------------------------------------------------
# MLE
# ---------------------------------------------------------------------------


# shapes across the series zone of core.log1p_ratio: it serves |g| < 0.01 while every
# |g z| < 0.05, and a point at |z| = 10, on the side where t = 1 + g z grows, puts
# that edge at 0.005
_SHAPE_GRID = [-0.3, -0.1, -0.0101, -0.0099, -0.00501, -0.00499, -1e-4, -1e-9, -1e-12, 0.0,
               1e-12, 1e-9, 1e-4, 0.00499, 0.00501, 0.0099, 0.0101, 0.1, 0.3]


def _off_optimum(g):
    """theta and a sample off the optimum, so the gradient is not small."""
    x = np.append(gev_sample(GevParams(5.0, 2.0, g), 23, 17), 5.2 + 2.1 * math.copysign(10.0, g))
    return np.array([5.2, math.log(2.1), g]), x


@pytest.mark.parametrize("g", _SHAPE_GRID)
def test_negloglik_grad_matches_mpmath(g):
    theta, x = _off_optimum(g)
    val, grad, _ = _gev_negloglik_derivs(theta, x)
    want_val, want_grad = shape_zero_oracle.gev_negloglik_grad(theta, x)
    assert abs(val - want_val) <= 1e-13 * abs(want_val)
    assert np.linalg.norm(grad - want_grad) <= 1e-13 * np.linalg.norm(want_grad)


@pytest.mark.parametrize("g", _SHAPE_GRID)
def test_negloglik_hessian_matches_mpmath(g):
    theta, x = _off_optimum(g)
    hess = _gev_negloglik_derivs(theta, x)[2]
    want = np.array(shape_zero_oracle.gev_negloglik_hessian(theta, x))
    assert np.array_equal(hess, hess.T)
    # just outside the series zone (g = 0.00501) the recursion for A_gg costs
    # eps |z| / g^2, 3.3e-13 here; everywhere else the error is below 1e-13
    assert np.linalg.norm(hess - want) <= 1e-12 * np.linalg.norm(want)


def test_mle_gumbel_recovery():
    ghats = [fit_gev_mle(gev_sample(GevParams(0, 1, 0.0), 10_000, 60 + r)).params.gamma
             for r in range(20)]
    assert np.mean(ghats) == pytest.approx(0.0, abs=0.02)


def test_mle_improves_on_lmoment_start():
    def loglik(params, x):
        # scipy's shape c is minus ours
        return float(genextreme.logpdf(x, -params.gamma, loc=params.mu, scale=params.sigma).sum())

    for seed in range(5):
        x = gev_sample(GevParams(1.0, 2.0, 0.25), 300, seed)
        start = fit_gev_lmom(x)
        end = fit_gev_mle(x)
        assert loglik(end.params, x) >= loglik(start.params, x) - 1e-9


def test_mle_covariance_present():
    fit = fit_gev_mle(gev_sample(GevParams(0, 1, 0.1), 2000, 4))
    assert fit.covariance is not None
    assert fit.covariance.shape == (3, 3)
    assert np.all(np.diag(fit.covariance) > 0)


def test_mle_covariance_matches_the_numerical_hessian():
    # the inverse closed-form Hessian against central differences of the oracle's
    # value (steps 1e-4 relative) at the same optimum, scaled by the standard errors
    x = gev_sample(GevParams(0, 1, 0.1), 2000, 4)
    fit = fit_gev_mle(x)
    theta = np.array([fit.params.mu, fit.params.sigma, fit.params.gamma])
    want = np.linalg.inv(gev_mle_oracle.numerical_hessian(
        lambda th: gev_mle_oracle._gev_negloglik(np.array([th[0], math.log(th[1]), th[2]]), x,
                                                 MLE_GAMMA_BOUNDS),
        theta, np.maximum(np.abs(theta), 1.0) * 1e-4))
    se = np.sqrt(np.diag(want))
    assert np.all(np.abs(fit.covariance - want) <= 1e-4 * np.outer(se, se))


def test_mle_stops_at_the_same_stationary_point_from_nearby_starts():
    # a start whose shape is 1e-12 lower once ended where the value stopped falling
    # in floating point, at max |grad| 8.0e-7 and 1e-8 (relative) from the other end
    x = np.loadtxt(Path(__file__).parent / "golden" / "toy_run" / "TOY" / "res10s" / "prepared"
                   / "2010-01-04_ask_L1_blockmax.csv", delimiter=",", skiprows=1, usecols=1)
    p = fit_gev_lmom(x).params
    ends = []
    for dg in (0.0, -1e-12):
        start = np.array([p.mu, math.log(p.sigma), p.gamma + dg])
        theta, _, converged = gev._newton_solve(start, x)
        grad = _gev_negloglik_derivs(theta, x)[1]
        assert converged and np.abs(grad * [math.exp(theta[1]), 1.0, 1.0]).max() <= 1e-10
        ends.append(theta)
    assert np.all(np.abs(ends[0] - ends[1]) <= 1e-12 * np.maximum(np.abs(ends[0]), 1.0))


@pytest.mark.parametrize("n_idx, n", [(0, 50), (1, 10_000)])
def test_mle_pass_counts(monkeypatch, n_idx, n):
    # one derivative pass per accepted Newton step and value-only trials: each of
    # these GevCompare samples (gamma_+0.2, seed 0) takes 16-18 derivative and
    # 18-20 value passes over its three starts, where a finite-difference Hessian
    # per step and a numerical covariance Hessian took 162-181 passes
    x = gev_sample(GevParams(0.0, 1.0, 0.2), n, child_seed(0, n_idx, 0))
    counts = {"_gev_negloglik_derivs": 0, "_gev_negloglik": 0}
    for name in counts:
        def counted(*args, _name=name, _f=getattr(gev, name)):
            counts[_name] += 1
            return _f(*args)
        monkeypatch.setattr(gev, name, counted)
    assert fit_gev_mle(x).converged
    assert counts["_gev_negloglik_derivs"] <= 24 and counts["_gev_negloglik"] <= 26


def test_mle_equivariance():
    x = gev_sample(GevParams(0.0, 1.0, 0.2), 3000, 8)
    a, b = 2.0, 5.0
    f0, f1 = fit_gev_mle(x), fit_gev_mle(a * x + b)
    assert f1.params.gamma == pytest.approx(f0.params.gamma, abs=5e-4)
    assert f1.params.sigma == pytest.approx(a * f0.params.sigma, rel=5e-4)
    assert f1.params.mu == pytest.approx(a * f0.params.mu + b, rel=5e-4)


def _boundary_notes(fit):
    return [n for n in fit.notes if n.startswith("shape at gamma_bounds boundary")]


def test_mle_respects_gamma_bounds():
    # shapes beyond either bound end on that bound, noted and not converged
    for gamma, bound in zip((-1.6, 5.5), MLE_GAMMA_BOUNDS):
        for seed in range(3):
            x = gev_sample(GevParams(0, 1, gamma), 300, seed)
            fit = fit_gev_mle(x)
            assert fit.params.gamma == pytest.approx(bound, abs=1e-6)
            assert not fit.converged
            assert _boundary_notes(fit) == [f"shape at gamma_bounds boundary ({bound:.4f})"]
            assert _boundary_notes(gev_mle_oracle.oracle_fit_gev_mle(x)) == _boundary_notes(fit)


_GOLDEN_BLOCK_MAXIMA = [
    np.loadtxt(path, delimiter=",", skiprows=1, usecols=1)
    for path in sorted((Path(__file__).parent / "golden" / "toy_run").rglob("*_blockmax.csv"))
]


def _oracle_value(fit, x):
    p = fit.params
    return gev_mle_oracle._gev_negloglik(np.array([p.mu, math.log(p.sigma), p.gamma]), x,
                                         MLE_GAMMA_BOUNDS)


@settings(max_examples=40, deadline=None)
@given(
    x=st.builds(
        lambda n, gamma, mu, sigma, seed: gev_sample(GevParams(mu, sigma, gamma), n, seed),
        n=st.integers(20, 500),
        gamma=st.floats(-0.45, 1.5),
        mu=st.floats(-10.0, 100.0),
        sigma=st.floats(0.5, 20.0),
        seed=st.integers(0, 2**32 - 1),
    ),
)
@example(x=_GOLDEN_BLOCK_MAXIMA[0])
@example(x=_GOLDEN_BLOCK_MAXIMA[1])
@example(x=_GOLDEN_BLOCK_MAXIMA[2])
@example(x=_GOLDEN_BLOCK_MAXIMA[3])
# an optimum beyond the upper shape bound
@example(x=gev_sample(GevParams(0.0, 1.0, 5.5), 300, 0))
# Newton stops at an interior point near gamma = -1 (27.5899) above the edge (27.5694)
@example(x=gev_sample(GevParams(0.0, 1.0, -0.404296875), 20, 0))
# the same sample halved: the fit reaches the edge, the oracle stops at the interior point
@example(x=gev_sample(GevParams(0.0, 0.5, -0.404296875), 20, 0))
def test_mle_never_worse_than_oracle(x):
    _assert_never_worse_than_oracle(x)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mle_never_worse_than_oracle_at_lower_bound(seed):
    # shape -1.6 pins both solvers at gamma = -1, where the likelihood is
    # least on the support boundary (mu + sigma at the sample maximum): at
    # seed 0 Newton alone stops at 380.9, the oracle at 252.8, the edge is 250.9
    x = gev_sample(GevParams(0.0, 1.0, -1.6), 300, seed)
    _assert_never_worse_than_oracle(x)
    fit = fit_gev_mle(x)
    assert fit.params.gamma == -1.0 and fit.covariance is None
    assert fit.notes[-1] == ("likelihood not differentiable on the support boundary; "
                             "covariance omitted")


def _assert_never_worse_than_oracle(x):
    # the Newton solver against the L-BFGS-B + Nelder-Mead stack it replaced,
    # both scored by the oracle's value-only likelihood
    try:
        want = gev_mle_oracle.oracle_fit_gev_mle(x)
    except EstimationError:
        with pytest.raises(EstimationError):
            fit_gev_mle(x)
        return
    got = fit_gev_mle(x)
    f_got, f_want = _oracle_value(got, x), _oracle_value(want, x)
    assert f_got <= f_want + 1e-9 * abs(f_want)
    # where the values differ the one above is the stronger check: the fit is lower
    if abs(f_got - f_want) <= 1e-9 * abs(f_want):
        assert _boundary_notes(got) == _boundary_notes(want)


# ---------------------------------------------------------------------------
# mixed estimator
# ---------------------------------------------------------------------------


def test_mixed_deterministic():
    x = gev_sample(GevParams(0, 1, 0.1), 800, 21)
    assert fit_gev_mixed(x).params == fit_gev_mixed(x).params


def test_mixed_recovers_shape():
    ghats = [fit_gev_mixed(gev_sample(GevParams(0, 1, 0.3), 10_000, 70 + r)).params.gamma
             for r in range(20)]
    assert np.mean(ghats) == pytest.approx(0.3, abs=0.05)


def test_mixed_fit_lands_at_the_mpmath_profile_minimum(monkeypatch):
    # this rounded sample's profile is least at g = 7.67e-5, where a Gumbel form
    # within |g| < 1e-4 once made it flat and the fit ended at 1.00000109e-4
    x = np.round(gev_sample(GevParams(5.0, 2.0, 0.3057630906335596), 19, 159838071))
    lm = sample_lmoments(x)
    profiles, refine_min = [], gev.refine_min
    monkeypatch.setattr(gev, "refine_min", lambda f, *args: profiles.append(f) or refine_min(f, *args))
    g_hat = fit_gev_mixed(x).params.gamma
    for g in (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 5e-5, -5e-5, 1e-4, -1e-4, 2e-4, -2e-4, 0.01, 0.3):
        want = float(shape_zero_oracle.gev_neg_profile(g, x, lm.lambda1, lm.lambda2))
        assert abs(profiles[0](g) - want) <= 2e-15 * abs(want)
    g_star, d2 = shape_zero_oracle.gev_profile_argmin(x, lm.lambda1, lm.lambda2, 7.6e-5)
    # each double value of the profile carries up to an ulp of rounding, so the
    # polish may prefer a point up to 2 ulps above the least value, which lies
    # up to sqrt(4 ulp / d2) = 3.4e-8 from the minimum
    f_star = float(shape_zero_oracle.gev_neg_profile(g_star, x, lm.lambda1, lm.lambda2))
    flat = math.sqrt(4.0 * np.spacing(f_star) / d2)
    assert abs(g_hat - g_star) <= _polish_tol(g_star, 1e-9) + flat


def test_mixed_gumbel_recovery():
    ghats = [fit_gev_mixed(gev_sample(GevParams(0, 1, 0.0), 10_000, 90 + r)).params.gamma
             for r in range(20)]
    assert np.mean(ghats) == pytest.approx(0.0, abs=0.03)


def test_mixed_shape_restricted():
    x = gev_sample(GevParams(0, 1, 1.5), 2000, 3)
    fit = fit_gev_mixed(x)
    assert -0.5 <= fit.params.gamma <= 0.5


def test_mixed_small_sample_requirement():
    with pytest.raises(EstimationError):
        fit_gev_mixed(np.arange(5.0))


def test_mixed_equivariance():
    x = gev_sample(GevParams(0.0, 1.0, 0.2), 3000, 15)
    a, b = 2.0, 5.0
    f0, f1 = fit_gev_mixed(x), fit_gev_mixed(a * x + b)
    assert f1.params.gamma == pytest.approx(f0.params.gamma, abs=1e-6)
    assert f1.params.sigma == pytest.approx(a * f0.params.sigma, rel=1e-6)
    assert f1.params.mu == pytest.approx(a * f0.params.mu + b, rel=1e-6)


def test_gev_fitters_return_valid_params_or_raise():
    rng = np.random.default_rng(321)
    for _ in range(20):
        n = int(rng.integers(10, 80))
        x = rng.gumbel(rng.uniform(-5, 5), rng.uniform(0.1, 4), n)
        for fit_fn in (fit_gev_lmom, fit_gev_mixed):
            try:
                fit = fit_fn(x)
            except EstimationError:
                continue
            assert fit.params.sigma > 0
            assert np.isfinite(fit.params.gamma)
