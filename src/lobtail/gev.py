"""Generalized extreme value distribution: CDF, quantiles, sampling, and fitting.

Three estimators are provided for block-maxima data: a pure L-moment fit,
full maximum likelihood, and the mixed estimator that profiles the likelihood
over the shape with location and scale tied to the first two sample
L-moments.  The relations of Hosking, Wallis & Wood (1985) are

    (1 - 3^g) / (1 - 2^g) = (tau3 + 3) / 2
    sigma = lambda2 / (ln 2 * E(g ln 2) * exp(g H(g)))
    mu    = lambda1 - sigma * H(g) * E(g H(g))

with E(u) = expm1(u) / u and H(g) = lgamma(1 - g) / g from ``core``, smooth
through the Gumbel values sigma = lambda2 / ln 2, mu = lambda1 - sigma * gamma_E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (EstimationError, Family, FitResult, GevParams, Method, _ZERO_SHAPE,
                   _inverse_transform_sample, expm1_ratio, lgamma_ratio, log1p_ratio, refine_min)

__all__ = [
    "LMoments",
    "gev_cdf",
    "gev_quantile",
    "gev_sample",
    "sample_lmoments",
    "fit_gev_lmom",
    "fit_gev_mle",
    "fit_gev_mixed",
]

_LN2, _LN3 = math.log(2.0), math.log(3.0)
_SHAPE_BISECTIONS = 60  # halvings of the shape equation's half bracket
MLE_GAMMA_BOUNDS = (-1.0, 5.0)
_NEWTON_MAX_ITER = 100  # per start; a run that reaches it is not converged
_VALUE_RESOLUTION = 1e-15  # relative rounding of the likelihood value (_newton_solve)
_NEG_PROFILE_INFEASIBLE = 1e300  # mixed-profile value where the support constraint fails


@dataclass(frozen=True)
class LMoments:
    """First two sample L-moments and the L-skewness ratio tau3 = lambda3/lambda2."""

    lambda1: float
    lambda2: float
    tau3: float


# ---------------------------------------------------------------------------
# distribution functions
# ---------------------------------------------------------------------------


def gev_cdf(x, p: GevParams):
    """GEV distribution function; clamps to {0, 1} outside the support."""
    z = (np.asarray(x, dtype=float) - p.mu) / p.sigma
    g = p.gamma
    if abs(g) < _ZERO_SHAPE:
        out = np.exp(-np.exp(-z))
    else:
        t = 1.0 + g * z
        with np.errstate(all="ignore"):
            out = np.where(t > 0, np.exp(-np.exp(-np.log1p(np.maximum(g * z, -1.0)) / g)), 0.0)
        out = np.where(t <= 0, 0.0 if g > 0 else 1.0, out)
    if np.ndim(x) == 0:
        return float(out)
    return out


def gev_quantile(q, p: GevParams):
    """Inverse CDF; q must lie in (0, 1)."""
    qa = np.asarray(q, dtype=float)
    if np.any((qa <= 0.0) | (qa >= 1.0)):
        raise ValueError("quantile probabilities must lie in (0, 1)")
    g = p.gamma
    if abs(g) < _ZERO_SHAPE:
        out = p.mu - p.sigma * np.log(-np.log(qa))
    else:
        # ((-ln q)^(-g) - 1)/g computed as expm1 for small-shape stability
        out = p.mu + p.sigma * np.expm1(-g * np.log(-np.log(qa))) / g
    if np.ndim(q) == 0:
        return float(out)
    return out


def gev_sample(p: GevParams, n: int, seed: int) -> np.ndarray:
    """n i.i.d. GEV draws by inverse transform, deterministic under seed."""
    return _inverse_transform_sample(gev_quantile, p, n, seed)


# ---------------------------------------------------------------------------
# sample L-moments
# ---------------------------------------------------------------------------


def sample_lmoments(data) -> LMoments:
    """Unbiased sample L-moments lambda1, lambda2 and L-skewness tau3.

    lambda2 uses the order-statistic weights ((n-1) - (K-n)) / (K (K-1));
    lambda3 comes from the direct r = 3 order-statistic expectation formula
    (equivalently 6 b2 - 6 b1 + b0 in probability-weighted moments).
    """
    x = np.sort(np.asarray(data, dtype=float))
    n = x.size
    if n < 3:
        raise EstimationError(f"need at least 3 observations, got {n}")
    i = np.arange(1, n + 1)
    l1 = x.mean()
    l2 = float(np.sum(((i - 1) - (n - i)) * x) / (n * (n - 1)))
    b0 = l1
    b1 = float(np.sum((i - 1) * x) / (n * (n - 1)))
    b2 = float(np.sum((i - 1) * (i - 2) * x) / (n * (n - 1) * (n - 2)))
    l3 = 6.0 * b2 - 6.0 * b1 + b0
    if l2 <= 0.0:
        raise EstimationError("degenerate sample: second L-moment is not positive")
    return LMoments(lambda1=float(l1), lambda2=l2, tau3=l3 / l2)


def _shape_from_tau3(tau3: float) -> tuple[float, bool]:
    """Solve the L-moment shape equation on g in [-1, 1]; returns (g, interior).

    The left side, written (3^g - 1)/(2^g - 1) = expm1(g ln 3)/expm1(g ln 2),
    rises from 4/3 at g = -1 through ln3/ln2 at g = 0 to 2 at g = 1, so
    tau3 in [-1/3, 1] has one root.  The bisection, on Python floats, runs on
    the half of the bracket that holds it, so no midpoint is the 0/0 point
    g = 0, and stops once the midpoint is an end of the bracket.
    """
    if not -1.0 / 3.0 <= tau3 <= 1.0:
        raise EstimationError(
            f"tau3={tau3:.4f} outside the solvable range of the shape equation"
        )
    target = (tau3 + 3.0) / 2.0
    lo, hi = (-1.0, 0.0) if target < _LN3 / _LN2 else (0.0, 1.0)
    for _ in range(_SHAPE_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # no halving can move the bracket any more
            break
        if np.expm1(mid * _LN3) / np.expm1(mid * _LN2) < target:
            lo = mid
        else:
            hi = mid
    g = 0.5 * (lo + hi)
    interior = abs(abs(g) - 1.0) > 1e-6
    return g, interior


def _location_scale_at(g: float, l1: float, l2: float) -> tuple[float, float]:
    """(mu, sigma) implied by the first two L-moments at shape g in [-1, 1)."""
    h = lgamma_ratio(g)
    sigma = l2 / (_LN2 * expm1_ratio(g * _LN2) * math.exp(g * h))
    return l1 - sigma * h * expm1_ratio(g * h), sigma


def fit_gev_lmom(data) -> FitResult:
    """Pure L-moment GEV fit from (lambda1, lambda2, tau3)."""
    x = np.asarray(data, dtype=float)
    if x.size < 10:
        raise EstimationError(f"need at least 10 observations, got {x.size}")
    lm = sample_lmoments(x)
    g, interior = _shape_from_tau3(lm.tau3)
    at_pole = not interior and g > 0  # Gamma(1 - g) has its pole at g = 1
    mu, sigma = (math.nan, 0.0) if at_pole else _location_scale_at(g, lm.lambda1, lm.lambda2)
    if not (math.isfinite(mu) and 0.0 < sigma < math.inf):
        raise EstimationError(f"no finite location and positive scale at shape {g}")
    notes = () if interior else ("shape solution at the [-1, 1] bracket boundary",)
    return FitResult(
        family=Family.GEV,
        method=Method.MOM,
        params=GevParams(mu=mu, sigma=sigma, gamma=g),
        sample_size=int(x.size),
        converged=interior,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------


def _standardize(theta: np.ndarray, x: np.ndarray):
    """(z, t) = ((x - mu) / sigma, 1 + g z) at theta = (mu, log sigma, gamma); None
    outside the support (t <= 1e-12), or where sigma is 0 or inf."""
    mu, log_sigma, g = theta
    if not -745.0 < log_sigma < 709.0:
        return None
    z = (x - mu) / math.exp(log_sigma)
    t = 1.0 + g * z
    return None if t.min() <= 1e-12 else (z, t)


def _gev_negloglik(theta: np.ndarray, x: np.ndarray) -> float:
    """Negative log-likelihood in (mu, log sigma, gamma), 1e12 where _standardize gives
    None.  With A = log1p(g z) / g a point adds (1 + g) A + exp(-A) to n log sigma."""
    at = _standardize(theta, x)
    if at is None:
        return 1e12
    (a,) = log1p_ratio(theta[2], at[0])
    return float(x.size * theta[1] + (1.0 + theta[2]) * a.sum() + np.exp(-a).sum())


def _gev_negloglik_derivs(theta: np.ndarray, x: np.ndarray):
    """(value, gradient, Hessian) of _gev_negloglik from one pass; (1e12, 0, 0) where it
    is 1e12.  A point adds h = (1 + g) A + w, w = exp(-A), whose derivatives with
    q = 1 + g - w and A_g, A_gg the shape derivatives of A are (Prescott & Walden 1980)

        h_z = q / t,  h_zz = (1 + g) (w - g) / t^2,  h_zg = (1 + w A_g - q z / t) / t,
        h_g = A + q A_g,  h_gg = (2 + w A_g) A_g + q A_gg;

    z moves by -1/sigma in mu and by -z in log sigma."""
    at = _standardize(theta, x)
    if at is None:
        return 1e12, np.zeros(3), np.zeros((3, 3))
    z, t = at
    log_sigma, g = theta[1], theta[2]
    a, a_g, a_gg = log1p_ratio(g, z, 2)
    r = 1.0 / t
    w = np.exp(-a)
    q = (1.0 + g) - w
    h_z = q * r
    e = (w - g) * r * r  # h_zz / (1 + g)
    wa_g = w * a_g
    h_zg = (1.0 + wa_g - q * (z * r)) * r
    ze = z * e
    s_z, s_zz, s_zg = h_z.sum(), h_zg.sum(), (z * h_zg).sum()
    s_m, s_l = (z * h_z).sum(), (1.0 + g) * ze.sum() + s_z
    val = x.size * log_sigma + (1.0 + g) * a.sum() + w.sum()
    sigma = math.exp(log_sigma)
    grad = [-s_z / sigma, x.size - s_m, (a + q * a_g).sum()]
    hess = [[(1.0 + g) * e.sum() / sigma**2, s_l / sigma, -s_zz / sigma],
            [s_l / sigma, (1.0 + g) * (z * ze).sum() + s_m, -s_zg],
            [-s_zz / sigma, -s_zg, ((2.0 + wa_g) * a_g + q * a_gg).sum()]]
    return float(val), np.array(grad), np.array(hess)


@np.errstate(all="ignore")  # trial steps off the support are rejected
def _newton_solve(theta: np.ndarray, x: np.ndarray):
    """Damped Newton descent from theta with gamma kept in MLE_GAMMA_BOUNDS; returns
    (theta, value, converged).  One derivative pass per accepted step; line-search
    trials read the value alone."""
    lo, hi = MLE_GAMMA_BOUNDS
    val, grad, hess = _gev_negloglik_derivs(theta, x)
    for _ in range(_NEWTON_MAX_ITER):
        unit = np.array([math.exp(theta[1]), 1.0, 1.0])  # mu is measured in sigma
        # gamma leaves the system while it sits on a bound, gradient pointing outward
        pinned = theta[2] == lo and grad[2] > 0 or theta[2] == hi and grad[2] < 0
        free = 2 if pinned else 3  # the leading coordinates that move
        block = hess[:free, :free]
        lam = 0.0  # Levenberg damping until the block has a Cholesky factor
        while True:
            try:
                np.linalg.cholesky(block + lam * np.eye(free))
                break
            except np.linalg.LinAlgError:
                lam = max(10.0 * lam, 1e-10 * np.abs(block).max(), 1e-300)
        step = np.zeros(3)
        step[:free] = np.linalg.solve(block + lam * np.eye(free), -grad[:free])
        # the value sums n terms exp(-A) of about 1 beside n log sigma, so it is known to
        # about eps (|value| + n); where the Newton decrement is below that, theta is a
        # stationary point: the value can only tie, and the step polishes theta
        resolution = _VALUE_RESOLUTION * (abs(val) + x.size)
        stationary = -grad @ step <= resolution
        for halving in range(60):  # halve until the value falls or the step is nil
            trial = theta + 0.5**halving * step
            trial[2] = min(max(trial[2], lo), hi)
            trial_val = _gev_negloglik(trial, x)
            if stationary and trial_val <= val + resolution:
                return trial, trial_val, True
            tiny = bool(np.all(np.abs(trial - theta) <= 1e-12 * np.maximum(np.abs(theta), unit)))
            if trial_val < val or tiny:
                break
        else:
            break  # no finite step lowers the value
        gain = val - trial_val
        if gain > 0:
            theta = trial
            val, grad, hess = _gev_negloglik_derivs(theta, x)
        if tiny and gain <= 1e-15 * abs(val):
            return theta, val, True
    return theta, val, False


def fit_gev_mle(data) -> FitResult:
    """GEV maximum likelihood over (mu, sigma, gamma) with support constraints.

    Bounded damped Newton in (mu, log sigma, gamma) on the closed-form Hessian,
    from the L-moment fit (the sample mean and standard deviation at gamma = 0.1
    where the data give none) and the Gumbel and gamma = 0.3 shapes; the lowest
    value wins.  ``converged``: the winner reached a stationary point within
    _NEWTON_MAX_ITER iterations (a Newton decrement below the value's rounding,
    then one full step, or a last step that moved no coordinate by more than
    1e-12, relative), and gamma is not within 1e-6 of a bound (noted).  Every
    winner is compared with the infimum of the likelihood on the lower bound
    gamma = -1 (mu + sigma at the sample maximum), which is kept instead if it
    is lower, also when the winner stopped at an interior point; the
    likelihood is not differentiable at that point, so the covariance is
    omitted (noted).  Otherwise the covariance is the inverse of the closed-form
    Hessian at the optimum, taken to (mu, sigma, gamma) by the chain rule.
    """
    x = np.asarray(data, dtype=float)
    if x.size < 20:
        raise EstimationError(f"need at least 20 observations, got {x.size}")
    lo, hi = MLE_GAMMA_BOUNDS
    try:
        lm_fit = fit_gev_lmom(x)
        g0 = min(max(lm_fit.params.gamma, lo + 1e-3), hi - 1e-3)
        mu0, s0 = lm_fit.params.mu, lm_fit.params.sigma
    except EstimationError:
        g0, mu0, s0 = 0.1, float(x.mean()), float(x.std(ddof=1))
    if s0 <= 0:
        raise EstimationError("degenerate sample: zero scale start")

    starts = [np.array([mu0, math.log(s0), gs]) for gs in dict.fromkeys((g0, 0.0, 0.3))]
    runs = [_newton_solve(start, x) for start in starts if _gev_negloglik(start, x) < 1e12]
    if not runs:
        raise EstimationError("no feasible starting point satisfies the support constraint")

    theta, val, converged = min(runs, key=lambda run: run[1])
    # at gamma = lo = -1 the value is n log sigma + sum(mu + sigma - x) / sigma,
    # least with mu + sigma at max x and sigma = mean(max x - x), where Newton
    # cannot follow; mu + sigma = max x + 1e-10 sigma keeps t above the 1e-12 guard
    sigma_edge = float(np.mean(x.max() - x))
    edge = np.array([x.max() - (1.0 - 1e-10) * sigma_edge, math.log(sigma_edge), lo])
    on_support_edge = _gev_negloglik(edge, x) < val
    if on_support_edge:
        theta = edge
    mu, log_sigma, g = theta
    sigma = math.exp(log_sigma)
    notes = []
    if min(g - lo, hi - g) < 1e-6:
        converged = False
        notes.append(f"shape at gamma_bounds boundary ({g:.4f})")

    covariance = None
    if on_support_edge:
        notes.append("likelihood not differentiable on the support boundary; covariance omitted")
    else:
        # d/d sigma = (1/sigma) d/d log sigma, so the (sigma, sigma) entry also loses
        # the log-sigma score over sigma^2
        _, grad, hess = _gev_negloglik_derivs(theta, x)
        jac = np.array([1.0, 1.0 / sigma, 1.0])
        hess = hess * np.outer(jac, jac)
        hess[1, 1] -= grad[1] / sigma**2
        try:
            covariance = np.linalg.inv(hess)
            if not np.all(np.isfinite(covariance)) or np.any(np.diag(covariance) <= 0):
                covariance = None
                notes.append("Hessian not positive definite; covariance omitted")
        except np.linalg.LinAlgError:
            notes.append("Hessian inversion failed; covariance omitted")

    return FitResult(
        family=Family.GEV,
        method=Method.MLE,
        params=GevParams(mu=float(mu), sigma=float(sigma), gamma=float(g)),
        sample_size=int(x.size),
        converged=converged,
        covariance=covariance,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# mixed MLE + L-moments
# ---------------------------------------------------------------------------


def fit_gev_mixed(data) -> FitResult:
    """Mixed estimator: profile likelihood over gamma in [-0.5, 0.5].

    Location and scale follow the sample L-moments at each candidate shape;
    the restriction keeps the relevant moments finite.  Deterministic: a
    101-point grid scan, then golden-section search (``core.refine_min``).
    """
    x = np.asarray(data, dtype=float)
    if x.size < 10:
        raise EstimationError(f"need at least 10 observations, got {x.size}")
    lm = sample_lmoments(x)

    def neg_profile(g: float) -> float:
        """Negative profile log-likelihood at shape g, with (mu, sigma) tied to the
        L-moments; the value of _gev_negloglik, smooth through g = 0."""
        mu, sigma = _location_scale_at(g, lm.lambda1, lm.lambda2)
        z = (x - mu) / sigma
        if np.any(1.0 + g * z <= 0.0):
            return _NEG_PROFILE_INFEASIBLE
        (a,) = log1p_ratio(g, z)
        val = float(x.size * math.log(sigma) + (1.0 + g) * a.sum() + np.exp(-a).sum())
        return val if math.isfinite(val) else _NEG_PROFILE_INFEASIBLE

    g_hat, neg = refine_min(neg_profile, np.linspace(-0.5, 0.5, 101), 1e-9)
    if neg >= _NEG_PROFILE_INFEASIBLE:
        raise EstimationError("profile likelihood undefined on the whole shape bracket")
    mu, sigma = _location_scale_at(g_hat, lm.lambda1, lm.lambda2)

    converged = 0.5 - abs(g_hat) >= 1e-6
    notes = () if converged else (f"shape at the [-0.5, 0.5] restriction boundary ({g_hat:.4f})",)

    return FitResult(
        family=Family.GEV,
        method=Method.MIXED_LMOMENTS,
        params=GevParams(mu=mu, sigma=sigma, gamma=g_hat),
        sample_size=int(x.size),
        converged=converged,
        notes=notes,
    )
