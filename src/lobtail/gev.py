"""Generalized extreme value distribution: densities, sampling, and fitting.

Three estimators are provided for block-maxima data: a pure L-moment fit,
full maximum likelihood, and the mixed estimator that profiles the likelihood
over the shape with location and scale tied to the first two sample
L-moments.  The shape/scale/location relations are

    (1 - 3^g) / (1 - 2^g) = (tau3 + 3) / 2
    sigma = -g * lambda2 / ((1 - 2^g) * Gamma(1 - g))
    mu    = lambda1 + sigma * (1 - Gamma(1 - g)) / g

with the Gumbel limits sigma = lambda2 / ln 2 and mu = lambda1 - sigma * gamma_E
as g -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize, minimize_scalar
from scipy.special import gamma as gamma_fn

from .core import EstimationError, Family, FitResult, GevParams, Method, numerical_hessian

__all__ = [
    "LMoments",
    "gev_cdf",
    "gev_pdf",
    "gev_quantile",
    "gev_sample",
    "sample_lmoments",
    "fit_gev_lmom",
    "fit_gev_mle",
    "fit_gev_mixed",
    "mixed_profile_loglik",
]

EULER_GAMMA = 0.5772156649015329
_GUMBEL_SWITCH = 1e-4  # |gamma| below this: profile uses the Gumbel-limit likelihood
DEFAULT_MLE_GAMMA_BOUNDS = (-1.0, 5.0)


@dataclass(frozen=True)
class LMoments:
    """First two sample L-moments and the L-skewness ratio tau3 = lambda3/lambda2."""

    lambda1: float
    lambda2: float
    tau3: float

    @property
    def lambda3(self) -> float:
        return self.tau3 * self.lambda2


# ---------------------------------------------------------------------------
# distribution functions
# ---------------------------------------------------------------------------


def gev_cdf(x, p: GevParams):
    """GEV distribution function; clamps to {0, 1} outside the support."""
    z = (np.asarray(x, dtype=float) - p.mu) / p.sigma
    g = p.gamma
    if g == 0.0:
        out = np.exp(-np.exp(-z))
    else:
        t = 1.0 + g * z
        with np.errstate(all="ignore"):
            out = np.where(t > 0, np.exp(-np.exp(-np.log1p(np.maximum(g * z, -1.0)) / g)), 0.0)
        out = np.where(t <= 0, 0.0 if g > 0 else 1.0, out)
    if np.ndim(x) == 0:
        return float(out)
    return out


def gev_pdf(x, p: GevParams):
    """GEV density; zero outside the support."""
    z = (np.asarray(x, dtype=float) - p.mu) / p.sigma
    g = p.gamma
    with np.errstate(all="ignore"):
        if g == 0.0:
            out = np.exp(-z - np.exp(-z)) / p.sigma
        else:
            t = 1.0 + g * z
            logt = np.log(np.where(t > 0, t, np.nan))
            w = np.exp(-logt / g)  # t^(-1/g)
            out = np.where(t > 0, w / (t * p.sigma) * np.exp(-w), 0.0)
        out = np.where(np.isfinite(out), out, 0.0)
    if np.ndim(x) == 0:
        return float(out)
    return out


def gev_quantile(q, p: GevParams):
    """Inverse CDF; q must lie in (0, 1)."""
    qa = np.asarray(q, dtype=float)
    if np.any((qa <= 0.0) | (qa >= 1.0)):
        raise ValueError("quantile probabilities must lie in (0, 1)")
    g = p.gamma
    if g == 0.0:
        out = p.mu - p.sigma * np.log(-np.log(qa))
    else:
        # ((-ln q)^(-g) - 1)/g computed as expm1 for small-shape stability
        out = p.mu + p.sigma * np.expm1(-g * np.log(-np.log(qa))) / g
    if np.ndim(q) == 0:
        return float(out)
    return out


def gev_sample(p: GevParams, n: int, seed: int) -> np.ndarray:
    """n i.i.d. GEV draws by inverse transform, deterministic under seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, n)
    u = np.clip(u, 1e-300, 1.0 - 1e-16)
    return np.asarray(gev_quantile(u, p))


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


def _shape_equation(g: float) -> float:
    """(1 - 3^g)/(1 - 2^g), continuous through g = 0 where it equals ln3/ln2."""
    if abs(g) < 1e-9:
        return math.log(3.0) / math.log(2.0)
    return (1.0 - 3.0**g) / (1.0 - 2.0**g)


def _shape_from_tau3(tau3: float) -> tuple[float, bool]:
    """Solve the L-moment shape equation on g in [-1, 1]; returns (g, interior)."""
    target = (tau3 + 3.0) / 2.0
    f = lambda g: _shape_equation(g) - target
    f_lo, f_hi = f(-1.0), f(1.0)
    if f_lo * f_hi > 0:
        raise EstimationError(
            f"tau3={tau3:.4f} outside the solvable range of the shape equation"
        )
    g = brentq(f, -1.0, 1.0, xtol=1e-12)
    interior = abs(abs(g) - 1.0) > 1e-6
    return float(g), interior


def _location_scale_at(g: float, l1: float, l2: float) -> tuple[float, float]:
    """(mu, sigma) implied by the first two L-moments at shape g."""
    if abs(g) < _GUMBEL_SWITCH:
        sigma = l2 / math.log(2.0)
        mu = l1 - EULER_GAMMA * sigma
    else:
        sigma = -g * l2 / ((1.0 - 2.0**g) * gamma_fn(1.0 - g))
        mu = l1 + sigma * (1.0 - gamma_fn(1.0 - g)) / g
    return mu, sigma


def fit_gev_lmom(data) -> FitResult:
    """Pure L-moment GEV fit from (lambda1, lambda2, tau3)."""
    x = np.asarray(data, dtype=float)
    if x.size < 10:
        raise EstimationError(f"need at least 10 observations, got {x.size}")
    lm = sample_lmoments(x)
    g, interior = _shape_from_tau3(lm.tau3)
    mu, sigma = _location_scale_at(g, lm.lambda1, lm.lambda2)
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


def _gev_negloglik(theta: np.ndarray, x: np.ndarray, bounds: tuple[float, float]) -> float:
    mu, log_sigma, g = theta
    if not bounds[0] <= g <= bounds[1] or not np.isfinite(log_sigma):
        return 1e12
    sigma = math.exp(log_sigma)
    z = (x - mu) / sigma
    n = x.size
    if abs(g) < 1e-9:
        return n * log_sigma + z.sum() + np.exp(-np.clip(z, -700, 700)).sum()
    t = 1.0 + g * z
    if np.any(t <= 1e-12):
        return 1e12
    logt = np.log1p(g * z)
    return float(n * log_sigma + (1.0 + 1.0 / g) * logt.sum() + np.exp(-logt / g).sum())


def _gev_negloglik_grad(theta: np.ndarray, x: np.ndarray, bounds: tuple[float, float]):
    """(value, gradient) of the negative log-likelihood in (mu, log sigma, gamma)."""
    mu, log_sigma, g = theta
    if not bounds[0] <= g <= bounds[1] or not np.isfinite(log_sigma):
        return 1e12, np.zeros(3)
    sigma = math.exp(log_sigma)
    z = (x - mu) / sigma
    n = x.size
    if abs(g) < 1e-9:
        e = np.exp(-np.clip(z, -700, 700))
        val = n * log_sigma + z.sum() + e.sum()
        d_mu = (-n + e.sum()) / sigma
        d_ls = n - z.sum() + (z * e).sum()
        # d nll / dgamma at g = 0 (Taylor limit of the shape score)
        d_g = float(np.sum(z - z * z / 2.0 * (1.0 - e)))
        return float(val), np.array([d_mu, d_ls, d_g])
    t = 1.0 + g * z
    if np.any(t <= 1e-12):
        return 1e12, np.zeros(3)
    logt = np.log1p(g * z)
    w = np.exp(-logt / g)  # t^(-1/g)
    val = n * log_sigma + (1.0 + 1.0 / g) * logt.sum() + w.sum()
    inv_t = 1.0 / t
    w_over_t = w * inv_t
    d_mu = (-(g + 1.0) * inv_t.sum() + w_over_t.sum()) / sigma
    d_sigma = (n - (g + 1.0) * (z * inv_t).sum() + (z * w_over_t).sum()) / sigma
    d_g = (
        -logt.sum() / g**2
        + (1.0 + 1.0 / g) * (z * inv_t).sum()
        + (w * (logt / g**2 - z * inv_t / g)).sum()
    )
    return float(val), np.array([d_mu, d_sigma * sigma, float(d_g)])


def fit_gev_mle(data, gamma_bounds: tuple[float, float] = DEFAULT_MLE_GAMMA_BOUNDS) -> FitResult:
    """GEV maximum likelihood over (mu, sigma, gamma) with support constraints.

    Multi-start Nelder-Mead seeded from the L-moment fit (the likelihood
    surface is unstable for small samples, so the moment start matters);
    covariance from the inverse numerical Hessian at the optimum, reported in
    (mu, sigma, gamma) order.
    """
    x = np.asarray(data, dtype=float)
    if x.size < 20:
        raise EstimationError(f"need at least 20 observations, got {x.size}")
    lo, hi = gamma_bounds
    if not lo < hi:
        raise ValueError("gamma_bounds must be an increasing pair")

    try:
        lm_fit = fit_gev_lmom(x)
        g0 = min(max(lm_fit.params.gamma, lo + 1e-3), hi - 1e-3)
        mu0, s0 = lm_fit.params.mu, lm_fit.params.sigma
    except EstimationError:
        g0, mu0, s0 = 0.1, float(x.mean()), float(x.std(ddof=1))
    if s0 <= 0:
        raise EstimationError("degenerate sample: zero scale start")

    starts = [np.array([mu0, math.log(s0), gs]) for gs in dict.fromkeys(
        (g0, 0.0 if lo < 0.0 < hi else g0, min(max(0.3, lo + 1e-3), hi - 1e-3))
    )]
    best = None
    for start in starts:
        if _gev_negloglik(start, x, gamma_bounds) >= 1e12:
            continue
        res = minimize(
            _gev_negloglik_grad,
            start,
            args=(x, gamma_bounds),
            method="L-BFGS-B",
            jac=True,
            bounds=[(None, None), (None, None), gamma_bounds],
            options={"maxiter": 400, "ftol": 1e-13, "gtol": 1e-10},
        )
        if best is None or res.fun < best.fun:
            best = res
    if best is None:
        raise EstimationError("no feasible starting point satisfies the support constraint")
    # polish: the quasi-Newton step can stall on the support-penalty edge
    res = minimize(
        _gev_negloglik,
        best.x,
        args=(x, gamma_bounds),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000, "maxfev": 4000},
    )
    if res.fun <= best.fun:
        best = res

    mu, log_sigma, g = best.x
    sigma = math.exp(log_sigma)
    notes = []
    converged = bool(best.success)
    if min(g - lo, hi - g) < 1e-6:
        converged = False
        notes.append(f"shape at gamma_bounds boundary ({g:.4f})")

    # Hessian in natural (mu, sigma, gamma) coordinates
    def nll_nat(theta):
        mu_, sigma_, g_ = theta
        if sigma_ <= 0:
            return 1e12
        return _gev_negloglik(np.array([mu_, math.log(sigma_), g_]), x, (-np.inf, np.inf))

    theta_hat = np.array([mu, sigma, g])
    steps = np.maximum(np.abs(theta_hat), 1.0) * 1e-4
    covariance = None
    try:
        hess = numerical_hessian(nll_nat, theta_hat, steps)
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


def mixed_profile_loglik(g: float, data, lmoments: LMoments | None = None) -> float:
    """Profile log-likelihood at shape g with (mu, sigma) tied to the L-moments.

    Uses the Gumbel-limit likelihood within 1e-4 of g = 0 (the profile has a
    removable singularity there).  Returns -inf when the support constraint
    fails.
    """
    x = np.asarray(data, dtype=float)
    lm = lmoments if lmoments is not None else sample_lmoments(x)
    mu, sigma = _location_scale_at(g, lm.lambda1, lm.lambda2)
    if not (sigma > 0 and np.isfinite(sigma)):
        return -np.inf
    z = (x - mu) / sigma
    n = x.size
    if abs(g) < _GUMBEL_SWITCH:
        return float(-n * math.log(sigma) - z.sum() - np.exp(-np.clip(z, -700, 700)).sum())
    t = 1.0 + g * z
    if np.any(t <= 0.0):
        return -np.inf
    logt = np.log1p(g * z)
    return float(-n * math.log(sigma) - (1.0 + 1.0 / g) * logt.sum() - np.exp(-logt / g).sum())


def fit_gev_mixed(data) -> FitResult:
    """Mixed estimator: profile likelihood over gamma in [-0.5, 0.5].

    Location and scale follow the sample L-moments at each candidate shape;
    the restriction keeps the relevant moments finite.  Deterministic: coarse
    grid scan plus bounded one-dimensional refinement.
    """
    x = np.asarray(data, dtype=float)
    if x.size < 10:
        raise EstimationError(f"need at least 10 observations, got {x.size}")
    lm = sample_lmoments(x)

    grid = np.linspace(-0.5, 0.5, 101)
    vals = np.array([mixed_profile_loglik(g, x, lm) for g in grid])
    if not np.any(np.isfinite(vals)):
        raise EstimationError("profile likelihood undefined on the whole shape bracket")
    k = int(np.nanargmax(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]

    def neg_profile(g: float) -> float:
        val = mixed_profile_loglik(g, x, lm)
        return -val if np.isfinite(val) else 1e300

    res = minimize_scalar(
        neg_profile,
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-9},
    )
    g_hat = float(res.x) if res.fun < np.inf else float(grid[k])
    if -res.fun < vals[k]:
        g_hat = float(grid[k])
    mu, sigma = _location_scale_at(g_hat, lm.lambda1, lm.lambda2)

    notes = []
    converged = True
    if 0.5 - abs(g_hat) < 1e-6:
        converged = False
        notes.append(f"shape at the [-0.5, 0.5] restriction boundary ({g_hat:.4f})")

    return FitResult(
        family=Family.GEV,
        method=Method.MIXED_LMOMENTS,
        params=GevParams(mu=mu, sigma=sigma, gamma=g_hat),
        sample_size=int(x.size),
        converged=converged,
        notes=tuple(notes),
    )
