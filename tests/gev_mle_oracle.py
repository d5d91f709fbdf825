"""Reference GEV maximum likelihood fit: L-BFGS-B multi-start plus a Nelder-Mead polish.

The test oracle for ``lobtail.gev.fit_gev_mle``.  It minimizes the same
negative log-likelihood in (mu, log sigma, gamma) from the same start ladder
with ``scipy.optimize.minimize``: L-BFGS-B on the analytic gradient from each
feasible start, then a Nelder-Mead polish of the best point, kept when it is
no worse.  ``_gev_negloglik`` is the value-only objective that the polish
needs; the tests also use it to score both optima on the same arithmetic.
``numerical_hessian`` gives the covariance, and the tests hold the fit's
closed-form covariance to it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

from lobtail.core import EstimationError, Family, FitResult, GevParams, Method, log1p_ratio
from lobtail.gev import MLE_GAMMA_BOUNDS, fit_gev_lmom


def numerical_hessian(f, theta: np.ndarray, steps) -> np.ndarray:
    """Central-difference Hessian of scalar f at theta with per-coordinate steps."""
    k = theta.size
    h = np.empty((k, k))
    f0 = f(theta)
    for a in range(k):
        for b in range(a, k):
            ea = np.zeros(k); ea[a] = steps[a]
            eb = np.zeros(k); eb[b] = steps[b]
            if a == b:
                val = (f(theta + ea) - 2.0 * f0 + f(theta - ea)) / steps[a] ** 2
            else:
                val = (
                    f(theta + ea + eb) - f(theta + ea - eb)
                    - f(theta - ea + eb) + f(theta - ea - eb)
                ) / (4.0 * steps[a] * steps[b])
            h[a, b] = h[b, a] = val
    return h


def _gev_negloglik_grad(theta: np.ndarray, x: np.ndarray):
    """(value, gradient) in (mu, log sigma, gamma), the analytic gradient that the
    Newton solver used before its closed-form Hessian: L-BFGS-B's path, and so the
    oracle's optimum, follows its rounding."""
    mu, log_sigma, g = theta
    if not -745.0 < log_sigma < 709.0:
        return 1e12, np.zeros(3)
    sigma = math.exp(log_sigma)
    z = (x - mu) / sigma
    t = 1.0 + g * z
    if np.any(t <= 1e-12):
        return 1e12, np.zeros(3)
    a_g, zt = log1p_ratio(g, z, 1)[1], z / t
    a = zt - g * a_g
    w = np.exp(-a)
    q = (1.0 + g) - w
    val = x.size * log_sigma + (1.0 + g) * a.sum() + w.sum()
    grad = [-(q / t).sum() / sigma, x.size - (zt * q).sum(), zt.sum() + (a_g * (1.0 - w)).sum()]
    return float(val), np.array(grad)


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


def oracle_fit_gev_mle(data, gamma_bounds: tuple[float, float] = MLE_GAMMA_BOUNDS
                       ) -> FitResult:
    """GEV maximum likelihood over (mu, sigma, gamma) with support constraints.

    Multi-start L-BFGS-B seeded from the L-moment fit, then a Nelder-Mead
    polish; covariance from the inverse numerical Hessian at the optimum,
    reported in (mu, sigma, gamma) order.
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
            args=(x,),
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
