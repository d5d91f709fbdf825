"""Alpha-stable distribution support.

Implements the S(0) continuous parameterization throughout: pointwise CDF
evaluation through Zolotarev's integral representation,
Chambers-Mallows-Stuck random variates, and McCulloch's quantile-based
parameter estimation from the published lookup tables.

Density evaluation (series expansions) is deliberately out of scope; the CDF
is all that goodness-of-fit needs.
"""

from __future__ import annotations

import math

import numpy as np

from . import _mcculloch_tables as tab
from .core import EstimationError, Family, FitResult, Method, StableParams, bisect

__all__ = [
    "stable_cdf",
    "stable_sample",
    "sample_quantile",
    "fit_mcculloch",
]

_CDF_ABS_TOL = 1e-8
# stable CDF treats |alpha - 1| below this as the alpha = 1 family; the
# alpha != 1 kernel exponent alpha/(alpha-1) becomes numerically hopeless there
_ALPHA_ONE_WINDOW = 5e-3
# alpha = 1 with |beta| below this is the Cauchy closed form: the CDF moves by
# about 0.17 |beta| from it, and the x/beta terms of the beta != 0 kernel
# overflow once |beta| falls below ~1e-302
_CAUCHY_BETA = 1e-10
_HALF_PI = math.pi / 2
# CDF quadrature: panel rule, check rule, layer depths and uniform cuts
# (fractions of the span), panels per point, bisection steps for the
# transition and nodes per work block
_RULE_NODES, _RULE_WEIGHTS = np.polynomial.legendre.leggauss(20)
_CHECK_NODES, _CHECK_WEIGHTS = np.polynomial.legendre.leggauss(16)
_LAYERS = 10.0 ** -np.arange(1, 14)
_UNIFORM_CUTS = np.arange(1, 16) / 16
_PANELS = 4 * _LAYERS.size + _UNIFORM_CUTS.size + 2
_BISECTIONS = 60
_BLOCK_NODES = 2**14


def _cms_standard(alpha: float, beta: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Chambers-Mallows-Stuck draws, standard scale, S(1) location convention."""
    v = rng.uniform(-_HALF_PI, _HALF_PI, n)
    w = rng.exponential(1.0, n)
    if alpha != 1.0:
        tan_half = math.tan(math.pi * alpha / 2)
        b0 = math.atan(beta * tan_half) / alpha
        s0 = (1 + beta**2 * tan_half**2) ** (1 / (2 * alpha))
        return (
            s0
            * np.sin(alpha * (v + b0))
            / np.cos(v) ** (1 / alpha)
            * (np.cos(v - alpha * (v + b0)) / w) ** ((1 - alpha) / alpha)
        )
    return (2 / math.pi) * (
        (_HALF_PI + beta * v) * np.tan(v)
        - beta * np.log(_HALF_PI * w * np.cos(v) / (_HALF_PI + beta * v))
    )


def stable_sample(p: StableParams, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws from S_alpha(beta, gamma, delta; 0), deterministic under seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    z = _cms_standard(p.alpha, p.beta, rng, n)
    if p.alpha != 1.0:
        # shift the S(1) draw into the S(0) location convention
        return p.gamma * z + p.delta - p.beta * p.gamma * math.tan(math.pi * p.alpha / 2)
    return p.gamma * z + p.delta


def _panel_breaks(lo: np.ndarray, hi: np.ndarray, star: np.ndarray) -> np.ndarray:
    """Sorted panel breaks, one row per point, from (points, 1) columns.

    Far in a tail, the integrand transitions from ~0 to ~1 inside a layer of
    width O(x^-alpha) at one endpoint, and near alpha = 1 the drop around
    the transition phi* is steep at every x; a fixed rule without breaks
    there samples only zeros or ones and loses mass.  So the interval is cut
    at geometric distances span * 10^-k from both ends and from phi*, plus
    16 uniform cuts for smooth drops that span most of the interval.  Layers
    thinner than ~1e-13 of the span contribute less than the 1e-8 target.
    """
    span = hi - lo
    off = span * _LAYERS
    breaks = np.concatenate([
        lo, hi, lo + off, hi - off, lo + span * _UNIFORM_CUTS,
        star, np.clip(star - off, lo, hi), np.clip(star + off, lo, hi)], axis=1)
    breaks.sort(axis=1)
    return breaks


def _integrate(log_a, lo, hi, theta, log_u, increasing: bool):
    """Integral of exp(-exp(log_a + log_u(phi, theta))) over [lo, hi], per point.

    log_a, lo, hi and theta are (points, 1) columns; log_u maps angles of
    shape (points, m) and the matching theta rows to log U, which is
    monotone in phi (increasing or decreasing, as stated).  Bisection finds
    the transition phi*, where log a + log U = 0 and the integrand passes
    1/e.  Each panel between the breaks gets the 20-point Gauss-Legendre
    rule, and the 16-point rule on the same panels gives the error
    estimate.  Points go in blocks of about _BLOCK_NODES nodes, which keeps
    the temporaries in cache.  A point's value is computed from its own row
    only (elementwise ufuncs and sums along the row), so it does not depend
    on the other points of the call.  Returns the integrals and the error
    estimates as 1-D arrays.
    """
    star = bisect(lambda mid: (log_a + log_u(mid, theta) < 0.0) == increasing,
                  lo, hi, _BISECTIONS)
    nodes = np.concatenate([_RULE_NODES, _CHECK_NODES])
    value = np.empty(len(lo))
    err = np.empty(len(lo))
    step = max(1, _BLOCK_NODES // (_PANELS * nodes.size))
    for i in range(0, len(lo), step):
        rows = slice(i, i + step)
        breaks = _panel_breaks(lo[rows], hi[rows], star[rows])
        half = 0.5 * (breaks[:, 1:] - breaks[:, :-1])
        centre = 0.5 * (breaks[:, 1:] + breaks[:, :-1])
        phi = (centre[..., None] + half[..., None] * nodes).reshape(len(half), -1)
        with np.errstate(over="ignore"):
            g = np.exp(-np.exp(log_a[rows] + log_u(phi, theta[rows])))
        g = g.reshape(half.shape + nodes.shape)
        fine = half * np.sum(g[..., :_RULE_NODES.size] * _RULE_WEIGHTS, axis=-1)
        coarse = half * np.sum(g[..., _RULE_NODES.size:] * _CHECK_WEIGHTS, axis=-1)
        value[rows] = np.sum(fine, axis=-1)
        err[rows] = np.sum(np.abs(fine - coarse), axis=-1)
    return value, err


def _log_u_not1(phi, alpha: float, theta):
    """log U_alpha(phi, theta) of the alpha != 1 kernel, angles in units of pi/2.

    U = (sin A / cos B)^(alpha/(1-alpha)) cos(A - B) / cos B with
    A = alpha (phi + theta) and B = phi (times pi/2), A in [0, pi] and B,
    A - B in [-pi/2, pi/2].  Written with tangents only, sin A =
    2 tan(A/2) / (1 + tan(A/2)^2) and log cos B = -log1p(tan(B)^2) / 2,
    because numpy vectorizes tan and log1p but not float64 sin and cos.  In
    log space the huge exponent near alpha = 1 cannot overflow; the abs
    keeps sin A >= 0 where rounding puts A a hair outside [0, pi].
    """
    expo = alpha / (1 - alpha)
    half_a = np.tan(0.5 * _HALF_PI * alpha * (phi + theta))
    tan_b = np.tan(_HALF_PI * phi)
    tan_c = np.tan(_HALF_PI * ((alpha - 1) * phi + alpha * theta))
    with np.errstate(divide="ignore"):
        return (expo * np.log(2 * np.abs(half_a) / (1 + half_a * half_a))
                + 0.5 * (expo + 1) * np.log1p(tan_b * tan_b)
                - 0.5 * np.log1p(tan_c * tan_c))


def _log_u_one(phi, beta: float):
    """log U of the alpha = 1, beta > 0 kernel, U = (2/pi) (pi/2 + beta phi)
    / cos(phi) * exp((pi/2 + beta phi) tan(phi) / beta), with
    log cos = -log1p(tan^2) / 2 as above; the abs keeps pi/2 + beta phi
    >= 0 where rounding at beta = 1, phi = -pi/2 would flip its sign."""
    base = _HALF_PI + beta * phi
    tan_phi = np.tan(phi)
    with np.errstate(divide="ignore"):
        return (np.log(np.abs(base) / _HALF_PI) + 0.5 * np.log1p(tan_phi * tan_phi)
                + base * tan_phi / beta)


def _cdf_std_not1(z1: np.ndarray, alpha: float, beta: float):
    """Standardized CDF and error estimates at the S(1) coordinates z1 (1-D),
    alpha != 1.

    Evaluates the finite-interval integral representation: constant
    C(alpha, theta) plus sgn(1 - alpha)/2 times the integral of
    exp(-x^(alpha/(alpha-1)) U_alpha(phi, theta)) over phi in [-theta, 1],
    with angles in units of pi/2.  theta is the standardized skewness angle
    (2/(pi alpha)) arctan(beta tan(pi alpha / 2)) and the argument carries
    the matching scale factor cos(alpha theta0)^(1/alpha); both reduce to
    beta-linear forms only at beta in {0, +-1}.  A point z1 < 0 is reached
    through the duality F(-z; beta) = 1 - F(z; -beta), i.e. theta -> -theta.
    """
    theta0 = math.atan(beta * math.tan(math.pi * alpha / 2)) / alpha
    tn = theta0 / _HALF_PI
    eps = 1.0 if alpha < 1 else -1.0
    flip = z1 < 0
    # the limits at +-inf and the closed form at 0; NaN stays NaN
    out = np.select([z1 > 0, flip, z1 == 0], [1.0, 0.0, (1 - tn) / 2], np.nan)
    err = np.zeros(z1.shape)
    inner = np.isfinite(z1) & (z1 != 0)
    theta = np.where(flip[inner], -tn, tn)[:, None]
    log_a = (alpha / (alpha - 1)) * (
        np.log(np.abs(z1[inner])) + math.log(math.cos(alpha * theta0)) / alpha)
    val, err[inner] = _integrate(
        log_a[:, None], -theta, np.ones_like(theta), theta,
        lambda phi, th: _log_u_not1(phi, alpha, th), increasing=alpha < 1)
    c_const = 1 - 0.25 * (1 + theta[:, 0]) * (1 + eps)
    f = np.clip(c_const + eps / 2 * val, 0.0, 1.0)
    out[inner] = np.where(flip[inner], 1.0 - f, f)
    return out, err / 2


def _cdf_std_1(z: np.ndarray, beta: float):
    """Standardized CDF and error estimates for alpha = 1 at the points z
    (1-D); S(0) and S(1) coincide at unit scale.  beta < 0 is reached
    through the duality."""
    if abs(beta) < _CAUCHY_BETA:
        return 0.5 + np.arctan(z) / math.pi, np.zeros(z.shape)
    zz = z if beta > 0 else -z
    b = abs(beta)
    out = np.where(zz > 0, 1.0, np.where(zz < 0, 0.0, np.nan))
    err = np.zeros(z.shape)
    inner = np.isfinite(zz)
    col = zz[inner][:, None]
    lo = np.full(col.shape, -_HALF_PI)
    val, err[inner] = _integrate(
        -_HALF_PI * col / b, lo, -lo, col, lambda phi, _: _log_u_one(phi, b),
        increasing=True)
    out[inner] = np.clip(val / math.pi, 0.0, 1.0)
    if beta < 0:
        out = 1.0 - out
    return out, err / math.pi


def stable_cdf(x, p: StableParams):
    """CDF of S_alpha(beta, gamma, delta; 0) evaluated pointwise.

    Scalar or array x.  Integrates the finite integral representation with a
    fixed composite Gauss-Legendre rule on panels placed around the
    integrand's transition, vectorized over all distinct points; every value
    carries an error estimate of at most 1e-8 (else EstimationError), and a
    point's value does not depend on the other points of the call.  alpha
    within 5e-3 of 1 is snapped onto the alpha = 1 family (the alpha != 1
    kernel is numerically unusable that close to the removable singularity);
    the Cauchy member (alpha = 1, |beta| < 1e-10) is the closed form.
    """
    arr = np.asarray(x, dtype=float)
    z0 = (arr - p.delta) / p.gamma
    alpha, beta = p.alpha, p.beta
    # sample volumes repeat, so each distinct standardized point is
    # evaluated once and scattered back
    uniq, inverse = np.unique(z0.ravel(), return_inverse=True)
    if abs(alpha - 1.0) < _ALPHA_ONE_WINDOW:
        vals, err = _cdf_std_1(uniq, beta)
    else:
        vals, err = _cdf_std_not1(uniq + beta * math.tan(math.pi * alpha / 2), alpha, beta)
    achieved = np.where(np.isfinite(vals), err, np.inf)
    if achieved.size and achieved.max() > _CDF_ABS_TOL:
        worst = int(np.argmax(achieved))
        raise EstimationError(
            f"stable CDF quadrature achieved {achieved[worst]:.2e} > {_CDF_ABS_TOL:.0e} "
            f"(alpha={alpha}, beta={beta}, standardized x={uniq[worst]})")
    out = vals[inverse].reshape(z0.shape)
    if np.ndim(x) == 0:
        return float(out)
    return out


def sample_quantile(data, prob) -> float | np.ndarray:
    """Empirical quantile by linear interpolation of the order statistics.

    Plotting positions s(i) = (2i - 1) / (2n); probabilities outside
    [s(1), s(n)] clamp to the extreme order statistics.  This convention
    (it matches the skewness correction of the quantile-based stable
    estimator) serves the package with one exception: the ``iqr`` column of
    the GpdCompare study summary comes from ``np.percentile``, which places
    the order statistics at (i - 1) / (n - 1).
    """
    x = np.sort(np.asarray(data, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("data must be non-empty")
    s = (2 * np.arange(1, n + 1) - 1) / (2 * n)
    res = np.interp(prob, s, x)
    if np.ndim(prob) == 0:
        return float(res)
    return res


def _bilinear(xg: np.ndarray, yg: np.ndarray, table: np.ndarray, x: float, y: float) -> float:
    """Bilinear interpolation with clamping to the grid boundary."""
    x = min(max(x, xg[0]), xg[-1])
    y = min(max(y, yg[0]), yg[-1])
    i = min(max(int(np.searchsorted(xg, x) - 1), 0), len(xg) - 2)
    j = min(max(int(np.searchsorted(yg, y) - 1), 0), len(yg) - 2)
    tx = (x - xg[i]) / (xg[i + 1] - xg[i])
    ty = (y - yg[j]) / (yg[j + 1] - yg[j])
    return float(
        (1 - tx) * (1 - ty) * table[i, j]
        + tx * (1 - ty) * table[i + 1, j]
        + (1 - tx) * ty * table[i, j + 1]
        + tx * ty * table[i + 1, j + 1]
    )


# Lookups over the published quantile-estimator tables.  All interpolate
# bilinearly and clamp outside the tabulated grid; the alpha tables do not
# extend below their published floor (about 0.5, with the estimator intended
# for alpha >= 0.6), so small-alpha inputs surface as clamped lookups rather
# than extrapolations.


def _table_alpha_beta(nu_alpha: float, nu_beta: float) -> tuple[float, float]:
    """Invert (nu_alpha, nu_beta) to (alpha, beta)."""
    sign = 1.0 if nu_beta >= 0 else -1.0
    a = _bilinear(tab.NU_ALPHA_GRID, tab.NU_BETA_GRID, tab.PSI1_ALPHA, nu_alpha, abs(nu_beta))
    b = sign * _bilinear(
        tab.NU_ALPHA_GRID, tab.NU_BETA_GRID, tab.PSI2_BETA, nu_alpha, abs(nu_beta)
    )
    a = min(max(a, tab.ALPHA_GRID[0]), 2.0)
    b = min(max(b, -1.0), 1.0)
    return a, b


def _table_nu_gamma(alpha: float, beta: float) -> float:
    """Scale ratio (q75 - q25) / gamma at (alpha, beta); even in beta."""
    return _bilinear(tab.ALPHA_GRID, tab.BETA_GRID, tab.PHI3_NU_GAMMA, alpha, abs(beta))


def _table_nu_zeta(alpha: float, beta: float) -> float:
    """Location ratio (zeta - q50) / gamma at (alpha, beta); odd in beta."""
    sign = 1.0 if beta >= 0 else -1.0
    return sign * _bilinear(tab.ALPHA_GRID, tab.BETA_GRID, tab.PHI5_NU_ZETA, alpha, abs(beta))


def fit_mcculloch(data) -> FitResult:
    """Quantile-based stable fit (five sample quantiles + table inversion).

    Stages: consistent sample quantiles at the skew-corrected plotting
    positions; invert the two quantile ratios to (alpha, beta) through the
    lookup tables; recover the scale from the interquartile range and the
    location through the tabulated median correction, mapped into the S(0)
    parameterization.
    """
    x = np.asarray(data, dtype=float)
    if x.size < 20:
        raise EstimationError(f"need at least 20 observations, got {x.size}")

    q05, q25, q50, q75, q95 = sample_quantile(x, [0.05, 0.25, 0.50, 0.75, 0.95]).tolist()
    iqr = q75 - q25
    if iqr <= 0:
        raise EstimationError("degenerate scale: zero interquartile range")
    span = q95 - q05
    if span <= 0:
        raise EstimationError("degenerate scale: zero 5-95 quantile span")

    nu_alpha = span / iqr
    nu_beta = (q95 + q05 - 2 * q50) / span

    notes: list[str] = []
    if nu_alpha < tab.NU_ALPHA_GRID[0]:
        notes.append(
            f"nu_alpha={nu_alpha:.4f} below table minimum "
            f"{tab.NU_ALPHA_GRID[0]}; clamped (alpha -> 2)"
        )
    elif nu_alpha > tab.NU_ALPHA_GRID[-1]:
        notes.append(
            f"nu_alpha={nu_alpha:.4f} above table maximum "
            f"{tab.NU_ALPHA_GRID[-1]}; clamped"
        )
    if abs(nu_beta) > 1.0:
        notes.append(f"nu_beta={nu_beta:.4f} outside [-1, 1]; clamped")

    alpha, beta = _table_alpha_beta(nu_alpha, nu_beta)
    gamma = iqr / _table_nu_gamma(alpha, beta)
    zeta = q50 + gamma * _table_nu_zeta(alpha, beta)
    # zeta is the tail-continuous location; it coincides with the S(0) delta
    # except in the alpha = 1 family, which needs the log-scale correction
    if abs(alpha - 1.0) < 1e-9:
        delta = zeta + 2 / math.pi * beta * gamma * math.log(gamma)
    else:
        delta = zeta

    params = StableParams(alpha=alpha, beta=beta, gamma=gamma, delta=delta)
    return FitResult(
        family=Family.STABLE,
        method=Method.MCCULLOCH,
        params=params,
        sample_size=int(np.asarray(data).size),
        converged=not notes,  # no table clamp
        notes=tuple(notes),
    )
