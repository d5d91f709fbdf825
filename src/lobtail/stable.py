"""Alpha-stable distribution support.

Implements the S(0) continuous parameterization throughout: characteristic
function, pointwise CDF evaluation through Zolotarev's integral
representation, Chambers-Mallows-Stuck random variates, and McCulloch's
quantile-based parameter estimation from the published lookup tables.

Density evaluation (series expansions) is deliberately out of scope; the CDF
is all that goodness-of-fit needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import _mcculloch_tables as tab
from .core import EstimationError, Family, FitResult, Method, StableParams

__all__ = [
    "stable_cf",
    "stable_cdf",
    "stable_sample",
    "sample_quantile",
    "McCullochTables",
    "MCCULLOCH_TABLES",
    "fit_mcculloch",
    "QuadratureError",
]

_CDF_ABS_TOL = 1e-8
# stable CDF treats |alpha - 1| below this as the alpha = 1 family; the
# alpha != 1 kernel exponent alpha/(alpha-1) becomes numerically hopeless there
_ALPHA_ONE_WINDOW = 5e-3


class QuadratureError(ArithmeticError):
    """Raised when the CDF quadrature cannot reach the requested tolerance."""

    def __init__(self, message: str, achieved_tol: float):
        super().__init__(message)
        self.achieved_tol = achieved_tol


def stable_cf(theta: float, p: StableParams) -> complex:
    """Characteristic function E[exp(i theta X)] for X ~ S_alpha(beta, gamma, delta; 0).

    The alpha = 1 branch carries the (2/pi) log term of the continuous
    parameterization.
    """
    a, b, g, d = p.alpha, p.beta, p.gamma, p.delta
    t = float(theta)
    if t == 0.0:
        return complex(1.0, 0.0)
    sgn = math.copysign(1.0, t)
    at = abs(t)
    if a != 1.0:
        expo = (
            -(g**a) * at**a
            * (1 + 1j * b * sgn * math.tan(math.pi * a / 2) * ((g * at) ** (1 - a) - 1))
            + 1j * d * t
        )
    else:
        expo = -g * at * (1 + 1j * b * (2 / math.pi) * sgn * math.log(g * at)) + 1j * d * t
    return complex(np.exp(expo))


def _cms_standard(alpha: float, beta: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Chambers-Mallows-Stuck draws, standard scale, S(1) location convention."""
    v = rng.uniform(-math.pi / 2, math.pi / 2, n)
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
    half_pi = math.pi / 2
    return (2 / math.pi) * (
        (half_pi + beta * v) * np.tan(v)
        - beta * np.log(half_pi * w * np.cos(v) / (half_pi + beta * v))
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


def _endpoint_layers(lo: float, hi: float) -> list[float]:
    """Subdivision hints at geometric distances from both interval ends.

    Far in a tail, the integrand transitions from ~0 to ~1 inside a boundary
    layer of width O(x^-alpha) at one endpoint; without these points the
    adaptive rule can sample only zeros and silently drop the tail mass.
    Layers thinner than ~1e-13 of the span contribute less than the 1e-8
    accuracy target.
    """
    span = hi - lo
    pts = []
    for k in range(1, 14):
        off = span * 10.0**-k
        pts.append(lo + off)
        pts.append(hi - off)
    return sorted(pts)


def _cdf_std_not1(z1: float, alpha: float, beta: float) -> float:
    """Standardized CDF at the S(1) coordinate z1, alpha != 1.

    Evaluates the finite-interval integral representation: constant
    C(alpha, theta) plus sgn(1 - alpha)/2 times the integral of
    exp(-x^(alpha/(alpha-1)) U_alpha(phi, theta)) over phi in [-theta, 1],
    with angles in units of pi/2.  theta is the standardized skewness angle
    (2/(pi alpha)) arctan(beta tan(pi alpha / 2)) and the argument carries
    the matching scale factor cos(alpha theta0)^(1/alpha); both reduce to
    beta-linear forms only at beta in {0, +-1}.
    """
    if z1 < 0.0:
        return 1.0 - _cdf_std_not1(-z1, alpha, -beta)
    theta0 = math.atan(beta * math.tan(math.pi * alpha / 2)) / alpha
    tn = theta0 / (math.pi / 2)
    eps = 1.0 if alpha < 1 else -1.0
    c_const = 1 - 0.25 * (1 + tn) * (1 + eps)
    if z1 == 0.0:
        return (1 - tn) / 2
    x_arg = z1 * math.cos(alpha * theta0) ** (1 / alpha)
    log_a = (alpha / (alpha - 1)) * math.log(x_arg)
    if log_a > 700.0:
        # integrand vanishes everywhere
        return c_const
    a_fac = math.exp(log_a)

    half_pi = math.pi / 2

    def integrand(phi: float) -> float:
        num = math.sin(half_pi * alpha * (phi + tn))
        den = math.cos(half_pi * phi)
        if den <= 0.0 or num <= 0.0:
            return 0.0 if alpha > 1 else 1.0
        try:
            u = (num / den) ** (alpha / (1 - alpha)) * (
                math.cos(half_pi * ((alpha - 1) * phi + alpha * tn)) / den
            )
        except OverflowError:
            u = math.inf
        if not math.isfinite(u) or u < 0.0:
            # kernel underflow/overflow at the interval end points
            return 0.0 if u > 0 else 1.0
        v = a_fac * u
        return math.exp(-v) if v < 700.0 else 0.0

    # full_output returns the convergence message instead of warning about it
    val, err = quad(
        integrand, -tn, 1.0,
        points=_endpoint_layers(-tn, 1.0),
        limit=300, epsabs=1e-11, epsrel=1e-10, full_output=1,
    )[:2]
    if err > _CDF_ABS_TOL:
        raise QuadratureError(
            f"stable CDF quadrature achieved {err:.2e} > {_CDF_ABS_TOL:.0e} "
            f"(alpha={alpha}, beta={beta}, x={z1})",
            achieved_tol=err,
        )
    return min(max(c_const + eps / 2 * val, 0.0), 1.0)


def _cdf_std_1(z: float, beta: float) -> float:
    """Standardized CDF for alpha = 1 (S(0) and S(1) coincide at unit scale)."""
    if beta == 0.0:
        return 0.5 + math.atan(z) / math.pi
    if beta < 0.0:
        return 1.0 - _cdf_std_1(-z, -beta)
    half_pi = math.pi / 2
    log_a = -half_pi * z / beta
    a_fac = math.exp(log_a) if log_a < 700.0 else math.inf

    def integrand(phi: float) -> float:
        cphi = math.cos(phi)
        if cphi <= 0.0:
            return 0.0
        base = half_pi + beta * phi
        try:
            u = (2 / math.pi) * (base / cphi) * math.exp(base * math.tan(phi) / beta)
        except OverflowError:
            return 0.0
        v = a_fac * u
        return math.exp(-v) if v < 700.0 else 0.0

    val, err = quad(
        integrand, -half_pi, half_pi,
        points=_endpoint_layers(-half_pi, half_pi),
        limit=300, epsabs=1e-11, epsrel=1e-10, full_output=1,
    )[:2]
    if err > _CDF_ABS_TOL:
        raise QuadratureError(
            f"stable CDF quadrature achieved {err:.2e} > {_CDF_ABS_TOL:.0e} "
            f"(alpha=1, beta={beta}, x={z})",
            achieved_tol=err,
        )
    return min(max(val / math.pi, 0.0), 1.0)


def stable_cdf(x, p: StableParams):
    """CDF of S_alpha(beta, gamma, delta; 0) evaluated pointwise.

    Scalar or array x.  Uses adaptive quadrature on the finite integral
    representation with absolute accuracy 1e-8; the complementary branch is
    reached through the duality relation F(-x; beta) + F(x; -beta) = 1.
    alpha within 5e-3 of 1 is snapped onto the alpha = 1 family (the
    alpha != 1 kernel is numerically unusable that close to the removable
    singularity); the Cauchy member (alpha = 1, beta = 0) is the closed form.
    """
    arr = np.asarray(x, dtype=float)
    z0 = (arr - p.delta) / p.gamma
    alpha, beta = p.alpha, p.beta
    out = np.empty(z0.shape, dtype=float)
    it = np.nditer(z0, flags=["multi_index"])
    if abs(alpha - 1.0) < _ALPHA_ONE_WINDOW:
        for zv in it:
            out[it.multi_index] = _cdf_std_1(float(zv), beta)
    else:
        shift = beta * math.tan(math.pi * alpha / 2)
        for zv in it:
            out[it.multi_index] = _cdf_std_not1(float(zv) + shift, alpha, beta)
    if np.ndim(x) == 0:
        return float(out)
    return out


def sample_quantile(data, prob) -> float | np.ndarray:
    """Empirical quantile by linear interpolation of the order statistics.

    Plotting positions s(i) = (2i - 1) / (2n); probabilities outside
    [s(1), s(n)] clamp to the extreme order statistics.  This is the single
    quantile convention used across the package (it matches the skewness
    correction of the quantile-based stable estimator).
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


@dataclass(frozen=True)
class McCullochTables:
    """Accessors over the published quantile-estimator lookup tables.

    All lookups interpolate bilinearly and clamp outside the tabulated grid;
    the alpha tables do not extend below their published floor (about 0.5,
    with the estimator intended for alpha >= 0.6), so small-alpha inputs
    surface as clamped lookups rather than extrapolations.
    """

    def alpha_beta(self, nu_alpha: float, nu_beta: float) -> tuple[float, float, bool]:
        """Invert (nu_alpha, nu_beta) to (alpha, beta); returns interior flag."""
        interior = (
            tab.NU_ALPHA_GRID[0] <= nu_alpha <= tab.NU_ALPHA_GRID[-1]
            and abs(nu_beta) <= 1.0
        )
        sign = 1.0 if nu_beta >= 0 else -1.0
        a = _bilinear(tab.NU_ALPHA_GRID, tab.NU_BETA_GRID, tab.PSI1_ALPHA, nu_alpha, abs(nu_beta))
        b = sign * _bilinear(
            tab.NU_ALPHA_GRID, tab.NU_BETA_GRID, tab.PSI2_BETA, nu_alpha, abs(nu_beta)
        )
        a = min(max(a, tab.ALPHA_GRID[0]), 2.0)
        b = min(max(b, -1.0), 1.0)
        return a, b, interior

    def nu_gamma(self, alpha: float, beta: float) -> float:
        """Scale ratio (q75 - q25) / gamma at (alpha, beta); even in beta."""
        return _bilinear(tab.ALPHA_GRID, tab.BETA_GRID, tab.PHI3_NU_GAMMA, alpha, abs(beta))

    def nu_zeta(self, alpha: float, beta: float) -> float:
        """Location ratio (zeta - q50) / gamma at (alpha, beta); odd in beta."""
        sign = 1.0 if beta >= 0 else -1.0
        return sign * _bilinear(
            tab.ALPHA_GRID, tab.BETA_GRID, tab.PHI5_NU_ZETA, alpha, abs(beta)
        )


MCCULLOCH_TABLES = McCullochTables()


def fit_mcculloch(data, iqr_scale: bool = False) -> FitResult:
    """Quantile-based stable fit (five sample quantiles + table inversion).

    Stages: consistent sample quantiles at the skew-corrected plotting
    positions; invert the two quantile ratios to (alpha, beta) through the
    lookup tables; recover the scale from the interquartile range and the
    location through the tabulated median correction, mapped into the S(0)
    parameterization.  With ``iqr_scale`` the data are pre-scaled by the
    interquartile range and the fitted parameters transformed back (a pure
    conditioning step; the estimator is exactly location-scale equivariant).
    """
    x = np.asarray(data, dtype=float)
    if x.size < 20:
        raise EstimationError(f"need at least 20 observations, got {x.size}")

    scale = 1.0
    if iqr_scale:
        q75s, q25s = sample_quantile(x, 0.75), sample_quantile(x, 0.25)
        iqr = q75s - q25s
        if iqr <= 0:
            raise EstimationError("degenerate scale: zero interquartile range")
        scale = iqr
        x = x / scale

    q05, q25, q50, q75, q95 = (
        sample_quantile(x, p) for p in (0.05, 0.25, 0.50, 0.75, 0.95)
    )
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

    tables = MCCULLOCH_TABLES
    alpha, beta, interior = tables.alpha_beta(nu_alpha, nu_beta)
    gamma = iqr / tables.nu_gamma(alpha, beta)
    zeta = q50 + gamma * tables.nu_zeta(alpha, beta)
    # zeta is the tail-continuous location; it coincides with the S(0) delta
    # except in the alpha = 1 family, which needs the log-scale correction
    if abs(alpha - 1.0) < 1e-9:
        delta = zeta + 2 / math.pi * beta * gamma * math.log(gamma)
    else:
        delta = zeta

    gamma *= scale
    delta *= scale

    params = StableParams(alpha=alpha, beta=beta, gamma=gamma, delta=delta)
    return FitResult(
        family=Family.STABLE,
        method=Method.MCCULLOCH,
        params=params,
        sample_size=int(np.asarray(data).size),
        converged=interior,
        notes=tuple(notes),
    )
