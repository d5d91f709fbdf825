"""Alpha-stable distribution support.

Implements the S(0) continuous parameterization throughout: pointwise CDF
evaluation through Zolotarev's integral representation (in Nolan's 1997
form), Chambers-Mallows-Stuck random variates, and McCulloch's
quantile-based parameter estimation from the published lookup tables.

The CDF integrand is exp(-e^t) with t = log a + log U(phi), where only a
depends on the point.  The interval is cut where log U crosses the integer
levels, and log U is tabulated once per call at the 21-point Gauss-Kronrod
nodes of those panels; each point then sums the panels where its integrand
is neither exactly 1 nor below 1e-23, with |K21 - G10| as its error
estimate.

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
# CDF quadrature: QUADPACK's 21-point Gauss-Kronrod pair on [-1, 1] (qk21),
# as listed there: nodes xgk >= 0 in descending order, of which xgk[1::2]
# are the 10-point Gauss nodes, Kronrod weights wgk and Gauss weights wg
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208686938375, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
# all 21 nodes, the 10 Gauss nodes first, with the Kronrod weights; the
# Gauss rule uses the first 10 nodes with _GAUSS_WEIGHTS
_NODES = np.concatenate([_XGK[1::2], -_XGK[1::2], _XGK[0::2], -_XGK[:-1:2]])
_KRONROD_WEIGHTS = np.concatenate([_WGK[1::2], _WGK[1::2], _WGK[0::2], _WGK[:-1:2]])
_GAUSS_WEIGHTS = np.concatenate([_WG, _WG])
# each point integrates the _WINDOW levels k <= log U <= k + 1 from
# floor(_T_FLOOR - log a) up, so t = log a + log U covers [_T_FLOOR, 4]:
# below, exp(-e^t) rounds to exactly 1.0, and above it is below 1e-23
_T_FLOOR = -38.0
_WINDOW = 43
# a table panel is halved, at most _MAX_SPLITS times, while its K21 - G10
# difference exceeds _PANEL_TOL at one of the scales e^c of _PANEL_SCALES,
# t = c + log U - k with c from -8 to 3 (further down the difference shrinks
# like e^c), or while log U moves by more than _EDGE_GAP between an outer
# node and an edge where it is known: a bend within the outer 0.4% of a
# panel, such as the one next to phi = 1 as alpha -> 2, is invisible to both
# rules.  log U is known at the level edges where bisection found the
# crossing, to _CROSSING_TOL, and at the centres of split panels
_PANEL_TOL = 1e-11
_PANEL_SCALES = np.exp(np.arange(-8.0, 4.0))
_PANEL_CHECK = _KRONROD_WEIGHTS - np.concatenate([_GAUSS_WEIGHTS, np.zeros(11)])
_EDGE_GAP = 0.05
_CROSSING_TOL = 1e-3
_LEFT, _CENTRE, _RIGHT = np.argmin(_NODES), np.argmin(np.abs(_NODES)), np.argmax(_NODES)
_MAX_SPLITS = 50  # halvings that take a unit panel down to a few ulps
_LEVEL_BISECTIONS = 60
_BLOCK_NODES = 2**16


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


def _panel_error(neg_v, half):
    """Largest K21 - G10 difference of each table panel over _PANEL_SCALES.

    neg_v holds -exp(log U - k) at the panels' nodes, (21, panels), and half
    their half-widths.  On a panel where log U is linear in phi the pair
    agrees to 3e-16 on unit level steps, so the difference measures how far
    log U bends inside the panel, which no point of the call changes.
    """
    g = np.exp(_PANEL_SCALES[:, None, None] * neg_v)
    return half * np.abs(np.sum(_PANEL_CHECK[:, None] * g, axis=1)).max(axis=0)


def _panel_table(levels, theta, edges, used, log_u, increasing: bool):
    """Node table of the level panels [edges[j], edges[j + 1]] marked used.

    theta holds each level's kernel parameter, which log_u takes with the
    angles.
    Each used panel is halved in phi while _panel_error exceeds
    _PANEL_TOL or an end gap exceeds _EDGE_GAP, at most _MAX_SPLITS times;
    the rule reads that panel alone.  Returns -exp(log U - k) at the 21
    nodes of every sub-panel, (21, sub-panels + 1), the sub-panels'
    half-widths and levels k, and offsets such that level panel j owns
    sub-panels offsets[j] to offsets[j + 1] - 1, in the direction of rising
    level.  The last column is padding: half-width 0, level -inf and node
    values 0, so it adds exactly 0 to any sum.
    """
    at_edges = log_u(edges, theta)
    known = np.where(np.abs(at_edges - levels) < _CROSSING_TOL, at_edges, np.nan)
    owner = np.flatnonzero(used)
    a, b = edges[owner], edges[owner + 1]
    at_a, at_b = known[owner], known[owner + 1]
    near_a, near_b = (_LEFT, _RIGHT) if increasing else (_RIGHT, _LEFT)
    parts = []
    for depth in range(_MAX_SPLITS + 1):
        centre, half = 0.5 * (a + b), 0.5 * np.abs(b - a)
        values = log_u(centre + half * _NODES[:, None], theta[owner])
        with np.errstate(over="ignore"):
            neg_v = -np.exp(values - levels[owner])
        split = np.zeros(owner.shape, dtype=bool)
        if depth < _MAX_SPLITS:
            gap = np.fmax(np.abs(values[near_a] - at_a), np.abs(values[near_b] - at_b))
            split = (_panel_error(neg_v, half) > _PANEL_TOL) | (gap > _EDGE_GAP)
        keep = ~split
        parts.append((owner[keep], a[keep], neg_v[:, keep], half[keep]))
        if not split.any():
            break
        mid, at_mid = centre[split], values[_CENTRE, split]
        a, b = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])
        at_a, at_b = np.concatenate([at_a[split], at_mid]), np.concatenate([at_mid, at_b[split]])
        owner = np.tile(owner[split], 2)
    owner, a, neg_v, half = (np.concatenate(col, axis=-1) for col in zip(*parts))
    order = np.lexsort((a if increasing else -a, owner))
    offsets = np.zeros(len(levels), dtype=np.int64)
    offsets[1:] = np.cumsum(np.bincount(owner, minlength=len(levels) - 1))
    return (np.concatenate([neg_v[:, order], np.zeros((_NODES.size, 1))], axis=1),
            np.append(half[order], 0.0), np.append(levels[owner[order]], -np.inf), offsets)


def _integrate(log_a, lo, hi, theta, log_u, increasing: bool):
    """Integral of exp(-exp(log_a + log_u(phi, theta))) over [lo, hi], per point.

    log_a, lo, hi and theta are 1-D, one entry per point; points with equal
    theta share the kernel log_u(phi, theta) and the interval [lo, hi].
    log U is monotone in phi (increasing or decreasing, as stated).  Each
    kernel's interval is cut at the angles phi_k where log U crosses the
    integer levels k, found by one bisection over every kernel's levels, and
    log U is tabulated once at the Gauss-Kronrod nodes of each panel, which
    is halved where log U bends (see _panel_table).  A point sums the
    _WINDOW level panels from k0 = floor(_T_FLOOR - log a) up, where
    t = log a + log U lies in [_T_FLOOR, 4], plus the exact phi-length below
    level k0, where the integrand is 1.0; above the window it is below
    1e-23 and dropped.  On level k's panels the integrand is
    exp(-e^(log a + k) exp(log U - k)).  The error estimate is the sum of
    |K21 - G10| over the point's panels.  The table holds the levels of
    every point's window, and each level's edge, sub-panels and node
    values, and a point's sums over nodes and over panels (in a fixed
    order), depend on that level or point alone, so a value does not depend
    on the other points of the call.  Points go in blocks of about
    _BLOCK_NODES nodes.  Returns the integrals and the error estimates.
    """
    if not log_a.size:
        return log_a, log_a
    # +-1e300 keeps log a + k finite; such a point's window has no panels,
    # and its integral is the length on one side of its level
    log_a = np.clip(log_a, -1e300, 1e300)
    first_level = np.floor(_T_FLOOR - log_a)
    thetas, one, kernel = np.unique(theta, return_index=True, return_inverse=True)
    # each kernel's window levels, sorted, one run after the other; a
    # point's window runs from position first to last of that list
    runs = []
    first = np.empty(log_a.size, dtype=np.int64)
    last = np.empty(log_a.size, dtype=np.int64)
    for k in range(thetas.size):
        mine = kernel == k
        run = np.unique(np.unique(first_level[mine])[:, None] + np.arange(_WINDOW + 1.0))
        first[mine] = sum(map(len, runs)) + np.searchsorted(run, first_level[mine])
        last[mine] = sum(map(len, runs)) + np.searchsorted(run, first_level[mine] + _WINDOW)
        runs.append(run)
    levels = np.concatenate(runs)
    owner = np.repeat(np.arange(thetas.size), list(map(len, runs)))
    edges = bisect(lambda mid: (log_u(mid, thetas[owner]) < levels) == increasing,
                   lo[one][owner], hi[one][owner], _LEVEL_BISECTIONS)
    # only unit level steps of one kernel make panels; beyond 2^53 levels are
    # further apart, and a window there is far thinner than an ulp of phi
    table, half, level, offsets = _panel_table(
        levels, thetas[owner], edges, (np.diff(levels) == 1.0) & (np.diff(owner) == 0),
        log_u, increasing)
    begin = offsets[first]
    count = offsets[last] - begin
    below = np.abs(edges[first] - (lo if increasing else hi))
    value = np.empty(len(log_a))
    err = np.empty(len(log_a))
    # at least 2 panel columns: the node sums then run along axis 0 in order
    width = max(int(count.max()), 2)
    step = max(1, _BLOCK_NODES // (width * _NODES.size))
    cols = np.arange(width)
    for i in range(0, len(log_a), step):
        rows = slice(i, i + step)
        idx = np.where(cols < count[rows, None], begin[rows, None] + cols, half.size - 1)
        g = np.take(table, idx, axis=1)
        g *= np.exp(log_a[rows, None] + level[idx])
        np.exp(g, out=g)
        fine = half[idx] * np.sum(g * _KRONROD_WEIGHTS[:, None, None], axis=0)
        coarse = half[idx] * np.sum(g[:10] * _GAUSS_WEIGHTS[:, None, None], axis=0)
        # cumsum adds a row's panels in order, whatever the block's width
        value[rows] = below[rows] + np.cumsum(fine, axis=1)[:, -1]
        err[rows] = np.cumsum(np.abs(fine - coarse), axis=1)[:, -1]
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
    theta = np.where(flip[inner], -tn, tn)
    log_a = (alpha / (alpha - 1)) * (
        np.log(np.abs(z1[inner])) + math.log(math.cos(alpha * theta0)) / alpha)
    val, err[inner] = _integrate(
        log_a, -theta, np.ones_like(theta), theta,
        lambda phi, th: _log_u_not1(phi, alpha, th), increasing=alpha < 1)
    f = np.clip(1 - 0.25 * (1 + theta) * (1 + eps) + eps / 2 * val, 0.0, 1.0)
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
    lo = np.full(np.count_nonzero(inner), -_HALF_PI)
    val, err[inner] = _integrate(
        -_HALF_PI * zz[inner] / b, lo, -lo, np.zeros_like(lo),
        lambda phi, _: _log_u_one(phi, b), increasing=True)
    out[inner] = np.clip(val / math.pi, 0.0, 1.0)
    if beta < 0:
        out = 1.0 - out
    return out, err / math.pi


def stable_cdf(x, p: StableParams):
    """CDF of S_alpha(beta, gamma, delta; 0) evaluated pointwise.

    Scalar or array x.  Integrates the finite integral representation on
    panels cut where log U crosses the integer levels, tabulated once per
    call (see _integrate): each distinct point sums the 43 level panels on
    which its integrand is neither exactly 1 nor below 1e-23 with the
    21-point Gauss-Kronrod rule.  Every value carries an error estimate,
    |K21 - G10| summed over its panels, of at most 1e-8 (else
    EstimationError), and a point's value does not depend, bit for bit, on
    the other points of the call.  alpha within 5e-3 of 1 is snapped onto
    the alpha = 1 family (the alpha != 1 kernel is numerically unusable that
    close to the removable singularity); the Cauchy member (alpha = 1,
    |beta| < 1e-10) is the closed form.
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
