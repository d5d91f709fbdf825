"""Generalized Pareto distribution and POT-excess estimators.

Convention: gamma > 0 is a heavy upper tail, so F(x) = 1 - (1 + gamma x / sigma)^(-1/gamma)
on the excess x = value - mu.  The percentile-matching estimators (Pickands,
EPM) are written in the literature with the opposite shape sign, i.e. with
CDF 1 - (1 - g x / sigma)^(1/g); their internals here follow those formulas
verbatim and the resulting shape is negated on output so that every fitter in
this module reports the same convention.  The scale is unaffected by the
bridge.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (EstimationError, Family, FitResult, GpdParams, Method, _ZERO_SHAPE,
                   _inverse_transform_sample, _polish_tol, expm1_ratio, log1p_ratio, refine_min)

__all__ = [
    "gpd_cdf",
    "gpd_quantile",
    "gpd_sample",
    "fit_gpd_mle",
    "fit_gpd_mom",
    "fit_gpd_pickands",
    "fit_gpd_epm",
    "pickands_raw",
    "epm_pair_solve",
]

EPM_PAIR_CAP = 2_000_000  # above this each pair is kept with probability cap/total (seeded)
_EPM_NEWTON_STEPS = 64  # cap on each pair's start halvings (exhausted: not ok) and Newton steps
_EPM_BLOCK = 1 << 13  # pair indices (or geometric gaps, thinned) per chunk of the pair stream
_EPM_ETA, _EPM_ZETA = 0.0, 1.0  # plotting position (r - eta) / (J + zeta) of rank r
_TAU_BOUNDARY_EPS = 1e-9
_TAU_XATOL = 1e-14  # absolute part of the profile polish's stop width
_LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# distribution functions
# ---------------------------------------------------------------------------


def gpd_cdf(x, p: GpdParams):
    """GPD distribution function on the translated support."""
    y = (np.asarray(x, dtype=float) - p.mu) / p.sigma
    g = p.gamma
    with np.errstate(all="ignore"):
        if abs(g) < _ZERO_SHAPE:
            out = -np.expm1(-y)
        else:
            t = 1.0 + g * y
            out = np.where(t > 0, -np.expm1(-np.log1p(np.maximum(g * y, -1 + 1e-300)) / g), 1.0)
    out = np.clip(np.where(y < 0, 0.0, out), 0.0, 1.0)
    if np.ndim(x) == 0:
        return float(out)
    return out


def gpd_quantile(q, p: GpdParams):
    """Inverse CDF (absolute coordinates, i.e. mu + excess quantile)."""
    qa = np.asarray(q, dtype=float)
    if np.any((qa <= 0.0) | (qa >= 1.0)):
        raise ValueError("quantile probabilities must lie in (0, 1)")
    g = p.gamma
    if abs(g) < _ZERO_SHAPE:
        out = p.mu - p.sigma * np.log1p(-qa)
    else:
        out = p.mu + p.sigma * np.expm1(-g * np.log1p(-qa)) / g
    if np.ndim(q) == 0:
        return float(out)
    return out


def gpd_sample(p: GpdParams, n: int, seed: int) -> np.ndarray:
    """n i.i.d. GPD draws by inverse transform, deterministic under seed."""
    return _inverse_transform_sample(gpd_quantile, p, n, seed)


# ---------------------------------------------------------------------------
# maximum likelihood (profile over tau = gamma / sigma)
# ---------------------------------------------------------------------------


def _profile_shape(tau: float, y: np.ndarray) -> float:
    return float(np.mean(np.log1p(tau * y)))


_NLL_INFEASIBLE = 1e300


def _profile_nll(tau: float, y: np.ndarray, tau_lo: float) -> float:
    """Per-sample negative profile log-likelihood ln sigma(tau) + 1 + gamma(tau).

    Infeasible tau returns a large finite sentinel, so ``refine_min`` compares
    plain floats there.
    """
    if tau <= tau_lo:
        return _NLL_INFEASIBLE
    if tau == 0.0:
        return math.log(float(np.mean(y))) + 1.0
    g = _profile_shape(tau, y)
    if g < -1.0:  # excluded by the epsilon condition on the boundary
        return _NLL_INFEASIBLE
    s = g / tau
    if not (s > 0 and np.isfinite(s)):
        return _NLL_INFEASIBLE
    return math.log(s) + 1.0 + g


def _observed_information(y: np.ndarray, g: float, s: float) -> np.ndarray:
    """Negative Hessian of the GPD log-likelihood at (gamma, sigma).  With z = y / sigma
    and t = 1 + gamma z a point adds ln sigma + log1p(gamma z) + log1p(gamma z) / gamma."""
    z = y / s
    t = 1.0 + g * z
    d_gg = np.sum(log1p_ratio(g, z, 2)[2] - (z / t) ** 2)
    d_gs = -np.sum(z * (1.0 - z) / t**2) / s
    d_ss = (np.sum((1.0 + g) * (z / t + z / t**2)) - y.size) / s**2
    return np.array([[d_gg, d_gs], [d_gs, d_ss]])


def fit_gpd_mle(excesses, location: float = 0.0) -> FitResult:
    """Reparameterized GPD maximum likelihood on positive excesses.

    The two-step profile: maximize the one-dimensional profile likelihood in
    tau = gamma / sigma (which has the closed form gamma(tau) mean of
    log1p(tau y)), then recover (gamma, sigma).  tau = 0 is handled by the
    continuity rule gamma = 0, sigma = mean(y).  The feasible region is
    tau > -(1 - eps) / max(y) further restricted to gamma(tau) >= -1, where
    the unrestricted likelihood diverges.

    Covariance is the inverse observed Fisher information at the optimum
    (order (gamma, sigma)).
    """
    y = np.asarray(excesses, dtype=float)
    if y.size < 5:
        raise EstimationError(f"need at least 5 exceedances, got {y.size}")
    if np.any(y <= 0):
        raise EstimationError("excesses must be strictly positive")

    y_max = float(y.max())
    y_mean = float(y.mean())
    tau_lo = -(1.0 - _TAU_BOUNDARY_EPS) / y_max

    # candidate ladder grown geometrically from +-1/mean plus boundary approach
    t0 = 1.0 / y_mean
    cands = [0.0]
    cands += [t0 * 2.0**k for k in range(-26, 14)]
    cands += [-t0 * 2.0**k for k in range(-26, 14)]
    cands += [tau_lo * (1.0 - 2.0**-m) for m in range(1, 40)]
    cands = sorted({t for t in cands if t > tau_lo})
    tau_hat, nll = refine_min(lambda t: _profile_nll(t, y, tau_lo), cands, _TAU_XATOL)
    if nll >= _NLL_INFEASIBLE:
        raise EstimationError("profile likelihood undefined on the feasible bracket")
    # prefer the exact tau = 0 path when it is at least as good
    if math.log(y_mean) + 1.0 <= nll + 1e-12:
        tau_hat = 0.0

    notes = []
    converged = True
    if tau_hat == 0.0:
        g_hat, s_hat = 0.0, y_mean
        notes.append("tau = 0 continuity path (exponential fit)")
    else:
        g_hat = _profile_shape(tau_hat, y)
        s_hat = g_hat / tau_hat
        # the polish stops up to one stop width short of a minimum on the lower
        # edge (gamma = -1 or tau_lo), so the edge is looked for twice that
        # far below tau_hat
        beyond = tau_hat - 2.0 * _polish_tol(tau_hat, _TAU_XATOL)
        if _profile_nll(beyond, y, tau_lo) >= _NLL_INFEASIBLE:
            converged = False
            notes.append("boundary solution: shape at the gamma >= -1 constraint")
        if tau_hat >= cands[-1]:
            converged = False
            notes.append("boundary solution: tau at the search ladder cap")

    covariance = None
    try:
        info = _observed_information(y, g_hat, s_hat)
        covariance = np.linalg.inv(info)
        if not np.all(np.isfinite(covariance)) or np.any(np.diag(covariance) <= 0):
            covariance = None
            notes.append("observed information not positive definite; covariance omitted")
    except np.linalg.LinAlgError:
        notes.append("observed information singular; covariance omitted")

    return FitResult(
        family=Family.GPD,
        method=Method.MLE,
        params=GpdParams(gamma=float(g_hat), sigma=float(s_hat), mu=location),
        sample_size=int(y.size),
        converged=converged,
        covariance=covariance,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# method of moments
# ---------------------------------------------------------------------------


def fit_gpd_mom(excesses, location: float = 0.0) -> FitResult:
    """Closed-form moment matching: gamma = (1 - m^2/s^2)/2, sigma = m (1 + m^2/s^2)/2."""
    y = np.asarray(excesses, dtype=float)
    if y.size < 2:
        raise EstimationError(f"need at least 2 exceedances, got {y.size}")
    m = float(y.mean())
    s2 = float(y.var(ddof=1))
    if s2 <= 0.0:
        raise EstimationError("zero sample variance")
    ratio = m * m / s2
    g_hat = 0.5 * (1.0 - ratio)
    s_hat = 0.5 * m * (1.0 + ratio)
    notes = ()
    if g_hat >= 0.25:
        notes = (
            f"gamma = {g_hat:.4f} >= 1/4: population variance does not exist, "
            "moment estimator unreliable",
        )
    return FitResult(
        family=Family.GPD,
        method=Method.MOM,
        params=GpdParams(gamma=g_hat, sigma=s_hat, mu=location),
        sample_size=int(y.size),
        converged=True,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Pickands
# ---------------------------------------------------------------------------


def pickands_raw(x_half: float, x_threeq: float) -> tuple[float, float]:
    """Analytic percentile-matching solution at the median / 75th order statistics.

    Evaluates the literature formulas verbatim (opposite shape sign to this
    module's convention): g = ln(x_half / (x_3q - x_half)) / ln 2 and
    s = g x_half^2 / (2 x_half - x_3q), written x_half / (ln 2 E(-g ln 2)) with
    E(u) = expm1(u) / u, so that g = 0 gives its limit s = x_half / ln 2.
    """
    if x_threeq <= x_half or x_half <= 0:
        raise EstimationError("estimator undefined for this sample: need 0 < x(J/2) < x(3J/4)")
    g_raw = math.log(x_half / (x_threeq - x_half)) / _LN2
    return g_raw, x_half / (_LN2 * expm1_ratio(-g_raw * _LN2))


def fit_gpd_pickands(excesses, location: float = 0.0) -> FitResult:
    """Pickands estimator from the J/2 and 3J/4 ascending order statistics.

    Ranks are floored to valid positions.  Samples where the implied scale is
    not positive are rejected with an error rather than clamped.
    """
    y = np.asarray(excesses, dtype=float)
    j = y.size
    if j < 4:
        raise EstimationError(f"need at least 4 exceedances, got {j}")
    xs = np.sort(y)
    x_half = float(xs[j // 2 - 1])
    x_threeq = float(xs[(3 * j) // 4 - 1])
    g_raw, s_raw = pickands_raw(x_half, x_threeq)
    if s_raw <= 0 or not math.isfinite(s_raw):
        raise EstimationError("estimator undefined for this sample: non-positive scale")
    return FitResult(
        family=Family.GPD,
        method=Method.PICKANDS,
        params=GpdParams(gamma=-g_raw, sigma=s_raw, mu=location),
        sample_size=j,
        converged=True,
    )


# ---------------------------------------------------------------------------
# empirical percentile method
# ---------------------------------------------------------------------------


def _chi(w, a, b):
    """The pair equation chi(w) = log1p(-b expm1(-w)) - a w (elementwise)."""
    return np.log1p(-b * np.expm1(-w)) - a * w


def _chi_newton_step(w, a, b):
    """One Newton step w - chi(w) / chi'(w) on the pair equation (elementwise)."""
    e = np.expm1(-w)
    t = -b * e
    return w - (np.log1p(t) - a * w) / (b * (1.0 + e) / (1.0 + t) - a)


def _epm_start(a, b, left, pos):
    """Each pair's Newton start: log1p(b)/a (q > r; chi < 0 there always) or
    left/2 (q < r), replaced by 1.5 times the root of chi's quadratic Taylor
    polynomial, 3(b - a)/(b(1 + b)), when that lies nearer 0 and chi < 0 there.
    """
    w = np.where(pos, 0.5 * left, np.log1p(b) / a)
    w_q = 3.0 * (b - a) / (b * (1.0 + b))
    nearer = w_q / w
    return np.where((nearer > 0.0) & (nearer < 1.0) & (_chi(w_q, a, b) < 0.0), w_q, w)


def _epm_root(a, b, left, pos, solve):
    """The nonzero root w of chi per pair (a, b > 0); NaN where ``solve`` is false.

    ``pos`` marks the pairs whose root lies in (left, 0), left = ln(1 - 1/q);
    the others have theirs in (0, inf).  chi is concave with chi(0) = 0, so
    on the root's side of 0 chi < 0 exactly beyond the root, and Newton from
    there moves monotonically toward 0 and the root.  Each pair starts at
    ``_epm_start``; a q < r start where chi >= 0 is halved toward left until
    chi < 0, and one still not beyond its root after ``_EPM_NEWTON_STEPS``
    halvings has its root within rounding of left (delta = x_j) and gets NaN.
    A pair stops once a step would not move it toward 0, that is unless
    0 < w_next/w < 1: that is its floating-point fixed point.  A step onto 0
    or across it means the root is 0 to rounding (an exponential pair).  Each
    pair's Newton steps are capped at ``_EPM_NEWTON_STEPS``.
    """
    w = _epm_start(a, b, left, pos)
    w[~solve] = np.nan

    # halve the q < r starts that are not yet beyond the root toward left
    idx = np.flatnonzero(pos & (_chi(w, a, b) >= 0.0))
    cur, lft, aa, bb = w[idx], left[idx], a[idx], b[idx]
    for _ in range(_EPM_NEWTON_STEPS):
        if not idx.size:
            break
        cur = 0.5 * (cur + lft)
        far = _chi(cur, aa, bb) < 0.0
        w[idx[far]] = cur[far]
        idx, cur, lft, aa, bb = idx[~far], cur[~far], lft[~far], aa[~far], bb[~far]
    w[idx] = np.nan

    # Newton on the pairs still moving; a pair is written back once it stops
    idx, cur = np.arange(w.size), w
    for _ in range(_EPM_NEWTON_STEPS):
        nxt = _chi_newton_step(cur, a, b)
        shrink = nxt / cur
        moved = (shrink > 0.0) & (shrink < 1.0)
        if not moved.all():
            w[idx[~moved]] = cur[~moved]
            idx, a, b, nxt = idx[moved], a[moved], b[moved], nxt[moved]
        cur = nxt
        if not idx.size:
            break
    w[idx] = cur
    return w


def epm_pair_solve(x_i, x_j, c_i, c_j):
    """Percentile-matching solution for order-statistic pairs (vectorized).

    Solves c_i ln(1 - x_j/delta) = c_j ln(1 - x_i/delta).  With
    r = c_j/c_i, q = x_j/x_i, a = r - 1, b = q - 1 and w = ln(1 - x_i/delta)
    (the raw shape times c_i) it reads

        chi(w) = log1p(-b expm1(-w)) - a w = 0,

    which is concave on its domain w > ln(1 - 1/q) (delta > x_j), with the
    trivial root w = 0 (delta = inf), chi'(0) = q - r and chi -> -inf at
    both ends.  So there is one nonzero root, on the side of sign(q - r),
    found by monotone Newton (``_epm_root``); then g = w/c_i and
    s = -w x_i / (c_i expm1(w)).

    A pair is solvable (ok) when that root gives a finite shape and a
    positive scale, and for q < r also delta = -x_i / expm1(w) > x_j (1 + 1e-13).
    d = c_j x_i - c_i x_j = 0 is the exact exponential case (q = r) and
    contributes shape 0 with scale -x_i / c_i; a pair with d a rounding error
    is solved like any other and comes out exponential to rounding.  Returns
    raw (shape, scale, ok) in the opposite-sign convention of the
    percentile-matching literature; pairs that are not ok come back with
    shape 0 and scale NaN.
    """
    x_i = np.atleast_1d(np.asarray(x_i, dtype=float))
    x_j = np.atleast_1d(np.asarray(x_j, dtype=float))
    c_i = np.broadcast_to(np.asarray(c_i, dtype=float), x_i.shape)
    c_j = np.broadcast_to(np.asarray(c_j, dtype=float), x_i.shape)

    with np.errstate(all="ignore"):
        d = c_j * x_i - c_i * x_j
        is_exp, pos = d == 0.0, d < 0.0  # pos: q < r
        w = _epm_root(c_j / c_i - 1.0, x_j / x_i - 1.0, np.log1p(-x_i / x_j), pos, ~is_exp)
        g_raw = w / c_i
        s_raw = -w * x_i / (c_i * np.expm1(w))
        good = np.isfinite(g_raw) & np.isfinite(s_raw) & (s_raw > 0)
        good &= ~pos | (-x_i / np.expm1(w) > x_j * (1.0 + 1e-13))  # delta above x_j
        g = np.where(good & ~is_exp, g_raw, 0.0)
        s = np.where(is_exp, -x_i / c_i, np.where(good, s_raw, np.nan))
    return g, s, is_exp | good


def _pair_chunks(m: int, seed: int | None):
    """Row-major linear indices of the pairs row < col of an m x m grid, in
    chunks of at most ``_EPM_BLOCK``: every index with ``seed`` None, else
    each kept with probability EPM_PAIR_CAP / total through seeded geometric
    gaps, drawn a chunk at a time with the running index carried forward
    until they pass the last pair.  The picks do not depend on the chunk size.
    """
    total = m * (m - 1) // 2
    if seed is None:
        for lo in range(0, total, _EPM_BLOCK):
            yield np.arange(lo, min(lo + _EPM_BLOCK, total))
        return
    rng, keep = np.random.default_rng(seed), EPM_PAIR_CAP / total
    draw = min(_EPM_BLOCK, total)  # every gap is at least 1, so total gaps pass the last pair
    last = -1  # the last kept linear index so far
    while last < total:
        picks = last + np.cumsum(rng.geometric(keep, draw))
        last = int(picks[-1])
        yield picks[:np.searchsorted(picks, total)]


def _solve_pairs(tail, c_tail, seed):
    """Tie-filter and solve each ``_pair_chunks`` chunk as it is drawn.

    Returns the pairs drawn (before the tie filter), the pairs solved and the
    raw (shape, scale) of the ok ones, in arrays sized by a counting pass.
    """
    drawn = sum(picks.size for picks in _pair_chunks(tail.size, seed))
    g_ok, s_ok = np.empty(drawn), np.empty(drawn)
    rows = np.arange(tail.size, dtype=np.int64)
    cum = rows * (2 * rows.size - rows - 1) // 2  # pairs before each row
    solved = n_ok = 0
    for picks in _pair_chunks(tail.size, seed):
        i = np.searchsorted(cum, picks, side="right") - 1
        k = picks - cum[i] + i + 1
        keep = tail[i] < tail[k]
        i, k = i[keep], k[keep]
        g, s, ok = epm_pair_solve(tail[i], tail[k], c_tail[i], c_tail[k])
        n = np.count_nonzero(ok)
        g_ok[n_ok:n_ok + n], s_ok[n_ok:n_ok + n] = g[ok], s[ok]
        solved, n_ok = solved + i.size, n_ok + n
    if solved == 0:
        raise EstimationError("no admissible order-statistic pairs with increasing values")
    return drawn, solved, g_ok[:n_ok], s_ok[:n_ok]


def _median(v):
    """np.median of a NaN-free array, found in place by one partition."""
    h = v.size // 2
    v.partition(h)
    return float(v[h] if v.size % 2 else (v[:h].max() + v[h]) / 2)


def fit_gpd_epm(
    excesses,
    start_percentile: float = 0.5,
    location: float = 0.0,
    seed: int = 0,
) -> FitResult:
    """Empirical percentile method: median over all pairwise percentile matches.

    Every admissible order-statistic pair (both ranks with percentile
    (r - eta)/(J + zeta), eta = 0 and zeta = 1, above ``start_percentile``
    and strictly increasing values) contributes one (shape, scale) solution;
    the estimate is the elementwise median.  When the O(J^2) pair set exceeds
    ``EPM_PAIR_CAP``, each pair is kept with probability cap/total using
    ``seed``, so about ``EPM_PAIR_CAP`` pairs are solved.
    Pairs that ``epm_pair_solve`` finds not ok (its root gives no finite
    shape with a positive scale, or lies within rounding of delta = x_j) are
    dropped and counted in the notes ("no root with a finite shape and a
    positive scale").

    Each pair is solved by monotone Newton on its concave equation chi and
    stops at its own floating-point fixed point (``epm_pair_solve``), so its
    solution does not depend on the other pairs.  The pairs are streamed in
    chunks of ``_EPM_BLOCK`` (8,192) and each chunk is solved as it is drawn,
    so beyond the ok solutions the fit holds one chunk, not every pair.
    """
    y = np.asarray(excesses, dtype=float)
    j = y.size
    if j < 4:
        raise EstimationError(f"need at least 4 exceedances, got {j}")
    if not 0.0 <= start_percentile < 1.0:
        raise ValueError("start_percentile must lie in [0, 1)")
    perc = (np.arange(1, j + 1) - _EPM_ETA) / (j + _EPM_ZETA)
    # perc rises with rank, so the admissible ranks are the top m
    m = int(np.count_nonzero(perc > start_percentile))
    if m < 2:
        raise EstimationError("no admissible order-statistic pairs above the start percentile")
    tail = np.sort(y)[j - m:]
    c_tail = np.log1p(-perc[j - m:])

    total = m * (m - 1) // 2
    thinned = total > EPM_PAIR_CAP
    drawn, solved, g_ok, s_ok = _solve_pairs(tail, c_tail, seed if thinned else None)
    if not g_ok.size:
        raise EstimationError("all percentile-matching pairs failed to solve")
    g_med, s_med = _median(g_ok), _median(s_ok)
    if not s_med > 0:
        raise EstimationError("median scale not positive")

    notes = []
    dropped = solved - g_ok.size
    if dropped:
        notes.append(f"{dropped} of {solved} pairs dropped "
                     "(no root with a finite shape and a positive scale)")
    if thinned:
        notes.append(f"pair set thinned to {drawn} of {total} (seed {seed})")

    return FitResult(
        family=Family.GPD,
        method=Method.EPM,
        params=GpdParams(gamma=-g_med, sigma=s_med, mu=location),
        sample_size=j,
        converged=True,
        notes=tuple(notes),
    )
