"""mpmath references for the GEV and GPD formulas around shape 0.

The test oracle for ``core.lgamma_ratio``, ``gev._location_scale_at``,
``gev._gev_negloglik_derivs``, ``fit_gev_mixed``'s profile and
``gpd._observed_information``.  Each quantity
comes from its textbook formula in DPS significant digits plus the digits
that its 1/g terms cancel; derivatives are mpmath's central differences at
step STEP, whose truncation error is about STEP^2 = 1e-40 relative.
At shape 0 exactly the formulas' removable singularity takes its Gumbel or
exponential limit.
"""

from __future__ import annotations

import functools

from mpmath import mp, mpf

DPS = 40
STEP = mpf("1e-20")


def _dps(g) -> int:
    return DPS + (int(-mp.log10(abs(mpf(g)))) if g else 0)


def _unit_location_scale(g):
    """(mu, sigma) at l1 = 0, l2 = 1 in the working digits, from the L-moment relations
    sigma = -g l2 / ((1 - 2^g) Gamma(1 - g)) and mu = l1 + sigma (1 - Gamma(1 - g)) / g."""
    g = mpf(g)
    if g == 0:
        sigma = 1 / mp.log(2)
        return -mp.euler * sigma, sigma
    gam = mp.gamma(1 - g)
    sigma = -g / ((1 - mp.power(2, g)) * gam)
    return sigma * (1 - gam) / g, sigma


@functools.lru_cache(maxsize=None)
def _unit_location_scale_at(g: float):
    with mp.workdps(_dps(g)):
        return _unit_location_scale(g)


def location_scale(g: float, l1: float, l2: float) -> tuple[float, float]:
    """(mu, sigma) at shape g for the L-moments l1, l2: mu shifts with l1, and mu - l1
    and sigma scale with l2."""
    mu, sigma = _unit_location_scale_at(g)
    with mp.workdps(_dps(g)):
        return float(l1 + l2 * mu), float(l2 * sigma)


def lgamma_ratio(g: float) -> float:
    """lgamma(1 - g) / g, EULER_GAMMA at g = 0."""
    with mp.workdps(_dps(g)):
        return float(mp.loggamma(1 - mpf(g)) / g) if g else float(mp.euler)


def _gev_nll(mu, log_sigma, g, x):
    """n log sigma + sum (1 + 1/g) log t + t^(-1/g), t = 1 + g z, in the working digits."""
    sigma = mp.exp(log_sigma)
    zs = [(mpf(v) - mu) / sigma for v in x]
    if g == 0:
        return len(x) * log_sigma + mp.fsum(z + mp.exp(-z) for z in zs)
    logs = [mp.log1p(g * z) for z in zs]
    return len(x) * log_sigma + mp.fsum((1 + 1 / g) * a + mp.exp(-a / g) for a in logs)


def gev_negloglik_grad(theta, x) -> tuple[float, list[float]]:
    """Value and gradient in (mu, log sigma, g) of the GEV negative log-likelihood."""
    mu, log_sigma, g = map(mpf, theta)
    with mp.workdps(2 * DPS):
        value = _gev_nll(mu, log_sigma, g, x)
        grad = [mp.diff(lambda v: _gev_nll(v, log_sigma, g, x), mu, h=STEP),
                mp.diff(lambda v: _gev_nll(mu, v, g, x), log_sigma, h=STEP),
                mp.diff(lambda v: _gev_nll(mu, log_sigma, v, x), g, h=STEP)]
    return float(value), [float(d) for d in grad]


def gev_negloglik_hessian(theta, x) -> list[list[float]]:
    """Hessian in (mu, log sigma, g) of the GEV negative log-likelihood."""
    point = [mpf(v) for v in theta]
    with mp.workdps(2 * DPS):
        f = lambda *v: _gev_nll(*v, x)  # noqa: E731
        return [[float(mp.diff(f, point, [(k == i) + (k == j) for k in range(3)], h=STEP))
                 for j in range(3)] for i in range(3)]


def gev_neg_profile(g, x, l1, l2):
    """The mixed fit's negative profile log-likelihood at shape g (an mpf), with
    (mu, sigma) from the L-moment relations; l1, l2 are the sample L-moments."""
    with mp.workdps(_dps(g) + DPS):
        mu, sigma = _unit_location_scale(g)
        return _gev_nll(l1 + l2 * mu, mp.log(l2 * sigma), mpf(g), x)


def gev_profile_argmin(x, l1, l2, g0: float) -> tuple[float, float]:
    """(g, d2): the shape g near g0 where gev_neg_profile is least, a root of its
    derivative, and the profile's second derivative d2 there."""
    with mp.workdps(2 * DPS):
        profile = lambda g: gev_neg_profile(g, x, l1, l2)  # noqa: E731
        g = mp.findroot(lambda v: mp.diff(profile, v, h=STEP), mpf(g0))
        return float(g), float(mp.diff(profile, g, 2, h=STEP))


def _gpd_loglik(g, s, y):
    if g == 0:
        return -len(y) * mp.log(s) - mp.fsum(mpf(v) for v in y) / s
    return -len(y) * mp.log(s) - (1 + 1 / g) * mp.fsum(mp.log1p(g * mpf(v) / s) for v in y)


def gpd_observed_information(y, g: float, s: float) -> list[list[float]]:
    """Negative Hessian of the GPD log-likelihood at (gamma, sigma)."""
    g, s = mpf(g), mpf(s)
    with mp.workdps(DPS):
        f = lambda gg, ss: _gpd_loglik(gg, ss, y)  # noqa: E731
        d_gg, d_gs, d_ss = (-mp.diff(f, (g, s), order, h=STEP)
                            for order in ((2, 0), (1, 1), (0, 2)))
        return [[float(d_gg), float(d_gs)], [float(d_gs), float(d_ss)]]
