"""Scalar references for the stable law: the CDF by adaptive quadrature, one
point at a time, and the characteristic function.

``oracle_cdf`` is the test oracle for ``lobtail.stable.stable_cdf``, and
``stable_cf`` the one for ``lobtail.stable.stable_sample``.  The CDF
integrates the same Zolotarev/Nolan representation (S(1) coordinates, angles
in units of pi/2) with ``scipy.integrate.quad``, forming the kernel in log space,
log v = log a + log U, so that the exponent alpha/(1-alpha) near alpha = 1
cannot overflow a or U on its own; a node is dropped (integrand 0) only when
log v > 709.  The range is split at the transition phi*, where log v = 0,
and each half is cut at geometric distances from both of its ends; every
piece then gets its own adaptive ``quad``.  Without the split a drop that
sits between the nodes of a wide panel is missed with a small error
estimate (1.3e-5 of mass at alpha = 1.004, beta = -0.17 and the
standardized point z = -367).
"""

from __future__ import annotations

import cmath
import math

from scipy.integrate import quad

ALPHA_ONE_WINDOW = 5e-3
HALF_PI = math.pi / 2


def _layers(lo: float, hi: float) -> list[float]:
    span = hi - lo
    inner = [p for k in range(1, 14) for p in (lo + span * 10.0**-k, hi - span * 10.0**-k)]
    return [lo] + sorted(inner) + [hi]


def _transition(log_v, lo: float, hi: float, increasing: bool) -> float:
    a, b = lo, hi
    while True:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            return mid
        if (log_v(mid) < 0.0) == increasing:
            a = mid
        else:
            b = mid


def _integral(log_v, lo: float, hi: float, increasing: bool) -> float:
    """Integral of exp(-exp(log_v(phi))) over [lo, hi]; raises above 1e-8 error."""
    def integrand(phi: float) -> float:
        lv = log_v(phi)
        return math.exp(-math.exp(lv)) if lv <= 709.0 else 0.0

    star = _transition(log_v, lo, hi, increasing)
    total = err = 0.0
    for a, b in ((lo, star), (star, hi)):
        if b <= a:
            continue
        cuts = _layers(a, b)
        for p, q in zip(cuts[:-1], cuts[1:]):
            val, e = quad(integrand, p, q, limit=200, epsabs=1e-12, epsrel=1e-10,
                          full_output=1)[:2]
            total += val
            err += e
    if err > 1e-8:
        raise ArithmeticError(f"oracle quadrature error {err:.2e}")
    return total


def _cdf_not1(z1: float, alpha: float, beta: float) -> float:
    if z1 < 0.0:
        return 1.0 - _cdf_not1(-z1, alpha, -beta)
    theta0 = math.atan(beta * math.tan(math.pi * alpha / 2)) / alpha
    tn = theta0 / HALF_PI
    eps = 1.0 if alpha < 1 else -1.0
    c_const = 1 - 0.25 * (1 + tn) * (1 + eps)
    if z1 == 0.0:
        return (1 - tn) / 2
    log_a = (alpha / (alpha - 1)) * (math.log(z1) + math.log(math.cos(alpha * theta0)) / alpha)
    expo = alpha / (1 - alpha)

    def log_v(phi: float) -> float:
        num = math.sin(HALF_PI * alpha * (phi + tn))
        den = math.cos(HALF_PI * phi)
        last = math.cos(HALF_PI * ((alpha - 1) * phi + alpha * tn))
        # the end limits: U -> inf (alpha > 1) or 0 (alpha < 1) where the
        # sine vanishes, the reverse where cos(phi) does, 0 where the last
        # cosine does
        if num <= 0.0:
            return math.inf if alpha > 1 else -math.inf
        if den <= 0.0:
            return -math.inf if alpha > 1 else math.inf
        if last <= 0.0:
            return -math.inf
        return (log_a + expo * (math.log(num) - math.log(den))
                + math.log(last) - math.log(den))

    val = _integral(log_v, -tn, 1.0, increasing=alpha < 1)
    return min(max(c_const + eps / 2 * val, 0.0), 1.0)


def _cdf_1(z: float, beta: float) -> float:
    if beta == 0.0:
        return 0.5 + math.atan(z) / math.pi
    if beta < 0.0:
        return 1.0 - _cdf_1(-z, -beta)
    log_a = -HALF_PI * z / beta

    def log_v(phi: float) -> float:
        cphi = math.cos(phi)
        base = HALF_PI + beta * phi
        if cphi <= 0.0:
            return math.inf
        if base <= 0.0:
            return -math.inf
        return (log_a + math.log(2 / math.pi) + math.log(base) - math.log(cphi)
                + base * math.tan(phi) / beta)

    val = _integral(log_v, -HALF_PI, HALF_PI, increasing=True)
    return min(max(val / math.pi, 0.0), 1.0)


def oracle_cdf(x: float, alpha: float, beta: float, gamma: float = 1.0,
               delta: float = 0.0) -> float:
    """CDF of S_alpha(beta, gamma, delta; 0) at one point, alpha snapped to 1
    within 5e-3 as the engine does."""
    z0 = (x - delta) / gamma
    if abs(alpha - 1.0) < ALPHA_ONE_WINDOW:
        return _cdf_1(z0, beta)
    return _cdf_not1(z0 + beta * math.tan(math.pi * alpha / 2), alpha, beta)


def stable_cf(theta: float, p) -> complex:
    """Characteristic function E[exp(i theta X)] for X ~ S_alpha(beta, gamma, delta; 0).

    ``p`` carries alpha, beta, gamma and delta.  The alpha = 1 branch carries
    the (2/pi) log term of the continuous parameterization.
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
    return cmath.exp(expo)
