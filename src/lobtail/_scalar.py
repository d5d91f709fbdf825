"""Scalar numerics: the Gamma function, a bracketed root and a bounded minimum.

Each routine transcribes a reference implementation operation for operation,
so it returns the same floats as that reference:

- ``gamma``: the Cephes ``Gamma`` (shift into [2, 3), rational P/Q);
- ``brentq``: the C routine ``Zeros/brentq.c`` (Brent 1973, ch. 4);
- ``refine_min``'s polish: the bounded golden-section/parabolic minimizer of
  Brent 1973, *Algorithms for Minimization without Derivatives*, ch. 5.

``tests/test_scalar.py`` holds each to its reference bit for bit; the README
names the reference version.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import EstimationError

__all__ = ["gamma", "brentq", "refine_min"]

_GAMMA_P = (
    1.60119522476751861407e-4, 1.19135147006586384913e-3, 1.04213797561761569935e-2,
    4.76367800457137231464e-2, 2.07448227648435975150e-1, 4.94214826801497100753e-1,
    9.99999999999999996796e-1,
)
_GAMMA_Q = (
    -2.31581873324120129819e-5, 5.39605580493303397842e-4, -4.45641913851797240494e-3,
    1.18139785222060435552e-2, 3.58236398605498653373e-2, -2.34591795718243348568e-1,
    7.14304917030273074085e-2, 1.00000000000000000320e0,
)


def _polevl(x: float, coef) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def gamma(x: float) -> float:
    """Gamma(x) for 0 <= x <= 33: shift into [2, 3), then a rational P/Q of degree 6/7."""
    if x == 0.0:
        return math.copysign(math.inf, x)
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 2.0:
        if x < 1e-9:
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _GAMMA_P) / _polevl(x, _GAMMA_Q)


def brentq(f, xa: float, xb: float, xtol: float) -> float:
    """Root of f in [xa, xb] by Brent's method (rtol 4 eps, at most 100 iterations).

    Raises EstimationError when f(xa) and f(xb) have the same sign, when f
    returns NaN, or when the iterations run out.
    """
    rtol = 4 * sys.float_info.epsilon

    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise EstimationError(f"root search: function value at x={x} is NaN")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise EstimationError("root search: f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)  # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise EstimationError(f"root search did not converge after 100 iterations (x={xcur})")


def _bounded_brent(f, a, b, xatol: float):
    """(x, f(x)) at a minimum of f in [a, b]: golden section with parabolic steps.

    Keeps the reference's numpy scalar arithmetic, so f sees the same argument types.
    """
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx


def refine_min(f, grid, xatol: float) -> tuple[float, float]:
    """Minimum of scalar f: scan the ascending grid, then polish with bounded Brent.

    Brent runs between the best grid point's neighbours (the first best on a
    tie); its point wins only when its value is no higher than the grid's.
    Returns (x, f(x)).
    """
    vals = [f(x) for x in grid]
    k = int(np.argmin(vals))
    x, fx = _bounded_brent(f, grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)], xatol)
    if fx <= vals[k]:
        return float(x), float(fx)
    return float(grid[k]), float(vals[k])
