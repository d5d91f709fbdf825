"""Scalar numerics: a bounded one-dimensional minimum.

``refine_min``'s polish transcribes, operation for operation, scipy's
bounded golden-section/parabolic minimizer (Brent 1973, *Algorithms for
Minimization without Derivatives*, ch. 5), so it returns the same floats as
``scipy.optimize.minimize_scalar(method="bounded")``.
``tests/test_scalar.py`` holds it to that reference bit for bit; the README
names the reference version.
"""

from __future__ import annotations

import numpy as np

__all__ = ["refine_min"]


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
