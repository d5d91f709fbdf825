"""Reference scan-and-polish minimizer on ``scipy.optimize.minimize_scalar``.

The test oracle for ``lobtail.core.refine_min``: the same grid scan, then
scipy's bounded Brent between the best grid point's neighbours, whose point
wins only when its value is no higher than the grid's.  Returns (x, f(x)).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar


def refine_min(f, grid, xatol: float) -> tuple[float, float]:
    vals = [f(x) for x in grid]
    k = int(np.argmin(vals))
    res = minimize_scalar(
        f,
        bounds=(grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]),
        method="bounded",
        options={"xatol": xatol},
    )
    if res.fun <= vals[k]:
        return float(res.x), float(res.fun)
    return float(grid[k]), float(vals[k])
