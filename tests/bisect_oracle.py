"""Reference bisection: every one of the ``steps`` halvings runs.

The test oracle for ``lobtail.core.bisect``, which stops once a step
changes no bracket and must return the same midpoints bit for bit.
"""

from __future__ import annotations

import numpy as np


def bisect(right, a, b, steps: int) -> np.ndarray:
    for _ in range(steps):
        mid = 0.5 * (a + b)
        go = right(mid)
        a, b = np.where(go, mid, a), np.where(go, b, mid)
    return 0.5 * (a + b)
