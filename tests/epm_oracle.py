"""Reference EPM pair solve (bisection on delta over the sign-test bracket)
and pair order (every pair index at once).

``epm_pair_solve`` is the test oracle for ``lobtail.gpd.epm_pair_solve``,
which solves the same pair equation by monotone Newton in
w = ln(1 - x_i/delta) and decides ``ok`` from that root alone.  The two
return the same ``ok`` set except on two classes where this sign test
decides on rounding noise: near-exponential pairs (d within a few
ulps of 0), which the package keeps, and pairs whose root lies on an end of
this bracket (delta within a few ulps of the cut x_j (1 + 1e-13), or at the
end -1e-300 when q and r are within about 1e-12 of 1), which either may
keep.  Where both keep a pair, (shape, scale) agree within 1e-10
relative.  A root delta very near 0 (raw shapes of tens or more, on tied
samples) is beyond what 100 halvings resolve; there Newton is the more
accurate of the two.

``pair_indices`` is the order oracle for ``lobtail.gpd._pair_chunks``, which
streams the same pairs a chunk at a time.
"""

from __future__ import annotations

import numpy as np

from lobtail.core import bisect

BISECTIONS = 100  # halvings of every pair's root bracket
DRAW = 1 << 13  # geometric gaps per draw of the pair thinning


def epm_pair_solve(x_i, x_j, c_i, c_j):
    """Solves c_i ln(1 - x_j/delta) = c_j ln(1 - x_i/delta) by bisection on
    [x_j, delta0] (delta0 > 0) or [delta0, 0) (delta0 < 0) where
    delta0 = x_i x_j (c_j - c_i) / (c_j x_i - c_i x_j); a vanishing
    denominator is the exact exponential case and contributes shape 0 with
    scale -x_i / c_i.  Returns raw (shape, scale, ok); pairs whose bracket
    does not straddle a root come back with ok = False.
    """
    x_i = np.atleast_1d(np.asarray(x_i, dtype=float))
    x_j = np.atleast_1d(np.asarray(x_j, dtype=float))
    c_i = np.broadcast_to(np.asarray(c_i, dtype=float), x_i.shape)
    c_j = np.broadcast_to(np.asarray(c_j, dtype=float), x_i.shape)

    with np.errstate(all="ignore"):
        d = c_j * x_i - c_i * x_j
        is_exp = d == 0.0
        delta0 = x_i * x_j * (c_j - c_i) / d

        def h(delta):
            return c_i * np.log1p(-x_j / delta) - c_j * np.log1p(-x_i / delta)

        pos = delta0 > 0
        lo = np.where(pos, x_j * (1.0 + 1e-13), delta0)
        hi = np.where(pos, delta0, -1e-300)
        f_lo, f_hi = h(lo), h(hi)
        # limits at the singular endpoints are +inf
        sign_lo = np.sign(np.where(np.isnan(f_lo), np.inf, f_lo))
        sign_hi = np.sign(np.where(np.isnan(f_hi), np.inf, f_hi))
        good = (sign_lo != sign_hi) & (pos | (delta0 < 0)) & np.where(pos, delta0 > x_j, True)

        delta_hat = bisect(lambda mid: np.sign(h(mid)) == sign_lo, lo, hi, BISECTIONS)
        g_raw = np.log1p(-x_i / delta_hat) / c_i
        s_raw = g_raw * delta_hat
        good &= np.isfinite(g_raw) & np.isfinite(s_raw) & (s_raw > 0)
        g = np.where(good & ~is_exp, g_raw, 0.0)
        s = np.where(is_exp, -x_i / c_i, np.where(good, s_raw, np.nan))
    return g, s, is_exp | good


def pair_indices(m: int, seed: int | None = None,
                 cap: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) of the pairs row < col of an m x m grid, in row-major order.

    With ``seed`` None every pair; otherwise each pair is kept with
    probability cap / total, through seeded geometric gaps between kept
    linear indices.  The gaps are drawn ``DRAW`` at a time, the running index
    carried forward, until they pass the last pair, and the picks of every
    draw are mapped and joined.
    """
    if seed is None:
        return np.triu_indices(m, 1)
    total = m * (m - 1) // 2
    rng, keep = np.random.default_rng(seed), cap / total
    rows_before = np.arange(m, dtype=np.int64)
    cum = rows_before * (2 * m - rows_before - 1) // 2  # pairs before each row
    rows, cols, last = [], [], -1  # last: the last kept linear index so far
    while last < total:
        picks = last + np.cumsum(rng.geometric(keep, DRAW))
        last = int(picks[-1])
        picks = picks[picks < total]
        r = np.searchsorted(cum, picks, side="right") - 1
        rows.append(r)
        cols.append(picks - cum[r] + r + 1)
    return np.concatenate(rows), np.concatenate(cols)
