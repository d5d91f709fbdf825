"""Shared domain types and numerical helpers for the volume-profile tail
analytics toolkit.

Everything here is immutable after construction and safe to share across
threads.  Estimators elsewhere in the package are pure functions of
(data, config, seed), so two fits on identical inputs are bit-identical.
"""

from __future__ import annotations

from bisect import bisect_left
import datetime
import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

__all__ = [
    "Side",
    "Family",
    "Method",
    "SeriesKey",
    "VolumeSeries",
    "StableParams",
    "GevParams",
    "GpdParams",
    "FitResult",
    "EstimationError",
    "bisect",
    "refine_min",
    "child_seed",
]


class EstimationError(ValueError):
    """The one data failure: the data give no estimator, series, sample or CDF value.
    The pipeline and the studies record it and go on; any other exception is a fault."""


class Side(enum.Enum):
    """Order book side; tick files write it ``B`` or ``A``, and ``DayTicks`` groups
    the bid before the ask."""

    BID = "bid"
    ASK = "ask"


class Family(enum.Enum):
    STABLE = "stable"
    GEV = "gev"
    GPD = "gpd"


class Method(enum.Enum):
    MCCULLOCH = "mcculloch"
    MLE = "mle"
    MIXED_LMOMENTS = "mixed_lmoments"
    MOM = "mom"
    PICKANDS = "pickands"
    EPM = "epm"


# (family, method) pairs this package can produce.  The batch pipeline only
# exposes the Table-3 style grid (stable/McCulloch, GEV via MLE and mixed
# L-moments, GPD via MLE/Pickands/EPM); the MOM entries cover the standalone
# moment-matching estimators.
ALLOWED_PAIRS = frozenset(
    {
        (Family.STABLE, Method.MCCULLOCH),
        (Family.GEV, Method.MLE),
        (Family.GEV, Method.MIXED_LMOMENTS),
        (Family.GEV, Method.MOM),
        (Family.GPD, Method.MLE),
        (Family.GPD, Method.MOM),
        (Family.GPD, Method.PICKANDS),
        (Family.GPD, Method.EPM),
    }
)


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SeriesKey:
    """Identity of one sub-sampled volume series.

    level is the consolidated order-book depth rank (1 = best bid/ask),
    resolution_s the sub-sampling period in seconds.  Equality is structural.
    """

    asset: str
    trading_day: datetime.date
    side: Side
    level: int
    resolution_s: int

    def __post_init__(self):
        if not 1 <= self.level <= 5:
            raise ValueError(f"level must be in [1, 5], got {self.level}")
        if self.resolution_s <= 0:
            raise ValueError(f"resolution_s must be > 0, got {self.resolution_s}")

    def label(self) -> str:
        return (
            f"{self.asset}_{self.trading_day.isoformat()}_{self.side.value}"
            f"_L{self.level}_{self.resolution_s}s"
        )


@dataclass(frozen=True)
class VolumeSeries:
    """Regularly sub-sampled volume series for one (asset, day, side, level).

    timestamps are seconds since midnight, exchange-local, on a constant grid
    of spacing ``key.resolution_s``; values are consolidated volumes stored as
    non-negative doubles (counts are integral but a continuous approximation
    is used downstream).  Construction does not enforce the invariants.
    """

    key: SeriesKey
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "timestamps", _frozen_array(self.timestamps))
        object.__setattr__(self, "values", _frozen_array(self.values))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class StableParams:
    """Four-parameter stable law in the continuous S(0) parameterization."""

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if not -1.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [-1, 1], got {self.beta}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")


@dataclass(frozen=True)
class GevParams:
    """Generalized extreme value parameters (mu location, sigma scale, gamma shape)."""

    mu: float
    sigma: float
    gamma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not (math.isfinite(self.mu) and math.isfinite(self.gamma)):
            raise ValueError("mu and gamma must be finite")


@dataclass(frozen=True)
class GpdParams:
    """Generalized Pareto parameters; mu is the threshold fixed by POT preparation.

    gamma > 0 means a heavy (power-law) upper tail, gamma = 0 exponential,
    gamma < 0 a bounded tail.
    """

    gamma: float
    sigma: float
    mu: float = 0.0

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not (math.isfinite(self.gamma) and math.isfinite(self.mu)):
            raise ValueError("gamma and mu must be finite")


ParamsT = Union[StableParams, GevParams, GpdParams]

_FAMILY_PARAMS = {
    Family.STABLE: StableParams,
    Family.GEV: GevParams,
    Family.GPD: GpdParams,
}


@dataclass(frozen=True)
class FitResult:
    """Outcome of one distribution fit.

    covariance (parameter order matching the params dataclass fields) is only
    available for likelihood-based methods.  notes carries free-text warnings
    such as table clamps or dropped estimator pairs.
    """

    family: Family
    method: Method
    params: ParamsT
    sample_size: int
    converged: bool
    ks_statistic: Optional[float] = None
    ks_pvalue: Optional[float] = None
    covariance: Optional[np.ndarray] = None
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if (self.family, self.method) not in ALLOWED_PAIRS:
            raise ValueError(
                f"unsupported family/method pairing: {self.family}/{self.method}"
            )
        if not isinstance(self.params, _FAMILY_PARAMS[self.family]):
            raise ValueError(
                f"params of type {type(self.params).__name__} do not match "
                f"family {self.family}"
            )
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        if self.ks_statistic is not None and not 0.0 <= self.ks_statistic <= 1.0:
            raise ValueError(f"ks_statistic must be in [0, 1], got {self.ks_statistic}")
        if self.ks_pvalue is not None and not 0.0 <= self.ks_pvalue <= 1.0:
            raise ValueError(f"ks_pvalue must be in [0, 1], got {self.ks_pvalue}")
        if self.covariance is not None:
            cov = np.asarray(self.covariance, dtype=float)
            if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
                raise ValueError("covariance must be a square matrix")
            object.__setattr__(self, "covariance", _frozen_array(cov))
        object.__setattr__(self, "notes", tuple(self.notes))


def child_seed(*entropy: int) -> int:
    """A 32-bit seed derived from the integers ``entropy`` (numpy SeedSequence)."""
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


# |shape| below which GEV and GPD take their shape-0 form (Gumbel, exponential):
# exact to double precision there, where the general form divides by a subnormal shape
_ZERO_SHAPE = 1e-300

_SERIES_SHAPE, _SERIES_U, _SERIES_TERMS = 0.01, 0.05, 14
_L_TAYLOR = [np.array([(-1) ** j * math.perm(j, k) / (j + 1)
                       for j in range(k + _SERIES_TERMS - 1, k - 1, -1)]) for k in range(3)]


def _first_dropped(k: int, m: int) -> float:
    """|u|^-m times the first term that m terms of L^(k)'s series leave out, over L^(k)(0)."""
    return math.comb(k + m, k) * (k + 1) / (k + m + 1)


# m terms serve max |u| <= _L_TERMS_U[k][m - 1]: they leave out no more than all
# _SERIES_TERMS terms do at the zone's edge |u| = _SERIES_U
_L_TERMS_U = [[(_first_dropped(k, _SERIES_TERMS) * _SERIES_U**_SERIES_TERMS
                / _first_dropped(k, m)) ** (1 / m) for m in range(1, _SERIES_TERMS + 1)]
              for k in range(3)]


def _l_series(u, z, k: int, u_max: float):
    """D_k from L^(k)'s Taylor series, cut to the terms that max |u| = u_max needs."""
    m = bisect_left(_L_TERMS_U[k], u_max) + 1
    return np.polyval(_L_TAYLOR[k][-m:], u) * z ** (k + 1)


def log1p_ratio(g: float, z, order: int = 0) -> list:
    """[D_0, ..., D_order], with D_k the k-th derivative in g of log1p(g z) / g; order <= 2.

    D_k = z^(k+1) L^(k)(u), u = g z, L(u) = log1p(u) / u, L(0) = 1, is smooth through
    g = 0; elementwise with 1 + u > 0.  D_0 is log1p(u) / g, which loses nothing (the
    series where |g| < _ZERO_SHAPE).  The recursion g D_k + k D_(k-1) = (-1)^(k-1) (k-1)!
    (z / (1 + u))^k builds D_1, D_2 up from D_0 at a cost of eps |z| / |g|^k, so where
    |g| < _SERIES_SHAPE and every |u| < _SERIES_U D_order is L^(order)'s Taylor series
    instead, and the recursion runs down from it, where it loses nothing."""
    u = g * z
    near_zero = abs(g) < (_SERIES_SHAPE if order else _ZERO_SHAPE)
    u_max = float(np.abs(u).max()) if near_zero else math.inf
    if abs(g) < _ZERO_SHAPE and u_max < _SERIES_U:
        d0 = _l_series(u, z, 0, u_max)
    else:
        d0 = np.log1p(u) / g
    if not order:
        return [d0]
    zt = z / (1.0 + u)
    if u_max < _SERIES_U:
        top = _l_series(u, z, order, u_max)
        return [d0, top] if order == 1 else [d0, (-zt * zt - g * top) / 2.0, top]
    d1 = (zt - d0) / g
    return [d0, d1] if order == 1 else [d0, d1, (-zt * zt - 2.0 * d1) / g]


EULER_GAMMA = 0.5772156649015329


def expm1_ratio(u: float) -> float:
    """E(u) = expm1(u) / u, E(0) = 1."""
    return math.expm1(u) / u if u else 1.0


def _zeta_minus_one(s: int) -> float:
    """zeta(s) - 1 for integer s >= 2: the sum to 49, then the Euler-Maclaurin tail from 50."""
    tail = 50.0**-s * (50.0 / (s - 1) + 0.5 + s / 600 - s * (s + 1) * (s + 2) / 9e7
                       + math.prod(range(s, s + 5)) / 9.45e12)
    return math.fsum([k**-s for k in range(2, 50)] + [tail])


# (zeta(n) - 1) / n for n = 2..52; H(g) = L(-g) - (1 - EULER_GAMMA) + sum_(n>=2) (zeta(n) - 1)
# g^(n-1) / n (Abramowitz & Stegun 6.1.33), and 50 terms reach double precision on [-1, 1)
_H_COEFFS = [_zeta_minus_one(n) / n for n in range(2, 53)]
_H_TAYLOR = _H_COEFFS[-2::-1]
# the last m terms serve |g| <= _H_TERMS_G[m - 1]: they leave out about (zeta(m + 2) - 1)
# |g|^(m + 1) / (m + 2), no more than all 50 leave out at |g| = 1
_H_TERMS_G = [(_H_COEFFS[-1] / c) ** (1 / (m + 1)) for m, c in enumerate(_H_COEFFS[1:], 1)]


def lgamma_ratio(g: float) -> float:
    """H(g) = lgamma(1 - g) / g for g < 1, smooth through H(0) = EULER_GAMMA."""
    acc = 0.0
    for c in _H_TAYLOR[-(bisect_left(_H_TERMS_G, abs(g)) + 1):]:
        acc = acc * g + c
    return (-math.log1p(-g) / g if g else 1.0) - (1.0 - EULER_GAMMA) + acc * g


def _inverse_transform_sample(quantile, p, n: int, seed: int) -> np.ndarray:
    """n draws quantile(u, p) of uniforms u clipped into (0, 1), deterministic under seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, n)
    u = np.clip(u, 1e-300, 1.0 - 1e-16)
    return np.asarray(quantile(u, p))


def bisect(right, a, b, steps: int) -> np.ndarray:
    """Elementwise bisection of the brackets [a, b]; returns the final midpoints.

    right(mid) is a boolean array, true where the root lies right of mid, and
    a function of mid alone.  The loop stops early once a step changes no
    bracket (NaN brackets count as unchanged): every later step would repeat
    it exactly, so the midpoints are those of all ``steps`` halvings.  An end
    that is NaN stays NaN, so ``x != x`` on the old end is the whole NaN test.
    """
    for _ in range(steps):
        mid = 0.5 * (a + b)
        go = right(mid)
        a_next, b_next = np.where(go, mid, a), np.where(go, b, mid)
        if ((a_next == a) | (a != a)).all() and ((b_next == b) | (b != b)).all():
            break
        a, b = a_next, b_next
    return 0.5 * (a + b)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section ratio, 0.618...
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


def _polish_tol(x: float, xatol: float) -> float:
    """refine_min's stop width near x: xatol + sqrt(eps) * |x|."""
    return xatol + _SQRT_EPS * abs(x)


def refine_min(f, grid, xatol: float) -> tuple[float, float]:
    """Minimum of scalar f: scan the ascending grid, then polish by golden-section search.

    The search (Kiefer 1953) brackets the best grid point's neighbours (the
    first best on a tie) and stops, as Brent's bounded minimizer does, once
    b - a <= xatol + sqrt(eps) * max(|c|, |d|) for inner points c < d.  When
    f(c) = f(d) it keeps the end of lower value, so a run of infeasible
    sentinels at one end does not draw it off the feasible side.  Its point
    wins only when its value is no higher than the grid's.  Returns (x, f(x)).
    """
    vals = [f(x) for x in grid]
    k = int(np.argmin(vals))
    i, j = max(k - 1, 0), min(k + 1, len(grid) - 1)
    a, b, fa, fb = float(grid[i]), float(grid[j]), vals[i], vals[j]
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _polish_tol(max(abs(c), abs(d)), xatol):
        if fc < fd or (fc == fd and fa <= fb):  # a minimum lies in [a, d]
            b, fb, d, fd = d, fd, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:  # ... or in [c, b]
            a, fa, c, fc = c, fc, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x, fx = (c, fc) if fc <= fd else (d, fd)
    return (x, float(fx)) if fx <= vals[k] else (float(grid[k]), float(vals[k]))
