"""Shared domain types for the volume-profile tail analytics toolkit.

Everything here is immutable after construction and safe to share across
threads.  Estimators elsewhere in the package are pure functions of
(data, config, seed), so two fits on identical inputs are bit-identical.
"""

from __future__ import annotations

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
    "numerical_hessian",
]


class EstimationError(ValueError):
    """Raised when an estimator cannot produce a result for the given sample."""


class Side(enum.Enum):
    """Order book side.  Bid maps to negative depth indices, Ask to positive."""

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

    def params_dict(self) -> dict[str, float]:
        p = self.params
        if isinstance(p, StableParams):
            return {"alpha": p.alpha, "beta": p.beta, "gamma": p.gamma, "delta": p.delta}
        if isinstance(p, GevParams):
            return {"mu": p.mu, "sigma": p.sigma, "gamma": p.gamma}
        return {"gamma": p.gamma, "sigma": p.sigma, "mu": p.mu}


def numerical_hessian(f, theta: np.ndarray, steps) -> np.ndarray:
    """Central-difference Hessian of scalar f at theta with per-coordinate steps."""
    k = theta.size
    h = np.empty((k, k))
    f0 = f(theta)
    for a in range(k):
        for b in range(a, k):
            ea = np.zeros(k); ea[a] = steps[a]
            eb = np.zeros(k); eb[b] = steps[b]
            if a == b:
                val = (f(theta + ea) - 2.0 * f0 + f(theta - ea)) / steps[a] ** 2
            else:
                val = (
                    f(theta + ea + eb) - f(theta + ea - eb)
                    - f(theta - ea + eb) + f(theta - ea - eb)
                ) / (4.0 * steps[a] * steps[b])
            h[a, b] = h[b, a] = val
    return h
