"""Heavy-tail analytics for limit order book volume profiles.

Builds regularly sub-sampled volume series from tick-level order-book data
and fits three sub-exponential families (alpha-stable, GEV, GPD) with
quantile, likelihood, moment and percentile estimators, alongside tail
diagnostics and goodness-of-fit reporting.
"""

from .core import (
    EstimationError,
    Family,
    FitResult,
    GevParams,
    GpdParams,
    Method,
    SeriesKey,
    Side,
    StableParams,
    VolumeSeries,
)
from .diagnostics import (
    CurvePoints,
    DescriptiveStats,
    descriptive,
    hill_curve,
    hourly_median_matrix,
    hourly_medians,
    hurst_dfa,
    mean_excess_curve,
    qq_exponential,
)
from .gev import (
    LMoments,
    fit_gev_lmom,
    fit_gev_mixed,
    fit_gev_mle,
    gev_cdf,
    gev_quantile,
    gev_sample,
    sample_lmoments,
)
from .gof import ks_statistic, ks_subsample_study, percentile_comparison
from .gpd import (
    fit_gpd_epm,
    fit_gpd_mle,
    fit_gpd_mom,
    fit_gpd_pickands,
    gpd_cdf,
    gpd_quantile,
    gpd_sample,
)
from .ingest import (
    DayTicks,
    MarketHours,
    PreparedSample,
    SampleKind,
    block_maxima,
    parse_tick_file,
    pot_exceedances,
    subsample_last,
)
from .stable import (
    fit_mcculloch,
    sample_quantile,
    stable_cdf,
    stable_sample,
)

__all__ = [
    "block_maxima",
    "CurvePoints",
    "DayTicks",
    "descriptive",
    "DescriptiveStats",
    "EstimationError",
    "Family",
    "fit_gev_lmom",
    "fit_gev_mixed",
    "fit_gev_mle",
    "fit_gpd_epm",
    "fit_gpd_mle",
    "fit_gpd_mom",
    "fit_gpd_pickands",
    "fit_mcculloch",
    "FitResult",
    "gev_cdf",
    "gev_quantile",
    "gev_sample",
    "GevParams",
    "gpd_cdf",
    "gpd_quantile",
    "gpd_sample",
    "GpdParams",
    "hill_curve",
    "hourly_median_matrix",
    "hourly_medians",
    "hurst_dfa",
    "ks_statistic",
    "ks_subsample_study",
    "LMoments",
    "MarketHours",
    "mean_excess_curve",
    "Method",
    "parse_tick_file",
    "percentile_comparison",
    "pot_exceedances",
    "PreparedSample",
    "qq_exponential",
    "sample_lmoments",
    "sample_quantile",
    "SampleKind",
    "SeriesKey",
    "Side",
    "stable_cdf",
    "stable_sample",
    "StableParams",
    "subsample_last",
    "VolumeSeries",
]

__version__ = "0.1.0"
