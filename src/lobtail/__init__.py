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
    CurveKind,
    CurvePoints,
    DescriptiveStats,
    descriptive,
    hill_curve,
    hourly_median_matrix,
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
    gev_pdf,
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
    gpd_pdf,
    gpd_quantile,
    gpd_sample,
)
from .ingest import (
    MarketHours,
    PreparedSample,
    SampleKind,
    TickRecord,
    block_maxima,
    parse_tick_file,
    pot_exceedances,
    subsample_last,
)
from .stable import (
    McCullochTables,
    fit_mcculloch,
    sample_quantile,
    stable_cdf,
    stable_cf,
    stable_sample,
)

__version__ = "0.1.0"
