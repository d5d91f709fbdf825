import datetime
import math

import numpy as np
import pytest

from lobtail.core import EstimationError, GpdParams, Side, VolumeSeries
from lobtail.diagnostics import (
    descriptive,
    dfa_window_grid,
    hill_curve,
    hourly_median_matrix,
    hourly_medians,
    hurst_dfa,
    mean_excess_curve,
    qq_exponential,
)
from lobtail.gpd import gpd_sample

from conftest import make_key, make_series


# ---------------------------------------------------------------------------
# descriptive
# ---------------------------------------------------------------------------


def test_descriptive_basic():
    st = descriptive([1.0, 2.0, 3.0, 4.0, 5.0])
    assert st.mean == 3.0
    assert st.median == 3.0
    assert st.std == pytest.approx(1.5811, abs=1e-4)
    assert st.min == 1.0 and st.max == 5.0


def test_descriptive_constant_vector():
    st = descriptive([4.0, 4.0, 4.0, 4.0])
    assert st.std == 0.0
    assert math.isnan(st.skew) and math.isnan(st.kurtosis)


def test_descriptive_symmetric_skew_zero():
    st = descriptive([-1.0, -1.0, 1.0, 1.0])
    assert st.skew == pytest.approx(0.0, abs=1e-14)


def test_descriptive_gaussian_kurtosis_near_three():
    rng = np.random.default_rng(5)
    st = descriptive(rng.normal(size=200_000))
    assert st.kurtosis == pytest.approx(3.0, abs=0.1)
    assert st.skew == pytest.approx(0.0, abs=0.05)


def test_descriptive_needs_four_points():
    with pytest.raises(EstimationError):
        descriptive([1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# hourly median matrix
# ---------------------------------------------------------------------------


def _fold(*series):
    return hourly_median_matrix(
        {(s.key.side, s.key.level, s.key.trading_day): hourly_medians(s) for s in series})


def test_hourly_medians_even_count():
    # four values in hour 10 and two in hour 11: each median averages the middle pair
    series = VolumeSeries(key=make_key(), timestamps=[36000, 36010, 36020, 36030, 39600, 39610],
                          values=[4.0, 1.0, 10.0, 2.0, 6.0, 5.0])
    out = hourly_medians(series)
    assert out == {10: 3.0, 11: 5.5}
    assert all(type(h) is int and type(m) is float for h, m in out.items())


def test_hourly_medians_hours_with_gaps():
    # hours 9 and 12 only: the hours between have no entry
    series = VolumeSeries(key=make_key(), timestamps=[32400, 32410, 43200],
                          values=[1.0, 3.0, 8.0])
    assert hourly_medians(series) == {9: 2.0, 12: 8.0}
    hm = _fold(series)[(Side.BID, 1)]
    assert hm.hours.tolist() == [9, 10, 11, 12]
    assert hm.matrix[[0, 3], 0].tolist() == [2.0, 8.0]
    assert np.isnan(hm.matrix[1:3, 0]).all()


def test_hourly_median_constant_hour():
    # one hour of constant 5s at 10s resolution
    series = make_series([5.0] * 360, start_s=36010)
    out = _fold(series)
    hm = out[(Side.BID, 1)]
    row = np.where(hm.hours == 10)[0][0]
    assert hm.matrix[row, 0] == 5.0


def test_hourly_median_odd_window():
    series = make_series([1.0, 2.0, 3.0], start_s=7200 + 10)
    hm = _fold(series)[(Side.BID, 1)]
    assert hm.matrix[0, 0] == 2.0


def test_hourly_median_empty_hour_is_nan():
    # values only in hour 2; hour 3 grid exists via a second series
    s1 = make_series([1.0, 2.0, 3.0], start_s=7200 + 10)
    s2 = make_series([7.0], start_s=3 * 3600 + 10,
                     trading_day=datetime.date(2010, 1, 5))
    hm = _fold(s1, s2)[(Side.BID, 1)]
    assert hm.hours.tolist() == [2, 3]
    assert hm.matrix[1, 0] != hm.matrix[1, 0]  # NaN: day 1 has no hour-3 data
    assert hm.matrix[0, 1] != hm.matrix[0, 1]  # NaN: day 2 has no hour-2 data
    assert hm.matrix[1, 1] == 7.0


# ---------------------------------------------------------------------------
# mean excess
# ---------------------------------------------------------------------------


def test_mean_excess_hand_case():
    # thresholds 1 and 2 (the top three points are left out):
    # e(1) = (1 + 2 + 3 + 4) / 4, e(2) = (1 + 2 + 3) / 3
    curve = mean_excess_curve([1.0, 2.0, 3.0, 4.0, 5.0])
    assert curve.xs.tolist() == [1.0, 2.0]
    assert curve.ys.tolist() == pytest.approx([2.5, 2.0])


def test_mean_excess_below_min():
    # the lowest threshold is the sample minimum: every other point lies
    # above it, so e(min) is their mean less the minimum
    data = [2.0, 4.0, 6.0, 8.0]
    curve = mean_excess_curve(data)
    assert curve.xs.tolist() == [2.0]
    assert curve.ys[0] == pytest.approx(np.mean(data[1:]) - 2.0)


def test_mean_excess_default_grid_excludes_top_three():
    data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    curve = mean_excess_curve(data)
    assert curve.xs.max() < 4.0


def test_mean_excess_gpd_slope():
    # e(u) for GPD is linear with slope gamma / (1 - gamma)
    g = 0.3
    y = gpd_sample(GpdParams(gamma=g, sigma=1.0), 100_000, 13)
    curve = mean_excess_curve(y)
    lo, hi = np.percentile(curve.xs, [25, 75])
    sel = (curve.xs >= lo) & (curve.xs <= hi)
    slope = np.polyfit(curve.xs[sel], curve.ys[sel], 1)[0]
    assert slope == pytest.approx(g / (1 - g), abs=0.1)


# ---------------------------------------------------------------------------
# Hill
# ---------------------------------------------------------------------------


def test_hill_hand_case():
    curve = hill_curve([math.e**2, math.e, 1.0], k_max=3)
    assert curve.xs[0] == 3.0
    assert curve.ys[0] == pytest.approx(1.5)
    assert curve.lo[0] == pytest.approx(1.5 * (1 - 1.96 / math.sqrt(3)))
    assert curve.hi[0] == pytest.approx(1.5 * (1 + 1.96 / math.sqrt(3)))


def test_hill_pareto_quantile_grid():
    n = 100_000
    i = np.arange(1, n + 1)
    x = (n / i) ** 0.5  # exact Pareto(alpha=2) quantiles
    curve = hill_curve(x, k_max=2000)
    sel = (curve.xs >= 500) & (curve.xs <= 2000)
    assert np.all(np.abs(curve.ys[sel] - 0.5) < 0.05)


def test_hill_all_equal_data():
    curve = hill_curve(np.full(50, 3.0), k_max=10)
    assert np.all(curve.ys == 0.0)


def test_hill_scale_invariance():
    rng = np.random.default_rng(2)
    x = rng.pareto(1.5, 500) + 1.0
    c0 = hill_curve(x, k_max=100)
    c1 = hill_curve(10.0 * x, k_max=100)
    assert np.allclose(c0.ys, c1.ys, atol=1e-12)


def test_hill_requires_positive_data():
    with pytest.raises(EstimationError):
        hill_curve([1.0, 0.0, 2.0, 3.0], k_max=3)


# ---------------------------------------------------------------------------
# QQ exponential
# ---------------------------------------------------------------------------


def test_qq_exponential_identity():
    n = 1000
    p = (np.arange(1, n + 1) - 0.5) / n
    data = -np.log1p(-p)  # exact Exp(1) quantiles
    curve = qq_exponential(data)
    assert np.allclose(curve.xs, curve.ys, atol=1e-12)


def test_qq_exponential_pareto_is_concave_up():
    # Pareto quantiles against exponential quantiles: ys = exp(xs / alpha),
    # convex everywhere, with ys/xs increasing past xs = alpha
    n = 500
    i = np.arange(1, n + 1)
    p = (i - 0.5) / n
    alpha = 1.5
    pareto = (1 - p) ** (-1 / alpha)
    curve = qq_exponential(pareto)
    slopes = np.diff(curve.ys) / np.diff(curve.xs)
    assert np.all(np.diff(slopes) > -1e-9)
    tail = curve.xs > alpha
    ratio = curve.ys[tail] / curve.xs[tail]
    assert np.all(np.diff(ratio) > -1e-12)


def test_qq_exponential_single_point():
    curve = qq_exponential([3.5])
    assert curve.xs[0] == pytest.approx(-math.log(0.5))
    assert curve.ys[0] == 3.5


def test_qq_exponential_monotone_always():
    rng = np.random.default_rng(11)
    curve = qq_exponential(rng.normal(size=200))
    assert np.all(np.diff(curve.ys) >= 0)


# ---------------------------------------------------------------------------
# DFA / Hurst
# ---------------------------------------------------------------------------


def test_dfa_window_grid_geometric():
    ws = dfa_window_grid(1000)
    assert ws[0] == 8 and ws[-1] <= 250
    assert len(ws) >= 4
    ratios = ws[1:] / ws[:-1]
    assert np.all(ratios > 1.0)


def test_hurst_white_noise():
    rng = np.random.default_rng(77)
    hs = [hurst_dfa(rng.normal(size=10_000))[0] for _ in range(5)]
    assert np.mean(hs) == pytest.approx(0.5, abs=0.05)


def test_hurst_integrated_process_is_persistent():
    rng = np.random.default_rng(3)
    # cumulative sum of an AR(1): strongly autocorrelated levels
    eps = rng.normal(size=20_000)
    ar = np.zeros(eps.size)
    for i in range(1, eps.size):
        ar[i] = 0.6 * ar[i - 1] + eps[i]
    h, curve = hurst_dfa(np.cumsum(ar))
    assert h > 0.67


def test_hurst_affine_invariance():
    rng = np.random.default_rng(4)
    x = rng.normal(size=5000)
    h0, _ = hurst_dfa(x)
    h1, _ = hurst_dfa(3.0 * x + 11.0)
    assert h1 == pytest.approx(h0, abs=1e-12)


def test_hurst_constant_series():
    with pytest.raises(EstimationError, match="degenerate"):
        hurst_dfa(np.full(5000, 2.0))


def test_hurst_needs_enough_windows():
    with pytest.raises(EstimationError):
        hurst_dfa(np.arange(40.0))


def test_hourly_median_all_empty_series():
    s = make_series([])
    empty = VolumeSeries(key=s.key, timestamps=[], values=[])
    assert hourly_medians(empty) == {}
    with pytest.raises(ValueError, match="no observations"):
        _fold(empty)
