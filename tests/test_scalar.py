"""The scan-and-polish minimizer ``core.refine_min`` against scipy's bounded
Brent, the GEV L-moment shape against the scipy root finder it replaced, and
the GEV location and scale against mpmath."""

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_oracle
import shape_zero_oracle
from lobtail import core, gev, gpd
from lobtail.core import EstimationError, GevParams, GpdParams

LN2, LN3 = math.log(2.0), math.log(3.0)


# ---------------------------------------------------------------------------
# L-moment shape root and location/scale, against scipy
# ---------------------------------------------------------------------------


def expm1_ratio(g: float) -> float:
    return math.expm1(g * LN3) / math.expm1(g * LN2) if g else LN3 / LN2


def power_ratio(g: float) -> float:
    """The form the package solved with brentq before: (1 - 3^g)/(1 - 2^g),
    which loses digits to cancellation near g = 0."""
    return LN3 / LN2 if abs(g) < 1e-9 else (1.0 - 3.0**g) / (1.0 - 2.0**g)


def brentq_shape(tau3: float, ratio) -> float | None:
    """scipy's brentq root of ratio(g) = (tau3 + 3)/2 on [-1, 1] at the old
    xtol, or None where it sees no sign change."""
    target = (tau3 + 3.0) / 2.0
    try:
        return scipy.optimize.brentq(lambda g: ratio(g) - target, -1.0, 1.0, xtol=1e-12)
    except ValueError:
        return None


def assert_shape_root_matches_brentq(tau3: float):
    g, _ = gev._shape_from_tau3(tau3)
    want = brentq_shape(tau3, expm1_ratio)
    if want is not None:  # tau3 = -1/3: both forms overshoot 4/3 at g = -1 by rounding
        assert abs(g - want) <= 1e-12
    old = brentq_shape(tau3, power_ratio)
    if old is not None:
        # the old form's root error grows like 1e-15/|g| near g = 0 (3.7e-8 at
        # worst on a fine tau3 grid there), where the expm1 form keeps its digits
        assert abs(g - old) <= 1e-12 + 2e-15 / abs(old)


def test_shape_root_matches_brentq_on_the_tau3_grid():
    tau3_at_zero = 2.0 * LN3 / LN2 - 3.0
    grid = np.concatenate([np.linspace(-1.0 / 3.0, 1.0, 2_001),
                           tau3_at_zero + np.linspace(-1e-3, 1e-3, 201)])
    for tau3 in grid:
        assert_shape_root_matches_brentq(float(tau3))


@settings(max_examples=300, deadline=None)
@given(st.floats(-1.0 / 3.0, 1.0))
@example(0.0)
@example(2.0 * LN3 / LN2 - 3.0)  # the root g = 0
def test_shape_root_matches_brentq(tau3):
    assert_shape_root_matches_brentq(tau3)


# shapes on [-1, 1), dense around 0
SHAPES = np.concatenate([np.linspace(-1.0, 1.0, 20_001)[:-1], [1.0 - 1e-6],
                         np.linspace(1e-4, 2e-3, 500), -np.linspace(1e-4, 2e-3, 500),
                         np.linspace(-1e-4, 1e-4, 201), [0.0, 5e-324, 1e-300, -1e-15,
                                                         1e-12, -1e-9, 1e-6]])


@pytest.mark.parametrize("l1, l2", [(10.0, 2.0), (0.0, 1.0), (-3.0, 0.5), (1e3, 1.0)])
def test_location_scale_match_the_scipy_gamma_form(l1, l2):
    # the oracle is now mpmath: scipy's gamma form (1 - 2^g, 1 - Gamma(1 - g))
    # cancels near g = 0; the name is kept for the test's history
    for g in map(float, SHAPES):
        mu, sigma = gev._location_scale_at(g, l1, l2)
        want_mu, want_sigma = shape_zero_oracle.location_scale(g, l1, l2)
        assert sigma == pytest.approx(want_sigma, rel=1e-14, abs=0)
        assert abs(mu - want_mu) <= 1e-14 * (abs(want_mu) + want_sigma)


def test_lgamma_ratio_matches_mpmath():
    # the series stops at the terms |g| needs, which leave out no more than all
    # 50 leave out at |g| = 1
    for g in map(float, SHAPES):
        want = shape_zero_oracle.lgamma_ratio(g)
        assert abs(core.lgamma_ratio(g) - want) <= 1e-14 * max(abs(want), 1.0)


# ---------------------------------------------------------------------------
# refine_min against the scipy oracle
# ---------------------------------------------------------------------------


INFEASIBLE = 1e300  # the value both profiles give outside their feasible region


def checked_refine_min(f, grid, xatol):
    """refine_min that also runs the scipy oracle and compares the two.

    At an interior minimum the value is second order in the point's error, so
    refine_min's value is no higher than the oracle's (to 1e-12 relative) and
    its point lies within 1e-6 relative of the oracle's.  Two cases relax one
    check each:
    - at the edge of the feasible region (the profile is infeasible one stop
      tolerance beyond the two points) the value is first order in the
      distance to the edge, and either search may stop nearer it, so only the
      points are compared;
    - where refine_min's value is lower than the oracle's by more than
      that margin, the oracle stopped at a worse point, so a lower value
      needs no near point.
    """
    x, fx = core.refine_min(f, grid, xatol)
    want_x, want_fx = scalar_oracle.refine_min(f, grid, xatol)
    rel = 1e-12 * max(abs(fx), 1.0)
    stop_tol = xatol + math.sqrt(np.finfo(float).eps) * max(abs(x), abs(want_x))
    at_edge = max(f(min(x, want_x) - stop_tol), f(max(x, want_x) + stop_tol)) >= INFEASIBLE
    assert fx <= want_fx + rel or at_edge
    assert fx < want_fx - rel or abs(x - want_x) <= 1e-6 * max(abs(x), 1.0)
    return x, fx


@settings(max_examples=60, deadline=None)
@given(st.floats(-0.45, 0.9), st.integers(5, 400), st.integers(0, 2**31), st.booleans())
@example(0.0, 50, 0, False)
@example(0.3, 400, 1, True)
@example(-0.25, 5, 0, True)  # minimum at the feasibility edge, between sentinel ties
def test_gpd_mle_profile_polish_matches_scipy(shape, n, seed, rounded):
    y = gpd.gpd_sample(GpdParams(gamma=shape, sigma=2.0), n, seed)
    if rounded:  # volumes are integers: ties and a coarse upper tail
        y = np.ceil(y)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gpd, "refine_min", checked_refine_min)
        try:
            gpd.fit_gpd_mle(y)
        except EstimationError:
            pass


@settings(max_examples=60, deadline=None)
@given(st.floats(-0.45, 0.6), st.integers(10, 400), st.integers(0, 2**31), st.booleans())
@example(0.0, 50, 0, False)
@example(0.5, 400, 1, True)
@example(0.3057630906335596, 19, 159838071, True)  # minimum at g = 7.67e-5
def test_gev_mixed_profile_polish_matches_scipy(shape, n, seed, rounded):
    x = gev.gev_sample(GevParams(mu=5.0, sigma=2.0, gamma=shape), n, seed)
    if rounded:
        x = np.round(x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gev, "refine_min", checked_refine_min)
        try:
            gev.fit_gev_mixed(x)
        except EstimationError:
            pass
