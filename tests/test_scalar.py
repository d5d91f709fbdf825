"""``lobtail._scalar`` against the scipy routines it transcribes, bit for bit."""

import math

import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_oracle
from lobtail import _scalar, gev, gpd
from lobtail.core import EstimationError, GevParams, GpdParams

# tau3 where the L-moment shape equation has a root in [-1, 1]
TAU3_LO, TAU3_HI = 2.0 * (4.0 / 3.0) - 3.0, 1.0


def same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a, dtype=float).view(np.int64),
                          np.asarray(b, dtype=float).view(np.int64))


def recording(f):
    """f, and the list of arguments (with their types) it is called with."""
    calls = []

    def g(x):
        calls.append((type(x), x))
        return f(x)

    return g, calls


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------


def test_gamma_matches_scipy_on_a_dense_grid():
    x = np.concatenate([np.linspace(0.0, 2.0, 200_001), np.linspace(2.0, 33.0, 3_101),
                        [5e-324, 1e-10, 1e-9, np.nextafter(1e-9, 1.0), 1.0 - 1e-16]])
    got = np.array([_scalar.gamma(float(v)) for v in x])
    assert same_bits(got, scipy.special.gamma(x))
    assert got[0] == math.inf  # x = 0, shape g = 1


@settings(max_examples=500, deadline=None)
@given(st.floats(0.0, 2.0))
@example(0.0)
@example(1e-9)
@example(2.0)
def test_gamma_matches_scipy(x):
    assert same_bits(_scalar.gamma(x), scipy.special.gamma(x))


# ---------------------------------------------------------------------------
# brentq
# ---------------------------------------------------------------------------


def shape_residual(tau3: float):
    target = (tau3 + 3.0) / 2.0
    return lambda g: gev._shape_equation(g) - target


def assert_brentq_matches(f, a, b, xtol):
    got_f, got_calls = recording(f)
    want_f, want_calls = recording(f)
    try:
        want = scipy.optimize.brentq(want_f, a, b, xtol=xtol)
    except (ValueError, RuntimeError):  # no sign change, NaN or no convergence
        with pytest.raises(EstimationError):
            _scalar.brentq(got_f, a, b, xtol=xtol)
    else:
        assert same_bits(_scalar.brentq(got_f, a, b, xtol=xtol), want)
    assert got_calls == want_calls


def test_brentq_matches_scipy_on_the_shape_equation_grid():
    for tau3 in np.linspace(TAU3_LO, TAU3_HI, 2_001):
        assert_brentq_matches(shape_residual(float(tau3)), -1.0, 1.0, 1e-12)


@settings(max_examples=300, deadline=None)
@given(st.floats(TAU3_LO, TAU3_HI))
@example(0.0)
@example(math.log(3.0) / math.log(2.0) * 2.0 - 3.0)  # the root g = 0
def test_brentq_matches_scipy_on_the_shape_equation(tau3):
    assert_brentq_matches(shape_residual(tau3), -1.0, 1.0, 1e-12)
    f = shape_residual(tau3)
    if f(-1.0) * f(1.0) <= 0:
        g, _ = gev._shape_from_tau3(tau3)
        assert same_bits(g, scipy.optimize.brentq(f, -1.0, 1.0, xtol=1e-12))


@settings(max_examples=200, deadline=None)
@given(st.floats(-5.0, 5.0), st.floats(0.1, 10.0), st.integers(1, 5),
       st.sampled_from([1e-12, 1e-8, 2e-12]))
def test_brentq_matches_scipy_on_odd_polynomials(root, width, power, xtol):
    f = lambda x: (x - root) ** (2 * power - 1) + 0.01 * (x - root)
    assert_brentq_matches(f, root - width, root + 0.3 * width, xtol)


def test_brentq_failures_are_estimation_errors():
    with pytest.raises(EstimationError, match="different signs"):
        _scalar.brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)
    with pytest.raises(EstimationError, match="NaN"):
        _scalar.brentq(lambda x: math.nan if x > -1.0 else -1.0, -1.0, 1.0, xtol=1e-12)
    with pytest.raises(ValueError, match="NaN"):
        scipy.optimize.brentq(lambda x: math.nan if x > -1.0 else -1.0, -1.0, 1.0, xtol=1e-12)
    # a step at a tiny root: no secant step helps and 100 halvings fall short
    step = lambda x: -1.0 if x < 1e-200 else 1.0
    with pytest.raises(EstimationError, match="did not converge"):
        _scalar.brentq(step, -1.0, 1.0, xtol=1e-300)
    with pytest.raises(RuntimeError):
        scipy.optimize.brentq(step, -1.0, 1.0, xtol=1e-300)


def test_brentq_returns_an_endpoint_root():
    assert_brentq_matches(lambda x: x - 1.0, -1.0, 1.0, 1e-12)
    assert_brentq_matches(lambda x: x + 1.0, -1.0, 1.0, 1e-12)
    assert _scalar.brentq(lambda x: x - 1.0, -1.0, 1.0, xtol=1e-12) == 1.0


# ---------------------------------------------------------------------------
# bounded Brent and refine_min
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
    st.floats(-5.0, 5.0),
    st.floats(1e-9, 10.0),
    st.floats(-14.0, -2.0),
    st.booleans(),
)
def test_bounded_brent_matches_scipy(c, lo, width, log_xatol, numpy_bounds):
    f = lambda x: float(c[0] * (x - c[1]) ** 2 + c[2] * math.sin(3.0 * x)
                        + 0.1 * c[3] * x ** 4)
    a, b = lo, lo + width
    if numpy_bounds:
        a, b = np.float64(a), np.float64(b)
    xatol = 10.0 ** log_xatol
    got_f, got_calls = recording(f)
    want_f, want_calls = recording(f)
    x, fx = _scalar._bounded_brent(got_f, a, b, xatol)
    res = scipy.optimize.minimize_scalar(want_f, bounds=(a, b), method="bounded",
                                         options={"xatol": xatol})
    assert same_bits(x, res.x) and same_bits(fx, res.fun)
    assert got_calls == want_calls


def checked_refine_min(f, grid, xatol):
    """refine_min that also runs the scipy oracle and asserts the same (x, f(x))."""
    got = _scalar.refine_min(f, grid, xatol)
    want = scalar_oracle.refine_min(f, grid, xatol)
    assert same_bits(got, want)
    return got


@settings(max_examples=60, deadline=None)
@given(st.floats(-0.45, 0.9), st.integers(5, 400), st.integers(0, 2**31), st.booleans())
@example(0.0, 50, 0, False)
@example(0.3, 400, 1, True)
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
