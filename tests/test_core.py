import pytest

from lobtail.core import (
    Family,
    FitResult,
    GevParams,
    GpdParams,
    Method,
    Side,
    StableParams,
)

from conftest import make_key, make_series


def test_side_has_exactly_two_values():
    assert {s.name for s in Side} == {"BID", "ASK"}


def test_series_key_validation():
    with pytest.raises(ValueError):
        make_key(level=0)
    with pytest.raises(ValueError):
        make_key(level=6)
    with pytest.raises(ValueError):
        make_key(resolution_s=0)


def test_series_key_structural_equality():
    assert make_key() == make_key()
    assert make_key(level=2) != make_key(level=3)


def test_volume_series_is_immutable():
    s = make_series([1.0, 2.0])
    with pytest.raises(ValueError):
        s.values[0] = 9.0


def test_param_range_validation():
    with pytest.raises(ValueError):
        StableParams(alpha=0.0, beta=0.0, gamma=1.0, delta=0.0)
    with pytest.raises(ValueError):
        StableParams(alpha=2.1, beta=0.0, gamma=1.0, delta=0.0)
    with pytest.raises(ValueError):
        StableParams(alpha=1.5, beta=1.2, gamma=1.0, delta=0.0)
    with pytest.raises(ValueError):
        StableParams(alpha=1.5, beta=0.0, gamma=0.0, delta=0.0)
    with pytest.raises(ValueError):
        GevParams(mu=0.0, sigma=0.0, gamma=0.1)
    with pytest.raises(ValueError):
        GpdParams(gamma=0.1, sigma=-1.0)
    # valid boundary cases construct fine
    StableParams(alpha=2.0, beta=-1.0, gamma=1e-9, delta=-5.0)
    GevParams(mu=-1.0, sigma=1e-12, gamma=0.0)


def test_fit_result_pairing_grid():
    params = StableParams(alpha=1.5, beta=0.0, gamma=1.0, delta=0.0)
    FitResult(family=Family.STABLE, method=Method.MCCULLOCH, params=params,
              sample_size=10, converged=True)
    with pytest.raises(ValueError):
        FitResult(family=Family.STABLE, method=Method.MLE, params=params,
                  sample_size=10, converged=True)
    with pytest.raises(ValueError):
        FitResult(family=Family.GEV, method=Method.PICKANDS,
                  params=GevParams(0.0, 1.0, 0.0), sample_size=10, converged=True)


def test_fit_result_params_family_match():
    with pytest.raises(ValueError):
        FitResult(family=Family.GPD, method=Method.MLE,
                  params=GevParams(0.0, 1.0, 0.0), sample_size=10, converged=True)


def test_fit_result_ks_range():
    params = GpdParams(gamma=0.1, sigma=1.0)
    with pytest.raises(ValueError):
        FitResult(family=Family.GPD, method=Method.MLE, params=params,
                  sample_size=5, converged=True, ks_statistic=1.5)
    with pytest.raises(ValueError):
        FitResult(family=Family.GPD, method=Method.MLE, params=params,
                  sample_size=5, converged=True, ks_pvalue=-0.1)
