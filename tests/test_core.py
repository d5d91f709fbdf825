import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import bisect_oracle
import lobtail
from lobtail.core import (
    Family,
    FitResult,
    GevParams,
    GpdParams,
    Method,
    Side,
    StableParams,
    bisect,
    refine_min,
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


def test_refine_min_polishes_between_the_best_neighbours():
    x, fx = refine_min(lambda t: (t - 0.35) ** 2, np.linspace(-1.0, 1.0, 11), 1e-12)
    assert x == pytest.approx(0.35, abs=1e-9)
    assert fx == pytest.approx(0.0, abs=1e-15)


def test_refine_min_keeps_the_grid_point_when_brent_ends_higher():
    # a spike exactly at a grid point that Brent's iterates never land on
    x, fx = refine_min(lambda t: 0.0 if t == 0.0 else 1.0 + t * t,
                       [-2.0, -1.0, 0.0, 1.0, 2.0], 1e-12)
    assert (x, fx) == (0.0, 0.0)


def test_refine_min_takes_the_first_point_on_a_tie():
    x, fx = refine_min(lambda t: 0.0 if t in (-1.0, 1.0) else 1.0,
                       [-2.0, -1.0, 0.0, 1.0, 2.0], 1e-12)
    assert (x, fx) == (-1.0, 0.0)


def test_refine_min_returns_when_xatol_is_below_the_ulp():
    # near 1e6 an ulp is 1.2e-10: the relative term, 1.5e-8 * 1e6, stops the
    # polish long before the bracket could shrink to 1e-14
    grid = 1e6 + np.linspace(-1.0, 1.0, 11)
    calls = []
    x, fx = refine_min(lambda t: calls.append(t) or (t - 1e6 - 0.35) ** 2, grid, 1e-14)
    assert abs(x - (1e6 + 0.35)) <= 1e-7 * 1e6
    assert fx <= min((t - 1e6 - 0.35) ** 2 for t in grid)
    assert len(calls) <= len(grid) + 12


def test_bisect_finds_each_elements_root():
    roots = np.array([0.1, -3.0, 2.5, 7.0, -9.5])
    x = bisect(lambda mid: mid**3 < roots**3, np.full(5, -10.0), np.full(5, 10.0), 60)
    np.testing.assert_allclose(x, roots, rtol=0, atol=1e-12)
    # decreasing in mid: the root lies right where the function is still positive
    x = bisect(lambda mid: np.exp(-mid) > 0.5, np.zeros(1), np.full(1, 5.0), 60)
    assert x[0] == pytest.approx(np.log(2.0), abs=1e-12)


def test_bisect_zero_steps_returns_midpoints():
    def right(mid):
        raise AssertionError("no halving expected")

    x = bisect(right, np.array([0.0, -4.0]), np.array([1.0, 2.0]), 0)
    assert x.tolist() == [0.5, -1.0]


def test_bisect_stops_only_when_no_bracket_moves():
    # roots inside, at either end and outside the bracket: for the first
    # steps only b moves in one element and only a in another
    roots = np.array([0.3, -2.0, 2.0, 5.0, -7.0])
    a, b = np.full(5, -2.0), np.full(5, 2.0)
    calls = []

    def right(mid):
        calls.append(1)
        return mid < roots

    got = bisect(right, a, b, 80)
    assert len(calls) < 80
    assert np.array_equal(got, bisect_oracle.bisect(lambda mid: mid < roots, a, b, 80))


# brackets whose ends are NaN, infinite or equal, beside an ordinary bracket
# [-2, 2], so that the loop can only stop once the ordinary one is frozen too
_EDGE_BRACKETS = {
    "nan": ([np.nan, 0.0, np.nan], [1.0, np.nan, np.nan]),
    "inf": ([-np.inf, -np.inf, 0.0, -np.inf, np.inf], [np.inf, 1.0, np.inf, -np.inf, np.inf]),
    "point": ([0.5, -2.0, 3.0], [0.5, -2.0, 3.0]),
}


@pytest.mark.parametrize("nan_goes_right", [False, True])
@pytest.mark.parametrize("kind", sorted(_EDGE_BRACKETS))
def test_bisect_matches_the_oracle_on_edge_brackets(kind, nan_goes_right):
    a, b = (np.array([*ends, end]) for ends, end in zip(_EDGE_BRACKETS[kind], (-2.0, 2.0)))
    roots = np.linspace(-1.5, 1.5, a.size)

    def right(mid):
        return ~(mid >= roots) if nan_goes_right else mid < roots

    calls = []
    with np.errstate(invalid="ignore"):  # -inf + inf
        got = bisect(lambda mid: calls.append(1) or right(mid), a, b, 80)
        want = bisect_oracle.bisect(right, a, b, 80)
    assert len(calls) < 80
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("wrap", [np.float64, np.array])
@pytest.mark.parametrize("ends, freezes", [((-1.0, 0.0), False), ((0.0, 1.0), True),
                                           ((0.25, 0.25), True), ((np.nan, 1.0), True),
                                           ((-np.inf, np.inf), True), ((-np.inf, 1.0), True)])
def test_bisect_matches_the_oracle_on_0d_brackets(ends, freezes, wrap):
    # 0-d brackets (numpy scalars and 0-d arrays); a bracket that
    # closes in on 0 from [-1, 0] halves through the subnormals, past 60 steps
    a, b = map(wrap, ends)
    calls = []
    with np.errstate(invalid="ignore"):  # -inf + inf
        got = bisect(lambda mid: calls.append(1) or mid < 1 / 3, a, b, 60)
        want = bisect_oracle.bisect(lambda mid: mid < 1 / 3, a, b, 60)
    assert np.ndim(got) == 0 and (len(calls) < 60) == freezes
    assert np.array_equal(got, want, equal_nan=True)


def test_every_exported_name_resolves():
    modules = [lobtail] + [importlib.import_module(f"lobtail.{m.name}")
                           for m in pkgutil.iter_modules(lobtail.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


# public names kept for a test alone: fit_gpd_mom is the closed form that
# acceptance test 02 checks
_TEST_ONLY_PUBLIC = {"fit_gpd_mom"}


def test_every_public_name_has_a_caller_in_the_package():
    # a name in a module's __all__ must be read somewhere in src/lobtail;
    # its definition, its __all__ entry and __init__.py do not count
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(lobtail.__file__).parent.glob("*.py") if path.stem != "__init__"}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    public = {name for stem in trees
              for name in getattr(importlib.import_module(f"lobtail.{stem}"), "__all__", ())}
    assert sorted(public - used) == sorted(_TEST_ONLY_PUBLIC)
