import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import epm_oracle
import shape_zero_oracle
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from lobtail.core import EstimationError, GpdParams, Method
from lobtail.gpd import (
    epm_pair_solve,
    fit_gpd_epm,
    fit_gpd_mle,
    fit_gpd_mom,
    fit_gpd_pickands,
    gpd_cdf,
    gpd_quantile,
    gpd_sample,
    pickands_raw,
    _observed_information,
)

sys.path.insert(0, str(Path(__file__).parent / "data"))
from make_golden import simd_class  # noqa: E402


# ---------------------------------------------------------------------------
# distribution functions
# ---------------------------------------------------------------------------


def test_cdf_unit_heavy_tail():
    p = GpdParams(gamma=1.0, sigma=1.0)
    assert gpd_cdf(1.0, p) == pytest.approx(0.5)


def test_exponential_branch_matches_oracle():
    p = GpdParams(gamma=0.0, sigma=1.7)
    for x in np.linspace(0.1, 12.0, 10):
        assert gpd_cdf(x, p) == pytest.approx(1.0 - math.exp(-x / 1.7), abs=1e-12)


@pytest.mark.parametrize("g", [5e-324, -5e-324, 1e-310, 1e-301])
def test_vanishing_shape_is_exponential(g):
    # a subnormal shape used to give quantiles [0, 1, 2] against [0.105, 0.693, 2.303]
    exponential, vanishing = GpdParams(gamma=0.0, sigma=1.0), GpdParams(gamma=g, sigma=1.0)
    q = np.linspace(0.01, 0.99, 99)
    assert np.array_equal(gpd_quantile(q, vanishing), gpd_quantile(q, exponential))
    x = np.linspace(-1.0, 12.0, 131)
    assert np.array_equal(gpd_cdf(x, vanishing), gpd_cdf(x, exponential))


def test_negative_shape_bounded_support():
    p = GpdParams(gamma=-0.5, sigma=1.0)
    # support is [0, 2]
    assert gpd_cdf(2.0, p) == pytest.approx(1.0)
    assert gpd_cdf(3.0, p) == 1.0
    assert gpd_cdf(-1.0, p) == 0.0


def test_quantile_roundtrip_with_location():
    p = GpdParams(gamma=0.3, sigma=2.0, mu=10.0)
    for q in (0.05, 0.5, 0.95):
        assert gpd_cdf(gpd_quantile(q, p), p) == pytest.approx(q, abs=1e-12)
    with pytest.raises(ValueError):
        gpd_quantile(1.0, p)


def test_sample_deterministic():
    p = GpdParams(gamma=0.2, sigma=1.0)
    assert np.array_equal(gpd_sample(p, 50, 7), gpd_sample(p, 50, 7))


# ---------------------------------------------------------------------------
# MLE
# ---------------------------------------------------------------------------


def test_mle_recovers_heavy_shape():
    p = GpdParams(gamma=0.5, sigma=1.0)
    ghats = [fit_gpd_mle(gpd_sample(p, 10_000, 100 + r)).params.gamma for r in range(20)]
    assert np.mean(ghats) == pytest.approx(0.5, abs=3 * 1.5 / math.sqrt(10_000))


def test_mle_exponential_data():
    p = GpdParams(gamma=0.0, sigma=2.0)
    fits = [fit_gpd_mle(gpd_sample(p, 10_000, 200 + r)) for r in range(20)]
    assert np.mean([f.params.gamma for f in fits]) == pytest.approx(0.0, abs=0.03)
    assert np.mean([f.params.sigma for f in fits]) == pytest.approx(2.0, abs=0.06)


def test_mle_tau_zero_continuity_path():
    # exact exponential quantiles: the profile optimum sits at tau = 0 and
    # the continuity rule returns the sample mean as the scale
    n = 2000
    ps = (2 * np.arange(1, n + 1) - 1) / (2 * n)
    y = -np.log1p(-ps)
    fit = fit_gpd_mle(y)
    assert abs(fit.params.gamma) < 5e-3
    if fit.params.gamma == 0.0:
        assert fit.params.sigma == pytest.approx(float(y.mean()), rel=1e-12)
    else:
        assert fit.params.sigma == pytest.approx(float(y.mean()), rel=1e-2)


def test_mle_on_the_shape_edge_is_noted_as_a_boundary_solution():
    # the profile minimum sits on the gamma = -1 edge, and the polish stops
    # about 1e-8 short of it (gamma -0.99999998775)
    fit = fit_gpd_mle(np.ceil(gpd_sample(GpdParams(-0.25, 2), 5, 0)))
    assert fit.params.gamma == pytest.approx(-1.0, abs=1e-7)
    assert not fit.converged
    assert "boundary solution: shape at the gamma >= -1 constraint" in fit.notes


def test_mle_requires_positive_excesses():
    with pytest.raises(EstimationError):
        fit_gpd_mle(np.array([0.5, -0.1, 1.0, 2.0, 0.2]))
    with pytest.raises(EstimationError):
        fit_gpd_mle(np.array([1.0, 2.0]))


@pytest.mark.parametrize("g", [0.0, 5e-5, -5e-5, 2e-4, 0.01, 0.38])
def test_observed_information_matches_numerical_hessian(g):
    # mpmath's central-difference Hessian in 40 digits, across the shape-0 limit
    y = gpd_sample(GpdParams(gamma=0.4, sigma=1.3), 1000, 31)
    want = np.array(shape_zero_oracle.gpd_observed_information(y, g, 1.25))
    info = _observed_information(y, g, 1.25)
    assert np.all(np.abs(info - want) <= 1e-10 * np.abs(want))


def test_mle_covariance_close_to_asymptotic():
    p = GpdParams(gamma=0.5, sigma=1.0)
    fit = fit_gpd_mle(gpd_sample(p, 100_000, 55))
    # large-sample MLE covariance, valid for gamma > -1/2, order (gamma, sigma)
    g, s = fit.params.gamma, fit.params.sigma
    want = np.array([[(1 + g) ** 2, -(1 + g) * s], [-(1 + g) * s, 2 * (1 + g) * s**2]]) / 100_000
    assert fit.covariance is not None
    assert np.all(np.abs(fit.covariance - want) / np.abs(want) < 0.1)


# ---------------------------------------------------------------------------
# method of moments
# ---------------------------------------------------------------------------


def test_mom_exponential_consistent_point():
    # sample with mean 1 and unbiased variance 1
    a = math.sqrt(0.5)
    fit = fit_gpd_mom(np.array([1 - a, 1 + a]))
    assert fit.params.gamma == pytest.approx(0.0, abs=1e-15)
    assert fit.params.sigma == pytest.approx(1.0, rel=1e-15)


def test_mom_hand_case():
    # mean 1, unbiased variance 2
    fit = fit_gpd_mom(np.array([0.0, 2.0]))
    assert fit.params.gamma == pytest.approx(0.25)
    assert fit.params.sigma == pytest.approx(0.75)
    assert fit.method is Method.MOM
    assert any("1/4" in note for note in fit.notes)


def test_mom_recovers_shape():
    p = GpdParams(gamma=0.2, sigma=1.0)
    fit = fit_gpd_mom(gpd_sample(p, 100_000, 77))
    assert fit.params.gamma == pytest.approx(0.2, abs=0.02)


def test_mom_equals_brute_force_moment_match():
    rng = np.random.default_rng(8)
    for _ in range(200):
        y = rng.exponential(rng.uniform(0.5, 3.0), size=rng.integers(5, 80))
        fit = fit_gpd_mom(y)
        m = y.mean()
        s2 = y.var(ddof=1)
        assert fit.params.gamma == pytest.approx(0.5 * (1 - m * m / s2), abs=1e-12)
        assert fit.params.sigma == pytest.approx(0.5 * m * (1 + m * m / s2), abs=1e-12)


def test_mom_zero_variance():
    with pytest.raises(EstimationError):
        fit_gpd_mom(np.full(10, 3.0))


def test_mom_scale_equivariance_exact():
    rng = np.random.default_rng(9)
    y = rng.exponential(1.0, 200)
    c = 4.0
    f0, f1 = fit_gpd_mom(y), fit_gpd_mom(c * y)
    assert f1.params.gamma == pytest.approx(f0.params.gamma, abs=1e-14)
    assert f1.params.sigma == pytest.approx(c * f0.params.sigma, rel=1e-14)


# ---------------------------------------------------------------------------
# Pickands
# ---------------------------------------------------------------------------


def test_pickands_raw_hand_case():
    g_raw, s_raw = pickands_raw(2.0, 3.0)
    assert g_raw == pytest.approx(1.0)
    assert s_raw == pytest.approx(4.0)


def test_pickands_raw_zero_shape():
    g_raw, s_raw = pickands_raw(2.0, 4.0)
    assert g_raw == 0.0
    assert s_raw == pytest.approx(2.0 / math.log(2.0))


def test_pickands_sign_bridge():
    # the analytic formulas estimate the opposite-sign shape; the fit
    # negates on output
    p = GpdParams(gamma=0.5, sigma=1.0)
    ghats = [fit_gpd_pickands(gpd_sample(p, 100_000, 300 + r)).params.gamma
             for r in range(20)]
    assert np.mean(ghats) == pytest.approx(0.5, abs=0.1)


def test_pickands_scale_equivariance():
    y = gpd_sample(GpdParams(gamma=0.3, sigma=1.0), 500, 17)
    c = 2.5
    f0, f1 = fit_gpd_pickands(y), fit_gpd_pickands(c * y)
    assert f1.params.gamma == pytest.approx(f0.params.gamma, abs=1e-14)
    assert f1.params.sigma == pytest.approx(c * f0.params.sigma, rel=1e-12)


def test_pickands_rejects_degenerate_order_stats():
    with pytest.raises(EstimationError):
        fit_gpd_pickands(np.array([1.0, 1.0, 1.0, 1.0]))
    with pytest.raises(EstimationError):
        fit_gpd_pickands(np.array([1.0, 2.0, 3.0]))  # J < 4


# ---------------------------------------------------------------------------
# EPM
# ---------------------------------------------------------------------------


def test_epm_pair_degenerate_is_exponential():
    # d = 0 happens exactly when both order statistics match one exponential
    s_true = 1.4
    c_i, c_j = math.log(0.5), math.log(0.25)
    x_i, x_j = -s_true * c_i, -s_true * c_j
    g, s, ok = epm_pair_solve([x_i], [x_j], [c_i], [c_j])
    assert ok[0]
    assert g[0] == 0.0
    assert s[0] == pytest.approx(s_true, rel=1e-12)


def test_epm_pair_batch_matches_each_pair_alone():
    # exponential pairs (d = 0), solvable pairs of both shape signs and
    # reversed pairs without a root, solved in one batch and one at a time
    xs = np.sort(gpd_sample(GpdParams(gamma=0.3, sigma=1.0), 12, 3))
    c = np.log1p(-np.arange(1, 13) / 13)
    ii, jj = np.triu_indices(12, k=1)
    x_i = np.concatenate([xs[ii], xs[jj], -1.4 * c[ii]])
    x_j = np.concatenate([xs[jj], xs[ii], -1.4 * c[jj]])
    c_i, c_j = np.tile(c[ii], 3), np.tile(c[jj], 3)
    g, s, ok = epm_pair_solve(x_i, x_j, c_i, c_j)
    is_exp = c_j * x_i - c_i * x_j == 0.0
    assert np.any(is_exp & ok) and np.any(~ok)
    assert np.any(~is_exp & ok & (g > 0)) and np.any(~is_exp & ok & (g < 0))
    for k in range(x_i.size):
        alone = epm_pair_solve(x_i[k], x_j[k], c_i[k], c_j[k])
        assert np.array_equal(alone[0], g[k:k + 1])
        assert np.array_equal(alone[1], s[k:k + 1], equal_nan=True)
        assert np.array_equal(alone[2], ok[k:k + 1])


def _fit_pairs(y, start_percentile=0.0):
    # the pairs fit_gpd_epm solves: ranks above the start percentile, values
    # strictly increasing, with c = ln(1 - r/(J + 1)) of rank r
    xs = np.sort(np.asarray(y, dtype=float))
    j = xs.size
    perc = np.arange(1, j + 1) / (j + 1)
    m = int(np.count_nonzero(perc > start_percentile))
    tail, c = xs[j - m:], np.log1p(-perc[j - m:])
    ii, jj = np.triu_indices(m, k=1)
    keep = tail[ii] < tail[jj]
    return tail[ii[keep]], tail[jj[keep]], c[ii[keep]], c[jj[keep]]


def _exponential_pairs():
    # pairs on one exponential (x = -1.4 c), where d = c_j x_i - c_i x_j is 0
    # or a rounding error, and each value paired with itself (NaN brackets)
    c = np.log1p(-np.arange(1, 41) / 41)
    x = -1.4 * c
    ii, jj = np.triu_indices(40, k=1)
    return (np.concatenate([x[ii], x]), np.concatenate([x[jj], x]),
            np.concatenate([c[ii], c]), np.concatenate([c[jj], c]))


def _reversed_pairs():
    # the pairs of a tied sample with their values swapped: no root
    x_i, x_j, c_i, c_j = _fit_pairs(np.round(gpd_sample(GpdParams(gamma=0.2, sigma=3.0), 40, 5)))
    return x_j, x_i, c_i, c_j


# name -> (x_i, x_j, c_i, c_j) builder: GpdCompare-shaped samples (its four
# shapes at n = 500, its three start percentiles), a rounded sample with
# zeros (pairs with no root), reversed and exponential pairs, and a tied
# integer sample whose pairs took up to 100 halvings under bisection
_ORACLE_CASES = {
    **{f"gpd{g:+.1f}-start{sp}": (lambda g=g, sp=sp: _fit_pairs(
        gpd_sample(GpdParams(gamma=g, sigma=1.0), 500, 3), sp))
       for g in (-0.3, 0.0, 0.2, 0.5) for sp in (0.0, 0.5, 0.75)},
    "zeros": lambda: _fit_pairs(np.round(gpd_sample(GpdParams(gamma=0.2, sigma=3.0), 40, 2))),
    "reversed": _reversed_pairs,
    "exponential": _exponential_pairs,
    "tied": lambda: _fit_pairs(np.round(gpd_sample(GpdParams(gamma=0.2, sigma=3.0), 300, 5)) + 1),
}


def _oracle_ok(x_i, x_j, c_i, c_j, g, s, ok):
    """The oracle's (shape, scale, ok), once ``ok`` is checked against its ok.

    The two agree except on two classes of pairs where the oracle's verdict
    is rounding noise.  Near-exponential pairs, d = c_j x_i - c_i x_j within
    rounding (|d| <= 4 eps |c_i x_j|), must be ok, and with the exponential
    answer where d is also small beside the gap (|d| <= 64 eps
    |c_i (x_j - x_i)|): the root w is about 2 (q - r) / (q (q - 1)), far from
    0 when q and r are a few ulps above 1.  A pair whose root lies on an end
    of the oracle's bracket may take either verdict: delta within 4 eps of
    the cut x_j (1 + 1e-13), or at or past the end -1e-300 that stands in
    for delta = 0, that is delta in [-1e-300, 0) or the oracle's value there,
    c_i (L_j - r L_i) with L = log1p(1e300 x), within 4 eps (L_j + r L_i)
    of 0.  The last happens for q and r within about 1e-12 of 1, where the
    root w is near 700.
    """
    g_ref, s_ref, ok_ref = epm_oracle.epm_pair_solve(x_i, x_j, c_i, c_j)
    eps = np.finfo(float).eps
    with np.errstate(all="ignore"):
        d = np.abs(c_j * x_i - c_i * x_j)
        near_exp = d <= 4.0 * eps * np.abs(c_i * x_j)
        exp_answer = near_exp & (d <= 64.0 * eps * np.abs(c_i * (x_j - x_i)))
        delta = np.where(ok_ref, s_ref / g_ref, s / g)  # raw s = g delta, of whichever kept it
        cut = x_j * (1.0 + 1e-13)
        l_i, l_j, r = np.log1p(1e300 * x_i), np.log1p(1e300 * x_j), c_j / c_i
        on_cut = ((np.abs(delta - cut) <= 4.0 * eps * cut)
                  | ((delta >= -1e-300) & (delta < 0.0))
                  | (np.abs(l_j - r * l_i) <= 4.0 * eps * (l_j + r * l_i)))
    s_exp = -x_i[exp_answer] / c_i[exp_answer]
    assert np.all(ok[near_exp])
    assert np.all(np.abs(g[exp_answer]) <= 1e-13)
    assert np.all(np.abs(s[exp_answer] - s_exp) <= 1e-13 * s_exp)
    assert np.array_equal(ok[~near_exp & ~on_cut], ok_ref[~near_exp & ~on_cut])
    return g_ref, s_ref, ok_ref


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_epm_pair_solve_matches_the_bisection_oracle(case):
    x_i, x_j, c_i, c_j = _ORACLE_CASES[case]()
    g, s, ok = epm_pair_solve(x_i, x_j, c_i, c_j)
    g_ref, s_ref, ok_ref = _oracle_ok(x_i, x_j, c_i, c_j, g, s, ok)
    same, both = ok == ok_ref, ok & ok_ref
    assert np.array_equal(g[same] == 0.0, g_ref[same] == 0.0)  # exponential and dropped pairs
    assert np.array_equal(np.isnan(s[same]), np.isnan(s_ref[same]))
    for got, want in ((g[both], g_ref[both]), (s[both], s_ref[both])):
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(np.abs(want), 1.0))
    if case == "reversed":
        assert np.count_nonzero(~ok) > np.count_nonzero(ok)
    elif case == "exponential":
        # the sign test drops some of these on rounding noise; the solve keeps them
        assert np.any(~ok_ref) and np.all(ok) and np.any(ok & (g == 0.0))
    else:
        assert np.any(ok & (g > 0)) and np.any(ok & (g < 0))


@settings(max_examples=300, deadline=None)
@given(q=st.floats(1.0, 1e6, exclude_min=True), r=st.floats(1.0, 1e6, exclude_min=True))
@example(q=3.283408509645145, r=3.2834085096451453)  # one ulp apart: near-exponential
@example(q=1.5, r=28.0)  # the root lies on the oracle's cut delta = x_j (1 + 1e-13)
@example(q=1.0000000000000004, r=1.0000000000000002)  # d a rounding error, root w = 1.59
# roots near w = 700, where the oracle's value at delta = -1e-300 is rounding noise
@example(q=1.0000000000015121, r=1.0000000000000022)
@example(q=1.0000000000008036, r=1.000000000000001)
def test_epm_pair_root_is_nonzero_on_the_side_of_q_minus_r(q, r):
    assume(q != r)
    # x_i = 1 and c_i = -1, so the raw shape g is -w exactly
    args = [np.array([v]) for v in (1.0, q, -1.0, -r)]
    g, s, ok = epm_pair_solve(*args)
    _oracle_ok(*args, g, s, ok)
    if not ok[0]:
        return  # no root with a finite shape and a positive scale
    w, a, b = -float(g[0]), r - 1.0, q - 1.0
    assert np.sign(w) == np.sign(q - r)
    e = math.expm1(-w)
    log_term = math.log1p(-b * e)
    slope = b * (1.0 + e) / (1.0 - b * e) - a
    chi = log_term - a * w
    rounding = np.finfo(float).eps * (abs(log_term) + abs(a * w) + abs(w * slope))
    assert abs(chi) <= 4.0 * rounding, (chi, rounding)


def test_epm_pair_whose_start_halvings_run_out_is_not_ok():
    # q < r with the root within rounding of delta = x_j: every halving of the
    # start toward ln(1 - 1/q) leaves chi >= 0, and a start kept there would
    # come back ok with a wrong root
    g, s, ok = epm_pair_solve([1.0], [2.0], [math.log1p(-1 / 301)], [math.log1p(-49 / 301)])
    assert not ok[0] and g[0] == 0.0 and np.isnan(s[0])


@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
def test_epm_newton_stops_below_the_cap_in_every_block(monkeypatch, tied):
    # a fit of 300 draws at start percentile 0 spans several blocks; rounded
    # (plus 1, so no zeros) they tie, and under bisection some of their pairs
    # took every one of 100 halvings
    import lobtail.gpd as gpd_mod

    y = gpd_sample(GpdParams(gamma=0.2, sigma=3.0), 300, 5)
    if tied:
        y = np.round(y) + 1
    steps = []  # Newton steps per epm_pair_solve call (one call per chunk)
    solve, newton_step = gpd_mod.epm_pair_solve, gpd_mod._chi_newton_step

    def counted_solve(*args):
        steps.append(0)
        return solve(*args)

    def counted_step(w, a, b):
        steps[-1] += 1
        return newton_step(w, a, b)

    monkeypatch.setattr(gpd_mod, "epm_pair_solve", counted_solve)
    monkeypatch.setattr(gpd_mod, "_chi_newton_step", counted_step)
    fit = fit_gpd_epm(y, start_percentile=0.0)
    monkeypatch.undo()

    chunks = -(-(y.size * (y.size - 1) // 2) // gpd_mod._EPM_BLOCK)
    assert len(steps) == chunks > 1
    assert max(steps) < gpd_mod._EPM_NEWTON_STEPS  # every chunk stops at its own fixed point
    assert fit == fit_gpd_epm(y, start_percentile=0.0)


# samples whose fit must not depend on the block size: tied values (the tie
# filter drops pairs), values with zeros (pairs with no root with a finite
# shape and a positive scale) and the thinned tied fit pinned above
# (draws, sample seed, fit arguments, pair cap) of rounded GPD(0.2, 3) samples
_BLOCKING_CASES = {
    "tied": (40, 5, {}, None),
    "unsolvable": (40, 2, {"start_percentile": 0.0}, None),
    "thinned": (400, 5, {"seed": 1}, 500),
}


@pytest.mark.parametrize("block", [7, 10**9])
@pytest.mark.parametrize("case", sorted(_BLOCKING_CASES))
def test_epm_fit_does_not_depend_on_the_block_size(monkeypatch, case, block):
    import lobtail.gpd as gpd_mod

    n, seed, kwargs, cap = _BLOCKING_CASES[case]
    if cap is not None:
        monkeypatch.setattr(gpd_mod, "EPM_PAIR_CAP", cap)
    y = np.round(gpd_sample(GpdParams(gamma=0.2, sigma=3.0), n, seed))
    want = fit_gpd_epm(y, **kwargs)
    monkeypatch.setattr(gpd_mod, "_EPM_BLOCK", block)
    assert fit_gpd_epm(y, **kwargs) == want
    if case == "unsolvable":
        assert any("dropped (no root with a finite shape and a positive scale)" in n
                   for n in want.notes)
    if case == "thinned":
        assert any("thinned" in n for n in want.notes)


def test_epm_temporaries_are_bounded_by_the_block():
    # 500 draws at start percentile 0 give 124,750 pairs, so one full-length
    # float64 array of the pairs is 1 MB; solved in one piece, the fit peaked
    # at 22 MB, solved in blocks of materialised pairs at 5.4 MB, and
    # streamed (two arrays of solutions and one chunk) at 3.5 MB
    y = gpd_sample(GpdParams(gamma=0.2, sigma=1.0), 500, 11)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fit_gpd_epm(y, start_percentile=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, peak


def test_epm_single_pair_matches_pickands():
    # with the exact percentile constants ln(1/2), ln(1/4) the pair solution
    # reduces to the analytic special case
    y = gpd_sample(GpdParams(gamma=-0.3, sigma=1.0), 400, 23)
    xs = np.sort(y)
    j = y.size
    x_half, x_3q = xs[j // 2 - 1], xs[(3 * j) // 4 - 1]
    g, s, ok = epm_pair_solve([x_half], [x_3q], [math.log(0.5)], [math.log(0.25)])
    g_raw, s_raw = pickands_raw(x_half, x_3q)
    assert ok[0]
    assert g[0] == pytest.approx(g_raw, abs=1e-8)
    assert s[0] == pytest.approx(s_raw, abs=1e-8)


def test_epm_recovers_both_tail_signs():
    for g_true in (0.4, -0.3):
        p = GpdParams(gamma=g_true, sigma=1.0)
        fit = fit_gpd_epm(gpd_sample(p, 500, 41), start_percentile=0.5)
        assert fit.params.gamma == pytest.approx(g_true, abs=0.2)
        assert fit.method is Method.EPM


def test_epm_scale_equivariance():
    y = gpd_sample(GpdParams(gamma=0.2, sigma=1.0), 300, 19)
    c = 3.0
    f0 = fit_gpd_epm(y, start_percentile=0.5)
    f1 = fit_gpd_epm(c * y, start_percentile=0.5)
    assert f1.params.gamma == pytest.approx(f0.params.gamma, abs=1e-10)
    assert f1.params.sigma == pytest.approx(c * f0.params.sigma, rel=1e-10)


def test_epm_start_percentile_filters_pairs():
    y = gpd_sample(GpdParams(gamma=0.1, sigma=1.0), 60, 3)
    with pytest.raises(EstimationError):
        fit_gpd_epm(y, start_percentile=0.999)


def test_epm_thinning_is_seeded_and_deterministic(monkeypatch):
    import lobtail.gpd as gpd_mod

    monkeypatch.setattr(gpd_mod, "EPM_PAIR_CAP", 50_000)
    y = gpd_sample(GpdParams(gamma=0.3, sigma=1.0), 2100, 5)
    f0 = fit_gpd_epm(y, start_percentile=0.0, seed=9)
    f1 = fit_gpd_epm(y, start_percentile=0.0, seed=9)
    f2 = fit_gpd_epm(y, start_percentile=0.0, seed=10)
    assert f0.params == f1.params
    assert any("thinned" in n for n in f0.notes)
    assert f2.params != f0.params  # different thinning seed, different pair subset


def test_epm_thinning_keeps_every_part_of_the_pair_range(monkeypatch):
    import lobtail.gpd as gpd_mod

    monkeypatch.setattr(gpd_mod, "EPM_PAIR_CAP", 1000)
    m = 4200
    total = m * (m - 1) // 2
    rows, cols = _streamed_pairs(m, 3)
    assert np.all((0 <= rows) & (rows < cols) & (cols < m))
    linear = rows * (2 * m - rows - 1) // 2 + cols - rows - 1
    assert np.all(np.diff(linear) > 0)
    share = np.histogram(linear, bins=10, range=(0, total))[0] / linear.size
    assert np.all(np.abs(share - 0.1) <= 0.03), share
    again = _streamed_pairs(m, 3)
    assert np.array_equal(again[0], rows) and np.array_equal(again[1], cols)
    other = _streamed_pairs(m, 4)
    assert not (np.array_equal(other[0], rows) and np.array_equal(other[1], cols))
    # the fit draws the same pairs and reports how many it kept
    y = gpd_sample(GpdParams(gamma=0.3, sigma=1.0), m, 5)
    fit = fit_gpd_epm(y, start_percentile=0.0, seed=3)
    assert f"pair set thinned to {rows.size} of {total} (seed 3)" in fit.notes


# (pair cap, m): unthinned grids (the cap is not reached) and thinned ones;
# keep >= 1/3 (the last case) takes numpy's other geometric sampler
_PAIR_ORDER_CASES = [(None, 2), (None, 3), (None, 129), (None, 500), (1000, 4200), (10_000, 200)]


@pytest.mark.parametrize("block", [1, 7, None, 10**6],
                         ids=["block1", "block7", "default", "one-chunk"])
@pytest.mark.parametrize("cap, m", _PAIR_ORDER_CASES,
                         ids=[f"{cap or 'all'}-{m}" for cap, m in _PAIR_ORDER_CASES])
def test_epm_pair_stream_matches_the_order_oracle(monkeypatch, cap, m, block):
    # the stream, mapped to (row, col) as the fit maps it, is the pair
    # sequence that materialising every pair at once gives, whatever the
    # chunk size, down to one pair and up to one chunk for the whole grid
    import lobtail.gpd as gpd_mod

    if block is not None:
        monkeypatch.setattr(gpd_mod, "_EPM_BLOCK", block)
    if cap is not None:
        monkeypatch.setattr(gpd_mod, "EPM_PAIR_CAP", cap)
    seed = None if cap is None else 3
    want_r, want_c = epm_oracle.pair_indices(m, seed, cap)
    rows, cols = _streamed_pairs(m, seed)
    assert np.array_equal(rows, want_r) and np.array_equal(cols, want_c)


def test_epm_thinned_fit_memory_is_bounded(monkeypatch):
    # 1,000 draws at start percentile 0 give 499,500 pairs, thinned to about
    # 200,000: 3.2 MB of solutions.  Drawing every gap at once and keeping
    # the indices through the medians peaked at 11.2 MB, and keeping the
    # drawn indices through the solve at 8.0 MB.  Streamed, the fit peaks at
    # 4.8 MB: the solutions and one chunk's temporaries; the bound leaves
    # 1.2 MB of margin
    import lobtail.gpd as gpd_mod

    monkeypatch.setattr(gpd_mod, "EPM_PAIR_CAP", 200_000)
    y = gpd_sample(GpdParams(gamma=0.2, sigma=1.0), 1000, 5)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fit = fit_gpd_epm(y, start_percentile=0.0, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert any("thinned" in n for n in fit.notes)
    assert peak < 6e6, peak


# per seed: the pairs the thinning draws, and the (gamma, sigma) reprs of the
# thinned fit of one tied sample in each SIMD class (numpy's AVX-512 loops
# round differently from the others)
_THINNED_TIED_FITS = {
    0: (455, {"avx512": ("0.3401322089493753", "2.5396755336372396"),
              "baseline": ("0.3401322089493753", "2.539675533637241")}),
    1: (511, {"avx512": ("0.3621158499744698", "2.5272564043561045"),
              "baseline": ("0.36211584997446966", "2.5272564043561045")}),
    2: (545, {"avx512": ("0.36812138600603694", "2.4668863945484008"),
              "baseline": ("0.36812138600603694", "2.4668863945484003")}),
}


@pytest.mark.parametrize("seed", sorted(_THINNED_TIED_FITS))
def test_epm_thinned_fit_of_tied_sample_is_pinned(monkeypatch, seed):
    # no golden and no benchmark workload thins; rounding makes order
    # statistics tie, so the tie filter drops some of the drawn pairs, and
    # the note counts the pairs drawn before that filter
    import lobtail.gpd as gpd_mod

    monkeypatch.setattr(gpd_mod, "EPM_PAIR_CAP", 500)
    solved = []
    monkeypatch.setattr(gpd_mod, "epm_pair_solve",
                        lambda x_i, *rest: solved.append(x_i.size) or epm_pair_solve(x_i, *rest))
    y = np.round(gpd_sample(GpdParams(gamma=0.2, sigma=3.0), 400, 5))
    fit = fit_gpd_epm(y, seed=seed)
    drawn, params = _THINNED_TIED_FITS[seed]
    assert (repr(fit.params.gamma), repr(fit.params.sigma)) == params[simd_class()]
    assert fit.notes == (f"pair set thinned to {drawn} of 19900 (seed {seed})",)
    assert sum(chunk.size for chunk in gpd_mod._pair_chunks(200, seed)) == drawn != solved[0]


@pytest.mark.parametrize("m", [2, 3, 17, 500])
def test_epm_unthinned_pairs_match_the_linear_index_mapping(m):
    import lobtail.gpd as gpd_mod

    # every linear index of the strict upper triangle, in order, in full
    # chunks but the last
    chunks = list(gpd_mod._pair_chunks(m, None))
    assert [c.size for c in chunks[:-1]] == [gpd_mod._EPM_BLOCK] * (len(chunks) - 1)
    assert np.array_equal(np.concatenate(chunks), np.arange(m * (m - 1) // 2))


def _streamed_pairs(m, seed):
    # (row, col) of every pair of the stream, mapped from the linear index
    # through the pairs before each row as the fit maps them
    import lobtail.gpd as gpd_mod

    picks = np.concatenate(list(gpd_mod._pair_chunks(m, seed)))
    cum = np.arange(m) * (2 * m - np.arange(m) - 1) // 2
    rows = np.searchsorted(cum, picks, side="right") - 1
    return rows, picks - cum[rows] + rows + 1


def test_epm_minimum_sample():
    with pytest.raises(EstimationError):
        fit_gpd_epm(np.array([1.0, 2.0, 3.0]))


def test_mle_scale_equivariance():
    y = gpd_sample(GpdParams(gamma=0.3, sigma=1.0), 2000, 29)
    c = 5.0
    f0, f1 = fit_gpd_mle(y), fit_gpd_mle(c * y)
    assert f1.params.gamma == pytest.approx(f0.params.gamma, abs=1e-6)
    assert f1.params.sigma == pytest.approx(c * f0.params.sigma, rel=1e-6)


def test_all_fitters_return_valid_params_or_raise():
    # params dataclasses enforce the range invariants, so any fit that
    # returns at all has passed them
    rng = np.random.default_rng(123)
    fitters = (fit_gpd_mle, fit_gpd_mom, fit_gpd_pickands, fit_gpd_epm)
    for _ in range(30):
        n = int(rng.integers(4, 60))
        y = rng.exponential(rng.uniform(0.1, 10), n) + rng.uniform(0, 0.5)
        for fit_fn in fitters:
            try:
                fit = fit_fn(y)
            except EstimationError:
                continue
            assert fit.params.sigma > 0
            assert np.isfinite(fit.params.gamma)
