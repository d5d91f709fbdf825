"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.

Every tolerance is fixed here; the Monte Carlo checks run under frozen seeds
chosen once (the qualitative orderings they exhibit hold in expectation, not
just at the chosen seed).
"""

import itertools
import math
import time

import numpy as np
from scipy.stats import norm

from lobtail.core import GevParams, GpdParams, StableParams
from lobtail.diagnostics import hill_curve, hurst_dfa, mean_excess_curve
from lobtail.gev import sample_lmoments
from lobtail.gof import ks_statistic, ks_subsample_study
from lobtail.gpd import (
    epm_pair_solve,
    fit_gpd_mle,
    fit_gpd_mom,
    gpd_cdf,
    gpd_sample,
    pickands_raw,
)
from lobtail.simstudy import gev_method_comparison, gpd_method_comparison
from lobtail.stable import fit_mcculloch, stable_cdf, stable_sample

import test_cli as cli_helpers
from lobtail.core import Family, FitResult, Method


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")


def test_01_gpd_mle_recovery():
    start = time.time()
    results = {}
    for g_true in (-0.2, 0.0, 0.5):
        p = GpdParams(gamma=g_true, sigma=1.0)
        ghats = [fit_gpd_mle(gpd_sample(p, 10_000, 10_000 + r)).params.gamma
                 for r in range(100)]
        tol = 3.0 * (1.0 + g_true) / math.sqrt(10_000)
        results[g_true] = (float(np.mean(ghats)), tol)
    elapsed = time.time() - start
    ok = all(abs(mean - g) < tol for g, (mean, tol) in results.items()) and elapsed < 60
    _report(1, "gpd mle recovery", ok,
            f"means {[round(m, 4) for m, _ in results.values()]}, {elapsed:.1f}s")
    for g_true, (mean, tol) in results.items():
        assert abs(mean - g_true) < tol, f"gamma={g_true}: mean {mean} misses by > {tol}"
    assert elapsed < 60.0


def test_02_gpd_mom_closed_form():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(5, 200))
        y = rng.gamma(shape=rng.uniform(0.5, 3.0), scale=rng.uniform(0.2, 5.0), size=n)
        fit = fit_gpd_mom(y)
        m = math.fsum(y) / n
        s2 = math.fsum((v - m) ** 2 for v in y) / (n - 1)
        g_ref = 0.5 * (1.0 - m * m / s2)
        s_ref = 0.5 * m * (1.0 + m * m / s2)
        worst = max(worst, abs(fit.params.gamma - g_ref), abs(fit.params.sigma - s_ref))
    fit = fit_gpd_mom(gpd_sample(GpdParams(gamma=0.2, sigma=1.0), 100_000, 42))
    recovery_err = abs(fit.params.gamma - 0.2)
    ok = worst < 1e-12 and recovery_err < 0.02
    _report(2, "gpd mom closed form", ok,
            f"worst dev {worst:.2e}, recovery err {recovery_err:.4f}")
    assert worst < 1e-12
    assert recovery_err < 0.02


def test_03_pickands_epm_consistency():
    c_half, c_quarter = math.log(0.5), math.log(0.25)
    valid = 0
    worst = 0.0
    seed = 0
    while valid < 100 and seed < 400:
        y = gpd_sample(GpdParams(gamma=-0.3, sigma=1.0), 400, 30_000 + seed)
        seed += 1
        xs = np.sort(y)
        j = y.size
        x_half, x_3q = float(xs[j // 2 - 1]), float(xs[(3 * j) // 4 - 1])
        try:
            g_raw, s_raw = pickands_raw(x_half, x_3q)
        except Exception:
            continue
        g, s, ok_pair = epm_pair_solve([x_half], [x_3q], [c_half], [c_quarter])
        if not ok_pair[0]:
            continue
        valid += 1
        worst = max(worst, abs(g[0] - g_raw), abs(s[0] - s_raw))
    ok = valid == 100 and worst < 1e-8
    _report(3, "pickands/epm single-pair consistency", ok,
            f"{valid} valid samples, worst dev {worst:.2e}")
    assert valid == 100
    assert worst < 1e-8


def _study_stat(res, method, sp, param, key):
    for row in res.summary:
        if row["method"] == method and row["start_percentile"] == sp \
                and row["parameter"] == param:
            return row[key]
    raise KeyError((method, sp, param, key))


def test_04_gpd_method_comparison_study():
    start = time.time()
    seed = 2
    pos = gpd_method_comparison(GpdParams(gamma=0.5, sigma=1.0), n=500, replicates=20,
                                epm_start_percentiles=(0.0, 0.5, 0.75), seed=seed)
    medians = [
        _study_stat(pos, "mle", None, "gamma", "median"),
        _study_stat(pos, "pickands", None, "gamma", "median"),
        _study_stat(pos, "epm", 0.5, "gamma", "median"),
    ]
    agree = max(medians) - min(medians) <= 0.15

    neg = gpd_method_comparison(GpdParams(gamma=-0.3, sigma=1.0), n=500, replicates=20,
                                epm_start_percentiles=(0.0, 0.5, 0.75), seed=seed)
    epm_median = _study_stat(neg, "epm", 0.5, "gamma", "median")
    translated_up = epm_median > -0.3
    spreads = [_study_stat(neg, "epm", sp, "gamma", "variance") for sp in (0.0, 0.5, 0.75)]
    spread_decreasing = spreads[0] > spreads[1] > spreads[2]
    elapsed = time.time() - start

    ok = agree and translated_up and spread_decreasing and elapsed < 300
    _report(4, "gpd estimator comparison study", ok,
            f"medians {[round(m, 3) for m in medians]}, epm median {epm_median:.3f}, "
            f"spreads {[round(s, 5) for s in spreads]}, {elapsed:.0f}s")
    assert agree, f"method medians spread too far: {medians}"
    assert translated_up, f"EPM median {epm_median} not above -0.3"
    assert spread_decreasing, f"EPM spread not decreasing: {spreads}"
    assert elapsed < 300.0


def test_05_gev_method_comparison_study():
    res = gev_method_comparison(GevParams(mu=0.0, sigma=1.0, gamma=0.1),
                                sample_sizes=(50, 10_000), replicates=20, seed=0)

    def stat(n, method, key):
        for row in res.summary:
            if row["n"] == n and row["method"] == method and row["parameter"] == "gamma":
                return row[key]
        raise KeyError((n, method, key))

    var_ordering = stat(50, "mle", "variance") > stat(50, "mixed_lmoments", "variance")
    bias_ordering = abs(stat(50, "mixed_lmoments", "bias")) > abs(stat(50, "mle", "bias"))
    large_n_ok = (abs(stat(10_000, "mle", "bias")) <= 0.05
                  and abs(stat(10_000, "mixed_lmoments", "bias")) <= 0.05)
    ok = var_ordering and bias_ordering and large_n_ok
    _report(5, "gev estimator comparison study", ok,
            f"n=50 var mle {stat(50, 'mle', 'variance'):.4f} vs mixed "
            f"{stat(50, 'mixed_lmoments', 'variance'):.4f}; "
            f"bias mle {stat(50, 'mle', 'bias'):+.4f} vs mixed "
            f"{stat(50, 'mixed_lmoments', 'bias'):+.4f}")
    assert var_ordering
    assert bias_ordering
    assert large_n_ok


def brute_force_lmoment(x, r):
    total = 0.0
    count = 0
    for subset in itertools.combinations(x, r):
        ordered = sorted(subset)
        acc = sum(
            (-1) ** k * math.comb(r - 1, k) * ordered[r - 1 - k] for k in range(r)
        )
        total += acc / r
        count += 1
    return total / count


def test_06_sample_lmoments_vs_subsample_oracle():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 13))
        x = rng.uniform(-10.0, 10.0, n)
        lm = sample_lmoments(x)
        worst = max(
            worst,
            abs(lm.lambda1 - brute_force_lmoment(x, 1)),
            abs(lm.lambda2 - brute_force_lmoment(x, 2)),
            abs(lm.tau3 * lm.lambda2 - brute_force_lmoment(x, 3)),
        )
    ok = worst < 1e-12
    _report(6, "sample l-moments vs subsample oracle", ok, f"worst dev {worst:.2e}")
    assert worst < 1e-12


def test_07_mcculloch_recovery():
    details = []
    ok = True
    for a_true in (1.2, 1.8):
        truth = StableParams(alpha=a_true, beta=0.5, gamma=2.0, delta=1.0)
        fits = [fit_mcculloch(stable_sample(truth, 100_000, seed=70_000 + 100 * int(a_true * 10) + r))
                for r in range(20)]
        means = {
            "alpha": float(np.mean([f.params.alpha for f in fits])),
            "beta": float(np.mean([f.params.beta for f in fits])),
            "gamma": float(np.mean([f.params.gamma for f in fits])),
            "delta": float(np.mean([f.params.delta for f in fits])),
        }
        ok &= abs(means["alpha"] - a_true) <= 0.05
        ok &= abs(means["beta"] - 0.5) <= 0.15
        ok &= abs(means["gamma"] - 2.0) <= 0.1
        ok &= abs(means["delta"] - 1.0) <= 0.1
        details.append(f"alpha={a_true}: " + ", ".join(
            f"{k} {v:.3f}" for k, v in means.items()))
        assert abs(means["alpha"] - a_true) <= 0.05, details[-1]
        assert abs(means["beta"] - 0.5) <= 0.15, details[-1]
        assert abs(means["gamma"] - 2.0) <= 0.1, details[-1]
        assert abs(means["delta"] - 1.0) <= 0.1, details[-1]
    rng = np.random.default_rng(71)
    gauss_alphas = [fit_mcculloch(rng.normal(0.0, 1.0, 100_000)).params.alpha
                    for _ in range(20)]
    gauss_mean = float(np.mean(gauss_alphas))
    ok &= gauss_mean >= 1.95
    _report(7, "mcculloch recovery", ok, "; ".join(details) + f"; gauss alpha {gauss_mean:.3f}")
    assert gauss_mean >= 1.95


def test_08_stable_cdf_validation():
    gauss = StableParams(alpha=2.0, beta=0.0, gamma=1.0, delta=0.0)
    cauchy = StableParams(alpha=1.0, beta=0.0, gamma=1.0, delta=0.0)
    probes = np.linspace(-4.5, 4.5, 20)
    gauss_err = float(np.max(np.abs(
        stable_cdf(probes, gauss) - norm.cdf(probes / math.sqrt(2.0)))))
    cauchy_err = float(np.max(np.abs(
        stable_cdf(probes, cauchy) - (0.5 + np.arctan(probes) / math.pi))))
    duality_err = 0.0
    for alpha, beta in ((1.5, 0.7), (0.8, -0.4), (1.2, 1.0), (1.9, 0.3), (0.6, -1.0)):
        pa = StableParams(alpha, beta, 1.0, 0.0)
        pb = StableParams(alpha, -beta, 1.0, 0.0)
        for x in (-3.0, -1.0, -0.2, 0.4, 1.3, 2.8):
            duality_err = max(
                duality_err, abs(stable_cdf(-x, pa) + stable_cdf(x, pb) - 1.0))
    ok = gauss_err < 1e-6 and cauchy_err < 1e-6 and duality_err < 1e-8
    _report(8, "stable cdf validation", ok,
            f"gauss {gauss_err:.2e}, cauchy {cauchy_err:.2e}, duality {duality_err:.2e}")
    assert gauss_err < 1e-6
    assert cauchy_err < 1e-6
    assert duality_err < 1e-8


def test_09_diagnostics():
    n = 100_000
    i = np.arange(1, n + 1)
    hill = hill_curve((n / i) ** 0.5, k_max=2000)
    sel = (hill.xs >= 500) & (hill.xs <= 2000)
    hill_ok = bool(np.all(np.abs(hill.ys[sel] - 0.5) < 0.05))

    g = 0.3
    y = gpd_sample(GpdParams(gamma=g, sigma=1.0), 100_000, 90)
    curve = mean_excess_curve(y)
    lo, hi = np.percentile(curve.xs, [25, 75])
    mask = (curve.xs >= lo) & (curve.xs <= hi)
    slope = float(np.polyfit(curve.xs[mask], curve.ys[mask], 1)[0])
    slope_ok = abs(slope - g / (1 - g)) < 0.1

    rng = np.random.default_rng(91)
    hs = [hurst_dfa(rng.normal(size=10_000))[0] for _ in range(50)]
    dfa_mean = float(np.mean(hs))
    dfa_ok = abs(dfa_mean - 0.5) < 0.05

    ok = hill_ok and slope_ok and dfa_ok
    _report(9, "tail diagnostics", ok,
            f"hill max dev {float(np.max(np.abs(hill.ys[sel] - 0.5))):.3f}, "
            f"mean-excess slope {slope:.3f} (want {g / (1 - g):.3f}), "
            f"dfa mean {dfa_mean:.3f}")
    assert hill_ok
    assert slope_ok
    assert dfa_ok


def test_10_ks_calibration_and_subsample():
    p = GpdParams(gamma=0.3, sigma=1.0)
    rejections = 0
    for r in range(100):
        data = gpd_sample(p, 200, r)
        _, pv = ks_statistic(data, lambda t: gpd_cdf(t, p))
        rejections += pv < 0.1
    calibrated = 5 <= rejections <= 15

    data = gpd_sample(p, 4000, 101)
    offscale = GpdParams(gamma=0.3, sigma=1.08)
    fit = FitResult(family=Family.GPD, method=Method.MLE, params=offscale,
                    sample_size=4000, converged=True)
    p_full, p_sub = ks_subsample_study(data, fit, subsample_n=200, replicates=20, seed=5)
    size_effect = p_full < p_sub

    ok = calibrated and size_effect
    _report(10, "ks calibration and sample-size effect", ok,
            f"rejections {rejections}/100, p_full {p_full:.4f} vs p_sub {p_sub:.4f}")
    assert calibrated, f"rejection rate {rejections}% outside [5, 15]"
    assert size_effect


def test_11_ingestion_golden(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    rc_a = cli_helpers.run_pipeline(cli_helpers.toy_config(out_a))
    rc_b = cli_helpers.run_pipeline(cli_helpers.toy_config(out_b))
    tree_a = cli_helpers.tree_bytes(out_a)
    tree_b = cli_helpers.tree_bytes(out_b)
    rerun_identical = tree_a == tree_b
    # against the record of this host's SIMD class, by SHA-256
    golden = cli_helpers.golden_digests(cli_helpers.GOLDEN)
    matches_golden = cli_helpers.tree_digests(out_a) == golden
    ok = rc_a == 0 and rc_b == 0 and rerun_identical and matches_golden
    _report(11, "ingestion golden tree", ok,
            f"{len(tree_a)} files, rerun identical {rerun_identical}, "
            f"golden match {matches_golden}")
    assert rc_a == 0 and rc_b == 0
    assert rerun_identical
    assert matches_golden
