import sys
from pathlib import Path

from lobtail.core import GevParams, GpdParams, StableParams
from lobtail.simstudy import (
    gev_method_comparison,
    gpd_method_comparison,
    ks_case_study,
)

sys.path.insert(0, str(Path(__file__).parent / "data"))
from make_golden import STUDIES_GOLDEN, golden_digests, run_studies, tree_digests  # noqa: E402


def test_studies_match_committed_golden(tmp_path):
    # all three simstudy runs at seed 0, one replicate: every file byte for
    # byte (by SHA-256) against the record of this host's SIMD class
    assert run_studies(tmp_path) == 0
    got, want = tree_digests(tmp_path), golden_digests(STUDIES_GOLDEN)
    assert got.keys() == want.keys()
    assert [k for k in want if got[k] != want[k]] == []


def test_gev_study_reproducible():
    p = GevParams(0.0, 1.0, 0.1)
    a = gev_method_comparison(p, sample_sizes=(50,), replicates=4, seed=3)
    b = gev_method_comparison(p, sample_sizes=(50,), replicates=4, seed=3)
    assert a.estimates == b.estimates
    assert a.summary == b.summary
    c = gev_method_comparison(p, sample_sizes=(50,), replicates=4, seed=4)
    assert c.estimates != a.estimates


def test_gev_study_row_shape():
    p = GevParams(0.0, 1.0, 0.2)
    res = gev_method_comparison(p, sample_sizes=(60,), replicates=3, seed=1)
    assert len(res.estimates) == 6  # 3 replicates x 2 methods
    assert len(res.summary) == 6   # 2 methods x 3 parameters
    for row in res.summary:
        assert {"n", "method", "parameter", "true", "mean", "bias", "variance",
                "failures", "replicates"} <= set(row)
        assert row["replicates"] == 3


def test_gev_study_recovers_at_large_n():
    p = GevParams(0.0, 1.0, 0.2)
    res = gev_method_comparison(p, sample_sizes=(10_000,), replicates=5, seed=11)
    assert res.checks["large_n_both_methods_recover_shape"]


def test_gpd_study_emits_three_epm_groups():
    p = GpdParams(gamma=0.2, sigma=1.0)
    res = gpd_method_comparison(p, n=200, replicates=3,
                                epm_start_percentiles=(0.0, 0.5, 0.75), seed=2)
    epm_groups = {row["start_percentile"] for row in res.estimates
                  if row["method"] == "epm"}
    assert epm_groups == {0.0, 0.5, 0.75}
    # per replicate: mle, pickands, 3 epm variants
    assert len(res.estimates) == 3 * 5


def test_gpd_study_failures_are_counted_not_fatal():
    # constant-ish data break Pickands occasionally; study still completes
    p = GpdParams(gamma=-0.9, sigma=0.1)
    res = gpd_method_comparison(p, n=8, replicates=3, epm_start_percentiles=(0.5,), seed=5)
    assert all("failures" in row for row in res.summary)


def test_ks_case_study_empty():
    p = StableParams(1.7, 0.0, 1.0, 0.0)
    res = ks_case_study(p, n_full=500, n_sub=100, replicates=0, seed=0)
    assert res.estimates == []
    assert res.summary == []


def test_ks_case_study_rows():
    p = StableParams(1.7, 0.0, 1.0, 0.0)
    res = ks_case_study(p, n_full=800, n_sub=100, replicates=2, seed=1)
    assert len(res.estimates) == 2
    assert res.summary[0]["replicates"] == 2
    for row in res.estimates:
        assert 0.0 <= row["pvalue_full"] <= 1.0
        assert 0.0 <= row["pvalue_sub_mean"] <= 1.0
