import datetime
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lobtail
from lobtail.cli import (
    AssetConfig,
    ConfigError,
    RunConfig,
    main,
    run_pipeline,
    run_simstudy,
)
from lobtail.ingest import MarketHours

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden" / "toy_run"


def toy_config(out_dir: Path, **overrides) -> RunConfig:
    cfg = RunConfig(
        input_dir=DATA / "toy_ticks",
        output_dir=out_dir,
        assets=[AssetConfig(name="TOY", hours=MarketHours(open_s=32400, close_s=39600))],
        resolutions_s=[10],
        levels=[1],
        seed=7,
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def toy_config_json(tmp_path: Path, **fields) -> Path:
    """A run.json for the toy ticks writing to ``tmp_path / "out"``."""
    doc = {
        "input_dir": str(DATA / "toy_ticks"),
        "output_dir": str(tmp_path / "out"),
        "assets": [{"name": "TOY", "market_hours": {"open_s": 32400, "close_s": 39600}}],
        **fields,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m lobtail.cli`` in a child that imports the lobtail under test."""
    src = str(Path(lobtail.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "lobtail.cli", *args],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_all_estimators_disabled(tmp_path):
    cfg = toy_config(tmp_path / "out")
    cfg.estimators = {k: False for k in cfg.estimators}
    with pytest.raises(ConfigError, match="estimator"):
        cfg.validate()


def test_config_bad_resolution(tmp_path):
    cfg = toy_config(tmp_path / "out", resolutions_s=[0])
    with pytest.raises(ConfigError):
        cfg.validate()


@pytest.mark.parametrize("value", [1.0, -0.1])
def test_config_bad_epm_start_percentile(tmp_path, value):
    path = toy_config_json(tmp_path, epm_start_percentile=value)
    with pytest.raises(ConfigError, match="epm_start_percentile"):
        RunConfig.from_json(path)
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def test_config_from_json_defaults(tmp_path):
    doc = {
        "input_dir": str(DATA / "toy_ticks"),
        "output_dir": str(tmp_path / "out"),
        "assets": [{"name": "TOY", "market_hours": {"open_s": 32400, "close_s": 39600},
                    "holidays": ["2010-01-05"]}],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = RunConfig.from_json(path)
    assert cfg.block_len == 30
    assert cfg.pot_percentile == 0.8
    assert cfg.epm_start_percentile == 0.5
    assert all(cfg.estimators.values())
    assert datetime.date(2010, 1, 5) in cfg.assets[0].holidays


@pytest.mark.parametrize("fields", [
    {"estimators": {"gev_mle": "false"}},
    {"estimators": {"gpd_epm": 0}},
    {"iqr_scale_stable": "false"},
    {"iqr_scale_stable": 1},
])
def test_config_flags_must_be_boolean(tmp_path, fields):
    path = toy_config_json(tmp_path, **fields)
    with pytest.raises(ConfigError, match="true or false"):
        RunConfig.from_json(path)
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def test_cli_jobs_below_one_is_config_error(tmp_path):
    path = toy_config_json(tmp_path)
    assert main(["run", "--config", str(path), "--jobs", "0"]) == 2
    assert not (tmp_path / "out").exists()


def test_config_unknown_estimator(tmp_path):
    doc = {
        "input_dir": ".", "output_dir": ".",
        "assets": [{"name": "X", "market_hours": {"open_s": 0, "close_s": 60}}],
        "estimators": {"made_up": True},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="unknown estimators"):
        RunConfig.from_json(path)


def test_cli_exit_code_2_on_config_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 2


def test_missing_input_dir_is_fatal(tmp_path):
    cfg = toy_config(tmp_path / "out")
    cfg.input_dir = tmp_path / "nothing"
    assert run_pipeline(cfg) == 1


# ---------------------------------------------------------------------------
# pipeline behavior
# ---------------------------------------------------------------------------


def test_pipeline_rerun_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_pipeline(toy_config(out_a)) == 0
    assert run_pipeline(toy_config(out_b)) == 0
    ta, tb = tree_bytes(out_a), tree_bytes(out_b)
    assert ta.keys() == tb.keys()
    assert all(ta[k] == tb[k] for k in ta)


def test_pipeline_matches_committed_golden(tmp_path):
    out = tmp_path / "out"
    assert run_pipeline(toy_config(out)) == 0
    got = tree_bytes(out)
    want = tree_bytes(GOLDEN)
    assert got.keys() == want.keys()
    mismatched = [k for k in want if got[k] != want[k]]
    assert mismatched == []


def test_pipeline_day_range_filter(tmp_path):
    out = tmp_path / "out"
    rng = (datetime.date(2010, 1, 4), datetime.date(2010, 1, 4))
    assert run_pipeline(toy_config(out), day_range=rng) == 0
    days = {d["day"] for d in json.loads((out / "summary.json").read_text())["days"]}
    assert days == {"2010-01-04"}


def test_pipeline_holiday_excluded(tmp_path):
    out = tmp_path / "out"
    cfg = toy_config(out)
    cfg.assets = [AssetConfig(name="TOY", hours=MarketHours(32400, 39600),
                              holidays=frozenset({datetime.date(2010, 1, 5)}))]
    assert run_pipeline(cfg) == 0
    days = {d["day"] for d in json.loads((out / "summary.json").read_text())["days"]}
    assert days == {"2010-01-04"}


def test_pipeline_day_failure_isolation(tmp_path):
    # corrupting one day's file leaves the other day's outputs identical and
    # flips the exit code to fatal
    src = tmp_path / "ticks" / "TOY"
    src.mkdir(parents=True)
    for f in (DATA / "toy_ticks" / "TOY").glob("*.csv"):
        (src / f.name).write_bytes(f.read_bytes())
    out_ok = tmp_path / "ok"
    cfg = toy_config(out_ok)
    cfg.input_dir = tmp_path / "ticks"
    assert run_pipeline(cfg) == 0

    (src / "2010-01-05.csv").write_text("garbage,everywhere\n1,2\n")
    out_bad = tmp_path / "bad"
    cfg_bad = toy_config(out_bad)
    cfg_bad.input_dir = tmp_path / "ticks"
    assert run_pipeline(cfg_bad) == 1

    ok_tree = tree_bytes(out_ok)
    bad_tree = tree_bytes(out_bad)
    day4_ok = {k: v for k, v in ok_tree.items() if "2010-01-04" in k}
    day4_bad = {k: v for k, v in bad_tree.items() if "2010-01-04" in k}
    assert day4_ok == day4_bad
    assert not any("2010-01-05" in k for k in bad_tree)
    summary = json.loads((out_bad / "summary.json").read_text())
    assert any("error" in d for d in summary["days"])


def test_pipeline_isolates_stable_cdf_failure(tmp_path, monkeypatch):
    # a quadrature failure in the stable CDF drops the stable fits, with one
    # error naming the stage per series, and leaves every other fit in place
    from lobtail import stable

    def failing_cdf(*args, **kwargs):
        raise stable.QuadratureError("stable CDF quadrature did not converge", achieved_tol=1.0)

    monkeypatch.setattr(stable, "stable_cdf", failing_cdf)
    out = tmp_path / "out"
    assert run_pipeline(toy_config(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total_fits"] == 24 - 4
    fit_files = sorted((out / "TOY" / "res10s" / "fits").glob("*.json"))
    assert len(fit_files) == 4
    for path in fit_files:
        doc = json.loads(path.read_text())
        stable_errors = [e for e in doc["errors"]
                         if e.startswith("stable_mcculloch: percentiles:")]
        assert len(stable_errors) == 1
        assert len(doc["fits"]) == 5
    assert not list(out.rglob("*_stable_mcculloch_percentiles.csv"))


def test_pipeline_preparation_failure_per_estimator(tmp_path):
    # blocks longer than the series: both GEV estimators record the failed
    # preparation, so each series has one fit or one error per estimator
    out = tmp_path / "out"
    assert run_pipeline(toy_config(out, block_len=100000)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total_fits"] == 4 * 4
    fit_files = sorted((out / "TOY" / "res10s" / "fits").glob("*.json"))
    assert len(fit_files) == 4
    for path in fit_files:
        doc = json.loads(path.read_text())
        assert doc["errors"] == [
            f"{name}: block_maxima: series length 720 shorter than one block of 100000"
            for name in ("gev_mle", "gev_mixed")
        ]
        assert len(doc["fits"]) == 4


def test_pipeline_subsample_error_names_series(tmp_path):
    # market hours that end before the first tick leave every series empty
    out = tmp_path / "out"
    cfg = toy_config(out)
    cfg.assets = [AssetConfig(name="TOY", hours=MarketHours(0, 60))]
    assert run_pipeline(cfg) == 1
    days = json.loads((out / "summary.json").read_text())["days"]
    assert len(days) == 2
    for day in days:
        labels = [f"TOY_{day['day']}_{side}_L1_10s" for side in ("bid", "ask")]
        assert len(day["errors"]) == 2
        for label, err in zip(labels, day["errors"]):
            assert err.startswith(f"{label}: subsample: ")


def test_pipeline_jobs_parallel_identical(tmp_path):
    out_serial, out_par = tmp_path / "s", tmp_path / "p"
    assert run_pipeline(toy_config(out_serial)) == 0
    cfg = toy_config(out_par)
    cfg.jobs = 4
    assert run_pipeline(cfg) == 0
    assert tree_bytes(out_serial) == tree_bytes(out_par)


def test_benchmark_trace_hooks_resolve():
    # the benchmark's tracer wraps these module attributes; a call site that
    # moves must keep every name it patches
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  root / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{attr}" for module, attr in tracer.TRACED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


# ---------------------------------------------------------------------------
# simstudy CLI
# ---------------------------------------------------------------------------


def test_simstudy_unknown_name(tmp_path, capsys):
    assert run_simstudy("Nope", tmp_path) == 2


def test_simstudy_kscase_zero_replicates(tmp_path):
    assert run_simstudy("KsCase", tmp_path, seed=1, replicates=0) == 0
    est = (tmp_path / "KsCase" / "default" / "estimates.csv").read_text()
    assert est.strip().splitlines()[1:] == []


def test_simstudy_gpd_compare_small(tmp_path):
    assert run_simstudy("GpdCompare", tmp_path, seed=1, replicates=2) == 0
    checks = json.loads((tmp_path / "GpdCompare" / "checks.json").read_text())
    assert set(checks["checks"]) == {"gamma_-0.3", "gamma_+0.0", "gamma_+0.2", "gamma_+0.5"}
    est = (tmp_path / "GpdCompare" / "gamma_+0.5" / "estimates.csv").read_text()
    header = est.splitlines()[0].split(",")
    assert "start_percentile" in header
    epm_rows = [ln for ln in est.splitlines()[1:] if ln.split(",")[0] == "epm"]
    starts = {ln.split(",")[1] for ln in epm_rows}
    assert len(starts) == 3


def test_console_entrypoint_help():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "simstudy" in proc.stdout


def test_cli_run_subprocess_end_to_end(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "input_dir": str(DATA / "toy_ticks"),
        "output_dir": str(out),
        "assets": [{"name": "TOY", "market_hours": {"open_s": 32400, "close_s": 39600}}],
        "resolutions_s": [10],
        "levels": [1],
        "estimators": {"gev_mle": False, "gev_mixed": False, "gpd_epm": False,
                       "stable_mcculloch": False},
        "seed": 7,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = run_cli("run", "--config", str(cfg_path),
                   "--days", "2010-01-04..2010-01-04", "--jobs", "2")
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.json").exists()
    assert (out / "TOY" / "res10s" / "params_gpd_mle.csv").exists()
    assert not (out / "TOY" / "res10s" / "params_stable_mcculloch.csv").exists()


def test_simstudy_gevcompare_default_runtime(tmp_path):
    import time

    start = time.time()
    assert run_simstudy("GevCompare", tmp_path, seed=0, replicates=20) == 0
    elapsed = time.time() - start
    assert elapsed < 120.0
    checks = json.loads((tmp_path / "GevCompare" / "checks.json").read_text())
    assert set(checks["checks"]) == {"gamma_-0.3", "gamma_+0.0", "gamma_+0.2", "gamma_+0.5"}
