import csv
import datetime
import importlib.util
import json
import os
import pickle
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lobtail
from lobtail import cli, gpd, report, simstudy
from lobtail.cli import (
    ESTIMATORS,
    AssetConfig,
    ConfigError,
    RunConfig,
    main,
    run_pipeline,
    run_simstudy,
)
from lobtail.core import EstimationError, GpdParams, SeriesKey
from lobtail.ingest import MarketHours

DATA = Path(__file__).parent / "data"
sys.path.insert(0, str(DATA))
from make_golden import (GOLDEN, STUDIES_GOLDEN, baseline_digests, baseline_record,  # noqa: E402
                         golden_digests, tree_digests)

_TOY_ASSET = {"name": "TOY", "market_hours": {"open_s": 32400, "close_s": 39600}}


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
        "assets": [_TOY_ASSET],
        **fields,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def run_child(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a child that imports the lobtail under test."""
    src = str(Path(lobtail.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m lobtail.cli`` in a child that imports the lobtail under test."""
    return run_child("-m", "lobtail.cli", *args)


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
])
def test_config_flags_must_be_boolean(tmp_path, fields):
    path = toy_config_json(tmp_path, **fields)
    with pytest.raises(ConfigError, match="true or false"):
        RunConfig.from_json(path)
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fields, name", [
    ({"block_length": 5}, "block_length"),
    ({"estimator": {"gev_mle": False}}, "estimator"),
    ({"iqr_scale_stable": "false"}, "iqr_scale_stable"),
    ({"iqr_scale_stable": 1}, "iqr_scale_stable"),
])
def test_config_unknown_keys_are_config_errors(tmp_path, fields, name):
    path = toy_config_json(tmp_path, **fields)
    with pytest.raises(ConfigError, match=rf"unknown config keys: \['{name}'\]"):
        RunConfig.from_json(path)
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fields, name", [
    ({"resolutions_s": [10, 10]}, "resolutions_s"),
    ({"levels": [1, 1]}, "levels"),
    ({"sides": ["bid", "ask", "bid"]}, "sides"),
    ({"assets": [_TOY_ASSET, _TOY_ASSET]}, "assets"),
])
def test_config_repeated_entry_is_config_error(tmp_path, fields, name):
    # a repeated entry would fit and count the same series twice
    path = toy_config_json(tmp_path, **fields)
    with pytest.raises(ConfigError, match=f"^{name} must not repeat an entry$"):
        RunConfig.from_json(path)
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fields, message", [
    ({"levels": "12"}, 'levels must be a JSON array, got "12"'),
    ({"resolutions_s": [10.7]}, "resolutions_s[0] must be a JSON integer, got 10.7"),
    ({"block_len": 30.0}, "block_len must be a JSON integer, got 30.0"),
    ({"seed": 7.5}, "seed must be a JSON integer, got 7.5"),
    ({"jobs": True}, "jobs must be a JSON integer, got true"),
    ({"pot_percentile": "0.8"}, 'pot_percentile must be a JSON number, got "0.8"'),
    ({"epm_start_percentile": False}, "epm_start_percentile must be a JSON number, got false"),
    ({"sides": ["bid", 1]}, "sides[1] must be a JSON string, got 1"),
    ({"assets": [{**_TOY_ASSET, "market_hours": {"open_s": 32400.9, "close_s": 39600}}]},
     "open_s must be a JSON integer, got 32400.9"),
    ({"assets": [{**_TOY_ASSET, "name": 5}]}, "assets[0].name must be a JSON string, got 5"),
    ({"output_dir": 5}, "output_dir must be a JSON string, got 5"),
    ({"assets": ["TOY"]}, 'assets[0] must be a JSON object, got "TOY"'),
    ({"estimators": []}, "estimators must be a JSON object, got []"),
    ({"assets": [{"name": "TOY"}]}, "assets[0].market_hours is required"),
    ({"sides": ["BID"]}, 'sides[0] must be "bid" or "ask", got "BID"'),
    ({"assets": [{**_TOY_ASSET, "holidays": ["2010-13-01"]}]},
     'assets[0].holidays[0] must be an ISO date, got "2010-13-01"'),
    ({"assets": [{**_TOY_ASSET, "market_hours": [1, 2]}]},
     "assets[0].market_hours must be a JSON object, got [1, 2]"),
    ([1, 2], "config must be a JSON object, got [1, 2]"),
])
def test_config_wrong_json_type_is_config_error(tmp_path, fields, message):
    # a value of the wrong JSON type is rejected, never coerced ("12" is not
    # levels [1, 2], 7.5 is not seed 7, true is not jobs 1), and the message
    # is the whole error: it names the value by its JSON path (a case may give
    # only the path's last segments) and carries no prefix
    if isinstance(fields, dict):
        path = toy_config_json(tmp_path, **fields)
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(fields))
    with pytest.raises(ConfigError, match=rf"(^|\.){re.escape(message)}$"):
        RunConfig.from_json(path)
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def test_config_market_hours_out_of_range_names_the_asset(tmp_path):
    path = toy_config_json(
        tmp_path, assets=[{**_TOY_ASSET, "market_hours": {"open_s": 39600, "close_s": 32400}}])
    with pytest.raises(ConfigError, match=re.escape(
            "assets[0].market_hours: market hours need 0 <= open < close <= 86400, "
            "got [39600, 32400]")):
        RunConfig.from_json(path)
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def test_config_negative_seed_is_config_error(tmp_path):
    path = toy_config_json(tmp_path, seed=-1)
    with pytest.raises(ConfigError, match="seed"):
        RunConfig.from_json(path)
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["pot_percentile", "epm_start_percentile"])
def test_config_number_beyond_float_range_is_config_error(tmp_path, name):
    # float(10**400) raises OverflowError
    path = toy_config_json(tmp_path, **{name: 10**400})
    with pytest.raises(ConfigError, match=f"^{name} must be a JSON number within float range$"):
        RunConfig.from_json(path)
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body", [
    b'{"seed": 1' + b"0" * 5000 + b"}",  # beyond Python's int string-conversion limit
    b'{"input_dir": "\xff"}',  # not UTF-8
])
def test_config_unreadable_json_is_config_error(tmp_path, body):
    path = tmp_path / "cfg.json"
    path.write_bytes(body)
    with pytest.raises(ConfigError, match="^cannot read config "):
        RunConfig.from_json(path)
    assert main(["run", "--config", str(path)]) == 2


def test_cli_jobs_below_one_is_config_error(tmp_path):
    path = toy_config_json(tmp_path, jobs=0)
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def test_cli_jobs_is_set_only_in_the_config(tmp_path, capsys):
    path = toy_config_json(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--config", str(path), "--jobs", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
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
    # against the record of this host's SIMD class: the tree or the manifest
    out = tmp_path / "out"
    assert run_pipeline(toy_config(out)) == 0
    got = tree_digests(out)
    want = golden_digests(GOLDEN)
    assert got.keys() == want.keys()
    mismatched = [k for k in want if got[k] != want[k]]
    assert mismatched == []


def test_simd_baseline_run_matches_its_manifest():
    # the toy run and the studies in a child whose numpy dispatches no
    # AVX-512 loops, whatever this host is: every file hashes as recorded,
    # and the manifest covers the files of the committed trees
    want = baseline_record()
    committed = {f"{root.name}/{rel}" for root in (GOLDEN, STUDIES_GOLDEN)
                 for rel in tree_digests(root)}
    assert want.keys() == committed
    got = baseline_digests()
    assert got.keys() == want.keys()
    assert [k for k in want if got[k] != want[k]] == []


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


def test_pipeline_asset_without_day_files_is_not_fatal(tmp_path, toy_reference):
    # an asset with no day file costs only its summary entry: the run exits 0
    # because another asset fits, and that asset writes the bytes of a clean run
    out = tmp_path / "out"
    cfg = toy_config(out)
    cfg.assets = [AssetConfig(name="NONE", hours=MarketHours(32400, 39600)), *cfg.assets]
    assert run_pipeline(cfg) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["days"][0] == {"asset": "NONE", "error": "no input days"}
    assert summary["total_fits"] == 24
    got, want = tree_bytes(out), dict(toy_reference)
    del got["summary.json"], want["summary.json"]
    assert got == want


def test_pipeline_reads_only_iso_named_day_files(tmp_path):
    # date.fromisoformat also reads 20100105 and 2010-W01-2 as 2010-01-05; a
    # stray file under such a name must not fit that day a second time
    src = tmp_path / "ticks" / "TOY"
    src.mkdir(parents=True)
    for f in (DATA / "toy_ticks" / "TOY").glob("*.csv"):
        (src / f.name).write_bytes(f.read_bytes())
    pickands = {name: name == "gpd_pickands" for name in ESTIMATORS}
    clean, stray = tmp_path / "clean", tmp_path / "stray"
    assert run_pipeline(toy_config(clean, input_dir=src.parent, estimators=pickands)) == 0
    for stem in ("20100105", "2010-W01-2"):
        (src / f"{stem}.csv").write_bytes((src / "2010-01-05.csv").read_bytes())
    assert run_pipeline(toy_config(stray, input_dir=src.parent, estimators=pickands)) == 0
    assert tree_bytes(stray) == tree_bytes(clean)


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


def test_pipeline_int64_overflow_row_is_skipped(tmp_path):
    # a timestamp beyond int64 is one malformed row: the day still fits
    header, *rows = (DATA / "toy_ticks" / "TOY" / "2010-01-04.csv").read_text().splitlines()
    rows = rows[::27][:300]
    rows.insert(150, "99999999999999999999,B,1,99.5,5")
    src = tmp_path / "ticks" / "TOY"
    src.mkdir(parents=True)
    (src / "2010-01-04.csv").write_text("\n".join([header, *rows]) + "\n")
    path = toy_config_json(tmp_path, input_dir=str(tmp_path / "ticks"))
    assert main(["run", "--config", str(path)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    [entry] = summary["days"]
    assert entry["skipped_rows"] == 1 and "error" not in entry
    assert entry["malformed_rows"] == 1
    assert entry["first_errors"] == ["row 151: timestamp_ns 99999999999999999999 outside int64"]
    assert summary["total_fits"] > 0
    assert len(list((tmp_path / "out" / "TOY" / "res10s" / "fits").glob("*.json"))) == 2


@pytest.mark.parametrize("corrupt", [
    lambda raw: raw.replace(b",B,", b",\xff,", 1),  # not UTF-8
    lambda raw: raw.replace(b",B,", b",B" + b" " * 140_000 + b",", 1),  # over csv's field limit
])
def test_cli_unreadable_day_fails_that_day_only(tmp_path, corrupt):
    src = tmp_path / "ticks" / "TOY"
    src.mkdir(parents=True)
    for f in (DATA / "toy_ticks" / "TOY").glob("*.csv"):
        (src / f.name).write_bytes(f.read_bytes())
    day5 = src / "2010-01-05.csv"
    day5.write_bytes(corrupt(day5.read_bytes()))
    only_pickands = {name: name == "gpd_pickands" for name in ESTIMATORS}
    path = toy_config_json(tmp_path, input_dir=str(tmp_path / "ticks"), estimators=only_pickands)
    assert main(["run", "--config", str(path)]) == 1
    days = json.loads((tmp_path / "out" / "summary.json").read_text())["days"]
    assert [d["day"] for d in days] == ["2010-01-04", "2010-01-05"]
    assert "error" not in days[0] and days[0]["skipped_rows"] == 0
    assert days[1]["error"].startswith(f"cannot read {day5}: ")
    assert set(days[1]) == {"asset", "day", "error"}


def test_pipeline_isolates_stable_cdf_failure(tmp_path, monkeypatch):
    # a quadrature failure in the stable CDF drops the stable fits, with one
    # error naming the stage per series, and leaves every other fit in place
    from lobtail import stable

    def failing_cdf(*args, **kwargs):
        raise EstimationError("stable CDF quadrature did not converge")

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


def _calls_through(fn, n: int, exc: BaseException):
    """``fn`` itself, except that its n-th call (across threads) raises ``exc``."""
    lock, calls = threading.Lock(), []

    def wrapped(*args, **kwargs):
        with lock:
            calls.append(None)
            count = len(calls)
        if count == n:
            raise exc
        return fn(*args, **kwargs)

    return wrapped


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("exc", [IndexError, ValueError, ZeroDivisionError])
def test_internal_error_in_a_stage_costs_that_stage_only(tmp_path, monkeypatch, capsys,
                                                         toy_reference, exc, jobs):
    # a bug's exception in one series' DFA, anything but EstimationError, is
    # recorded as internal with its stage and series; every other series
    # writes the bytes of a clean run and the run exits 1
    monkeypatch.setattr(cli.diagnostics, "hurst_dfa",
                        _calls_through(cli.diagnostics.hurst_dfa, 2, exc("injected")))
    path = toy_config_json(tmp_path, seed=7, jobs=jobs)
    assert main(["run", "--config", str(path)]) == 1
    out = tmp_path / "out"
    days = json.loads((out / "summary.json").read_text())["days"]
    errors = [e for d in days for e in d["errors"]]
    assert len(errors) == 1 and "error" not in days[0] and "error" not in days[1]
    series, stage_error = errors[0].split(": ", 1)
    assert stage_error == f"hurst_dfa: internal: {exc.__name__}: injected"
    assert "Traceback" in capsys.readouterr().err
    _, day, side, level, _ = series.split("_")
    label = f"{day}_{side}_{level}"
    doc = json.loads((out / "TOY" / "res10s" / "fits" / f"{label}.json").read_text())
    assert doc["errors"] == [stage_error] and len(doc["fits"]) == 6
    got, want = tree_bytes(out), toy_reference
    missing = {f"TOY/res10s/diagnostics/{label}/{name}"
               for name in ("curve_dfa_loglog.csv", "hurst.json")}
    assert want.keys() - got.keys() == missing and got.keys() <= want.keys()
    unaffected = [k for k in got if label not in k and k != "summary.json"]
    assert [k for k in unaffected if got[k] != want[k]] == []


def test_internal_error_outside_every_stage_costs_that_day(tmp_path, monkeypatch,
                                                           toy_reference):
    # a fault in code no stage guards becomes the day's error, naming the
    # series it was on; the other day runs and the run exits 1
    monkeypatch.setattr(cli.report, "write_series_csv",
                        _calls_through(cli.report.write_series_csv, 2, IndexError("injected")))
    path = toy_config_json(tmp_path, seed=7)
    assert main(["run", "--config", str(path)]) == 1
    days = json.loads((tmp_path / "out" / "summary.json").read_text())["days"]
    assert days[0] == {"asset": "TOY", "day": "2010-01-04",
                       "error": "TOY_2010-01-04_ask_L1_10s: internal: IndexError: injected"}
    assert "error" not in days[1] and days[1]["errors"] == []
    got = tree_bytes(tmp_path / "out")
    day5 = {k: v for k, v in toy_reference.items() if "2010-01-05" in k}
    assert {k: got[k] for k in day5} == day5


@pytest.mark.parametrize("jobs", [1, 2])
def test_keyboard_interrupt_still_stops_the_run(tmp_path, monkeypatch, jobs):
    monkeypatch.setattr(cli.diagnostics, "hurst_dfa",
                        _calls_through(cli.diagnostics.hurst_dfa, 1, KeyboardInterrupt()))
    path = toy_config_json(tmp_path, seed=7, jobs=jobs)
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--config", str(path)])
    assert not (tmp_path / "out" / "summary.json").exists()


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


def test_run_day_returns_picklable_hourly_medians(tmp_path):
    # the unit of work hands back each series' hourly medians, not the series
    cfg = toy_config(tmp_path / "out")
    asset, day = cfg.assets[0], datetime.date(2010, 1, 4)
    result = cli._run_day(cfg, asset, day)
    assert pickle.loads(pickle.dumps(result))[0] == result[0]
    medians = result[2]
    assert medians.keys() == {
        SeriesKey(asset="TOY", trading_day=day, side=side, level=1, resolution_s=10)
        for side in cfg.sides}
    for by_hour in medians.values():
        assert by_hour
        assert all(type(h) is int and type(m) is float for h, m in by_hour.items())


def _benchmark_trace_table() -> dict[tuple[str, str], str]:
    """The benchmark tracer's ``(module, attribute) -> span name`` table."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  root / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_benchmark_trace_hooks_resolve():
    # the benchmark's tracer wraps these module attributes; a call site that
    # moves must keep every name it patches
    missing = [f"{module}.{attr}" for module, attr in _benchmark_trace_table()
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def _per_day_hooks() -> dict[str, list[tuple[str, str]]]:
    """Each traced function ``lobtail run`` calls inside ``cli._run_day``, by
    span name, with every attribute the tracer patches for it."""
    hooks: dict[str, list[tuple[str, str]]] = {}
    for target, name in _benchmark_trace_table().items():
        if not name.startswith("simstudy.") and name not in {"diagnostics.heatmap",
                                                            "report.write_heatmap_csv"}:
            hooks.setdefault(name, []).append(target)
    return hooks


_PER_DAY_HOOKS = _per_day_hooks()
_FAULT_DAY = datetime.date(2010, 1, 5)
# what three of the faults cost: 2010-01-05's reported errors and the fits left
_FAULT_COSTS = {
    "ingest.parse": (["TOY_2010-01-05: internal: IndexError: injected"], 12),
    "ingest.subsample": (
        ["TOY_2010-01-05_bid_L1_10s: subsample: internal: IndexError: injected"], 18),
    "gof.ks": (["TOY_2010-01-05_bid_L1_10s: stable_mcculloch: percentiles: "
                "internal: IndexError: injected"], 23),
}


def _fails_first_on(fn, day: datetime.date, exc: BaseException):
    """``fn`` itself, except that its first call made for ``day`` raises ``exc``.

    The day is the ``day`` local of the enclosing ``cli._run_day`` frame, so
    calls from other days' worker threads pass through.
    """
    lock, calls = threading.Lock(), []

    def wrapped(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not cli._run_day.__code__:
            frame = frame.f_back
        if frame is not None and frame.f_locals["day"] == day:
            with lock:
                calls.append(None)
                first = len(calls) == 1
            if first:
                raise exc
        return fn(*args, **kwargs)

    return wrapped


@pytest.fixture(scope="module")
def toy_reference(tmp_path_factory) -> dict[str, bytes]:
    """The output tree of a clean toy run on this host (the golden tree where
    numpy dispatches the same SIMD kernels as the host that wrote it)."""
    path = toy_config_json(tmp_path_factory.mktemp("reference"), seed=7)
    assert main(["run", "--config", str(path)]) == 0
    return tree_bytes(path.parent / "out")


@pytest.mark.parametrize("hook, jobs", [*((hook, 1) for hook in _PER_DAY_HOOKS),
                                        ("gof.ks", 2)])
def test_fault_in_any_per_day_hook_spares_the_other_day(tmp_path, monkeypatch, toy_reference,
                                                        hook, jobs):
    # an IndexError from any traced call of one day costs at most that day:
    # the run exits 1, writes its summary, and the other day matches a clean run
    targets = _PER_DAY_HOOKS[hook]
    fn = getattr(importlib.import_module(targets[0][0]), targets[0][1])
    wrapped = _fails_first_on(fn, _FAULT_DAY, IndexError("injected"))
    for module, attr in targets:
        monkeypatch.setattr(importlib.import_module(module), attr, wrapped)
    path = toy_config_json(tmp_path, seed=7, jobs=jobs)
    assert main(["run", "--config", str(path)]) == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["days"][0] == json.loads(toy_reference["summary.json"])["days"][0]
    day5 = summary["days"][1]
    # a failed preparation is reported once per estimator that needed it
    reported = [day5["error"]] if "error" in day5 else day5["errors"]
    faults = [re.fullmatch(r"(TOY_2010-01-05(?:_(?:bid|ask)_L1_10s)?): (?:.+: )?internal: "
                           r"IndexError: injected", e) for e in reported]
    assert reported and all(faults) and len({m[1] for m in faults}) == 1
    if hook in _FAULT_COSTS:
        assert (reported, summary["total_fits"]) == _FAULT_COSTS[hook]
    day4 = {k: v for k, v in toy_reference.items() if "2010-01-04" in k}
    assert {k: v for k, v in tree_bytes(tmp_path / "out").items() if "2010-01-04" in k} == day4


# ---------------------------------------------------------------------------
# the run contract on adversarial tick data
# ---------------------------------------------------------------------------

_HOSTILE_HOURS = MarketHours(open_s=36000, close_s=36900)
_HOSTILE_KINDS = ("3 rows", "40 rows", "60 rows", "constant volume", "all-zero volume",
                  "one level", "last 30 s", "volumes to 1e24", "volumes above int64",
                  "fractional volumes", "one spike", "normal")
# the (family, method) each estimator reports
_ESTIMATOR_FITS = {"stable_mcculloch": ("stable", "mcculloch"), "gev_mle": ("gev", "mle"),
                   "gev_mixed": ("gev", "mixed_lmoments"), "gpd_mle": ("gpd", "mle"),
                   "gpd_pickands": ("gpd", "pickands"), "gpd_epm": ("gpd", "epm")}
_SERIES_STAGES = ("subsample|descriptive|mean_excess|hill|qq_exponential|hurst_dfa|"
                  f"(?:{'|'.join(ESTIMATORS)})(?:: (?:block_maxima|pot_exceedances|percentiles))?")


def _hostile_day(kind: str, seed: int, malformed: int) -> str:
    """A tick CSV of one ``kind`` of day, with up to ``malformed`` unparseable
    rows: no more than 1% of its rows, so the malformed-row guard lets them by."""
    rng = np.random.default_rng(seed)
    n = {"3 rows": 3, "40 rows": 40, "60 rows": 60}.get(kind, 400)
    malformed = min(malformed, n // 100)
    lo_s = _HOSTILE_HOURS.close_s - 30 if kind == "last 30 s" else _HOSTILE_HOURS.open_s - 60
    ts = np.sort(rng.integers(lo_s * 10**9, _HOSTILE_HOURS.close_s * 10**9, n))
    sides = rng.choice(["B", "A"], n)
    levels = np.ones(n, int) if kind == "one level" else rng.integers(1, 3, n)
    volumes = {
        "constant volume": lambda: [7] * n,
        "one spike": lambda: [7] * n,
        "all-zero volume": lambda: [0] * n,
        "volumes to 1e24": lambda: [int(v) for v in 10.0 ** rng.uniform(0, 24, n)],
        "volumes above int64": lambda: [int(v) for v in rng.lognormal(44, 1, n)],
        "fractional volumes": lambda: [f"{v:.2f}" for v in rng.uniform(0, 50, n)],
    }.get(kind, lambda: rng.lognormal(3, 1, n).astype(int).tolist())()
    rows = [f"{t},{s},{lev},100.0,{v}" for t, s, lev, v in zip(ts, sides, levels, volumes)]
    if kind == "one spike":
        # one whole second sees a spike of level 1 bids: at 1 s the block
        # maxima of that series are one spike over a constant, L-skewness 1
        at = int(rng.integers(_HOSTILE_HOURS.open_s + 1, _HOSTILE_HOURS.close_s)) * 10**9
        back = at + 10**9 // 2
        spike = [(at, f"{at},B,1,100.0,9"), (back, f"{back},B,1,100.0,7")]
        rows = [row for _, row in sorted([*zip(ts.tolist(), rows), *spike], key=lambda r: r[0])]
    for i, bad in zip(rng.integers(0, n, malformed), ["x,B,1,1.0,5", "1,Q,1,1.0,5", "1,B,1"]):
        rows.insert(int(i), bad)
    return "timestamp_ns,side,level,price,volume\n" + "\n".join(rows) + "\n"


@settings(max_examples=8, derandomize=True, deadline=None)
# every kind runs at least once, whatever the search draws
@example([("3 rows", 0, 0), ("constant volume", 1, 0)])
@example([("40 rows", 2, 0), ("all-zero volume", 3, 3)])
@example([("60 rows", 4, 0), ("one level", 5, 2)])
@example([("last 30 s", 6, 1), ("volumes to 1e24", 7, 0)])
@example([("volumes above int64", 8, 0), ("fractional volumes", 9, 0)])
@example([("normal", 10, 3)])
@example([("one spike", 11, 0)])
@given(st.lists(st.tuples(st.sampled_from(_HOSTILE_KINDS), st.integers(0, 2**16),
                          st.integers(0, 3)), min_size=1, max_size=2))
def test_run_contract_holds_on_adversarial_days(days):
    # data never crashes a run: each bad day, series or fit costs only
    # itself, is named in summary.json, and reruns are byte-identical
    with tempfile.TemporaryDirectory() as tmp:
        ticks = Path(tmp) / "ticks" / "TOY"
        ticks.mkdir(parents=True)
        for i, (kind, seed, malformed) in enumerate(days):
            (ticks / f"{datetime.date(2010, 1, 4 + i)}.csv").write_text(
                _hostile_day(kind, seed, malformed))

        def run(out: str, jobs: int) -> int:
            cfg = RunConfig(input_dir=ticks.parent, output_dir=Path(tmp) / out,
                            assets=[AssetConfig(name="TOY", hours=_HOSTILE_HOURS)],
                            resolutions_s=[1, 10], levels=[1, 2], seed=3, jobs=jobs)
            return run_pipeline(cfg)

        out = Path(tmp) / "a"
        assert run("a", 1) in (0, 1)
        summary = json.loads((out / "summary.json").read_text())
        for entry in summary["days"]:
            if "error" in entry:
                # a day that cannot be ingested is named by its file
                assert "internal:" not in entry["error"]
                assert str(ticks / f"{entry['day']}.csv") in entry["error"]
                continue
            label = rf"TOY_{entry['day']}_(?:bid|ask)_L[12]_(?:1|10)s"
            for error in entry["errors"]:
                assert "internal:" not in error
                assert re.match(rf"{label}: (?:{_SERIES_STAGES}): ", error), error
        fit_count = 0
        for path in out.glob("TOY/res*s/fits/*.json"):
            unit = json.loads(path.read_text())
            fits = [(f["family"], f["method"]) for f in unit["fits"]]
            fit_count += len(fits)
            for name, family_method in _ESTIMATOR_FITS.items():
                errors = [e for e in unit["errors"] if e.startswith(f"{name}: ")]
                assert fits.count(family_method) + len(errors) == 1, (path, name)
        assert summary["total_fits"] == fit_count
        assert run("b", 1) == run("c", 2)
        assert tree_bytes(out) == tree_bytes(out.with_name("b")) == tree_bytes(out.with_name("c"))


def test_one_spike_day_fits_gev_mle(tmp_path):
    # the 1 s level 1 bid block maxima have L-skewness 1, where the L-moment
    # start gives no GEV; the MLE then runs from its fallback start and fits
    ticks = tmp_path / "ticks" / "TOY"
    ticks.mkdir(parents=True)
    (ticks / "2010-01-04.csv").write_text(_hostile_day("one spike", 11, 0))
    cfg = RunConfig(input_dir=ticks.parent, output_dir=tmp_path / "out", resolutions_s=[1],
                    assets=[AssetConfig(name="TOY", hours=_HOSTILE_HOURS)])
    assert run_pipeline(cfg) == 0
    unit = json.loads((tmp_path / "out/TOY/res1s/fits/2010-01-04_bid_L1.json").read_text())
    assert ("gev", "mle") in [(f["family"], f["method"]) for f in unit["fits"]]


# ---------------------------------------------------------------------------
# simstudy CLI
# ---------------------------------------------------------------------------


def test_simstudy_unknown_name(tmp_path, capsys):
    assert run_simstudy("Nope", tmp_path) == 2


@pytest.mark.parametrize("study, flag", [("KsCase", "--seed"), ("GpdCompare", "--replicates")])
def test_simstudy_negative_count_is_usage_error(tmp_path, capsys, study, flag):
    assert main(["simstudy", study, flag, "-1", "--out", str(tmp_path)]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / study).exists()


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


def test_simstudy_failed_rows_keep_their_error(tmp_path, monkeypatch):
    # the first estimate row succeeds (MLE), so the header must still gain "error"
    def broken(*args, **kwargs):
        raise EstimationError("pickands broke")

    monkeypatch.setattr(gpd, "fit_gpd_pickands", broken)
    assert run_simstudy("GpdCompare", tmp_path, seed=1, replicates=2) == 0
    vdir = tmp_path / "GpdCompare" / "gamma_+0.2"
    with open(vdir / "estimates.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 5
    for row in rows:
        failed = row["method"] == "pickands"
        assert row["failed"] == ("true" if failed else "false")
        assert row["error"] == ("pickands broke" if failed else "")
        assert (row["gamma"] == "") == failed
    with open(vdir / "summary.csv", newline="") as fh:
        failures = {(r["method"], r["start_percentile"]): r["failures"] for r in csv.DictReader(fh)}
    assert failures[("pickands", "")] == "2"
    assert failures[("mle", "")] == "0"


def test_write_rows_quotes_error_cells_with_commas(tmp_path):
    # n=4 leaves too few exceedances for EPM: "need at least 5 exceedances, got 4"
    res = simstudy.gpd_method_comparison(GpdParams(0.2, 1.0), n=4, replicates=1,
                                         epm_start_percentiles=(0.5,))
    path = tmp_path / "estimates.csv"
    cli._write_rows(path, res.estimates)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert rows and all(len(row) == len(header) for row in rows)
    errors = [row[header.index("error")] for row in rows]
    assert any("," in e for e in errors)


def test_write_csv_quotes_str_cells_rfc4180(tmp_path):
    cells = ['say "hi"', "a,b", "two\nlines", "cr\rhere", "plain", ""]
    path = tmp_path / "t.csv"
    report.write_csv(path, ["text", "x"], [cells, np.full(len(cells), 1.5)])
    with open(path, newline="") as fh:
        assert list(csv.reader(fh))[1:] == [[c, "1.5"] for c in cells]
    lines = path.read_bytes().split(b"\n")
    assert lines[1] == b'"say ""hi""",1.5'
    assert b"plain,1.5" in lines and b",1.5" in lines


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
        "jobs": 2,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = run_cli("run", "--config", str(cfg_path), "--days", "2010-01-04..2010-01-04")
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.json").exists()
    assert (out / "TOY" / "res10s" / "params_gpd_mle.csv").exists()
    assert not (out / "TOY" / "res10s" / "params_stable_mcculloch.csv").exists()


def test_cli_run_imports_no_scipy(tmp_path, toy_reference):
    # the runtime is numpy-only; a fresh child, because pytest's own process
    # imports scipy for the oracles
    path = toy_config_json(tmp_path, seed=7)
    probe = ("import json, sys\n"
             "from lobtail.cli import main\n"
             f"rc = main(['run', '--config', {str(path)!r}])\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
             "sys.exit(rc)\n")
    proc = run_child("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
    assert tree_bytes(tmp_path / "out") == toy_reference


def test_simstudy_gevcompare_default_runtime(tmp_path):
    import time

    start = time.time()
    assert run_simstudy("GevCompare", tmp_path, seed=0, replicates=20) == 0
    elapsed = time.time() - start
    assert elapsed < 120.0
    checks = json.loads((tmp_path / "GevCompare" / "checks.json").read_text())
    assert set(checks["checks"]) == {"gamma_-0.3", "gamma_+0.0", "gamma_+0.2", "gamma_+0.5"}
