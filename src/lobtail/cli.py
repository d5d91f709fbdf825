"""Batch driver: per-day pipeline (ingest -> prepare -> fit -> diagnostics ->
goodness-of-fit) plus the synthetic-study entry points.

Usage:
    lobtail run --config run.json [--days 2010-01-04..2010-01-08]
    lobtail simstudy {GevCompare,GpdCompare,KsCase} [--seed S] [--out DIR]

Exit codes: 0 success, 1 fatal (ingestion failure, zero successful fits, or
an internal error: any exception other than EstimationError), 2 configuration
error.  Output trees are a pure function of (input files, config, seed);
re-runs are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import itertools
import json
import sys
import traceback
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import diagnostics, gof, report, simstudy
from .core import (
    EstimationError,
    Family,
    FitResult,
    GevParams,
    GpdParams,
    Method,
    SeriesKey,
    Side,
    StableParams,
    child_seed,
)
from .gev import fit_gev_mixed, fit_gev_mle
from .gpd import fit_gpd_epm, fit_gpd_mle, fit_gpd_pickands
from .ingest import (
    MarketHours,
    PreparedSample,
    SampleKind,
    TickFileError,
    block_maxima,
    full_sample,
    parse_tick_file,
    pot_exceedances,
    subsample_last,
)
from .stable import fit_mcculloch

__all__ = ["RunConfig", "ConfigError", "run_pipeline", "run_simstudy", "main"]

# Every estimator the pipeline runs, in output order: the sample it fits and
# the call that fits it.  The calls look the fitters up in this module when
# they run, so a wrapper installed on the module attribute sees every fit.
# A POT sample carries the excesses; its threshold is the fitted location.
ESTIMATORS = {
    "stable_mcculloch": (SampleKind.FULL, lambda sample, cfg: fit_mcculloch(sample.data)),
    "gev_mle": (SampleKind.BLOCK_MAXIMA, lambda sample, cfg: fit_gev_mle(sample.data)),
    "gev_mixed": (SampleKind.BLOCK_MAXIMA, lambda sample, cfg: fit_gev_mixed(sample.data)),
    "gpd_mle": (SampleKind.POT_EXCEEDANCES, lambda sample, cfg: fit_gpd_mle(
        sample.data, location=sample.threshold)),
    "gpd_pickands": (SampleKind.POT_EXCEEDANCES, lambda sample, cfg: fit_gpd_pickands(
        sample.data, location=sample.threshold)),
    "gpd_epm": (SampleKind.POT_EXCEEDANCES, lambda sample, cfg: fit_gpd_epm(
        sample.data, start_percentile=cfg.epm_start_percentile, location=sample.threshold,
        # zlib.crc32 is stable across processes, unlike builtin str hashing
        seed=child_seed(cfg.seed, zlib.crc32(sample.provenance.label().encode("utf-8"))))),
}
_SIDES = {"bid": Side.BID, "ask": Side.ASK}
# the JSON types a config value may take; a boolean is not a number
_JSON_TYPES = {"integer": int, "number": (int, float), "string": str, "array": list,
               "object": dict}


def _json(kind: str, name: str, value):
    """``value`` when it is a JSON ``kind``; ConfigError otherwise, never a coercion.

    ``name`` is the value's JSON path, for example ``assets[0].market_hours``.
    """
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise ConfigError(f"{name} must be a JSON {kind}, got {json.dumps(value)}")
    return value


def _json_float(name: str, value) -> float:
    """``value`` as a float when it is a JSON number a float can hold; ConfigError otherwise."""
    try:
        return float(_json("number", name, value))
    except OverflowError:
        raise ConfigError(f"{name} must be a JSON number within float range") from None


def _json_array(kind: str, name: str, value) -> list:
    """``value`` when it is a JSON array of ``kind`` entries; ConfigError otherwise."""
    return [_json(kind, f"{name}[{i}]", entry)
            for i, entry in enumerate(_json("array", name, value))]


def _json_key(kind: str, obj: dict, key: str, at: str = ""):
    """``obj[key]`` as a JSON ``kind``, where ``at`` is the path of ``obj``; the key is required."""
    name = f"{at}.{key}" if at else key
    if key not in obj:
        raise ConfigError(f"{name} is required")
    return _json(kind, name, obj[key])


def _json_parsed(parse, expected: str, name: str, value):
    """``parse(value)`` of a JSON string; ConfigError naming ``expected`` when parse rejects it."""
    _json("string", name, value)
    try:
        return parse(value)
    except (KeyError, ValueError):
        raise ConfigError(f"{name} must be {expected}, got {json.dumps(value)}") from None


# optional JSON fields and their conversions; a field left out keeps the
# RunConfig default, an estimator left out of "estimators" stays enabled
_JSON_FIELDS = {
    "resolutions_s": lambda v: _json_array("integer", "resolutions_s", v),
    "levels": lambda v: _json_array("integer", "levels", v),
    "sides": lambda v: [_json_parsed(_SIDES.__getitem__, '"bid" or "ask"', f"sides[{i}]", s)
                        for i, s in enumerate(_json("array", "sides", v))],
    "block_len": lambda v: _json("integer", "block_len", v),
    "pot_percentile": lambda v: _json_float("pot_percentile", v),
    "estimators": lambda v: {**dict.fromkeys(ESTIMATORS, True), **_json("object", "estimators", v)},
    "epm_start_percentile": lambda v: _json_float("epm_start_percentile", v),
    "seed": lambda v: _json("integer", "seed", v),
    "jobs": lambda v: _json("integer", "jobs", v),
}
_JSON_KEYS = {"input_dir", "output_dir", "assets", *_JSON_FIELDS}


class ConfigError(ValueError):
    """Invalid run configuration (exit code 2)."""


@dataclass(frozen=True)
class AssetConfig:
    name: str
    hours: MarketHours
    holidays: frozenset[datetime.date] = frozenset()


@dataclass
class RunConfig:
    """Pipeline configuration; JSON field names match the attributes."""

    input_dir: Path
    output_dir: Path
    assets: list[AssetConfig]
    resolutions_s: list[int] = field(default_factory=lambda: [10])
    levels: list[int] = field(default_factory=lambda: [1])
    sides: list[Side] = field(default_factory=lambda: [Side.BID, Side.ASK])
    block_len: int = 30
    pot_percentile: float = 0.8
    estimators: dict[str, bool] = field(
        default_factory=lambda: dict.fromkeys(ESTIMATORS, True)
    )
    epm_start_percentile: float = 0.5
    seed: int = 0
    jobs: int = 1

    def validate(self) -> None:
        if not self.assets:
            raise ConfigError("assets must list at least one asset")
        # a repeated entry would fit and count the same series twice
        for name, values in (("assets", [a.name for a in self.assets]),
                             ("resolutions_s", self.resolutions_s), ("levels", self.levels),
                             ("sides", self.sides)):
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} must not repeat an entry")
        unknown = sorted(self.estimators.keys() - ESTIMATORS.keys())
        if unknown:
            raise ConfigError(f"unknown estimators in config: {unknown}")
        not_bool = sorted(name for name, on in self.estimators.items() if not isinstance(on, bool))
        if not_bool:
            raise ConfigError(f"estimators flags must be true or false: {not_bool}")
        if not self.enabled_estimators():
            raise ConfigError("estimators must enable at least one estimator")
        if any(r <= 0 for r in self.resolutions_s):
            raise ConfigError("resolutions_s entries must be positive")
        if not all(1 <= lev <= 5 for lev in self.levels):
            raise ConfigError("levels must lie in [1, 5]")
        if not 0.0 <= self.pot_percentile < 1.0:
            raise ConfigError("pot_percentile must lie in [0, 1)")
        if not 0.0 <= self.epm_start_percentile < 1.0:
            raise ConfigError("epm_start_percentile must lie in [0, 1)")
        if self.block_len < 1:
            raise ConfigError("block_len must be >= 1")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    def enabled_estimators(self) -> list[str]:
        """Enabled estimator names in table order; a name left out is disabled."""
        enabled = {name for name, on in self.estimators.items() if on}
        return [name for name in ESTIMATORS if name in enabled]

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        # ValueError: invalid JSON or UTF-8, or an integer beyond Python's digit limit
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        _json("object", "config", raw)
        # a misspelt field would otherwise fall back to its default unnoticed
        unknown = sorted(raw.keys() - _JSON_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        assets = []
        for i, entry in enumerate(_json_key("array", raw, "assets")):
            at = f"assets[{i}]"
            _json("object", at, entry)
            hours = _json_key("object", entry, "market_hours", at)
            open_s, close_s = (_json_key("integer", hours, key, f"{at}.market_hours")
                               for key in ("open_s", "close_s"))
            try:
                market_hours = MarketHours(open_s=open_s, close_s=close_s)
            except ValueError as exc:
                raise ConfigError(f"{at}.market_hours: {exc}") from None
            holidays = frozenset(
                _json_parsed(datetime.date.fromisoformat, "an ISO date", f"{at}.holidays[{j}]", d)
                for j, d in enumerate(_json("array", f"{at}.holidays", entry.get("holidays", []))))
            assets.append(AssetConfig(name=_json_key("string", entry, "name", at),
                                      hours=market_hours, holidays=holidays))
        cfg = cls(
            input_dir=Path(_json_key("string", raw, "input_dir")),
            output_dir=Path(_json_key("string", raw, "output_dir")),
            assets=assets,
            **{name: conv(raw[name]) for name, conv in _JSON_FIELDS.items() if name in raw},
        )
        cfg.validate()
        return cfg


# ---------------------------------------------------------------------------
# per-day unit of work
# ---------------------------------------------------------------------------


# marks an error entry raised by a fault in the program rather than the data;
# such an entry flags the run (exit code 1)
_INTERNAL = ": internal: "


def _internal_error(label: str, exc: Exception) -> str:
    """The error entry for a fault in the program; its traceback goes to stderr."""
    entry = f"{label}{_INTERNAL}{type(exc).__name__}: {exc}"
    sys.stderr.write(f"{entry}\n{''.join(traceback.format_exception(exc))}")
    return entry


def _stage(errors: list[str], label: str, fn):
    """Run one stage of a unit; a failure becomes an error entry.

    A data failure (EstimationError) records ``"<label>: <message>"``; any
    other exception is a fault and records ``"<label>: internal: <type>: <message>"``.
    """
    try:
        return fn()
    except EstimationError as exc:
        errors.append(f"{label}: {exc}")
    except Exception as exc:
        errors.append(_internal_error(label, exc))
    return None


def _prepare(series, kind: SampleKind, cfg: RunConfig, stem: Path) -> PreparedSample:
    """Estimator-ready sample of one kind; derived samples are written beside ``stem``."""
    if kind is SampleKind.FULL:
        return full_sample(series)
    if kind is SampleKind.BLOCK_MAXIMA:
        sample, suffix = block_maxima(series, cfg.block_len), "blockmax"
    else:
        sample, suffix = pot_exceedances(series, cfg.pot_percentile), "pot"
    report.write_prepared_sample(stem.with_name(f"{stem.name}_{suffix}.csv"), sample)
    return sample


def _res_dir(cfg: RunConfig, asset: str, resolution_s: int) -> Path:
    return cfg.output_dir / asset / f"res{resolution_s}s"


def _make_res_dirs(cfg: RunConfig, asset: str, resolutions_s) -> None:
    """Make the directories that the series of each resolution share.

    ``prepared`` is made only when an enabled estimator derives a sample, and
    ``gof`` only when any estimator is enabled.
    """
    kinds = {ESTIMATORS[name][0] for name in cfg.enabled_estimators()}
    subdirs = ["series", "diagnostics", "fits"]
    if kinds - {SampleKind.FULL}:
        subdirs.append("prepared")
    if kinds:
        subdirs.append("gof")
    for res in resolutions_s:
        for sub in subdirs:
            (_res_dir(cfg, asset, res) / sub).mkdir(parents=True, exist_ok=True)


def _goodness_of_fit(fit: FitResult, sample: PreparedSample, stem: Path) -> FitResult:
    """The fit with its KS statistic; its percentile table is written beside ``stem``.

    A KS test the data defeat (EstimationError) leaves a ``ks skipped: ...`` note instead.
    """
    # GPD fits carry mu = threshold, so their GOF probes the absolute
    # exceedance values rather than the excesses
    probe = sample.data
    if sample.kind is SampleKind.POT_EXCEEDANCES:
        probe = sample.data + sample.threshold
    cdf = gof.fit_cdf(fit)
    try:
        d, p = gof.ks_statistic(probe, cdf)
        fit = dataclasses.replace(fit, ks_statistic=d, ks_pvalue=p)
    except EstimationError as exc:
        fit = dataclasses.replace(fit, notes=fit.notes + (f"ks skipped: {exc}",))
    report.write_csv(
        stem.with_name(f"{stem.name}_{fit.family.value}_{fit.method.value}_percentiles.csv"),
        ["p", "cdf_at_empirical_quantile"],
        list(zip(*gof.percentile_comparison(probe, cdf))),
    )
    return fit


def _fit_unit(series, cfg: RunConfig) -> tuple[list[FitResult], list[str]]:
    """Prepare, fit and report one (asset, day, side, level, resolution) series.

    Returns the fits and the errors.  Every stage the data defeat
    records ``"<stage>: <message>"`` and the unit goes on.  Each enabled
    estimator ends as one fit or one error; an estimator whose sample could
    not be prepared records ``"<estimator>: <sample kind>: <message>"``.
    The directories it writes into exist (``_make_res_dirs``), apart from the
    series' own diagnostics directory, which it makes.
    """
    key = series.key
    fits: list[FitResult] = []
    errors: list[str] = []
    label = f"{key.trading_day.isoformat()}_{key.side.value}_L{key.level}"
    res_dir = _res_dir(cfg, key.asset, key.resolution_s)
    values = series.values

    report.write_series_csv(res_dir / "series" / f"{label}.csv", series.timestamps, values)

    diag_dir = res_dir / "diagnostics" / label
    diag_dir.mkdir(exist_ok=True)

    def hurst():
        h, dfa_curve = diagnostics.hurst_dfa(values)
        report.write_curve_csv(diag_dir / "curve_dfa_loglog.csv", dfa_curve)
        report.write_json(diag_dir / "hurst.json", {"hurst": h, "n": len(series)})

    _stage(errors, "descriptive", lambda: report.write_json(
        diag_dir / "descriptive.json", dataclasses.asdict(diagnostics.descriptive(values))))
    _stage(errors, "mean_excess", lambda: report.write_curve_csv(
        diag_dir / "curve_mean_excess.csv", diagnostics.mean_excess_curve(values)))
    positive = values[values > 0]
    if positive.size >= 10:
        _stage(errors, "hill", lambda: report.write_curve_csv(
            diag_dir / "curve_hill.csv",
            diagnostics.hill_curve(positive, k_max=max(3, positive.size // 10))))
    _stage(errors, "qq_exponential", lambda: report.write_curve_csv(
        diag_dir / "curve_qq_exponential.csv", diagnostics.qq_exponential(values)))
    _stage(errors, "hurst_dfa", hurst)

    enabled = cfg.enabled_estimators()
    needed = {ESTIMATORS[name][0] for name in enabled}
    stem = res_dir / "prepared" / label
    prep_errors = {kind: [] for kind in SampleKind if kind in needed}
    samples = {kind: _stage(errs, kind.value, lambda: _prepare(series, kind, cfg, stem))
               for kind, errs in prep_errors.items()}

    for name in enabled:
        kind, fit_with = ESTIMATORS[name]
        sample = samples[kind]
        if sample is None:
            errors.extend(f"{name}: {e}" for e in prep_errors[kind])
            continue
        fit = _stage(errors, name, lambda: fit_with(sample, cfg))
        if fit is not None:
            fit = _stage(errors, f"{name}: percentiles",
                         lambda: _goodness_of_fit(fit, sample, res_dir / "gof" / label))
        if fit is not None:
            fits.append(fit)

    report.write_json(
        res_dir / "fits" / f"{label}.json",
        {"series": key.label(), "fits": [report.fit_to_dict(f) for f in fits],
         "errors": errors},
    )
    return fits, errors


def _discover_days(cfg: RunConfig, asset: AssetConfig,
                   day_range: Optional[tuple[datetime.date, datetime.date]]) -> list[datetime.date]:
    asset_dir = cfg.input_dir / asset.name
    days = []
    for path in sorted(asset_dir.glob("*.csv")):
        try:
            day = datetime.date.fromisoformat(path.stem)
        except ValueError:
            continue
        # fromisoformat also reads 20100105 and 2010-W01-2; only YYYY-MM-DD names a day
        if path.stem != day.isoformat() or day in asset.holidays:
            continue
        if day_range and not day_range[0] <= day <= day_range[1]:
            continue
        days.append(day)
    return days


def _run_day(
    cfg: RunConfig, asset: AssetConfig, day: datetime.date
) -> tuple[dict, list[tuple[SeriesKey, FitResult]], dict[SeriesKey, dict[int, float]]]:
    """Parse, sub-sample, fit and report every series of one (asset, day).

    Returns the day's ``summary.json`` entry, its ``(SeriesKey, FitResult)``
    pairs and each series' hourly medians (for the heat maps).  A file that
    cannot be ingested, or an exception raised outside every stage, gives an
    entry with an ``error`` and nothing else; the latter names the series, or
    the asset and day when no series had started.
    """
    entry = {"asset": asset.name, "day": day.isoformat()}
    keys = [SeriesKey(asset=asset.name, trading_day=day, side=side, level=level, resolution_s=res)
            for res, side, level in itertools.product(cfg.resolutions_s, cfg.sides, cfg.levels)]
    errors: dict[SeriesKey, list[str]] = {key: [] for key in keys}
    fits, medians = [], {}
    key = None
    try:
        ticks, parse_report = parse_tick_file(cfg.input_dir / asset.name / f"{day.isoformat()}.csv")
        day_series = [_stage(errors[k], "subsample", lambda: subsample_last(ticks, k, asset.hours))
                      for k in keys]
        del ticks  # the fits need only the series; free the rows before they run
        _make_res_dirs(cfg, asset.name, {s.key.resolution_s for s in day_series if s is not None})
        for series in day_series:
            if series is None:
                continue
            key = series.key
            unit_fits, errors[key] = _fit_unit(series, cfg)
            fits.extend((key, fit) for fit in unit_fits)
            medians[key] = diagnostics.hourly_medians(series)
    except TickFileError as exc:
        return {**entry, "error": str(exc)}, [], {}
    except Exception as exc:  # last resort: a fault outside every stage costs the day
        label = key.label() if key else f"{asset.name}_{day.isoformat()}"
        return {**entry, "error": _internal_error(label, exc)}, [], {}
    entry.update(skipped_rows=parse_report.skipped, malformed_rows=parse_report.malformed,
                 first_errors=list(parse_report.first_errors),
                 errors=[f"{key.label()}: {e}" for key, errs in errors.items() for e in errs])
    return entry, fits, medians


def run_pipeline(cfg: RunConfig,
                 day_range: Optional[tuple[datetime.date, datetime.date]] = None) -> int:
    """Run the batch pipeline; returns the process exit code.

    Each (asset, day) is one unit of work; ``cfg.jobs`` days run at once and
    their results are folded in day order.
    """
    cfg.validate()
    if not cfg.input_dir.is_dir():
        print(f"fatal: input directory {cfg.input_dir} does not exist", file=sys.stderr)
        return 1
    out_dir = cfg.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    fatal = False
    total_fits = 0
    day_summaries = []

    for asset in cfg.assets:
        days = _discover_days(cfg, asset, day_range)
        if not days:
            day_summaries.append({"asset": asset.name, "error": "no input days"})
            continue
        medians: dict[SeriesKey, dict[int, float]] = {}
        param_rows: dict[tuple[int, Family, Method], dict] = {}
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            for entry, fits, day_medians in pool.map(functools.partial(_run_day, cfg, asset), days):
                fatal |= "error" in entry or any(_INTERNAL in e for e in entry["errors"])
                day_summaries.append(entry)
                medians.update(day_medians)
                total_fits += len(fits)
                # year-level parameter trajectories: one row per day, columns
                # per (parameter, side, level)
                for key, fit in fits:
                    table = param_rows.setdefault((key.resolution_s, fit.family, fit.method), {})
                    row = table.setdefault(key.trading_day, {})
                    for pname, val in dataclasses.asdict(fit.params).items():
                        row[f"{pname}_{key.side.value}_L{key.level}"] = val
                    row[f"ks_{key.side.value}_L{key.level}"] = fit.ks_statistic

        # hourly median heat maps per (side, level) for each resolution
        for res in cfg.resolutions_s:
            subset = {(key.side, key.level, key.trading_day): by_hour
                      for key, by_hour in medians.items() if key.resolution_s == res}
            if not subset:
                continue
            matrices = diagnostics.hourly_median_matrix(subset)
            for (side, level), hm in matrices.items():  # one file each, in any order
                report.write_heatmap_csv(
                    _res_dir(cfg, asset.name, res)
                    / f"heatmap_{asset.name}_{side.value}_L{level}.csv",
                    hm,
                )

        for (res, family, method), table in param_rows.items():
            days_sorted = sorted(table)
            names = sorted({c for row in table.values() for c in row})
            report.write_csv(
                _res_dir(cfg, asset.name, res) / f"params_{family.value}_{method.value}.csv",
                ["day"] + names,
                [[d.isoformat() for d in days_sorted],
                 *([table[d].get(c) for d in days_sorted] for c in names)],
            )

    report.write_json(
        out_dir / "summary.json",
        {
            "schema_version": report.SCHEMA_VERSION,
            "seed": cfg.seed,
            "total_fits": total_fits,
            "days": day_summaries,
        },
    )
    if fatal or total_fits == 0:
        return 1
    return 0


# ---------------------------------------------------------------------------
# simulation studies
# ---------------------------------------------------------------------------

_STUDY_GAMMAS = (-0.3, 0.0, 0.2, 0.5)
# Every study `lobtail simstudy` runs: its name and the call that gives its
# (variant, StudyResult) pairs in output order.  The calls look the studies up
# in simstudy when they run, as ESTIMATORS does for the fitters.
STUDIES = {
    "GevCompare": lambda seed, replicates: [
        (f"gamma_{g:+.1f}", simstudy.gev_method_comparison(
            GevParams(mu=0.0, sigma=1.0, gamma=g), replicates=replicates, seed=seed))
        for g in _STUDY_GAMMAS],
    "GpdCompare": lambda seed, replicates: [
        (f"gamma_{g:+.1f}", simstudy.gpd_method_comparison(
            GpdParams(gamma=g, sigma=1.0, mu=0.0), replicates=replicates, seed=seed))
        for g in _STUDY_GAMMAS],
    "KsCase": lambda seed, replicates: [
        ("default", simstudy.ks_case_study(
            StableParams(alpha=1.7, beta=0.5, gamma=1.0, delta=0.0),
            replicates=replicates, seed=seed))],
}


def _write_rows(path: Path, rows: list[dict]) -> None:
    """CSV of dict rows; the header is every column in first-seen order."""
    header = list(dict.fromkeys(col for row in rows for col in row)) or ["empty"]
    report.write_csv(path, header, [[row.get(col) for row in rows] for col in header])


def run_simstudy(study: str, out_dir: Path, seed: int = 0,
                 replicates: int = 20) -> int:
    """Run one named synthetic study and write its tables plus a check summary."""
    if study not in STUDIES or min(seed, replicates) < 0:
        print(f"usage error: study {study!r} must be one of {tuple(STUDIES)}, and --seed "
              f"{seed} and --replicates {replicates} must be >= 0", file=sys.stderr)
        return 2
    (out_dir / study).mkdir(parents=True, exist_ok=True)
    checks_all = {}
    for variant, res in STUDIES[study](seed, replicates):
        vdir = out_dir / study / variant
        vdir.mkdir(exist_ok=True)
        _write_rows(vdir / "estimates.csv", res.estimates)
        if res.summary:
            _write_rows(vdir / "summary.csv", res.summary)
        checks_all[variant] = res.checks
    report.write_json(out_dir / study / "checks.json",
                      {"schema_version": report.SCHEMA_VERSION, "seed": seed,
                       "study": study, "checks": checks_all})
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parse_day_range(text: str) -> tuple[datetime.date, datetime.date]:
    try:
        a, b = text.split("..")
        lo, hi = datetime.date.fromisoformat(a), datetime.date.fromisoformat(b)
    except ValueError as exc:
        raise ConfigError(f"bad --days range {text!r}; expected A..B ISO dates") from exc
    if lo > hi:
        raise ConfigError(f"--days range {text!r} is reversed")
    return lo, hi


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="lobtail",
                                     description="volume-profile tail analytics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the batch pipeline")
    p_run.add_argument("--config", required=True, help="JSON run configuration")
    p_run.add_argument("--days", default=None, help="inclusive day range A..B (ISO dates)")

    p_sim = sub.add_parser("simstudy", help="run a synthetic estimator study")
    p_sim.add_argument("study", choices=STUDIES)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default="simstudy_out")
    p_sim.add_argument("--replicates", type=int, default=20)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = RunConfig.from_json(args.config)
            day_range = _parse_day_range(args.days) if args.days else None
            return run_pipeline(cfg, day_range)
        return run_simstudy(args.study, Path(args.out), seed=args.seed,
                            replicates=args.replicates)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
