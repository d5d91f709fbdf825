"""Batch driver: per-day pipeline (ingest -> prepare -> fit -> diagnostics ->
goodness-of-fit) plus the synthetic-study entry points.

Usage:
    lobtail run --config run.json [--days 2010-01-04..2010-01-08] [--jobs N]
    lobtail simstudy {GevCompare,GpdCompare,KsCase} [--seed S] [--out DIR]

Exit codes: 0 success, 1 fatal (ingestion failure or zero successful fits),
2 configuration error.  Output trees are a pure function of (input files,
config, seed); re-runs are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import itertools
import json
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import diagnostics, gof, report, simstudy
from .core import (
    Family,
    FitResult,
    GevParams,
    GpdParams,
    Method,
    SeriesKey,
    Side,
    StableParams,
    VolumeSeries,
)
from .gev import fit_gev_mixed, fit_gev_mle
from .gpd import fit_gpd_epm, fit_gpd_mle, fit_gpd_pickands
from .ingest import (
    EmptySeriesError,
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
    "stable_mcculloch": (SampleKind.FULL, lambda sample, cfg: fit_mcculloch(
        sample.data, iqr_scale=cfg.iqr_scale_stable)),
    "gev_mle": (SampleKind.BLOCK_MAXIMA, lambda sample, cfg: fit_gev_mle(sample.data)),
    "gev_mixed": (SampleKind.BLOCK_MAXIMA, lambda sample, cfg: fit_gev_mixed(sample.data)),
    "gpd_mle": (SampleKind.POT_EXCEEDANCES, lambda sample, cfg: fit_gpd_mle(
        sample.data, location=sample.threshold)),
    "gpd_pickands": (SampleKind.POT_EXCEEDANCES, lambda sample, cfg: fit_gpd_pickands(
        sample.data, location=sample.threshold)),
    "gpd_epm": (SampleKind.POT_EXCEEDANCES, lambda sample, cfg: fit_gpd_epm(
        sample.data, start_percentile=cfg.epm_start_percentile, location=sample.threshold,
        seed=_unit_seed(cfg.seed, sample.provenance))),
}
_SIDES = {"bid": Side.BID, "ask": Side.ASK}
# optional JSON fields and their conversions; a field left out keeps the
# RunConfig default, an estimator left out of "estimators" stays enabled
_JSON_FIELDS = {
    "resolutions_s": lambda v: [int(r) for r in v],
    "levels": lambda v: [int(lv) for lv in v],
    "sides": lambda v: [_SIDES[s] for s in v],
    "block_len": int,
    "pot_percentile": float,
    "estimators": lambda v: {**dict.fromkeys(ESTIMATORS, True), **v},
    "iqr_scale_stable": lambda v: v,
    "epm_start_percentile": float,
    "seed": int,
    "jobs": int,
}


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
    iqr_scale_stable: bool = False
    epm_start_percentile: float = 0.5
    seed: int = 0
    jobs: int = 1

    def validate(self) -> None:
        if not self.assets:
            raise ConfigError("config needs at least one asset")
        unknown = sorted(self.estimators.keys() - ESTIMATORS.keys())
        if unknown:
            raise ConfigError(f"unknown estimators in config: {unknown}")
        flags = {**self.estimators, "iqr_scale_stable": self.iqr_scale_stable}
        not_bool = sorted(name for name, on in flags.items() if not isinstance(on, bool))
        if not_bool:
            raise ConfigError(f"flags must be true or false: {not_bool}")
        if not self.enabled_estimators():
            raise ConfigError("config needs at least one enabled estimator")
        if any(r <= 0 for r in self.resolutions_s):
            raise ConfigError("resolutions must be positive")
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

    def enabled_estimators(self) -> list[str]:
        """Enabled estimator names in table order; a name left out is disabled."""
        enabled = {name for name, on in self.estimators.items() if on}
        return [name for name in ESTIMATORS if name in enabled]

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            assets = []
            for entry in raw["assets"]:
                hours = MarketHours(
                    open_s=int(entry["market_hours"]["open_s"]),
                    close_s=int(entry["market_hours"]["close_s"]),
                )
                holidays = frozenset(
                    datetime.date.fromisoformat(d) for d in entry.get("holidays", [])
                )
                assets.append(AssetConfig(name=entry["name"], hours=hours, holidays=holidays))
            cfg = cls(
                input_dir=Path(raw["input_dir"]),
                output_dir=Path(raw["output_dir"]),
                assets=assets,
                **{name: conv(raw[name]) for name, conv in _JSON_FIELDS.items() if name in raw},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad config {path}: {exc}") from exc
        cfg.validate()
        return cfg


# ---------------------------------------------------------------------------
# per-day unit of work
# ---------------------------------------------------------------------------


def _unit_seed(cfg_seed: int, key: SeriesKey) -> int:
    # zlib.crc32 is stable across processes, unlike builtin str hashing
    digest = zlib.crc32(key.label().encode("utf-8"))
    return int(np.random.SeedSequence([cfg_seed, digest]).generate_state(1)[0])


def _stage(errors: list[str], label: str, fn):
    """Run one stage of a unit; a numerical failure becomes an error entry."""
    try:
        return fn()
    except (ValueError, ArithmeticError) as exc:
        errors.append(f"{label}: {exc}")
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


def _fit_unit(series, cfg: RunConfig) -> tuple[list[FitResult], list[str]]:
    """Prepare, fit and report one (asset, day, side, level, resolution) series.

    Returns the fits and the errors.  Every stage that fails numerically
    records ``"<stage>: <message>"`` and the unit goes on.  Each enabled
    estimator ends as one fit or one error; an estimator whose sample could
    not be prepared records ``"<estimator>: <sample kind>: <message>"``.
    """
    key = series.key
    fits: list[FitResult] = []
    errors: list[str] = []
    label = f"{key.trading_day.isoformat()}_{key.side.value}_L{key.level}"
    res_dir = cfg.output_dir / key.asset / f"res{key.resolution_s}s"
    values = series.values

    report.write_series_csv(res_dir / "series" / f"{label}.csv", series.timestamps, values)

    diag_dir = res_dir / "diagnostics" / label

    def hurst():
        h, dfa_curve = diagnostics.hurst_dfa(values)
        report.write_curve_csv(diag_dir / "curve_dfa_loglog.csv", dfa_curve)
        report.write_json(diag_dir / "hurst.json", {"hurst": h, "n": len(series)})

    _stage(errors, "descriptive", lambda: report.write_json(
        diag_dir / "descriptive.json", report.descriptive_to_dict(diagnostics.descriptive(values))))
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
        if fit is None:
            continue
        # GPD fits carry mu = threshold, so their GOF probes the absolute
        # exceedance values rather than the excesses
        probe = sample.data
        if kind is SampleKind.POT_EXCEEDANCES:
            probe = sample.data + sample.threshold
        cdf = gof.fit_cdf(fit)
        try:
            d, p = gof.ks_statistic(probe, cdf)
            fit = dataclasses.replace(fit, ks_statistic=d, ks_pvalue=p)
        except (ValueError, ArithmeticError) as exc:
            fit = dataclasses.replace(fit, notes=fit.notes + (f"ks skipped: {exc}",))
        rows = _stage(errors, f"{name}: percentiles",
                      lambda: gof.percentile_comparison(probe, cdf))
        if rows is None:
            continue
        fits.append(fit)
        report.write_csv(
            res_dir / "gof" / f"{label}_{fit.family.value}_{fit.method.value}_percentiles.csv",
            ["p", "cdf_at_empirical_quantile"],
            rows,
        )

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
        if day in asset.holidays:
            continue
        if day_range and not day_range[0] <= day <= day_range[1]:
            continue
        days.append(day)
    return days


def _run_day(
    cfg: RunConfig, asset: AssetConfig, day: datetime.date
) -> tuple[dict, list[tuple[SeriesKey, FitResult]], list[VolumeSeries]]:
    """Parse, sub-sample, fit and report every series of one (asset, day).

    Returns the day's ``summary.json`` entry, its ``(SeriesKey, FitResult)``
    pairs and its series (for the heat maps).  A file that cannot be ingested
    gives an entry with an ``error`` and nothing else.
    """
    entry = {"asset": asset.name, "day": day.isoformat()}
    try:
        ticks, parse_report = parse_tick_file(cfg.input_dir / asset.name / f"{day.isoformat()}.csv")
    except TickFileError as exc:
        return {**entry, "error": str(exc)}, [], []
    keys = [SeriesKey(asset=asset.name, trading_day=day, side=side, level=level, resolution_s=res)
            for res, side, level in itertools.product(cfg.resolutions_s, cfg.sides, cfg.levels)]
    errors: dict[SeriesKey, list[str]] = {key: [] for key in keys}
    day_series = []
    for key in keys:
        try:
            day_series.append(subsample_last(ticks, key, asset.hours))
        except EmptySeriesError as exc:
            errors[key].append(f"subsample: {exc}")
    del ticks  # the fits need only the series; free the rows before they run
    fits = []
    for series in day_series:
        unit_fits, errors[series.key] = _fit_unit(series, cfg)
        fits.extend((series.key, fit) for fit in unit_fits)
    entry.update(skipped_rows=parse_report.skipped,
                 errors=[f"{key.label()}: {e}" for key, errs in errors.items() for e in errs])
    return entry, fits, day_series


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

    fatal_ingest = False
    total_fits = 0
    day_summaries = []
    param_rows: dict[tuple[str, int, Family, Method], dict] = {}

    for asset in cfg.assets:
        days = _discover_days(cfg, asset, day_range)
        if not days:
            day_summaries.append({"asset": asset.name, "error": "no input days"})
            continue
        all_series: list = []
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            for entry, fits, day_series in pool.map(functools.partial(_run_day, cfg, asset), days):
                fatal_ingest |= "error" in entry
                day_summaries.append(entry)
                all_series.extend(day_series)
                total_fits += len(fits)
                # year-level parameter trajectories: one row per day, columns
                # per (parameter, side, level)
                for key, fit in fits:
                    table = param_rows.setdefault(
                        (key.asset, key.resolution_s, fit.family, fit.method), {})
                    row = table.setdefault(key.trading_day, {})
                    for pname, val in fit.params_dict().items():
                        row[f"{pname}_{key.side.value}_L{key.level}"] = val
                    row[f"ks_{key.side.value}_L{key.level}"] = fit.ks_statistic

        # hourly median heat maps per (side, level) for each resolution
        for res in cfg.resolutions_s:
            subset = [s for s in all_series if s.key.resolution_s == res]
            if not subset:
                continue
            matrices = diagnostics.hourly_median_matrix(subset)
            for (side, level), hm in sorted(
                matrices.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
            ):
                report.write_heatmap_csv(
                    out_dir / asset.name / f"res{res}s"
                    / f"heatmap_{asset.name}_{side.value}_L{level}.csv",
                    hm,
                )

    for (asset_name, res, family, method), table in sorted(
        param_rows.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].value, kv[0][3].value)
    ):
        days_sorted = sorted(table)
        columns = sorted({c for row in table.values() for c in row})
        rows = [[d.isoformat()] + [table[d].get(c) for c in columns] for d in days_sorted]
        report.write_csv(
            out_dir / asset_name / f"res{res}s" / f"params_{family.value}_{method.value}.csv",
            ["day"] + columns,
            rows,
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
    if fatal_ingest or total_fits == 0:
        return 1
    return 0


# ---------------------------------------------------------------------------
# simulation studies
# ---------------------------------------------------------------------------

STUDY_NAMES = ("GevCompare", "GpdCompare", "KsCase")


def run_simstudy(study: str, out_dir: Path, seed: int = 0,
                 replicates: int = 20) -> int:
    """Run one named synthetic study and write its tables plus a check summary."""
    if study not in STUDY_NAMES:
        print(f"usage error: unknown study {study!r}; choose from {STUDY_NAMES}",
              file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    if study == "GevCompare":
        for g in (-0.3, 0.0, 0.2, 0.5):
            res = simstudy.gev_method_comparison(
                GevParams(mu=0.0, sigma=1.0, gamma=g),
                sample_sizes=(50, 10000), replicates=replicates, seed=seed,
            )
            results.append((f"gamma_{g:+.1f}", res))
    elif study == "GpdCompare":
        for g in (-0.3, 0.0, 0.2, 0.5):
            res = simstudy.gpd_method_comparison(
                GpdParams(gamma=g, sigma=1.0, mu=0.0),
                n=500, replicates=replicates,
                epm_start_percentiles=(0.0, 0.5, 0.75), seed=seed,
            )
            results.append((f"gamma_{g:+.1f}", res))
    else:
        res = simstudy.ks_case_study(
            StableParams(alpha=1.7, beta=0.5, gamma=1.0, delta=0.0),
            n_full=3888, n_sub=200, replicates=replicates, seed=seed,
        )
        results.append(("default", res))

    checks_all = {}
    for variant, res in results:
        vdir = out_dir / study / variant
        if res.estimates:
            header = list(res.estimates[0].keys())
            report.write_csv(vdir / "estimates.csv", header,
                             [[row.get(h) for h in header] for row in res.estimates])
        else:
            report.write_csv(vdir / "estimates.csv", ["empty"], [])
        if res.summary:
            header = list(res.summary[0].keys())
            report.write_csv(vdir / "summary.csv", header,
                             [[row.get(h) for h in header] for row in res.summary])
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
    p_run.add_argument("--jobs", type=int, default=None, help="trading days processed at once")

    p_sim = sub.add_parser("simstudy", help="run a synthetic estimator study")
    p_sim.add_argument("study", choices=STUDY_NAMES)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default="simstudy_out")
    p_sim.add_argument("--replicates", type=int, default=20)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = RunConfig.from_json(args.config)
            if args.jobs is not None:
                cfg.jobs = args.jobs
            day_range = _parse_day_range(args.days) if args.days else None
            return run_pipeline(cfg, day_range)
        return run_simstudy(args.study, Path(args.out), seed=args.seed,
                            replicates=args.replicates)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
