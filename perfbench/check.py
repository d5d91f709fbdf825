"""Correctness gate of the benchmark.

Three checks, each a list of problems (empty = pass):

* ``golden_diff``: the golden toy config reproduces ``tests/golden/toy_run``
  byte for byte.  The golden tree is read from the checkout, so a
  regeneration committed with the code flows through.
* ``compare``: fit parameters, KS statistics and percentile rows (or study
  estimates) of a fixed reference case agree with the record under
  ``perfbench/reference/`` within the tolerances below; exit code, fit count
  and failure flags must match exactly.
* ``run_problems`` / ``study_problems``: outputs of a timed iteration on the
  seeded workload are complete and in range (fit count, KS in [0, 1],
  percentile rows in [0, 1], finite parameters).  Determinism across
  iterations is checked by comparing ``tree_digest`` values.

Tolerances are loose enough for CDF changes within the documented stable-CDF
accuracy (|dF| <= 1e-8): a KS statistic or percentile row moves by at most
that much, and a KS p-value by at most sqrt(n) * 1.7 * 1e-8 < 2e-6 for the
sample sizes here.

    python3 perfbench/check.py record   # rewrite perfbench/reference/*.json
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

PARAM_RTOL = 1e-6      # relative to max(|reference|, 1)
KS_ATOL = 1e-6
PVALUE_ATOL = 1e-4
PERCENTILE_ATOL = 1e-6
PROBES = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99]
ESTIMATORS = ("stable_mcculloch", "gev_mle", "gev_mixed", "gpd_mle", "gpd_pickands",
              "gpd_epm")


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for rel, body in tree_bytes(root).items():
        h.update(rel.encode() + b"\0" + hashlib.sha256(body).digest())
    return h.hexdigest()


def golden_diff(out_dir: Path, golden_dir: Path) -> list[str]:
    got, want = tree_bytes(out_dir), tree_bytes(golden_dir)
    if not want:
        return [f"golden tree {golden_dir} is empty or missing"]
    problems = [f"golden: missing {k}" for k in sorted(want.keys() - got.keys())]
    problems += [f"golden: unexpected {k}" for k in sorted(got.keys() - want.keys())]
    problems += [f"golden: bytes differ in {k}" for k in sorted(want.keys() & got.keys())
                 if got[k] != want[k]]
    return problems


# ---------------------------------------------------------------------------
# reference records
# ---------------------------------------------------------------------------


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def extract_run(out_dir: Path, exit_code: int) -> dict:
    """Reference-shaped record of a ``lobtail run`` output tree."""
    summary_path = out_dir / "summary.json"
    summary = json.loads(summary_path.read_text()) if summary_path.exists() else {}
    fits, errors, percentiles = {}, {}, {}
    for path in sorted(out_dir.glob("*/res*s/fits/*.json")):
        body = json.loads(path.read_text())
        rel = path.relative_to(out_dir).as_posix()
        fits[rel] = [{k: f[k] for k in ("family", "method", "params", "ks_statistic",
                                         "ks_pvalue", "notes")} for f in body["fits"]]
        errors[rel] = body["errors"]
    for path in sorted(out_dir.glob("*/res*s/gof/*_percentiles.csv")):
        rows = _read_csv(path)[1:]
        percentiles[path.relative_to(out_dir).as_posix()] = [[float(c) for c in r]
                                                             for r in rows]
    return {"exit_code": exit_code, "total_fits": summary.get("total_fits"),
            "fits": fits, "errors": errors, "percentiles": percentiles}


def extract_studies(out_dir: Path, exit_codes: dict[str, int]) -> dict:
    """Reference-shaped record of ``lobtail simstudy`` outputs under out_dir."""
    estimates, checks = {}, {}
    for path in sorted(out_dir.glob("*/*/estimates.csv")):
        rows = _read_csv(path)
        header = rows[0]
        estimates[path.relative_to(out_dir).as_posix()] = [dict(zip(header, r))
                                                           for r in rows[1:]]
    for path in sorted(out_dir.glob("*/checks.json")):
        checks[path.parent.name] = json.loads(path.read_text())["checks"]
    return {"exit_codes": exit_codes, "estimates": estimates, "checks": checks}


def _close(got: float | None, want: float | None, atol: float, rtol: float = 0.0) -> bool:
    if got is None or want is None:
        return got is None and want is None
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= atol + rtol * max(abs(want), 1.0)


def _num(text: str) -> float | None:
    return None if text == "" else float(text)


_STUDY_TOL = {  # estimates.csv column -> (atol, rtol)
    "mu": (0.0, PARAM_RTOL), "sigma": (0.0, PARAM_RTOL), "gamma": (0.0, PARAM_RTOL),
    "pvalue_full": (PVALUE_ATOL, 0.0), "pvalue_sub_mean": (PVALUE_ATOL, 0.0),
}


def compare(got: dict, want: dict) -> list[str]:
    """Problems between a record and its reference (empty when they agree)."""
    problems = []
    for key in ("exit_code", "exit_codes", "total_fits", "errors", "checks"):
        if got.get(key) != want.get(key):
            problems.append(f"reference: {key} {got.get(key)!r} != {want.get(key)!r}")
    for section in ("fits", "percentiles", "estimates"):
        if set(got.get(section, {})) != set(want.get(section, {})):
            problems.append(f"reference: {section} files differ")
    for rel, want_fits in want.get("fits", {}).items():
        got_fits = got["fits"].get(rel, [])
        if [(f["family"], f["method"]) for f in got_fits] != \
                [(f["family"], f["method"]) for f in want_fits]:
            problems.append(f"reference: fitted estimators differ in {rel}")
            continue
        for g, w in zip(got_fits, want_fits):
            tag = f"{rel} {w['family']}/{w['method']}"
            for name, value in w["params"].items():
                if not _close(g["params"].get(name), value, 0.0, PARAM_RTOL):
                    problems.append(f"reference: {tag} {name} {g['params'].get(name)} != {value}")
            if not _close(g["ks_statistic"], w["ks_statistic"], KS_ATOL):
                problems.append(f"reference: {tag} ks {g['ks_statistic']} != {w['ks_statistic']}")
            if not _close(g["ks_pvalue"], w["ks_pvalue"], PVALUE_ATOL):
                problems.append(f"reference: {tag} ks p {g['ks_pvalue']} != {w['ks_pvalue']}")
    for rel, want_rows in want.get("percentiles", {}).items():
        got_rows = got["percentiles"].get(rel, [])
        if len(got_rows) != len(want_rows) or any(
                g[0] != w[0] or not _close(g[1], w[1], PERCENTILE_ATOL)
                for g, w in zip(got_rows, want_rows)):
            problems.append(f"reference: percentile rows differ in {rel}")
    for rel, want_rows in want.get("estimates", {}).items():
        got_rows = got["estimates"].get(rel, [])
        if len(got_rows) != len(want_rows):
            problems.append(f"reference: row count differs in {rel}")
            continue
        for i, (g, w) in enumerate(zip(got_rows, want_rows)):
            for col, value in w.items():
                if col in _STUDY_TOL:
                    ok = _close(_num(g.get(col, "")), _num(value), *_STUDY_TOL[col])
                else:
                    ok = g.get(col) == value
                if not ok:
                    problems.append(f"reference: {rel} row {i} {col} {g.get(col)} != {value}")
    return problems


# ---------------------------------------------------------------------------
# checks of a timed iteration on the seeded workload
# ---------------------------------------------------------------------------


def _in_unit(value) -> bool:
    return value is not None and 0.0 <= value <= 1.0


def run_problems(record: dict, n_series: int, estimators: list[str]) -> tuple[list[str], int]:
    """Problems of one ``lobtail run`` iteration, plus its count of failed fits.

    Every series must yield a fit or an estimator error for every enabled
    estimator; failed fits are estimator errors plus fits whose KS was skipped.
    """
    problems = []
    if record["exit_code"] != 0:
        problems.append(f"run: exit code {record['exit_code']}")
    fits = [f for fs in record["fits"].values() for f in fs]
    errors = [e for es in record["errors"].values() for e in es]
    if len(record["fits"]) != n_series:
        problems.append(f"run: {len(record['fits'])} fit files for {n_series} series")
    if record["total_fits"] != len(fits):
        problems.append(f"run: summary total_fits {record['total_fits']} != {len(fits)}")
    estimator_errors = [e for e in errors if e.split(":")[0] in estimators]
    if len(estimator_errors) != len(errors):
        problems.append(f"run: non-estimator errors {sorted(set(errors) - set(estimator_errors))}")
    if len(fits) + len(estimator_errors) != n_series * len(estimators):
        problems.append(f"run: {len(fits)} fits + {len(estimator_errors)} errors for "
                        f"{n_series} series x {len(estimators)} estimators")
    ks_skipped = 0
    for f in fits:
        if not all(math.isfinite(v) for v in f["params"].values()):
            problems.append(f"run: non-finite parameters {f['params']}")
        if f["ks_statistic"] is None:
            ks_skipped += 1
            if not any(n.startswith("ks skipped") for n in f["notes"]):
                problems.append("run: KS missing without a note")
        elif not (_in_unit(f["ks_statistic"]) and _in_unit(f["ks_pvalue"])):
            problems.append(f"run: KS out of range {f['ks_statistic']} {f['ks_pvalue']}")
    if len(record["percentiles"]) != len(fits):
        problems.append(f"run: {len(record['percentiles'])} percentile tables for "
                        f"{len(fits)} fits")
    for rel, rows in record["percentiles"].items():
        if [r[0] for r in rows] != PROBES or not all(_in_unit(r[1]) for r in rows):
            problems.append(f"run: bad percentile rows in {rel}")
    return problems, len(estimator_errors) + ks_skipped


def study_problems(record: dict, expected_rows: dict[str, int]) -> tuple[list[str], int, int]:
    """Problems of one iteration of the studies, plus (fits, failed rows).

    expected_rows maps each study to its estimate row count over all variants.
    """
    problems = [f"simstudy {s}: exit code {c}" for s, c in record["exit_codes"].items() if c]
    fits = failed = 0
    for study, n_rows in expected_rows.items():
        rows = [r for rel, rs in record["estimates"].items()
                if rel.startswith(study + "/") for r in rs]
        if len(rows) != n_rows:
            problems.append(f"simstudy {study}: {len(rows)} estimate rows, expected {n_rows}")
        if study not in record["checks"]:
            problems.append(f"simstudy {study}: checks.json missing")
        for r in rows:
            if r.get("failed") == "true":
                failed += 1
                continue
            fits += 1
            values = [_num(r[c]) for c in _STUDY_TOL if c in r]
            if not all(v is not None and math.isfinite(v) for v in values):
                problems.append(f"simstudy {study}: non-finite estimate {r}")
            if any(not _in_unit(_num(r[c])) for c in ("pvalue_full", "pvalue_sub_mean")
                   if c in r):
                problems.append(f"simstudy {study}: p-value out of range {r}")
    return problems, fits, failed


if __name__ == "__main__":
    import sys

    import run

    if sys.argv[1:] != ["record"]:
        raise SystemExit("usage: python3 perfbench/check.py record")
    run.record_references()
