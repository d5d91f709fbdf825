"""Per-layer spans for the lobtail CLI, wrapped from outside the program.

Run as a child process in place of ``python -m lobtail.cli``:

    python3 perfbench/tracer.py SPANS.jsonl -- run --config run.json

It replaces each traced function at the name its caller resolves (the
``from .x import f`` copies in ``lobtail.cli`` and the module attributes that
``gof``, ``simstudy`` and the CLI reach through ``module.f``), runs
``lobtail.cli.main`` under a root span, and writes one JSON line per span
(id, name, start, end, parent, aux seconds, extra counts) when the CLI
returns.  Spans from worker threads that have no open span attach to the
root span.  Time the wrapper spends on its own bookkeeping inside a span is
recorded as ``aux`` and excluded from layer times.

``summarize`` turns the span files of one workload iteration into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path

# (module, function) -> span name; patched at every attribute listed, so the
# same function reached from two callers records under one name
TRACED = {
    ("lobtail.cli", "parse_tick_file"): "ingest.parse",
    ("lobtail.cli", "subsample_last"): "ingest.subsample",
    ("lobtail.cli", "block_maxima"): "ingest.block_maxima",
    ("lobtail.cli", "pot_exceedances"): "ingest.pot_exceedances",
    ("lobtail.cli", "fit_mcculloch"): "stable.fit",
    ("lobtail.stable", "fit_mcculloch"): "stable.fit",
    ("lobtail.stable", "stable_cdf"): "stable.cdf",
    ("lobtail.cli", "fit_gev_mle"): "gev.fit_mle",
    ("lobtail.gev", "fit_gev_mle"): "gev.fit_mle",
    ("lobtail.cli", "fit_gev_mixed"): "gev.fit_mixed",
    ("lobtail.gev", "fit_gev_mixed"): "gev.fit_mixed",
    ("lobtail.cli", "fit_gpd_mle"): "gpd.fit_mle",
    ("lobtail.gpd", "fit_gpd_mle"): "gpd.fit_mle",
    ("lobtail.cli", "fit_gpd_pickands"): "gpd.fit_pickands",
    ("lobtail.gpd", "fit_gpd_pickands"): "gpd.fit_pickands",
    ("lobtail.cli", "fit_gpd_epm"): "gpd.fit_epm",
    ("lobtail.gpd", "fit_gpd_epm"): "gpd.fit_epm",
    ("lobtail.gof", "ks_statistic"): "gof.ks",
    ("lobtail.gof", "percentile_comparison"): "gof.percentile",
    ("lobtail.diagnostics", "descriptive"): "diagnostics.descriptive",
    ("lobtail.diagnostics", "mean_excess_curve"): "diagnostics.mean_excess",
    ("lobtail.diagnostics", "hill_curve"): "diagnostics.hill",
    ("lobtail.diagnostics", "qq_exponential"): "diagnostics.qq_exponential",
    ("lobtail.diagnostics", "hurst_dfa"): "diagnostics.hurst_dfa",
    ("lobtail.diagnostics", "hourly_median_matrix"): "diagnostics.heatmap",
    ("lobtail.report", "write_csv"): "report.write_csv",
    ("lobtail.report", "write_json"): "report.write_json",
    ("lobtail.report", "write_series_csv"): "report.write_series_csv",
    ("lobtail.report", "write_curve_csv"): "report.write_curve_csv",
    ("lobtail.report", "write_prepared_sample"): "report.write_prepared_sample",
    ("lobtail.report", "write_heatmap_csv"): "report.write_heatmap_csv",
    ("lobtail.simstudy", "gev_method_comparison"): "simstudy.gev_compare",
    ("lobtail.simstudy", "gpd_method_comparison"): "simstudy.gpd_compare",
    ("lobtail.simstudy", "ks_case_study"): "simstudy.ks_case",
}
ROOT = "cli.main"


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.root_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [self.root_id]
        return stack

    def wrap(self, name: str, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {"id": next(self._ids), "name": name, "parent": stack[-1]}
            t0 = time.perf_counter()
            if before is not None:
                span.update(before(*args, **kwargs))
            t1 = time.perf_counter()
            stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                t2 = time.perf_counter()
                stack.pop()
                span.update(start=t0, end=t2, aux=t1 - t0)
                self.spans.append(span)
            if after is not None:
                span.update(after(result, *args, **kwargs))
            return result

        return traced

    def install(self) -> None:
        import importlib

        wrappers = {}
        for (module_name, attr), name in TRACED.items():
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            if fn not in wrappers:
                wrappers[fn] = self.wrap(name, fn)
            setattr(module, attr, wrappers[fn])

    def run(self, argv: list[str]) -> int:
        from lobtail import cli

        self.root_id = next(self._ids)
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        finally:
            t1 = time.perf_counter()
            self.spans.append({"id": self.root_id, "name": ROOT, "parent": 0,
                               "start": t0, "end": t1, "aux": 0.0})
        return code


def _cdf_points(x, *_args, **_kwargs) -> dict:
    import numpy as np

    arr = np.asarray(x, dtype=float).ravel()
    return {"points": int(arr.size), "unique": int(np.unique(arr).size)}


def _parse_counts(result, *_args, **_kwargs) -> dict:
    report = result[1]
    return {"rows": report.rows, "skipped": report.skipped}


def _file_bytes(_result, path, *_args, **_kwargs) -> dict:
    return {"bytes": Path(path).stat().st_size}


_BEFORE = {"stable.cdf": _cdf_points}
_AFTER = {"ingest.parse": _parse_counts, "report.write_csv": _file_bytes,
          "report.write_json": _file_bytes}


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

# span names that must record calls on each workload
EXPECTED = {
    "days_fit": [
        "ingest.parse", "ingest.subsample", "ingest.block_maxima", "ingest.pot_exceedances",
        "stable.fit", "stable.cdf", "gev.fit_mle", "gev.fit_mixed", "gpd.fit_mle",
        "gpd.fit_pickands", "gpd.fit_epm", "gof.ks", "gof.percentile",
        "diagnostics.descriptive", "diagnostics.mean_excess", "diagnostics.hill",
        "diagnostics.qq_exponential", "diagnostics.hurst_dfa", "diagnostics.heatmap",
        "report.write_csv", "report.write_json", "report.write_series_csv",
        "report.write_curve_csv", "report.write_prepared_sample", "report.write_heatmap_csv",
    ],
    "days_ingest": [
        "ingest.parse", "ingest.subsample", "ingest.pot_exceedances", "gpd.fit_pickands",
        "gof.ks", "gof.percentile", "diagnostics.descriptive", "diagnostics.mean_excess",
        "diagnostics.hill", "diagnostics.qq_exponential", "diagnostics.hurst_dfa",
        "diagnostics.heatmap", "report.write_csv", "report.write_json",
        "report.write_series_csv", "report.write_curve_csv", "report.write_prepared_sample",
        "report.write_heatmap_csv",
    ],
    "studies": [
        "simstudy.gev_compare", "simstudy.gpd_compare", "simstudy.ks_case",
        "gev.fit_mle", "gev.fit_mixed", "gpd.fit_mle", "gpd.fit_pickands", "gpd.fit_epm",
        "stable.fit", "stable.cdf", "gof.ks", "report.write_csv", "report.write_json",
    ],
}

# per-layer metric -> (unit, span names whose own time it sums)
TIMES = {
    "ingest.parse_s": ["ingest.parse"],
    "ingest.subsample_s": ["ingest.subsample"],
    "ingest.prepare_s": ["ingest.block_maxima", "ingest.pot_exceedances"],
    "stable.cdf_s": ["stable.cdf"],
    "stable.fit_s": ["stable.fit"],
    "gev.fit_mle_s": ["gev.fit_mle"],
    "gev.fit_mixed_s": ["gev.fit_mixed"],
    "gpd.fit_mle_s": ["gpd.fit_mle"],
    "gpd.fit_pickands_s": ["gpd.fit_pickands"],
    "gpd.fit_epm_s": ["gpd.fit_epm"],
    "diagnostics.hurst_dfa_s": ["diagnostics.hurst_dfa"],
    "diagnostics.heatmap_s": ["diagnostics.heatmap"],
    "simstudy.gev_compare_s": ["simstudy.gev_compare"],
    "simstudy.gpd_compare_s": ["simstudy.gpd_compare"],
    "simstudy.ks_case_s": ["simstudy.ks_case"],
}
CALLS = {
    "ingest.parse_calls": "ingest.parse",
    "ingest.subsample_calls": "ingest.subsample",
    "gev.fit_mle_calls": "gev.fit_mle",
    "gpd.fit_epm_calls": "gpd.fit_epm",
    "gof.ks_calls": "gof.ks",
}


def read_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def _self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus its aux time minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: s["end"] - s["start"] - s["aux"]
        - _covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def summarize(span_files: list[Path], workload: str) -> tuple[dict, list[str]]:
    """Per-layer metrics of one iteration (one or more CLI runs).

    Returns (metrics by name, names of expected spans that recorded no call).
    """
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    errors: dict[str, int] = {}
    extra: dict[str, int] = {}
    ks_self = pct_self = cli_self = 0.0
    diag_s = write_s = 0.0
    for path in span_files:
        spans = read_spans(path)
        by_id = {s["id"]: s for s in spans}
        self_time = _self_times(spans)
        for s in spans:
            name = s["name"]
            own = s["end"] - s["start"] - s["aux"]
            totals[name] = totals.get(name, 0.0) + own
            counts[name] = counts.get(name, 0) + 1
            if "error" in s:
                errors[name] = errors.get(name, 0) + 1
            for k in ("points", "unique", "rows", "skipped", "bytes"):
                if k in s:
                    extra[k] = extra.get(k, 0) + s[k]
            layer = name.split(".")[0]
            parent_layer = by_id.get(s["parent"], {}).get("name", "").split(".")[0]
            if layer == "diagnostics" and parent_layer != "diagnostics":
                diag_s += own
            if layer == "report" and parent_layer != "report":
                write_s += own
            if name == "gof.ks":
                ks_self += self_time[s["id"]]
            elif name == "gof.percentile":
                pct_self += self_time[s["id"]]
            elif name == ROOT:
                cli_self += self_time[s["id"]]

    def count(name):
        return counts.get(name, 0)

    def errs(layer):
        return sum(v for k, v in errors.items() if k.startswith(layer + "."))

    metrics = {m: sum(totals.get(n, 0.0) for n in names) for m, names in TIMES.items()}
    metrics.update({m: count(n) for m, n in CALLS.items()})
    points = extra.get("points", 0)
    metrics.update({
        "ingest.rows_read": extra.get("rows", 0),
        "ingest.rows_skipped": extra.get("skipped", 0),
        "stable.cdf_points": points,
        "stable.cdf_unique_ratio": extra.get("unique", 0) / points if points else 0.0,
        "gev.errors": errs("gev"),
        "gpd.errors": errs("gpd"),
        "gof.ks_self_s": ks_self,
        "gof.percentile_self_s": pct_self,
        "gof.ks_skipped": errors.get("gof.ks", 0),
        "diagnostics.s": diag_s,
        "report.write_s": write_s,
        "report.files": count("report.write_csv") + count("report.write_json"),
        "report.bytes": extra.get("bytes", 0),
        "cli.self_s": cli_self,
    })
    missing = [n for n in EXPECTED[workload] if count(n) == 0]
    return metrics, missing


def main(argv: list[str]) -> int:
    spans_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.jsonl -- <lobtail cli arguments>")
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.run(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in tracer.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
