"""Benchmark of the lobtail CLI: one command, three workloads.

    python3 perfbench/run.py --workload days_fit --seed 1 --seconds 30 --trace 0

Run from any directory of a checkout; the program is taken from ``src/`` of
that checkout.  Each run

1. sets up ``SETUP_REPEATS`` times (generate the seeded inputs and config,
   then import lobtail once in a child so bytecode and page cache are warm)
   and reports the median as ``setup_s``;
2. runs the correctness gate (see check.py): the workload's tiny size at
   ``REFERENCE_SEED`` within tolerance against its record under
   ``reference/``, and for ``days_fit`` also the golden toy config, byte for
   byte against ``tests/golden/toy_run``;
3. runs the workload as a closed loop for ``--seconds``: one client, one CLI
   child process at a time, each iteration into a fresh output directory,
   and checks every iteration's outputs (exit code, fit count, ranges, and
   byte-identical to the first iteration);
4. prints each metric with its unit, then one JSON line with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are end to end.  With ``--trace 1`` untraced
and traced iterations alternate; the traced ones run the CLI under
``tracer.py`` and give the per-layer metrics (medians over traced
iterations), and ``trace.overhead_s`` is the traced minus the untraced median
wall time.  Counters of a traced iteration must repeat exactly, and a span
expected on the workload that records no call fails the run.

End-to-end metrics: ``wall_s`` is the median wall time of an untraced pass
(its CLI runs, interpreter start included); ``fits_per_s`` and
``rows_per_s`` divide a pass's successful fits and input rows by it (for
``studies`` the rows are the synthetic sample values the studies draw);
``peak_rss_mb`` is the largest resident set of any timed child.  The
fraction of failed fits is deterministic and usually 0, so it is reported
with the per-layer metrics as ``fit_failure_ratio``.

Workloads (the program sees the seed only through the generated inputs and
the config seed, or as the ``--seed`` of ``lobtail simstudy``):

* days_fit: toy-density days (8,000 rows/day), one level, both sides, 10 s,
  all six estimators, jobs=2.  Stable CDF under KS/percentile GOF dominates.
* days_ingest: dense days (2x10^5 rows/day), five levels x two sides x
  {1, 10, 60} s, only gpd_pickands, jobs=1.  Parse, sub-sample and report
  writes dominate.
* studies: simstudy GevCompare, GpdCompare and KsCase back to back with the
  workload seed and one replicate each.

Threads are not pinned: ``*_NUM_THREADS`` variables are reported, not set.
Exit code 0 when every check passed, 1 when one failed (the JSON line is
still printed), 2 when the checkout lacks the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import check
import gen
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "toy_run"
TOY_TICKS = ROOT / "tests" / "data" / "toy_ticks"
REFERENCE_DIR = BENCH / "reference"
WORK_ROOT = ROOT / ".bench_work"

SETUP_REPEATS = 3
STUDIES = ("GevCompare", "GpdCompare", "KsCase")
ALL_ESTIMATORS = list(check.ESTIMATORS)
HOURS = {"open_s": gen.OPEN_S, "close_s": gen.CLOSE_S}


@dataclass(frozen=True)
class Days:
    """A `lobtail run` over generated days."""

    days: int
    rows_per_day: int
    levels: tuple[int, ...]
    resolutions_s: tuple[int, ...]
    estimators: tuple[str, ...]
    jobs: int

    @property
    def n_series(self) -> int:
        return self.days * 2 * len(self.levels) * len(self.resolutions_s)


@dataclass(frozen=True)
class Studies:
    """The three `lobtail simstudy` runs at a fixed replicate count."""

    replicates: int

    def expected_rows(self) -> dict[str, int]:
        # variants x sample sizes x methods, as run_simstudy and simstudy define them
        r = self.replicates
        return {"GevCompare": 4 * 2 * 2 * r, "GpdCompare": 4 * 5 * r, "KsCase": r}

    def sample_values(self) -> int:
        """Synthetic sample values drawn per pass (n per replicate and variant)."""
        r = self.replicates
        return 4 * r * (50 + 10000) + 4 * r * 500 + r * 3888


_FIT_DAYS = dict(levels=(1,), resolutions_s=(10,), estimators=tuple(ALL_ESTIMATORS), jobs=2)
_INGEST_DAYS = dict(levels=(1, 2, 3, 4, 5), resolutions_s=(1, 10, 60),
                    estimators=("gpd_pickands",), jobs=1)
WORKLOADS = {
    "days_fit": {"full": Days(days=3, rows_per_day=8000, **_FIT_DAYS),
                 "tiny": Days(days=1, rows_per_day=8000, **_FIT_DAYS)},
    "days_ingest": {"full": Days(days=2, rows_per_day=200_000, **_INGEST_DAYS),
                    "tiny": Days(days=1, rows_per_day=20_000, **_INGEST_DAYS)},
    "studies": {"full": Studies(replicates=1), "tiny": Studies(replicates=1)},
}
# reference cases: every workload runs its tiny size at this seed
REFERENCE_SEED = 0

_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    exit_code: int
    wall_s: float
    max_rss_kb: int
    stderr: str


def run_child(args: list[str], work: Path) -> Child:
    """Run one child to completion; wall time, exit code and its own peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    err_path = work / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=work, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss,
                 err_path.read_text(errors="replace")[-2000:])


def run_cli(cli_args: list[str], work: Path, spans: Path | None = None) -> Child:
    if spans is None:
        return run_child(["-m", "lobtail.cli", *cli_args], work)
    return run_child([str(BENCH / "tracer.py"), str(spans), "--", *cli_args], work)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def days_config(spec: Days, input_dir: Path, output_dir: Path, seed: int) -> dict:
    return {
        "input_dir": str(input_dir),
        "output_dir": str(output_dir),
        "assets": [{"name": gen.ASSET, "market_hours": HOURS}],
        "resolutions_s": list(spec.resolutions_s),
        "levels": list(spec.levels),
        "estimators": {name: name in spec.estimators for name in ALL_ESTIMATORS},
        "seed": seed,
        "jobs": spec.jobs,
    }


def make_inputs(spec, seed: int, work: Path) -> Path | None:
    """Generate inputs and config under work; returns the config path (days only)."""
    work.mkdir(parents=True)
    if not isinstance(spec, Days):
        return None
    gen.write_days(work / "ticks", seed, spec.days, spec.rows_per_day)
    cfg_path = work / "run.json"
    cfg_path.write_text(json.dumps(days_config(spec, work / "ticks", work / "out", seed)))
    return cfg_path


def set_up(spec, seed: int, work: Path) -> Path | None:
    """make_inputs, then import lobtail once in a child to warm bytecode and page cache."""
    cfg_path = make_inputs(spec, seed, work)
    warm = run_child(["-c", "import lobtail.cli"], work)
    if warm.exit_code != 0:
        raise RuntimeError(f"cannot import lobtail from {SRC}: {warm.stderr}")
    return cfg_path


# ---------------------------------------------------------------------------
# one pass of a workload
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    children: list[Child]
    record: dict
    out_dir: Path

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def stderr(self) -> str:
        return "".join(c.stderr for c in self.children if c.exit_code)


def days_pass(cfg_path: Path, work: Path, spans_dir: Path | None = None) -> Pass:
    out_dir = Path(json.loads(cfg_path.read_text())["output_dir"])
    shutil.rmtree(out_dir, ignore_errors=True)
    spans = spans_dir / "run.jsonl" if spans_dir else None
    child = run_cli(["run", "--config", str(cfg_path)], work, spans)
    return Pass([child], check.extract_run(out_dir, child.exit_code), out_dir)


def studies_pass(spec: Studies, seed: int, work: Path, spans_dir: Path | None = None) -> Pass:
    out_dir = work / "studies_out"
    shutil.rmtree(out_dir, ignore_errors=True)
    children = {}
    for study in STUDIES:
        spans = spans_dir / f"{study}.jsonl" if spans_dir else None
        children[study] = run_cli(["simstudy", study, "--seed", str(seed), "--replicates",
                                   str(spec.replicates), "--out", str(out_dir)], work, spans)
    record = check.extract_studies(out_dir, {s: c.exit_code for s, c in children.items()})
    return Pass(list(children.values()), record, out_dir)


def one_pass(spec, seed: int, cfg_path: Path | None, work: Path,
             spans_dir: Path | None = None) -> Pass:
    if isinstance(spec, Days):
        return days_pass(cfg_path, work, spans_dir)
    return studies_pass(spec, seed, work, spans_dir)


def pass_problems(spec, p: Pass) -> tuple[list[str], int, int, int]:
    """(problems, fits, failed fits, attempted fits) of one pass."""
    if isinstance(spec, Days):
        problems, failed = check.run_problems(p.record, spec.n_series, list(spec.estimators))
        attempted = spec.n_series * len(spec.estimators)
        fits = attempted - sum(len(e) for e in p.record["errors"].values())
    else:
        expected = spec.expected_rows()
        problems, fits, failed = check.study_problems(p.record, expected)
        attempted = sum(expected.values())
    if p.stderr:
        problems.append(f"child stderr: {p.stderr}")
    return problems, fits, failed, attempted


# ---------------------------------------------------------------------------
# reference cases
# ---------------------------------------------------------------------------


def golden_config(work: Path) -> Path:
    """The golden toy config of tests/test_cli.py, as a JSON file."""
    cfg_path = work / "golden.json"
    cfg_path.write_text(json.dumps({
        "input_dir": str(TOY_TICKS), "output_dir": str(work / "golden_out"),
        "assets": [{"name": "TOY", "market_hours": {"open_s": 32400, "close_s": 39600}}],
        "resolutions_s": [10], "levels": [1], "seed": 7,
    }))
    return cfg_path


def golden_problems(work: Path) -> list[str]:
    """Run the golden toy config; problems where it differs from the golden tree."""
    p = days_pass(golden_config(work), work)
    problems = check.golden_diff(p.out_dir, GOLDEN)
    if p.stderr:
        problems.append(f"golden child stderr: {p.stderr}")
    return problems


def reference_pass(name: str, work: Path) -> Pass:
    """The workload's tiny size at REFERENCE_SEED."""
    spec = WORKLOADS[name]["tiny"]
    ref_work = work / f"ref_{name}"
    return one_pass(spec, REFERENCE_SEED, make_inputs(spec, REFERENCE_SEED, ref_work), ref_work)


def reference_problems(name: str, work: Path, reference_dir: Path) -> tuple[list[str], int]:
    """Problems of the workload's reference checks, and the children they ran."""
    problems, n_children = [], 0
    if name == "days_fit":
        problems += golden_problems(work)
        n_children += 1
    p = reference_pass(name, work)
    n_children += len(p.children)
    ref_path = reference_dir / f"{name}.json"
    if not ref_path.exists():
        return problems + [f"reference record {ref_path} missing"], n_children
    problems += check.compare(p.record, json.loads(ref_path.read_text()))
    if p.stderr:
        problems.append(f"reference child stderr: {p.stderr}")
    return problems, n_children


def record_references(reference_dir: Path = REFERENCE_DIR) -> None:
    """Write the reference records of all workloads (after checking the golden)."""
    reference_dir.mkdir(parents=True, exist_ok=True)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record_", dir=WORK_ROOT))
    try:
        problems = golden_problems(work)
        if problems:
            raise SystemExit(f"not recording, golden differs: {problems}")
        for name in WORKLOADS:
            p = reference_pass(name, work)
            if p.stderr:
                raise SystemExit(f"{name}: not recording, {p.stderr}")
            path = reference_dir / f"{name}.json"
            path.write_text(json.dumps(p.record, indent=1, sort_keys=True) + "\n")
            print(f"recorded {path}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas_text = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_text,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 reference_dir: Path) -> dict:
    spec = WORKLOADS[name][size]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}_", dir=WORK_ROOT))
    try:
        setup_times = []
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            cfg_path = set_up(spec, seed, work / f"setup{k}")
            setup_times.append(time.perf_counter() - t0)
            if k:
                shutil.rmtree(work / f"setup{k - 1}")
        run_dir = work / f"setup{SETUP_REPEATS - 1}"

        problems, attempted = reference_problems(name, work, reference_dir)
        failed = attempted if problems else 0

        passes: list[tuple[Pass, bool]] = []
        spans_root = work / "spans"
        layer_runs: list[dict] = []
        counts = None
        t_start = time.perf_counter()
        min_passes = 2 if trace else 1  # traced mode needs one pass of each kind
        while len(passes) < min_passes or time.perf_counter() - t_start < seconds:
            traced = trace and len(passes) % 2 == 1
            spans_dir = None
            if traced:
                spans_dir = spans_root / str(len(passes))
                spans_dir.mkdir(parents=True)
            p = one_pass(spec, seed, cfg_path, run_dir, spans_dir)
            attempted += len(p.children)
            pass_faults, fits, failed_fits, attempted_fits = pass_problems(spec, p)
            digest = check.tree_digest(p.out_dir)
            if passes and digest != first_digest:
                pass_faults.append("outputs differ from the first pass")
            if not passes:
                first_digest, first_counts = digest, (fits, failed_fits)
            elif (fits, failed_fits) != first_counts:
                pass_faults.append("fit counts differ from the first pass")
            if traced:
                metrics, missing = tracer.summarize(sorted(spans_dir.glob("*.jsonl")), name)
                pass_faults += [f"trace: expected span {m} recorded no call" for m in missing]
                these = {k: v for k, v in metrics.items() if UNITS[k] != "s"}
                if counts is not None and these != counts:
                    pass_faults.append("trace: counters differ between traced passes")
                counts = these
                layer_runs.append(metrics)
            problems += pass_faults
            failed += len(p.children) if pass_faults else 0
            passes.append((p, traced))

        plain = [p for p, t in passes if not t]
        wall = statistics.median(p.wall_s for p in plain)
        if trace:
            metrics = {k: statistics.median(m[k] for m in layer_runs) for k in layer_runs[0]}
            metrics["trace.overhead_s"] = (
                statistics.median(p.wall_s for p, t in passes if t) - wall)
            metrics["fit_failure_ratio"] = failed_fits / attempted_fits
        else:
            rows = (spec.days * spec.rows_per_day if isinstance(spec, Days)
                    else spec.sample_values())
            metrics = {
                "wall_s": wall,
                "setup_s": statistics.median(setup_times),
                "fits_per_s": fits / wall,
                "rows_per_s": rows / wall,
                "peak_rss_mb": max(c.max_rss_kb for p in plain for c in p.children) * 1024 / 1e6,
            }
        return {"problems": problems, "attempted": attempted, "failed": failed,
                "pass_walls": [(round(p.wall_s, 3), t) for p, t in passes],
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lobtail benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smallest inputs, for the harness smoke test")
    parser.add_argument("--reference-dir", type=Path, default=REFERENCE_DIR)
    args = parser.parse_args(argv)

    if not (SRC / "lobtail" / "cli.py").is_file() or not GOLDEN.is_dir():
        print(f"error: no lobtail program under {ROOT} (need src/lobtail and tests/golden)",
              file=sys.stderr)
        return 2

    print("machine:", json.dumps(machine_facts(), sort_keys=True))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.size, args.reference_dir)
    for problem in result["problems"]:
        print("FAILED:", problem)
    print(f"{args.workload} seed {args.seed}: pass wall (s, traced):", result["pass_walls"])
    metrics = {}
    for name, value in result["metrics"].items():
        metrics[name] = {"value": value, "unit": UNITS[name]}
        print(f"  {name:28s} {value:.6g} {UNITS[name]}")
    correct = not result["problems"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
