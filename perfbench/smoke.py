"""Smoke test of the benchmark harness itself (about two minutes on 2 cores).

    python3 perfbench/smoke.py

1. Runs every workload at the tiny size, untraced and traced, and checks
   that each run exits 0 and ends with a passing result line carrying every
   metric BENCHMARK.json names for that mode (run.py takes the units from
   there too).
2. Runs days_ingest against a copy of the reference records with one KS
   statistic moved by 1e-9 (inside the tolerance) and checks that it passes,
   then moved by 1e-3 and checks that the correctness gate trips.

Exit code 0 when all checks hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_bench(workload: str, trace: int, reference_dir: Path | None = None):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if reference_dir is not None:
        cmd += ["--reference-dir", str(reference_dir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def expect(ok: bool, message: str, failures: list[str]) -> None:
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        failures.append(message)


def shifted_reference(work: Path, delta: float) -> Path:
    """Copy of the reference records with the first days_ingest KS statistic moved."""
    ref_dir = work / f"ref_{delta:g}"
    shutil.copytree(BENCH / "reference", ref_dir)
    path = ref_dir / "days_ingest.json"
    record = json.loads(path.read_text())
    first_fit = next(iter(record["fits"].values()))[0]
    first_fit["ks_statistic"] += delta
    path.write_text(json.dumps(record))
    return ref_dir


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    failures: list[str] = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc, result = run_bench(workload, trace)
            tag = f"{workload} --trace {trace}"
            expect(proc.returncode == 0 and result is not None and result["correct"],
                   f"{tag}: exit {proc.returncode}, passing result", failures)
            if result is None:
                print(proc.stdout[-2000:], proc.stderr[-2000:])
                continue
            expect(set(result["metrics"]) == wanted[trace], f"{tag}: metrics as BENCHMARK.json",
                   failures)
            expect(all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()), f"{tag}: numeric values",
                   failures)

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="smoke_", dir=ROOT / ".bench_work"))
    try:
        proc, result = run_bench("days_ingest", 0, shifted_reference(work, 1e-9))
        expect(proc.returncode == 0 and result["correct"],
               "reference moved inside the tolerance passes", failures)
        proc, result = run_bench("days_ingest", 0, shifted_reference(work, 1e-3))
        expect(proc.returncode != 0 and not result["correct"] and result["failed"] > 0
               and "FAILED: reference" in proc.stdout,
               "corrupted reference trips the gate", failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("smoke test", "failed: " + "; ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
