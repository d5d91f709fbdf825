"""Regenerate the committed golden records: the toy-dataset run and the studies.

The output bytes depend on numpy's SIMD dispatch, which falls into two
classes on x86-64: hosts where numpy dispatches its AVX-512 (X86_V4) loops,
and the others, whose loops round exp, log, power and friends differently.
Both are recorded:

- ``tests/golden/toy_run`` and ``tests/golden/studies`` hold the AVX-512
  bytes;
- ``tests/golden/simd_baseline.json`` maps each of those files (path
  relative to ``tests/golden``) to the SHA-256 of its bytes in the other
  class, written from a child process that runs with
  ``NPY_DISABLE_CPU_FEATURES`` set to ``SIMD_BASELINE_ENV``.

Run from the repository root, on an AVX-512 host, after an intentional
output change:
    PYTHONPATH=src python tests/data/make_golden.py

``--digests`` runs both records into a temporary directory and prints their
SHA-256 manifest as JSON; the baseline manifest comes from that mode.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from lobtail.cli import AssetConfig, RunConfig, run_pipeline, run_simstudy
from lobtail.ingest import MarketHours

HERE = Path(__file__).parent
GOLDEN_ROOT = HERE.parent / "golden"
GOLDEN = GOLDEN_ROOT / "toy_run"
STUDIES_GOLDEN = GOLDEN_ROOT / "studies"
BASELINE_MANIFEST = GOLDEN_ROOT / "simd_baseline.json"
SIMD_BASELINE_ENV = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}


def golden_config(output_dir: Path) -> RunConfig:
    return RunConfig(
        input_dir=HERE / "toy_ticks",
        output_dir=output_dir,
        assets=[AssetConfig(name="TOY", hours=MarketHours(open_s=32400, close_s=39600))],
        resolutions_s=[10],
        levels=[1],
        seed=7,
    )


def run_studies(out_dir: Path) -> int:
    """The three ``lobtail simstudy`` runs at seed 0, one replicate each; the largest exit code."""
    return max(run_simstudy(study, out_dir, seed=0, replicates=1)
               for study in ("GevCompare", "GpdCompare", "KsCase"))


def run_records(root: Path) -> int:
    """Both golden runs under root (``toy_run``, ``studies``); the largest exit code."""
    return max(run_pipeline(golden_config(root / GOLDEN.name)),
               run_studies(root / STUDIES_GOLDEN.name))


def simd_class() -> str:
    """numpy's SIMD class in this process: "avx512" or "baseline".

    Raises RuntimeError off x86-64, where neither record applies.
    """
    from numpy._core._multiarray_umath import __cpu_features__  # numpy >= 2

    if "X86_V4" not in __cpu_features__:
        raise RuntimeError("no golden record for this CPU: numpy reports no X86_V4 feature")
    return "avx512" if __cpu_features__["X86_V4"] else "baseline"


def tree_digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file under root, keyed by its relative path."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def baseline_record() -> dict[str, str]:
    return json.loads(BASELINE_MANIFEST.read_text(encoding="utf-8"))


def golden_digests(root: Path) -> dict[str, str]:
    """The record of golden tree root (GOLDEN or STUDIES_GOLDEN) for this process's SIMD class."""
    if simd_class() == "avx512":
        return tree_digests(root)
    prefix = f"{root.name}/"
    return {rel[len(prefix):]: digest for rel, digest in baseline_record().items()
            if rel.startswith(prefix)}


def baseline_digests() -> dict[str, str]:
    """Both golden runs in a child process of the baseline class, as a SHA-256 manifest."""
    env = {**os.environ, **SIMD_BASELINE_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(HERE.parents[1] / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--digests"],
                           env=env, capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


def _print_digests() -> None:
    if simd_class() != "baseline":
        raise SystemExit(f"--digests ran in the {simd_class()} class")
    with tempfile.TemporaryDirectory() as tmp:
        rc = run_records(Path(tmp))
        if rc != 0:
            raise SystemExit(f"golden run exit {rc}")
        print(json.dumps(tree_digests(Path(tmp)), indent=1, sort_keys=True))


def _regenerate() -> None:
    if simd_class() != "avx512":
        raise SystemExit("tests/golden holds the AVX-512 record: regenerate on an AVX-512 host")
    for root in (GOLDEN, STUDIES_GOLDEN):
        if root.exists():
            shutil.rmtree(root)
    rc = run_records(GOLDEN_ROOT)
    for root in (GOLDEN, STUDIES_GOLDEN):
        print(f"exit {rc}; wrote {len(tree_digests(root))} files under {root}")
    manifest = baseline_digests()
    BASELINE_MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    print(f"wrote {len(manifest)} baseline digests to {BASELINE_MANIFEST}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--digests"]:
        _print_digests()
    else:
        _regenerate()
