"""Regenerate the committed golden trees: the toy-dataset run and the studies.

Run from the repository root after an intentional output-format change:
    python tests/data/make_golden.py
"""

import shutil
from pathlib import Path

from lobtail.cli import AssetConfig, RunConfig, run_pipeline, run_simstudy
from lobtail.ingest import MarketHours

HERE = Path(__file__).parent
GOLDEN = HERE.parent / "golden" / "toy_run"
STUDIES_GOLDEN = HERE.parent / "golden" / "studies"


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


if __name__ == "__main__":
    for root, run in ((GOLDEN, lambda: run_pipeline(golden_config(GOLDEN))),
                      (STUDIES_GOLDEN, lambda: run_studies(STUDIES_GOLDEN))):
        if root.exists():
            shutil.rmtree(root)
        rc = run()
        count = sum(1 for _ in root.rglob("*") if _.is_file())
        print(f"exit {rc}; wrote {count} files under {root}")
