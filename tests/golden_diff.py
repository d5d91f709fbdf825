"""List the golden files that a fresh run changes, with their largest numeric differences.

Run from the repository root:
    PYTHONPATH=src python tests/golden_diff.py

Runs the golden toy config and the golden studies of
``tests/data/make_golden.py`` into a temporary directory and compares each
file with ``tests/golden/toy_run`` and ``tests/golden/studies``.  Every file
that differs gets one line: the largest absolute and relative difference
between its numbers, taken in order, when the two texts agree apart from
their numbers, or "text differs" when they do not.  Files present on one side
only are listed as missing or new.  Exit code 0 when both trees are byte
identical, 1 otherwise.
"""

from __future__ import annotations

import math
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent / "data"))

from make_golden import GOLDEN, STUDIES_GOLDEN, golden_config, run_studies  # noqa: E402

from lobtail.cli import run_pipeline  # noqa: E402

NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan")


def numeric_diff(old: str, new: str) -> tuple[float, float] | None:
    """(largest absolute, largest relative) difference between the numbers of
    two texts, or None when the texts differ in more than their numbers."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return None
    worst_abs = worst_rel = 0.0
    for a, b in zip(map(float, NUMBER.findall(old)), map(float, NUMBER.findall(new))):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        diff = abs(a - b)
        worst_abs = max(worst_abs, diff)
        worst_rel = max(worst_rel, diff / max(abs(a), abs(b)))
    return worst_abs, worst_rel


def tree_texts(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): p.read_text(encoding="utf-8")
            for p in sorted(root.rglob("*")) if p.is_file()}


def diff_lines(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """One line per golden file that is missing, new or different."""
    lines = [f"{rel}: missing" for rel in sorted(want.keys() - got.keys())]
    lines += [f"{rel}: new" for rel in sorted(got.keys() - want.keys())]
    for rel in sorted(want.keys() & got.keys()):
        if got[rel] == want[rel]:
            continue
        diff = numeric_diff(want[rel], got[rel])
        lines.append(f"{rel}: text differs" if diff is None
                     else f"{rel}: max abs {diff[0]:.3g}, max rel {diff[1]:.3g}")
    return lines


def main() -> int:
    trees = [(GOLDEN, lambda out: run_pipeline(golden_config(out))),
             (STUDIES_GOLDEN, run_studies)]
    differs = False
    for golden, run in trees:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / golden.name
            rc = run(out)
            got = tree_texts(out)
        want = tree_texts(golden)
        lines = diff_lines(want, got)
        differs |= bool(lines)
        print(f"{golden.name}: run exit {rc}; {len(lines)} of {len(want)} golden files differ")
        print("".join(f"{line}\n" for line in lines), end="")
    return 1 if differs else 0


if __name__ == "__main__":
    raise SystemExit(main())
