"""List the golden files that a fresh run changes, in both SIMD classes.

Run from the repository root:
    PYTHONPATH=src python tests/golden_diff.py

Runs the golden toy config and the golden studies of
``tests/data/make_golden.py`` into a temporary directory and compares each
file with the record of each SIMD class:

- avx512 (only on a host whose numpy dispatches AVX-512 loops): against
  ``tests/golden/toy_run`` and ``tests/golden/studies``.  Every file that
  differs gets one line: the largest absolute and relative difference
  between its numbers, taken in order, when the two texts agree apart from
  their numbers, or "text differs" when they do not.
- baseline (in a child process with AVX-512 dispatch off): against the
  SHA-256 manifest ``tests/golden/simd_baseline.json``, one line per file
  whose digest differs.

Files present on one side only are listed as missing or new.  Exit code 0
when every record checked matches, 1 otherwise.
"""

from __future__ import annotations

import math
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent / "data"))

from make_golden import (GOLDEN, STUDIES_GOLDEN, baseline_digests,  # noqa: E402
                         baseline_record, run_records, simd_class)

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


def describe_text(old: str, new: str) -> str:
    diff = numeric_diff(old, new)
    return "text differs" if diff is None else f"max abs {diff[0]:.3g}, max rel {diff[1]:.3g}"


def diff_lines(want: dict[str, str], got: dict[str, str], describe=describe_text) -> list[str]:
    """One line per golden file that is missing, new or different."""
    lines = [f"{rel}: missing" for rel in sorted(want.keys() - got.keys())]
    lines += [f"{rel}: new" for rel in sorted(got.keys() - want.keys())]
    lines += [f"{rel}: {describe(want[rel], got[rel])}"
              for rel in sorted(want.keys() & got.keys()) if got[rel] != want[rel]]
    return lines


def report(label: str, want: dict, lines: list[str]) -> bool:
    print(f"{label}: {len(lines)} of {len(want)} golden files differ")
    print("".join(f"{line}\n" for line in lines), end="")
    return bool(lines)


def main() -> int:
    differs = False
    if simd_class() == "avx512":
        with tempfile.TemporaryDirectory() as tmp:
            rc = run_records(Path(tmp))
            got = {golden: tree_texts(Path(tmp) / golden.name)
                   for golden in (GOLDEN, STUDIES_GOLDEN)}
        for golden, texts in got.items():
            want = tree_texts(golden)
            differs |= report(f"avx512 {golden.name} (run exit {rc})", want,
                              diff_lines(want, texts))
    else:
        print("avx512: not checked, this host's numpy dispatches no AVX-512 loops")
    want = baseline_record()
    differs |= report("baseline", want, diff_lines(want, baseline_digests(),
                                                   lambda old, new: "digest differs"))
    return 1 if differs else 0


if __name__ == "__main__":
    raise SystemExit(main())
