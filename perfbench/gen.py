"""Seeded synthetic tick files for the benchmark workloads.

Same distribution as the generator of the bundled toy files
(``tests/data/make_toy_ticks.py``): event times uniform over the session
(starting one minute before the open), side and level uniform over
{B, A} x {1..5}, lognormal volumes with median 60 / level and sigma 0.6, and
1% of orders scaled by a Pareto(1.5) burst.  Vectorized, so 10^5-10^6
rows/day take well under a second each.

    gen.write_days(out_dir, seed=0, n_days=2, rows_per_day=8000)
"""

from __future__ import annotations

import datetime
from pathlib import Path

import numpy as np

ASSET = "SYN"
OPEN_S = 9 * 3600
CLOSE_S = 11 * 3600
FIRST_DAY = datetime.date(2010, 1, 4)
HEADER = "timestamp_ns,side,level,price,volume\n"


def trading_days(n_days: int) -> list[datetime.date]:
    """The first n_days weekdays from FIRST_DAY."""
    days, day = [], FIRST_DAY
    while len(days) < n_days:
        if day.weekday() < 5:
            days.append(day)
        day += datetime.timedelta(days=1)
    return days


def day_text(rng: np.random.Generator, n_rows: int) -> str:
    """One day of depth updates as CSV text (with header)."""
    times_ns = (np.sort(rng.uniform(OPEN_S - 60, CLOSE_S, n_rows)) * 1e9).astype(np.int64)
    ask = rng.uniform(size=n_rows) >= 0.5
    level = rng.integers(1, 6, size=n_rows)
    vol = rng.lognormal(mean=np.log(60.0 / level), sigma=0.6)
    burst = rng.uniform(size=n_rows) < 0.01
    vol[burst] *= rng.pareto(1.5, size=int(burst.sum())) + 2.0
    vol = np.maximum(np.rint(vol), 1).astype(np.int64)
    # 10 distinct (side, level) prefixes; index them instead of formatting per row
    prefix = np.array([f",{s},{lv},{100.0 + (0.01 * lv if s == 'A' else -0.01 * lv):.2f},"
                       for s in ("B", "A") for lv in range(1, 6)])
    cells = np.char.add(np.char.add(times_ns.astype(str), prefix[ask * 5 + level - 1]),
                        vol.astype(str))
    return HEADER + "\n".join(cells.tolist()) + "\n"


def write_days(out_dir: Path, seed: int, n_days: int, rows_per_day: int) -> list[datetime.date]:
    """Write n_days files under out_dir/SYN/; returns the days written."""
    asset_dir = Path(out_dir) / ASSET
    asset_dir.mkdir(parents=True, exist_ok=True)
    days = trading_days(n_days)
    for day, child in zip(days, np.random.SeedSequence(seed).spawn(n_days)):
        text = day_text(np.random.default_rng(child), rows_per_day)
        (asset_dir / f"{day.isoformat()}.csv").write_text(text, encoding="utf-8", newline="\n")
    return days

