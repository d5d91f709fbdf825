import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import lobtail
from lobtail import ingest
from lobtail.core import EstimationError, Side
from lobtail.ingest import (
    DayTicks,
    MarketHours,
    SampleKind,
    TickFileError,
    block_maxima,
    parse_tick_file,
    pot_exceedances,
    subsample_last,
)

import ingest_oracle
from conftest import make_key, make_series

HEADER = "timestamp_ns,side,level,price,volume\n"


def tick(t_s, volume, side=Side.BID, level=1):
    return int(t_s * 1e9), side is Side.ASK, level, volume


def day(*ticks):
    """DayTicks from ``tick`` tuples listed in time order."""
    ts, asks, levels, volumes = zip(*ticks) if ticks else ((), (), (), ())
    return DayTicks.from_columns(ts, asks, levels, volumes)


def test_package_exports_resolve():
    for module in (lobtail, ingest):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
    assert "DayTicks" in lobtail.__all__ and "TickRecord" not in lobtail.__all__


# ---------------------------------------------------------------------------
# parse_tick_file
# ---------------------------------------------------------------------------


def test_parse_well_formed(tmp_path):
    path = tmp_path / "day.csv"
    path.write_text(HEADER + "1000,B,1,99.5,10\n2000,A,2,100.5,20\n3000,B,1,99.5,30\n")
    ticks, rep = parse_tick_file(path)
    assert len(ticks) == 3
    assert (rep.rows, rep.skipped) == (3, 0)
    bid_ts, bid_vol = ticks.group(Side.BID, 1)
    ask_ts, ask_vol = ticks.group(Side.ASK, 2)
    assert list(bid_ts) == [1000, 3000] and list(ask_ts) == [2000]
    assert list(bid_vol) == [10, 30] and list(ask_vol) == [20]


def test_parse_skips_negative_volume(tmp_path):
    # invariant-violating rows are quality skips, not schema failures
    path = tmp_path / "day.csv"
    path.write_text(HEADER + "1000,B,1,99.5,10\n2000,B,1,99.5,-7\n3000,B,1,99.5,30\n")
    ticks, rep = parse_tick_file(path)
    assert len(ticks) == 2
    assert rep.skipped == 1 and rep.malformed == 0
    assert "negative volume" in rep.first_errors[0]


def test_parse_empty_file(tmp_path):
    path = tmp_path / "day.csv"
    path.write_text(HEADER)
    ticks, rep = parse_tick_file(path)
    assert len(ticks) == 0 and rep.rows == 0


def test_parse_malformed_fraction_guard(tmp_path):
    path = tmp_path / "day.csv"
    rows = [f"{i * 1000},B,1,99.5,5" for i in range(1, 50)]
    rows += ["junk,B,1,99.5,5"] * 5
    path.write_text(HEADER + "\n".join(rows) + "\n")
    with pytest.raises(TickFileError, match="malformed"):
        parse_tick_file(path)


def test_parse_missing_file(tmp_path):
    with pytest.raises(TickFileError):
        parse_tick_file(tmp_path / "absent.csv")


def test_parse_wrong_header(tmp_path):
    path = tmp_path / "day.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(TickFileError, match="header"):
        parse_tick_file(path)


def test_parse_out_of_order_timestamp_is_malformed(tmp_path):
    path = tmp_path / "day.csv"
    rows = [f"{i * 1000},B,1,99.5,5" for i in range(1, 200)]
    rows.insert(100, "500,B,1,99.5,5")  # jumps back in time
    path.write_text(HEADER + "\n".join(rows) + "\n")
    ticks, rep = parse_tick_file(path)
    assert rep.skipped == 1


def test_parse_int64_overflow_is_malformed(tmp_path):
    # Python's int would take these cells; the columns hold int64
    path = tmp_path / "day.csv"
    rows = [f"{i * 1000},B,1,99.5,5" for i in range(1, 301)]
    rows.insert(100, "99999999999999999999,B,1,99.5,5")
    rows.insert(200, "250000,B,1,99.5,-99999999999999999999")
    path.write_text(HEADER + "\n".join(rows) + "\n")
    ticks, rep = parse_tick_file(path)
    assert (rep.rows, rep.skipped, rep.malformed) == (302, 2, 2)
    assert rep.first_errors == (
        "row 101: timestamp_ns 99999999999999999999 outside int64",
        "row 201: volume -99999999999999999999 outside int64",
    )


@pytest.mark.parametrize("body", [
    b"1000,B,1,99.5,5\n2000,\xff,1,99.5,5\n",
    b"1000,B,1,99.5," + b" " * 140_000 + b"5\n",
    b'1000,B,1,99.5,"' + b"\n" * 140_000 + b'5"\n',
])
def test_parse_undecodable_file_is_tick_file_error(tmp_path, body):
    # a byte that is not UTF-8, or a field beyond the csv module's limit,
    # on one line or quoted across many
    path = tmp_path / "day.csv"
    path.write_bytes(HEADER.encode() + body)
    with pytest.raises(TickFileError, match="cannot read"):
        parse_tick_file(path)


# ---------------------------------------------------------------------------
# columnar parser against the row-by-row oracle
# ---------------------------------------------------------------------------

_BIG = "9" * 20
_JUNK = ["junk", "", "1_000", "+5", " 7 ", "1e3", "nan", "inf", "1.0", "٧", "5\x00",
         "\x1c5", _BIG, "-" + _BIG, '"5"', '"1,5"', '"5\n"', '"5""', '"5"x', "#5"]
# cells that break a row rule or that only one of int/float and numpy reads
_ODD_CELLS = {
    "timestamp_ns": st.one_of(st.integers(-5, 2500).map(str), st.sampled_from(_JUNK)),
    "side": st.sampled_from([" B ", "A\t", "BX", "b", "", "B\x00", "\x1cA", '"A"',
                             "B" + " " * 20 + "X", " " * 20 + "A", "B" * 9, "#B"]),
    "level": st.one_of(st.sampled_from(["0", "6", "-1"]), st.sampled_from(_JUNK)),
    "price": st.sampled_from(_JUNK + ["1_000.5", "-inf", "1e400", "\x1f1.5"]),
    "volume": st.one_of(st.integers(-3, -1).map(str), st.sampled_from(_JUNK)),
}
_GOOD_CELLS = {
    "timestamp_ns": st.integers(-5, 2500).map(str),
    "side": st.sampled_from("BA"),
    "level": st.integers(1, 5).map(str),
    "price": st.just("99.5"),
    "volume": st.integers(0, 500).map(str),
}
_HEADERS = [
    ["timestamp_ns", "side", "level", "price", "volume"],
    ["side", "volume", "timestamp_ns", "price", "level"],
    ["timestamp_ns", "extra", "side", "level", "price", "volume"],
    ["timestamp_ns", "side", "level", "price", "volume", "side"],
]


def _layout(values, header):
    """Cells in header order; "x" in a column the parsers do not read."""
    read = {name: j for j, name in enumerate(header)}  # the last of a duplicated name
    return [values[name] if read[name] == j and name in values else "x"
            for j, name in enumerate(header)]


@st.composite
def _odd_line(draw, header):
    """One line that breaks some row rule, or a line that is not a row at all."""
    kind = draw(st.sampled_from(["cells", "cells", "cells", "short", "long", "blank", "space"]))
    if kind == "blank":
        return ""
    if kind == "space":
        return draw(st.sampled_from([" ", "\t", "  \t "]))
    odd = draw(st.sets(st.sampled_from(list(_ODD_CELLS)), min_size=1, max_size=2))
    values = {col: draw((_ODD_CELLS if col in odd else _GOOD_CELLS)[col]) for col in _ODD_CELLS}
    cells = _layout(values, header)
    if kind == "short":
        cells = cells[:draw(st.integers(1, len(cells) - 1))]
    elif kind == "long":
        cells += ["x"] * draw(st.integers(1, 3))
    return ",".join(cells)


@st.composite
def _tick_file(draw):
    header = draw(st.sampled_from(_HEADERS))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ts = 0
    lines = []
    for _ in range(draw(st.integers(0, 400))):
        ts += rng.choice([0, 1, 2, 5])
        values = {"timestamp_ns": str(ts), "side": rng.choice("BA"),
                  "level": str(rng.randint(1, 5)), "price": "99.5",
                  "volume": str(rng.randint(0, 500))}
        if rng.random() < 0.05:  # well-formed cells, quoted
            col = rng.choice(list(values))
            values[col] = f'"{values[col]}"'
        lines.append(",".join(_layout(values, header)))
    for line in draw(st.lists(_odd_line(header), max_size=20)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    endings = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    text = ",".join(header) + "\n"
    for line in lines:
        text += line + (rng.choice(["\n", "\r\n"]) if endings == "mixed" else endings)
    return text


def _parse_or_error(parse, path):
    try:
        return parse(path)
    except TickFileError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_tick_file(), guard=st.sampled_from([ingest.MAX_MALFORMED_FRACTION, 1.0]))
def test_parse_matches_row_oracle(tmp_path_factory, text, guard):
    # same report, same guard raise and the same per-(side, level) columns
    # as the csv.DictReader parser, for any mix of rows; with the guard
    # lifted, files with many malformed rows are compared too
    path = tmp_path_factory.getbasetemp() / "oracle_day.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(ingest, "MAX_MALFORMED_FRACTION", guard), \
            mock.patch.object(ingest_oracle, "MAX_MALFORMED_FRACTION", guard):
        got = _parse_or_error(parse_tick_file, path)
        want = _parse_or_error(ingest_oracle.parse_tick_file, path)
    if isinstance(want, str):
        assert got == want
        return
    ticks, report = got
    records, want_report = want
    assert report == want_report
    for side in Side:
        for level in range(1, 6):
            ts, vol = ticks.group(side, level)
            want_ts, want_vol = ingest_oracle.group_arrays(records, side, level)
            assert ts.dtype == want_ts.dtype and vol.dtype == want_vol.dtype
            assert ts.tobytes() == want_ts.tobytes() and vol.tobytes() == want_vol.tobytes()


# ---------------------------------------------------------------------------
# subsample_last
# ---------------------------------------------------------------------------


def test_subsample_carry_forward():
    ticks = day(tick(1, 10), tick(12, 20))
    series = subsample_last(ticks, make_key(), MarketHours(0, 30))
    assert list(series.timestamps) == [10, 20, 30]
    assert list(series.values) == [10.0, 20.0, 20.0]


def test_subsample_single_tick_constant():
    series = subsample_last(day(tick(0, 7)), make_key(), MarketHours(0, 20))
    assert list(series.values) == [7.0, 7.0]


def test_subsample_tick_at_grid_instant_included():
    series = subsample_last(day(tick(0, 1), tick(10, 5)), make_key(), MarketHours(0, 10))
    assert list(series.values) == [5.0]


def test_subsample_ticks_after_close():
    with pytest.raises(EstimationError):
        subsample_last(day(tick(40, 9)), make_key(), MarketHours(0, 30))


def test_subsample_missing_head_dropped():
    series = subsample_last(day(tick(25, 3)), make_key(), MarketHours(0, 40))
    assert list(series.timestamps) == [30, 40]
    assert list(series.values) == [3.0, 3.0]


def test_subsample_filters_side_and_level():
    ticks = day(tick(1, 10), tick(2, 99, side=Side.ASK), tick(3, 77, level=2))
    series = subsample_last(ticks, make_key(), MarketHours(0, 10))
    assert list(series.values) == [10.0]


def test_subsample_no_ticks_for_key():
    with pytest.raises(EstimationError):
        subsample_last(day(tick(1, 10, side=Side.ASK)), make_key(), MarketHours(0, 30))


@given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=40))
def test_subsample_values_come_from_input(volumes):
    ticks = day(*(tick(3 * i + 1, v) for i, v in enumerate(volumes)))
    series = subsample_last(ticks, make_key(), MarketHours(0, 150))
    assert set(series.values) <= set(float(v) for v in volumes)


@given(
    st.lists(st.tuples(st.integers(min_value=0, max_value=400),
                       st.integers(min_value=0, max_value=500)), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=200),
)
def test_subsample_series_invariants(events, resolution, open_s):
    # the grid is strictly increasing at constant spacing inside market hours,
    # one non-negative value per instant, whatever the tick stream
    ticks = day(*(tick(t, v) for t, v in sorted(events)))
    hours = MarketHours(open_s, open_s + 300)
    try:
        series = subsample_last(ticks, make_key(resolution_s=resolution), hours)
    except EstimationError:
        return
    ts = series.timestamps
    assert len(ts) == len(series.values) > 0
    assert np.all(np.diff(ts) == resolution)
    assert hours.open_s < ts[0] and ts[-1] <= hours.close_s
    assert np.all(series.values >= 0)


def test_day_ticks_rejects_level_outside_book():
    with pytest.raises(ValueError, match="levels"):
        day(tick(1, 10, level=6))
    for level in (0, 6):
        with pytest.raises(ValueError, match="level"):
            day(tick(1, 10)).group(Side.BID, level)


# ---------------------------------------------------------------------------
# block_maxima
# ---------------------------------------------------------------------------


def test_block_maxima_hand_case():
    sample = block_maxima(make_series([1, 5, 2, 7, 3, 3]), 2)
    assert list(sample.data) == [5.0, 7.0, 3.0]
    assert sample.kind is SampleKind.BLOCK_MAXIMA
    assert sample.block_len == 2


def test_block_maxima_identity():
    s = make_series([4.0, 1.0, 9.0])
    assert list(block_maxima(s, 1).data) == [4.0, 1.0, 9.0]


def test_block_maxima_constant():
    assert list(block_maxima(make_series([4, 4, 4, 4]), 2).data) == [4.0, 4.0]


def test_block_maxima_trailing_partial_discarded():
    assert list(block_maxima(make_series([1, 2, 3, 4, 9]), 2).data) == [2.0, 4.0]


def test_block_maxima_too_short():
    with pytest.raises(EstimationError, match="shorter than one block"):
        block_maxima(make_series([1.0, 2.0]), 3)


@settings(max_examples=50)
@given(
    st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=8),
)
def test_block_maxima_dominates_members(values, block_len):
    if len(values) < block_len:
        values = values * block_len
    sample = block_maxima(make_series(values), block_len)
    for k, m in enumerate(sample.data):
        block = values[k * block_len:(k + 1) * block_len]
        assert m == max(block)


# ---------------------------------------------------------------------------
# pot_exceedances
# ---------------------------------------------------------------------------


def test_pot_exceedances_quantile_convention():
    # u is the 0.8 quantile under the plotting-position convention
    # s(i) = (2i-1)/(2n): for 1..10 that interpolates x(8)=8 and x(9)=9 at
    # s = 0.75 and 0.85, giving u = 8.5 and excesses {0.5, 1.5}
    series = make_series(list(range(1, 11)))
    sample = pot_exceedances(series, 0.8)
    assert sample.threshold == pytest.approx(8.5)
    assert list(sample.data) == pytest.approx([0.5, 1.5])
    assert sample.threshold_percentile == 0.8


def test_pot_all_equal_values():
    with pytest.raises(EstimationError, match=r"^no exceedances above threshold u=5\.0$"):
        pot_exceedances(make_series([5, 5, 5, 5]), 0.8)


def test_pot_percentile_zero():
    sample = pot_exceedances(make_series([3, 1, 2, 4]), 0.0)
    assert sample.threshold == 1.0
    assert sorted(sample.data) == pytest.approx([1.0, 2.0, 3.0])


def test_pot_preserves_time_order():
    sample = pot_exceedances(make_series([9, 1, 1, 1, 7, 1, 8]), 0.5)
    assert list(sample.data) == pytest.approx([9 - 1.0, 7 - 1.0, 8 - 1.0])


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False),
                min_size=2, max_size=50),
       st.floats(min_value=0.0, max_value=0.95))
def test_pot_invariants(values, percentile):
    series = make_series(values)
    try:
        sample = pot_exceedances(series, percentile)
    except EstimationError:
        assert all(v <= np.max(values) for v in values)
        return
    assert np.all(sample.data > 0)
    assert sample.data.size == int(np.sum(np.asarray(values) > sample.threshold))


def test_full_sample_identity():
    from lobtail.ingest import full_sample

    s = make_series([1.0, 9.0, 4.0])
    sample = full_sample(s)
    assert sample.kind is SampleKind.FULL
    assert list(sample.data) == [1.0, 9.0, 4.0]
    assert sample.provenance == s.key
