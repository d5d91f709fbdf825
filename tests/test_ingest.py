import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lobtail.core import Side
from lobtail.ingest import (
    EmptySeriesError,
    MarketHours,
    SampleKind,
    ThresholdError,
    TickFileError,
    TickRecord,
    block_maxima,
    parse_tick_file,
    pot_exceedances,
    subsample_last,
)

from conftest import make_key, make_series

HEADER = "timestamp_ns,side,level,price,volume\n"


def tick(t_s, volume, side=Side.BID, level=1):
    return TickRecord(timestamp_ns=int(t_s * 1e9), side=side, level=level,
                      price=100.0, volume=volume)


# ---------------------------------------------------------------------------
# parse_tick_file
# ---------------------------------------------------------------------------


def test_parse_well_formed(tmp_path):
    path = tmp_path / "day.csv"
    path.write_text(HEADER + "1000,B,1,99.5,10\n2000,A,2,100.5,20\n3000,B,1,99.5,30\n")
    records, rep = parse_tick_file(path)
    assert len(records) == 3
    assert rep.parsed == 3 and rep.skipped == 0
    assert records[0].side is Side.BID and records[1].side is Side.ASK
    assert [r.volume for r in records] == [10, 20, 30]


def test_parse_skips_negative_volume(tmp_path):
    # invariant-violating rows are quality skips, not schema failures
    path = tmp_path / "day.csv"
    path.write_text(HEADER + "1000,B,1,99.5,10\n2000,B,1,99.5,-7\n3000,B,1,99.5,30\n")
    records, rep = parse_tick_file(path)
    assert len(records) == 2
    assert rep.skipped == 1 and rep.malformed == 0
    assert "negative volume" in rep.first_errors[0]


def test_parse_empty_file(tmp_path):
    path = tmp_path / "day.csv"
    path.write_text(HEADER)
    records, rep = parse_tick_file(path)
    assert records == [] and rep.rows == 0


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
    records, rep = parse_tick_file(path)
    assert rep.skipped == 1


# ---------------------------------------------------------------------------
# subsample_last
# ---------------------------------------------------------------------------


def test_subsample_carry_forward():
    ticks = [tick(1, 10), tick(12, 20)]
    series = subsample_last(ticks, make_key(), MarketHours(0, 30))
    assert list(series.timestamps) == [10, 20, 30]
    assert list(series.values) == [10.0, 20.0, 20.0]


def test_subsample_single_tick_constant():
    series = subsample_last([tick(0, 7)], make_key(), MarketHours(0, 20))
    assert list(series.values) == [7.0, 7.0]


def test_subsample_tick_at_grid_instant_included():
    series = subsample_last([tick(0, 1), tick(10, 5)], make_key(), MarketHours(0, 10))
    assert list(series.values) == [5.0]


def test_subsample_ticks_after_close():
    with pytest.raises(EmptySeriesError):
        subsample_last([tick(40, 9)], make_key(), MarketHours(0, 30))


def test_subsample_missing_head_dropped():
    series = subsample_last([tick(25, 3)], make_key(), MarketHours(0, 40))
    assert list(series.timestamps) == [30, 40]
    assert list(series.values) == [3.0, 3.0]


def test_subsample_filters_side_and_level():
    ticks = [tick(1, 10), tick(2, 99, side=Side.ASK), tick(3, 77, level=2)]
    series = subsample_last(ticks, make_key(), MarketHours(0, 10))
    assert list(series.values) == [10.0]


def test_subsample_no_ticks_for_key():
    with pytest.raises(EmptySeriesError):
        subsample_last([tick(1, 10, side=Side.ASK)], make_key(), MarketHours(0, 30))


@given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=40))
def test_subsample_values_come_from_input(volumes):
    ticks = [tick(3 * i + 1, v) for i, v in enumerate(volumes)]
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
    ticks = [tick(t, v) for t, v in sorted(events)]
    hours = MarketHours(open_s, open_s + 300)
    try:
        series = subsample_last(ticks, make_key(resolution_s=resolution), hours)
    except EmptySeriesError:
        return
    ts = series.timestamps
    assert len(ts) == len(series.values) > 0
    assert np.all(np.diff(ts) == resolution)
    assert hours.open_s < ts[0] and ts[-1] <= hours.close_s
    assert np.all(series.values >= 0)


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
    with pytest.raises(ValueError):
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
    assert sample.exceedance_count == 2
    assert sample.threshold_percentile == 0.8


def test_pot_all_equal_values():
    with pytest.raises(ThresholdError) as err:
        pot_exceedances(make_series([5, 5, 5, 5]), 0.8)
    assert err.value.threshold == 5.0


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
    except ThresholdError:
        assert all(v <= np.max(values) for v in values)
        return
    assert np.all(sample.data > 0)
    assert sample.exceedance_count == int(np.sum(np.asarray(values) > sample.threshold))


def test_full_sample_identity():
    from lobtail.ingest import full_sample

    s = make_series([1.0, 9.0, 4.0])
    sample = full_sample(s)
    assert sample.kind is SampleKind.FULL
    assert list(sample.data) == [1.0, 9.0, 4.0]
    assert sample.provenance == s.key
