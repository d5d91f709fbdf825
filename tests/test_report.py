import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from csv_oracle import csv_text
from lobtail import report

_INT64 = np.iinfo(np.int64)
_UINT64 = np.iinfo(np.uint64)
_EDGE_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
                1e16, 1.2345678901234567e16, -1e300, 0.1, 1.0 / 3.0]
_TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\r\n\'x;é')), max_size=8)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=_INT64.min, max_value=_UINT64.max),
    st.floats(allow_subnormal=True), st.sampled_from(_EDGE_FLOATS), _TEXT,
    st.integers(_INT64.min, _INT64.max).map(np.int64),
    st.integers(0, 255).map(np.uint8), st.booleans().map(np.bool_),
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
)


def _columns(n: int):
    """One column of n cells, of any kind write_csv tells apart."""
    floats = st.one_of(st.floats(allow_subnormal=True), st.sampled_from(_EDGE_FLOATS))
    return st.one_of(
        hnp.arrays(np.float64, n, elements=floats),
        hnp.arrays(np.float32, n, elements=st.floats(width=32)),
        hnp.arrays(np.float16, n, elements=st.floats(width=16)),
        hnp.arrays(np.longdouble, n, elements=floats),
        hnp.arrays(np.int64, n, elements=st.sampled_from([_INT64.min, _INT64.max])
                   | st.integers(_INT64.min, _INT64.max)),
        hnp.arrays(np.uint64, n, elements=st.integers(0, _UINT64.max)),
        hnp.arrays(np.int8, n),
        hnp.arrays(np.bool_, n),
        st.lists(_SCALARS, min_size=n, max_size=n),
        st.lists(_SCALARS, min_size=n, max_size=n).map(tuple),
        st.lists(_SCALARS, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=object)),
    )


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 12))
    columns = draw(st.lists(_columns(n), min_size=1, max_size=5))
    header = draw(st.lists(_TEXT, min_size=len(columns), max_size=len(columns)))
    return header, columns


@settings(max_examples=300, deadline=None)
@given(_tables())
@example((["t_s", "volume"], [np.array([1, _INT64.max]), np.array([np.nan, -0.0])]))
@example((["x", "y"], [np.array([], dtype=float), []]))  # zero rows: header only
@example((["a", "b,c"], [[None, 'say "hi"', "two\nlines", "cr\rhere"],
                         [np.int64(_INT64.min), np.bool_(True), 1e16, 5e-324]]))
def test_write_csv_matches_per_cell_oracle(tmp_path_factory, table):
    header, columns = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    report.write_csv(path, header, columns)
    assert path.read_bytes() == csv_text(header, columns).encode("utf-8")


def test_write_csv_formats_ndarray_columns_without_per_cell_rule(tmp_path, monkeypatch):
    def per_cell(value):
        raise AssertionError("per-cell rule used for an ndarray column")

    monkeypatch.setattr(report, "_cell", per_cell)
    path = tmp_path / "t.csv"
    report.write_csv(path, ["i", "u", "x", "b"],
                     [np.arange(3), np.arange(3, dtype=np.uint64), np.array([0.5, np.nan, -0.0]),
                      np.array([True, False, True])])
    assert path.read_bytes() == b"i,u,x,b\n0,0,0.5,true\n1,1,,false\n2,2,-0.0,true\n"


@pytest.mark.parametrize("header, columns", [
    (["a", "b"], [np.arange(3)]),
    (["a"], [np.arange(3), np.arange(3)]),
    (["a", "b"], [np.arange(3), np.arange(2)]),
])
def test_write_csv_rejects_columns_that_do_not_fit_the_header(tmp_path, header, columns):
    # zip would otherwise drop the cells of the longer columns without a word
    with pytest.raises(ValueError, match="header names need as many columns of one length"):
        report.write_csv(tmp_path / "t.csv", header, columns)
    assert not (tmp_path / "t.csv").exists()

