"""CSV panel loading, validation, and differencing."""
from __future__ import annotations

import csv
import decimal
import io
import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rwclust.ingestion as ingestion
from rwclust import (
    IncrementPanel,
    IngestionOptions,
    PanelFormatError,
    SeriesPanel,
    ValidationError,
    load_panel,
    to_increments,
)

from conftest import make_level_panel, write_csv

BASIC = """t,A,B
2020-01-01,1.0,4.0
2020-01-02,2.0,3.5
2020-01-03,1.5,3.0
"""


@pytest.mark.parametrize("content", [
    b"t,A\nt1,\xff\n",  # not UTF-8
    b"t,A\nt1,\"" + b"1" * 200_000 + b"\"\n",  # a field beyond the csv module's limit
], ids=["not-utf8", "oversized-field"])
def test_unreadable_csv_is_a_format_error(tmp_path, content):
    path = tmp_path / "p.csv"
    path.write_bytes(content)
    with pytest.raises(PanelFormatError, match="UTF-8 CSV"):
        load_panel(path)


def test_basic_parse(tmp_path):
    # header "t,A,B" plus rows of levels: two series, one row per time point
    panel = load_panel(write_csv(tmp_path / "p.csv", BASIC))
    assert panel.ids == ("A", "B")
    assert panel.n_series == 2
    assert panel.n_obs == 3
    assert panel.index == ("2020-01-01", "2020-01-02", "2020-01-03")
    assert np.array_equal(panel.values, [[1.0, 2.0, 1.5], [4.0, 3.5, 3.0]])


def test_four_data_rows(tmp_path):
    text = "t,A,B\nt1,0,0\nt2,1,2\nt3,3,4\nt4,2,1\n"
    panel = load_panel(write_csv(tmp_path / "p.csv", text))
    assert (panel.n_series, panel.n_obs) == (2, 4)


def test_series_panel_refuses_wrong_label_count():
    with pytest.raises(ValidationError, match="2 time labels for 3 columns"):
        SeriesPanel(ids=("A",), index=("t1", "t2"), values=np.zeros((1, 3)))


@pytest.mark.parametrize("ids, values, reason", [
    (("A",), np.zeros(4), "must be a 2-d array"),
    (("A", "B"), np.zeros((1, 4)), "2 ids for 1 value rows"),
    ((), np.zeros((0, 4)), "panel has no series"),
    (("A", " "), np.zeros((2, 4)), "series ids must be nonempty"),
], ids=["one-d", "ids-vs-rows", "no-series", "blank-id"])
def test_panel_refuses_malformed_values_or_ids(ids, values, reason):
    with pytest.raises(ValidationError, match=reason):
        IncrementPanel(ids=ids, values=values)


def test_duplicate_column_rejected(tmp_path):
    text = "t,A,A\nt1,0,0\nt2,1,2\nt3,3,4\n"
    with pytest.raises(ValidationError, match="A"):
        load_panel(write_csv(tmp_path / "p.csv", text))


def test_blank_cell_rejected_by_default(tmp_path):
    text = "t,A,B\nt1,0,0\nt2,,2\nt3,3,4\n"
    with pytest.raises(ValidationError, match="A"):
        load_panel(write_csv(tmp_path / "p.csv", text))


def test_blank_cell_drop_series(tmp_path, caplog):
    text = "t,A,B\nt1,0,0\nt2,,2\nt3,3,4\n"
    path = write_csv(tmp_path / "p.csv", text)
    with caplog.at_level(logging.WARNING, logger="rwclust"):
        panel = load_panel(path, IngestionOptions(missing="drop_series"))
    assert panel.ids == ("B",)
    assert np.array_equal(panel.values, [[0.0, 2.0, 4.0]])
    assert any("A" in rec.message for rec in caplog.records)


def test_nan_and_inf_cells_are_gaps(tmp_path):
    text = "t,A,B\nt1,0,0\nt2,nan,2\nt3,inf,4\n"
    panel = load_panel(write_csv(tmp_path / "p.csv", text), IngestionOptions(missing="drop_series"))
    assert panel.ids == ("B",)


def test_all_series_dropped(tmp_path):
    text = "t,A\nt1,0\nt2,\nt3,3\n"
    with pytest.raises(ValidationError, match="all series"):
        load_panel(write_csv(tmp_path / "p.csv", text), IngestionOptions(missing="drop_series"))


def test_garbage_cell_reports_position(tmp_path):
    text = "t,A,B\nt1,0,0\nt2,zap,2\nt3,3,4\n"
    with pytest.raises(PanelFormatError, match=r"line 3.*column 2"):
        load_panel(write_csv(tmp_path / "p.csv", text))


def test_too_many_cells(tmp_path):
    text = "t,A,B\nt1,0,0\nt2,1,2,9\nt3,3,4\n"
    with pytest.raises(PanelFormatError, match="3"):
        load_panel(write_csv(tmp_path / "p.csv", text))


def test_short_row_is_missing_tail(tmp_path):
    text = "t,A,B\nt1,0,0\nt2,1\nt3,3,4\n"
    with pytest.raises(ValidationError, match="B"):
        load_panel(write_csv(tmp_path / "p.csv", text))


def test_empty_file(tmp_path):
    with pytest.raises(PanelFormatError, match="empty"):
        load_panel(write_csv(tmp_path / "p.csv", ""))


def test_header_needs_a_series(tmp_path):
    with pytest.raises(PanelFormatError):
        load_panel(write_csv(tmp_path / "p.csv", "t\nt1\nt2\nt3\n"))


def test_unordered_time_labels(tmp_path):
    text = "t,A\nt2,0\nt1,1\nt3,3\n"
    with pytest.raises(ValidationError, match="increasing"):
        load_panel(write_csv(tmp_path / "p.csv", text))


def test_date_format_ordering(tmp_path):
    # lexicographically decreasing labels that are chronologically increasing
    text = "t,A\n31/01/2020,0\n01/02/2020,1\n02/02/2020,3\n"
    path = write_csv(tmp_path / "p.csv", text)
    with pytest.raises(ValidationError):
        load_panel(path)  # plain string order sees them as decreasing
    panel = load_panel(path, IngestionOptions(date_format="%d/%m/%Y"))
    assert panel.n_obs == 3


def test_bad_date_label(tmp_path):
    text = "t,A\n2020-01-01,0\noops,1\n2020-01-03,3\n"
    with pytest.raises(PanelFormatError, match="oops"):
        load_panel(write_csv(tmp_path / "p.csv", text), IngestionOptions(date_format="%Y-%m-%d"))


def test_to_increments_examples():
    # first differences: (0,1,3,2) -> (1,2,-1)
    panel = make_level_panel([[0.0, 1.0, 3.0, 2.0]])
    inc = to_increments(panel)
    assert np.array_equal(inc.values, [[1.0, 2.0, -1.0]])

    assert np.array_equal(
        to_increments(make_level_panel([[5.0, 5.0, 5.0]])).values, [[0.0, 0.0]]
    )
    assert np.array_equal(
        to_increments(make_level_panel([[0.0, -1.0, -3.0]])).values, [[-1.0, -2.0]]
    )


def test_to_increments_needs_three_levels():
    with pytest.raises(ValidationError):
        make_level_panel([[1.0, 2.0]])


def test_increment_panel_shapes(rng):
    panel = make_level_panel(rng.standard_normal((4, 10)))
    inc = to_increments(panel)
    assert inc.n_series == 4
    assert inc.n_obs == 9
    assert inc.ids == panel.ids


def test_cumsum_round_trip(rng):
    # dyadic increments make the cumsum/diff round trip exact
    x = rng.integers(-8, 9, size=(3, 20)) / 4.0
    levels = np.concatenate([np.zeros((3, 1)), np.cumsum(x, axis=1)], axis=1)
    inc = to_increments(make_level_panel(levels))
    assert np.array_equal(inc.values, x)


def test_loading_is_deterministic(tmp_path):
    path = write_csv(tmp_path / "p.csv", BASIC)
    a = load_panel(path)
    b = load_panel(path)
    assert a.ids == b.ids and a.index == b.index
    assert np.array_equal(a.values, b.values)


def test_values_are_read_only(tmp_path):
    panel = load_panel(write_csv(tmp_path / "p.csv", BASIC))
    with pytest.raises(ValueError):
        panel.values[0, 0] = 99.0


def test_non_finite_panel_rejected():
    with pytest.raises(ValidationError):
        SeriesPanel(ids=("A",), index=("t1", "t2", "t3"), values=np.array([[0.0, np.inf, 1.0]]))


def test_bad_missing_policy():
    with pytest.raises(Exception):
        IngestionOptions(missing="ignore")


# ---------------------------------------------------------------------------
# load_panel against a per-cell reference
# ---------------------------------------------------------------------------

_NUMBERS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_PADDED = st.tuples(
    st.sampled_from(["", " ", "\t", " \t"]), _NUMBERS, st.sampled_from(["", " ", "\t"])
).map("".join)
_ODD_CELLS = st.sampled_from(
    ["", " ", "\t ", "nan", "NaN", "inf", "-inf", "1e400", "1_0", "zap", "1.2.3", "0x10"]
)


@st.composite
def _panel_texts(draw):
    """CSV text with 1-3 series; 'odd' columns may hold gaps and garbage,
    and a row may be short or one cell too long."""
    n = draw(st.integers(1, 3))
    odd = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    lines = ["t," + ",".join("ABC"[:n])]
    for t in range(draw(st.integers(0, 6))):
        width = draw(st.sampled_from([n, n, n, n, n - 1, 0, n + 1]))
        cells = [
            draw(st.one_of(_NUMBERS, _PADDED, _ODD_CELLS) if j < n and odd[j]
                 else st.one_of(_NUMBERS, _PADDED))
            for j in range(width)
        ]
        lines.append(",".join([f"t{t}", *cells]))
    return "\n".join(lines) + "\n"


def _reference_load(text: str, missing: str):
    """Per cell: strip, then float(); an empty or non-finite cell is a gap."""
    rows = list(csv.reader(io.StringIO(text)))
    ids = [c.strip() for c in rows[0][1:]]
    n = len(ids)
    columns: list[list[float]] = [[] for _ in ids]
    for line, row in enumerate(rows[1:], start=2):
        if len(row) > n + 1:
            raise PanelFormatError("row too long", line=line, column=n + 2)
        for j in range(n):
            cell = row[j + 1].strip() if j + 1 < len(row) else ""
            try:
                columns[j].append(float(cell) if cell else math.nan)
            except ValueError:
                raise PanelFormatError("garbage", line=line, column=j + 2) from None
    kept = [j for j in range(n) if all(map(math.isfinite, columns[j]))]
    if not kept or (len(kept) < n and missing == "reject"):
        raise ValidationError("gaps")
    if len(rows) - 1 < 3:
        raise ValidationError("too few observations")
    return tuple(ids[j] for j in kept), [[v.hex() for v in columns[j]] for j in kept]


def _outcome(load):
    try:
        return load()
    except (PanelFormatError, ValidationError) as e:
        return type(e).__name__, getattr(e, "line", None), getattr(e, "column", None)


@pytest.mark.parametrize("missing", ["reject", "drop_series"])
@settings(max_examples=400, deadline=None)
@given(text=_panel_texts())
def test_load_panel_matches_per_cell_reference(tmp_path_factory, missing, text):
    path = write_csv(tmp_path_factory.getbasetemp() / f"fuzz_{missing}.csv", text)

    def load():
        panel = load_panel(path, IngestionOptions(missing=missing))
        return panel.ids, [[v.hex() for v in row] for row in panel.values.tolist()]

    assert _outcome(load) == _outcome(lambda: _reference_load(text, missing))


# ---------------------------------------------------------------------------
# the fast reader (orjson per line) against the row parser
# ---------------------------------------------------------------------------

def _count_row_parses(monkeypatch) -> list:
    """Patch the row parser to record each call, and return the list that collects them."""
    calls = []
    read_rows = ingestion._read_rows

    def counted(fh):
        calls.append(1)
        return read_rows(fh)
    monkeypatch.setattr(ingestion, "_read_rows", counted)
    return calls


_ROWS = "t1,0,1\nt2,1,3\nt3,3,2\n"
_WIDE_ROW = "," + ",".join(["0.5"] * 400)
_WIDE_TOP = ("t," + ",".join(f"s{j}" for j in range(400)) + "\n"
             + "".join(f"t{i:02d}{_WIDE_ROW}\n" for i in range(9))).encode()
# the bad byte lies past the first 8 KiB, which the header line's read decodes
_NOT_UTF8 = _WIDE_TOP + b"t99\xff" + _WIDE_ROW.encode() + b"\n"
_FIELD_LIMIT = 64  # csv.field_size_limit() while reading the long-line and long-field files
_LONG_ROW = ",0.5" * 30  # 120 characters of 4-character cells
_LONG_TOP = "t," + ",".join(f"s{j}" for j in range(30)) + f"\nt1{_LONG_ROW}\nt2{_LONG_ROW}\n"
_EDGE_FILES = {  # name: (file bytes, the reader that reads it)
    "clean": (("t,A,B\n" + _ROWS).encode(), "fast"),
    "crlf": (("t,A,B\n" + _ROWS).replace("\n", "\r\n").encode(), "fast"),
    "bare-cr": (("t,A,B\n" + _ROWS).replace("\n", "\r").encode(), "fast"),
    "bom": (("\ufefft,A,B\n" + _ROWS).encode(), "fast"),
    "no-final-newline": (("t,A,B\n" + _ROWS).rstrip("\n").encode(), "fast"),
    "single-row": (b"t,A,B\nt1,0,1\n", "fast"),
    "header-only": (b"t,A,B\n", "fast"),
    "quoted-header": (('t,"A",B\n' + _ROWS).encode(), "rows"),
    "padded": (b"t,A,B\n t1 , 0\t,1 \nt2,\t1 , 3\nt3,3,2\n", "fast"),
    "unicode-spaces": ("t,A,B\nt1,0,1\nt2,\u30001\x1c,3\nt3,3,2\n".encode(), "fast"),  # float() alone refuses \x1c
    "nan": (b"t,A,B\nt1,0,1\nt2,nan,3\nt3,3,2\n", "fast"),
    "inf": (b"t,A,B\nt1,0,1\nt2,1,-inf\nt3,3,2\n", "fast"),
    "1e400": (b"t,A,B\nt1,0,1\nt2,1e400,3\nt3,3,2\n", "fast"),
    "underscore": (b"t,A,B\nt1,0,1\nt2,1_0,3\nt3,3,2\n", "fast"),  # orjson refuses, float() reads 10
    "quoted-cell": (b't,A,B\nt1,0,1\nt2,"1",3\nt3,3,2\n', "rows"),
    "nul": (b"t,A,B\nt1,0,1\nt2,1\x00,3\nt3,3,2\n", "rows"),
    "blank-line": (b"t,A,B\nt1,0,1\n\nt2,1,3\nt3,3,2\n", "rows"),
    "extra-cell": (b"t,A,B\nt1,0,1\nt2,1,3,9\nt3,3,2\n", "rows"),
    "short-row": (b"t,A,B\nt1,0,1\nt2,1\nt3,3,2\n", "rows"),
    "empty-cell": (b"t,A,B\nt1,0,1\nt2,,3\nt3,3,2\n", "fast"),
    "trailing-gap": (b"t,A,B\nt1,0,1\nt2,1,\nt3,3,2\n", "fast"),
    "gap-run": (b"t,A,B,C\nt1,0,1,2\nt2,,,3\nt3,3,2,1\n", "fast"),
    "gap-late": (_WIDE_TOP + b"t99" + _WIDE_ROW.replace(",0.5", ",", 1).encode() + b"\n", "fast"),
    "spaced-gap": (b"t,A,B\nt1,0,1\nt2, ,3\nt3,3,2\n", "fast"),
    "long-line": (f"{_LONG_TOP}t3{_LONG_ROW}\n".encode(), "fast"),
    "long-field": (f"{_LONG_TOP}t3,{'1' * (_FIELD_LIMIT + 1)}{',0.5' * 29}\n".encode(), "rows"),
    "not-utf8": (_NOT_UTF8, "rows"),
    "oversized-field": (b"t,A,B\nt1,0,1\nt2,1," + b"1" * 200_000 + b"\nt3,3,2\n", "rows"),
    # JSON reads an integer -0 as the int 0, float() as -0.0
    "minus-zero": (b"t,A,B\nt1,0,1\nt2,-0,3\nt3,3,2\n", "fast"),
    "spaced-minus-zero": (b"t,A,B\nt1,0,1\nt2, -0 ,3\nt3,3,2\n", "fast"),
    "crlf-minus-zero": (b"t,A,B\r\nt1,0,1\r\nt2,1,-0\r\nt3,3,2\r\n", "fast"),
    "1e-0": (b"t,A,B\nt1,0,1\nt2,1e-0,3\nt3,3,2\n", "fast"),  # not an integer -0, but refused by the guard
    # JSON values that are not numbers: the row parser reports their line and column
    "true": (b"t,A,B\nt1,0,1\nt2,true,3\nt3,3,2\n", "rows"),
    "null": (b"t,A,B\nt1,0,1\nt2,null,3\nt3,3,2\n", "rows"),
    "list": (b"t,A,B\nt1,0,1\nt2,[1],3\nt3,3,2\n", "rows"),
    "object": (b"t,A,B\nt1,0,1\nt2,{},3\nt3,3,2\n", "rows"),
}


def _panel_or_error(path, missing):
    try:
        panel = load_panel(path, IngestionOptions(missing=missing))
    except (PanelFormatError, ValidationError) as e:
        return type(e).__name__, str(e), getattr(e, "line", None), getattr(e, "column", None)
    return panel.ids, panel.index, [[v.hex() for v in row] for row in panel.values.tolist()]


@pytest.mark.parametrize("missing", ["reject", "drop_series"])
@pytest.mark.parametrize("name", _EDGE_FILES)
def test_readers_agree_on_edge_files(tmp_path, monkeypatch, missing, name):
    content, reader = _EDGE_FILES[name]
    path = tmp_path / "p.csv"
    path.write_bytes(content)
    row_parses = _count_row_parses(monkeypatch)
    limit = csv.field_size_limit()
    if name.startswith("long-"):
        csv.field_size_limit(_FIELD_LIMIT)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # neither reader may warn, not even on a file without data
            loaded = _panel_or_error(path, missing)
            assert ("rows" if row_parses else "fast") == reader
            monkeypatch.setattr(ingestion, "_read_clean", lambda fh: None)
            assert loaded == _panel_or_error(path, missing)
    finally:
        csv.field_size_limit(limit)


def _assert_fast_reader_agrees(path, missing):
    """The file takes the fast reader and loads as the row parser alone loads it."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        row_parses = _count_row_parses(monkeypatch)
        loaded = _panel_or_error(path, missing)
        assert row_parses == []
        monkeypatch.setattr(ingestion, "_read_clean", lambda fh: None)
        assert loaded == _panel_or_error(path, missing)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3),
       rows=st.lists(st.lists(st.one_of(_NUMBERS, _PADDED, st.just("")), min_size=3, max_size=3),
                     min_size=1, max_size=6),
       ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=7, max_size=7),
       missing=st.sampled_from(["reject", "drop_series"]))
def test_full_width_numbers_take_fast_reader(tmp_path_factory, n, rows, ends, missing):
    """Full rows of numbers and empty cells, each line ended by LF, CRLF or CR,
    take the fast reader and load as the row parser alone loads them."""
    lines = ["t," + ",".join("ABC"[:n])] + [f"t{t},{','.join(cells[:n])}" for t, cells in enumerate(rows)]
    path = tmp_path_factory.getbasetemp() / "full_width.csv"
    path.write_bytes("".join(map(str.__add__, lines, ends)).encode())
    _assert_fast_reader_agrees(path, missing)


def _halfway(x: float) -> str:
    """The decimal exactly halfway between x >= 0 and the next double up."""
    with decimal.localcontext() as ctx:
        ctx.prec = 1200  # enough for the exact value of any double
        return str((decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2)


_DECIMALS = st.builds(  # sign, up to 40 mantissa digits, an exponent with a sign and leading zeros
    "{}{}{}{}".format,
    st.sampled_from(["", "-"]),
    st.from_regex(r"0|[1-9][0-9]{0,19}", fullmatch=True),
    st.one_of(st.just(""), st.from_regex(r"\.[0-9]{1,20}", fullmatch=True)),
    st.one_of(st.just(""), st.from_regex(r"[eE][+-]?0{0,3}[0-9]{1,3}", fullmatch=True)),
)
_EXTREME_NUMBERS = st.sampled_from([
    str(2**53 + 1), str(2**63), str(2**64 - 1), "1" * 25, "-" + "9" * 25,
    "1" * 400,  # orjson refuses it, float() reads inf
    "4.9406564584124654e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",  # the smallest subnormal
    "2.2250738585072009e-308", "2.2250738585072014e-308",  # the largest subnormal, the smallest normal
    "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
])
_FLOAT_TEXTS = st.one_of(
    _DECIMALS,
    _EXTREME_NUMBERS,
    st.integers(10**24, 10**25 - 1).map(str),
    st.builds(str.__add__, st.sampled_from(["", "-"]),
              st.floats(0.0, 1.7e308).map(_halfway)),  # round half to even
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(_FLOAT_TEXTS, min_size=3, max_size=3), min_size=3, max_size=5),
       missing=st.sampled_from(["reject", "drop_series"]))
def test_fast_reader_converts_as_float_does(tmp_path_factory, rows, missing):
    """Long mantissas, padded exponents, integers past 2**53 and 2**64,
    subnormals and halfway points load to the bits the row parser gives."""
    text = "t,A,B,C\n" + "".join(f"t{t},{','.join(cells)}\n" for t, cells in enumerate(rows))
    path = write_csv(tmp_path_factory.getbasetemp() / "float_texts.csv", text)
    _assert_fast_reader_agrees(path, missing)


@pytest.mark.parametrize("text, numbers", [
    ("0.5,-0.25,1e-05,-0e1,-0.0,1E+300\n", True),
    ("-0,1\n", False), (" -0 ,1\n", False), ("1,-0\r\n", False), ("1e-0,1\n", False),
    ("true,1\n", False), ("null,1\n", False), ("[1],1\n", False), ("{},1\n", False),
    ("nan,1\n", False), ("-inf,1\n", False),
])
def test_json_numbers_guard(text, numbers):
    # a line the guard passes is read by orjson, any other cell by cell
    assert ingestion._json_numbers(text) is numbers


def test_gappy_lines_make_no_per_cell_parse(tmp_path, monkeypatch):
    # a gap on every line, blank or padded, mid-line or last before LF or
    # CRLF: orjson reads each line once more with its blank cells as NaN
    text = ("t,A,B,C\nt0,,1.5,2\nt1,0.25, ,-3e-2\nt2,1,2,\nt3,\t,,7\r\n"
            "t4,-0.0,1e3,  \r\nt5,1E+300,-1,\n")
    path = write_csv(tmp_path / "p.csv", text)
    cell_parses = []
    parse_cell = ingestion._parse_cell
    monkeypatch.setattr(ingestion, "_parse_cell",
                        lambda *args, **kw: cell_parses.append(args) or parse_cell(*args, **kw))
    with open(path, newline="", encoding="utf-8") as fh:
        values = ingestion._read_clean(fh)[3]
    assert cell_parses == []
    assert np.argwhere(np.isnan(values)).tolist() == [[0, 0], [1, 1], [2, 2], [3, 0], [3, 1],
                                                     [4, 2], [5, 2]]
    assert values[4, 0] == 0.0 and math.copysign(1.0, values[4, 0]) == -1.0
    for missing in ("reject", "drop_series"):
        _assert_fast_reader_agrees(path, missing)


def test_fast_reader_holds_no_per_cell_objects(tmp_path, rng):
    # lists of Python floats, or the whole file as one string, would take several times the array
    levels = rng.standard_normal((500, 200)).cumsum(axis=0)
    text = "t," + ",".join(f"s{j}" for j in range(200)) + "\n" + "".join(
        f"t{i:03d},{','.join(map(repr, row))}\n" for i, row in enumerate(levels.tolist()))
    path = write_csv(tmp_path / "p.csv", text)
    tracemalloc.start()
    try:
        panel = load_panel(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(panel.values, levels.T)
    assert peak < 3 * panel.values.nbytes
