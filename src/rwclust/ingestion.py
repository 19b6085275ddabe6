"""CSV panel loading, validation, and level-to-increment conversion.

Input files are UTF-8 CSV with a mandatory header row: first column holds the
time label, every other column one series. Decimal point is '.', no thousands
separators. Panels are immutable once built and safe to share across threads.
"""
from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import csv
import numpy as np

from .errors import PanelFormatError, ValidationError

log = logging.getLogger(__name__)

MISSING_POLICIES = ("reject", "drop_series")


@dataclass(frozen=True)
class IngestionOptions:
    """How to read a panel file.

    missing: "reject" fails on any gap, "drop_series" removes gappy series
    (never silently filled: imputation would corrupt the rank statistics).
    date_format: optional strptime format for time labels; default is plain
    lexicographic ordering of the labels.
    """

    missing: str = "reject"
    date_format: str | None = None

    def __post_init__(self):
        if self.missing not in MISSING_POLICIES:
            raise ValidationError(
                f"unknown missing-value policy {self.missing!r}; expected one of {MISSING_POLICIES}"
            )


@dataclass(frozen=True)
class SeriesPanel:
    """N named level series on a shared, strictly increasing time index."""

    ids: tuple[str, ...]
    index: tuple[str, ...]
    values: np.ndarray  # N x (M+1)

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_values(self.ids, self.values, 3, "panel"))
        if len(self.index) != self.values.shape[1]:
            raise ValidationError(f"{len(self.index)} time labels for {self.values.shape[1]} columns")

    @property
    def n_series(self) -> int:
        return self.values.shape[0]

    @property
    def n_obs(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class IncrementPanel:
    """N increment series of length M; the object that gets represented and clustered."""

    ids: tuple[str, ...]
    values: np.ndarray  # N x M

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_values(self.ids, self.values, 2, "increment panel"))

    @property
    def n_series(self) -> int:
        return self.values.shape[0]

    @property
    def n_obs(self) -> int:
        return self.values.shape[1]


def _frozen_values(ids, values, min_obs: int, what: str) -> np.ndarray:
    """`values` as a read-only float array of one row of >= `min_obs` finite values per valid id."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2:
        raise ValidationError(f"{what} values must be a 2-d array")
    n, m = vals.shape
    if len(ids) != n:
        raise ValidationError(f"{len(ids)} ids for {n} value rows")
    if m < min_obs:
        raise ValidationError(f"{what} needs at least {min_obs} observations per series, got {m}")
    _check_ids(ids)
    if not np.isfinite(vals).all():
        raise ValidationError(f"{what} contains non-finite values")
    vals.setflags(write=False)
    return vals


def _check_ids(ids) -> None:
    if len(ids) == 0:
        raise ValidationError("panel has no series")
    if any(not str(i).strip() for i in ids):
        raise ValidationError("series ids must be nonempty")
    seen: set = set()
    dups: set = set()
    for i in ids:
        (dups if i in seen else seen).add(i)
    if dups:
        raise ValidationError(f"duplicate series ids: {', '.join(sorted(map(str, dups)))}")


def _is_gap(cell: str) -> bool:
    """A gap is a blank cell, empty or whitespace only; it reads as NaN."""
    return not cell.strip()


def _parse_cell(cell: str, line: int, column: int) -> float:
    """Return the cell value (nan for a gap), or raise on garbage."""
    if _is_gap(cell):
        return np.nan
    s = cell.strip()
    try:
        return float(s)
    except ValueError:
        raise PanelFormatError(f"cannot parse {s!r} as a number", line=line, column=column) from None


def _check_time_order(labels: list[str], lines: list[int], date_format: str | None) -> None:
    if date_format is not None:
        keys = []
        for lab, ln in zip(labels, lines):
            try:
                keys.append(datetime.strptime(lab, date_format))
            except ValueError:
                raise PanelFormatError(
                    f"time label {lab!r} does not match format {date_format!r}", line=ln, column=1
                ) from None
    else:
        keys = list(labels)
    for j in range(1, len(keys)):
        if not keys[j - 1] < keys[j]:
            raise ValidationError(
                f"time labels must be strictly increasing: {labels[j - 1]!r} then {labels[j]!r}"
                f" at line {lines[j]}"
            )


def _unclean(line: str) -> bool:
    """True for a line csv.reader might split other than at its commas (a quote)
    or refuse: a NUL (before Python 3.11), a field over csv.field_size_limit().
    A line may end in CR, LF or CRLF: the file's line iteration ends it there
    as csv does."""
    limit = csv.field_size_limit()
    return '"' in line or "\0" in line or (
        len(line) > limit and max(map(len, line.rstrip("\r\n").split(","))) > limit)


_MINUS_ZERO = re.compile(r"-0(?![.eE\d])")  # an integer -0 cell, or an exponent like 1e-0


def _json_numbers(text: str) -> bool:
    """False for cells that may hold more than the JSON numbers orjson
    converts as float() does: a letter of true, false or null, a bracket, or
    an integer -0 cell (JSON reads it as the int 0, float() as -0.0)."""
    return not any(c in text for c in "tfn[{") and not _MINUS_ZERO.search(text)


def _header_ids(header: list[str]) -> list[str]:
    if len(header) < 2:
        raise PanelFormatError("header must name a time column and at least one series", line=1)
    ids = [c.strip() for c in header[1:]]
    _check_ids(ids)
    return ids


def _json_gappy_row(body: str) -> list[float] | None:
    """The cells of a line with gaps, from one orjson call with each gap
    (`_is_gap`) read as NaN, as `_parse_cell` reads it; None when the line
    has no gap or another cell is not a JSON number."""
    import orjson

    cells = body.split(",")
    blanks = [j for j, cell in enumerate(cells) if _is_gap(cell)]
    if not blanks:
        return None
    for j in blanks:
        cells[j] = "0"
    try:
        row = orjson.loads(f"[{','.join(cells)}]")
    except orjson.JSONDecodeError:
        return None
    for j in blanks:
        row[j] = np.nan
    return row


def _read_clean(fh):
    """(ids, labels, line numbers, time x series values) read line by line,
    or None when the file is not clean or a cell does not parse.

    orjson reads a line's cells after its label as one JSON array when
    `_json_numbers` passes them and the array holds one value per series; a
    line with a gap is read by one more orjson call with its blank cells as
    NaN (`_json_gappy_row`). Any other line goes cell by cell through
    `_parse_cell`. The rows fill one float buffer that doubles when full.
    """
    import orjson  # loaded by the CSV writers and readers only, not by import rwclust

    header = fh.readline()
    if not header or _unclean(header):
        return None
    ids = _header_ids(header.rstrip("\r\n").split(","))
    n = len(ids)
    labels: list[str] = []
    by_time = np.empty((16, n))
    try:
        for i, line in enumerate(fh):
            if line.count(",") != n or _unclean(line):
                return None
            cut = line.index(",")
            labels.append(line[:cut].strip())
            body = line[cut + 1:]
            row = None
            if _json_numbers(body):
                try:
                    row = orjson.loads(f"[{body}]")
                except orjson.JSONDecodeError:
                    pass
                if row is None or len(row) != n:  # "[\n]" is [] for a one-series gap
                    row = _json_gappy_row(body)
            if row is None:
                row = [_parse_cell(cell, i + 2, j) for j, cell in enumerate(body.split(","), 2)]
            if i == len(by_time):
                grown = np.empty((2 * i, n))
                grown[:i] = by_time
                by_time = grown
            by_time[i] = row
    except (PanelFormatError, ValueError):  # a cell _parse_cell refuses, bytes that are not UTF-8
        return None
    return ids, labels, list(range(2, len(labels) + 2)), by_time[:len(labels)]


def _read_rows(fh):
    """(ids, labels, line numbers, time x series values) read by csv.reader
    and float(), with the line and column of the first cell that cannot be read."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise PanelFormatError("empty file", line=1) from None
    ids = _header_ids(header)
    n = len(ids)

    labels: list[str] = []
    lines: list[int] = []
    rows: list[list[float]] = []
    for row in reader:
        line = reader.line_num
        if not row:
            raise PanelFormatError("blank line inside data", line=line)
        if len(row) > n + 1:
            raise PanelFormatError(
                f"row has {len(row)} cells, expected {n + 1}", line=line, column=n + 2
            )
        labels.append(row[0].strip())
        lines.append(line)
        try:
            vals = list(map(float, row[1:])) if len(row) == n + 1 else None
        except ValueError:
            vals = None
        if vals is None:  # a short row or a cell float() rejects
            vals = [
                _parse_cell(row[j + 1] if j + 1 < len(row) else "", line, column=j + 2)
                for j in range(n)
            ]
        rows.append(vals)
    return ids, labels, lines, np.array(rows, dtype=float).reshape(len(rows), n)


def load_panel(path: str | Path, options: IngestionOptions = IngestionOptions()) -> SeriesPanel:
    """Load and validate a CSV level panel.

    A clean file is read line by line by the fast reader: no quote or NUL in
    the header, and every data line with one cell per header cell, no quote,
    no NUL and no field over csv.field_size_limit(); lines may end in LF,
    CRLF or CR. orjson parses a line's cells as one JSON array when they can
    hold nothing but JSON numbers (no integer -0, which JSON reads as 0);
    any other line is parsed cell by cell: strip, an empty cell is a gap,
    otherwise float(). Any other file, or one with a cell float() refuses,
    is read again from the start by the row parser: csv.reader, then float()
    over each row, and a per-cell parser for a short row or a row float()
    refuses, which reads an empty cell as a gap and reports the line and
    column of the first unparseable one. Both readers convert text to the
    same float (orjson rounds a decimal correctly, as float() does), so the
    result and every error do not depend on the reader. Gaps (empty, nan and
    inf cells) are the non-finite entries of the assembled array.

    Row order of the returned panel matches the file's column order. Raises
    PanelFormatError for unparseable content (with line/column), ValidationError
    for structural problems (duplicate ids, gaps under policy=reject, unordered
    time labels).
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            parsed = _read_clean(fh)
            if parsed is None:
                fh.seek(0)
                parsed = _read_rows(fh)
    except (UnicodeDecodeError, csv.Error) as e:  # bytes that are not UTF-8, an oversized field
        raise PanelFormatError(f"cannot read {path} as UTF-8 CSV: {e}") from None
    ids, labels, lines, by_time = parsed

    _check_time_order(labels, lines, options.date_format)

    gappy = (~np.isfinite(by_time)).any(axis=0)
    keep = np.arange(len(ids))
    if gappy.any():
        missing = sorted(ids[j] for j in np.flatnonzero(gappy))
        if options.missing == "reject":
            raise ValidationError(f"missing values in series: {', '.join(missing)}")
        keep = np.flatnonzero(~gappy)
        if keep.size == 0:
            raise ValidationError("all series dropped: every series has missing values")
        log.warning("dropped %d series with missing values: %s", len(missing), ", ".join(missing))

    return SeriesPanel(
        ids=tuple(ids[j] for j in keep),
        index=tuple(labels),
        values=np.ascontiguousarray(by_time.T[keep]),
    )


def to_increments(panel: SeriesPanel) -> IncrementPanel:
    """First-difference each level series: M+1 levels become M increments."""
    return IncrementPanel(ids=panel.ids, values=np.diff(panel.values, axis=1))

