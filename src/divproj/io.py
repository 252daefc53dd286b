"""CSV and JSON serialization.

Panels are stored time-major: the first row is a header of series ids, the
first column holds time labels, and the body is T rows by N columns.
Floats are written as their `repr`, the shortest decimal that parses back
to the same double (``-0.0`` keeps its sign), so write-then-read is
lossless and writing a file we read reproduces it byte for byte.  Rows of
floats are formatted as whole lines, byte-identical to what the csv module
writes; the csv module still writes headers, the label cell of each row,
and the mixed-type dict rows, cell by cell through :func:`format_value`,
which writes bools as 1/0.  A row comes in one of two kinds, each with one
writer, and rows are taken one at a time from any iterable, so a matrix
can be written from rows that are never held together.  A dense row is
the `repr` of each cell.  A sparse row comes as its parts, the ascending
columns that are not ``0.0`` and the floats there (a row of a thresholded
covariance or of its inverse); its line is their reprs spliced into one
cached line of ``0.0`` cells, so it costs about its parts, and the same
parts give the (i, j, value) triplets of its nonzero entries.

The body of a table is parsed in one pass by ``np.loadtxt``.  A file that
pass cannot vouch for (a quote, a blank line, a bad or non-finite cell, a
ragged row) is re-read with the csv module, which parses quoted labels and
locates the error.  Missing data is not supported: any cell that does not
parse as a finite number is rejected with its location, and so is a field
longer than the csv module's field size limit.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from io import StringIO
from pathlib import Path

import numpy as np

from .exceptions import DegenerateDataError
from .projection import PanelData


def format_value(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _parse_cell(cell: str, row: int, col: int, path) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DegenerateDataError(
            f"{path}: cell at row {row}, column {col} is not numeric: {cell!r}"
        ) from None
    if not math.isfinite(value):
        raise DegenerateDataError(
            f"{path}: non-finite cell at row {row}, column {col}: {cell!r} "
            "(missing data is not supported)"
        )
    return value


def _parse_row(row, i: int, path) -> np.ndarray:
    """The numbers after the label of data row `i`; a bad row is re-read cell by cell to locate the error."""
    try:
        values = np.array(row[1:], dtype=float)
    except ValueError:
        pass
    else:
        if np.isfinite(values).all():
            return values
    return np.array([_parse_cell(cell, i, j, path) for j, cell in enumerate(row[1:], start=2)])


class _Unvouched(Exception):
    """A line the one-pass parser cannot vouch for."""


def _bodies(lines, labels):
    """Each line's cells after its label, keeping the stripped label in `labels`.

    Raises `_Unvouched` on a line that csv and loadtxt could read
    differently: one with a quote, with no cell after its label (loadtxt
    skips blank lines, csv reports them), or longer than the csv module's
    field size limit (csv rejects a field that long, loadtxt does not).
    """
    limit = csv.field_size_limit()
    for line in lines:
        label, comma, rest = line.partition(",")
        if not comma or not rest or rest.isspace() or '"' in line or len(line) > limit:
            raise _Unvouched
        labels.append(label.strip())
        yield rest


def _read_table(path, what: str, width: int | None = None):
    """Parse a labelled numeric CSV; returns (header, labels, body).

    Each row must have `width` cells (by default as many as the header,
    which must then name a series), a label and then finite numbers.  The
    body is parsed in one C pass over the file's lines, so no string copy
    of the file is held.  Anything that pass cannot vouch for is re-read by
    :func:`_read_table_csv`, which gives the same table or the located error.
    """
    path = Path(path)
    labels = []
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
            first = next(fh, None)
            if header is None or first is None or (width is None and len(header) < 2):
                raise _Unvouched
            body = np.loadtxt(
                _bodies(itertools.chain([first], fh), labels),
                delimiter=",", comments=None, dtype=float, ndmin=2,
            )
    except (ValueError, _Unvouched, csv.Error):
        return _read_table_csv(path, what, width)
    if body.shape != (len(labels), (width or len(header)) - 1) or not np.isfinite(body).all():
        return _read_table_csv(path, what, width)
    return header, labels, body


def _csv_rows(fh, path):
    """csv.reader rows of `fh`; a csv error, such as a field over the size limit, is a located data error."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise DegenerateDataError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_table_csv(path, what: str, width: int | None = None):
    """:func:`_read_table` through the csv module, row by row: parses quoted cells and locates each error."""
    with open(path, newline="") as fh:
        reader = _csv_rows(fh, path)
        header = next(reader, None)
        if header is None:
            raise DegenerateDataError(f"{path}: file is empty")
        first = next(reader, None)
        if first is None:
            raise DegenerateDataError(f"{path}: header only, the {what} has no observations")
        if width is None:
            if len(header) < 2:
                raise DegenerateDataError(f"{path}: header names no series")
            width = len(header)
        labels, values = [], []
        for i, row in enumerate(itertools.chain([first], reader), start=2):
            if len(row) != width:
                raise DegenerateDataError(f"{path}: row {i} has {len(row)} cells, expected {width}")
            labels.append(row[0].strip())
            values.append(_parse_row(row, i, path))
    return header, labels, np.array(values)


def _write_csv(path, header, rows) -> None:
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_lines(path, header, labels, bodies) -> None:
    """Write `header`, then each label and its row's body (its cells joined by commas), as csv.writer writes them.

    Rows are taken one at a time.  csv.writer writes each label cell, and
    quotes it when it needs to.
    """
    if len(header) == 1:  # csv.writer quotes an empty label when it is the only cell
        return _write_csv(path, header, ([label] for label in labels))
    buf = StringIO()  # csv.writer quotes a line break in a label only with its default line terminator
    label_line = csv.writer(buf).writerow
    with open(Path(path), "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for label, body in zip(labels, bodies):
            buf.seek(0)
            buf.truncate()
            label_line((label, None))  # "label,\r\n"
            fh.write(buf.getvalue()[:-2] + body + "\r\n")


def _write_labelled(path, header, labels, rows) -> None:
    """Write `header`, then [label, *row] for each label and dense float row.

    `rows` is any iterable of 1-D float arrays, such as a matrix or a
    generator; each row is formatted as it is taken, and the row width is
    one less than the header's.
    """
    _write_lines(path, header, labels, (",".join(map(repr, row.tolist())) for row in rows))


def _write_parts(path, header, labels, parts) -> None:
    """Write `header`, then [label, *row] for each label and row given by its parts.

    `parts` is any iterable of (columns, values): a row's ascending column
    indices and a 1-D float array of its values there; every other cell is
    0.0.  Each line is the values' reprs spliced into one cached line of
    0.0 cells as wide as the header's columns, so no row of that width is
    formed or scanned.
    """
    zeros = ",".join(["0.0"] * (len(header) - 1))
    bodies = (_spliced(zeros, columns, map(repr, values.tolist())) for columns, values in parts)
    _write_lines(path, header, labels, bodies)


def _spliced(zeros: str, j, cells) -> str:
    """`zeros`, a line of ``0.0`` cells, with the cells at the ascending indices `j` replaced by `cells`."""
    pieces, prev = [], 0
    for i, cell in zip(j, cells):
        pieces += (zeros[prev : 4 * i], cell)  # cell i starts at 4 i
        prev = 4 * i + 3
    pieces.append(zeros[prev:])
    return "".join(pieces)


def _write_triplets(path, parts) -> None:
    """Write the (i, j, value) rows, 1-based, of the nonzero values in each row's parts (as in `_write_parts`)."""
    _write_csv(path, ["i", "j", "value"], (
        (i, j + 1, value)
        for i, (columns, values) in enumerate(parts, start=1)
        for j, value in zip(columns, values.tolist())
        if value != 0
    ))


def read_panel(path) -> PanelData:
    """Read a time-major panel CSV into the internal N x T layout."""
    header, time_ids, body = _read_table(path, "panel")
    return PanelData(X=body.T, series_ids=[c.strip() for c in header[1:]], time_ids=time_ids)


def write_panel(path, panel: PanelData) -> None:
    """Write a panel in the time-major CSV layout read by :func:`read_panel`."""
    series = panel.series_ids or [f"s{i + 1}" for i in range(panel.n_series)]
    times = panel.time_ids or [str(j + 1) for j in range(panel.n_periods)]
    _write_labelled(path, ["time", *series], times, panel.X.T)


def read_series(path):
    """Read a (time, value) CSV; returns (labels, values)."""
    _, labels, body = _read_table(path, "series", width=2)
    return labels, body[:, 0]


def write_matrix(path, values, row_labels=None, col_labels=None, corner: str = "row") -> None:
    """Write a labelled dense matrix CSV."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n, k = values.shape
    row_labels = row_labels or [f"r{i + 1}" for i in range(n)]
    col_labels = col_labels or [f"c{j + 1}" for j in range(k)]
    _write_labelled(path, [corner, *col_labels], row_labels, values)


def write_sparse_triplets(path, values) -> None:
    """Write the nonzero entries of a matrix as (i, j, value) rows, 1-based."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    i, j = np.nonzero(values)
    _write_csv(path, ["i", "j", "value"], zip((i + 1).tolist(), (j + 1).tolist(), values[i, j].tolist()))


def write_rows_csv(path, fieldnames, rows) -> None:
    """Write a list of dict rows; every cell goes through :func:`format_value`."""
    _write_csv(path, fieldnames, ([format_value(row[name]) for name in fieldnames] for row in rows))


def write_json(path, payload) -> None:
    def default(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, (np.floating,)):
            return float(obj)
        if isinstance(obj, (np.bool_,)):
            return bool(obj)
        raise TypeError(f"cannot serialize {type(obj)!r}")

    with open(Path(path), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=default)
        fh.write("\n")


def ensure_outdir(out) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    if not os.access(path, os.W_OK):
        raise DegenerateDataError(f"output directory {path} is not writable")
    return path
