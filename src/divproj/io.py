"""CSV and JSON serialization.

Panels are stored time-major: the first row is a header of series ids, the
first column holds time labels, and the body is T rows by N columns.
Floats go to the csv module, which writes them as their `repr`: the
shortest decimal that parses back to the same double, so write-then-read
is lossless and writing a file we read reproduces it byte for byte.  Only
mixed-type dict rows go cell by cell through :func:`format_value`, which
writes bools as 1/0.  Missing data is not supported: any cell that does
not parse as a finite number is rejected with its location.
"""

from __future__ import annotations

import csv
import json
import math
import os
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


def _read_table(path, what: str, width: int | None = None):
    """Parse a labelled numeric CSV; returns (header, labels, body).

    Each row must have `width` cells (by default as many as the header,
    which must then name a series), a label and then finite numbers.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DegenerateDataError(f"{path}: file is empty")
    header = rows[0]
    if len(rows) == 1:
        raise DegenerateDataError(f"{path}: header only, the {what} has no observations")
    if width is None:
        if len(header) < 2:
            raise DegenerateDataError(f"{path}: header names no series")
        width = len(header)
    labels = []
    body = np.empty((len(rows) - 1, width - 1))
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise DegenerateDataError(f"{path}: row {i} has {len(row)} cells, expected {width}")
        labels.append(row[0].strip())
        for j, cell in enumerate(row[1:], start=2):
            body[i - 2, j - 2] = _parse_cell(cell, i, j, path)
    return header, labels, body


def _write_csv(path, header, rows) -> None:
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _labelled(labels, values):
    """Rows [label, *values[i]], converted one at a time so no second copy of `values` is held."""
    for label, row in zip(labels, values):
        yield [label, *row.tolist()]


def _triplets(values):
    """Rows (i, j, value) of the nonzero entries, 1-based, built one matrix row at a time."""
    for i, row in enumerate(values, start=1):
        (j,) = np.nonzero(row)
        for col, value in zip((j + 1).tolist(), row[j].tolist()):
            yield i, col, value


def read_panel(path) -> PanelData:
    """Read a time-major panel CSV into the internal N x T layout."""
    header, time_ids, body = _read_table(path, "panel")
    return PanelData(X=body.T, series_ids=[c.strip() for c in header[1:]], time_ids=time_ids)


def write_panel(path, panel: PanelData) -> None:
    """Write a panel in the time-major CSV layout read by :func:`read_panel`."""
    series = panel.series_ids or [f"s{i + 1}" for i in range(panel.n_series)]
    times = panel.time_ids or [str(j + 1) for j in range(panel.n_periods)]
    _write_csv(path, ["time", *series], _labelled(times, panel.X.T))


def read_series(path):
    """Read a (time, value) CSV; returns (labels, values)."""
    _, labels, body = _read_table(path, "series", width=2)
    return labels, body[:, 0]


def write_series(path, values, labels=None, value_name: str = "value") -> None:
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    labels = labels or [str(j + 1) for j in range(len(values))]
    _write_csv(path, ["time", value_name], _labelled(labels, values))


def write_matrix(path, values, row_labels=None, col_labels=None, corner: str = "row") -> None:
    """Write a labelled dense matrix CSV."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n, k = values.shape
    row_labels = row_labels or [f"r{i + 1}" for i in range(n)]
    col_labels = col_labels or [f"c{j + 1}" for j in range(k)]
    _write_csv(path, [corner, *col_labels], _labelled(row_labels, values))


def write_sparse_triplets(path, values) -> None:
    """Write the nonzero entries of a matrix as (i, j, value) rows, 1-based."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    _write_csv(path, ["i", "j", "value"], _triplets(values))


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
