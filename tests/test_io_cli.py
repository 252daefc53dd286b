import csv
import functools
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from divproj.cli import SIMULATIONS, _build_parser, run
from divproj import cli as cli_module
from divproj import covariance
from divproj.covariance import (
    KINDS,
    SparseCovariance,
    ThresholdRule,
    _as_blocks,
    _blocks,
    invert_sparse_cov,
    sparse_idio_cov,
)
from divproj import io as io_module
from divproj.exceptions import DegenerateDataError, NumericalWarning
from divproj.experiments import experiment_spectest
from divproj.fdr import farm_test
from divproj.forecast import FixedWeightScheme, rolling_forecast
from divproj.inference import confidence_interval, double_selection
from divproj.io import (
    format_value,
    read_panel,
    read_series,
    write_matrix,
    write_panel,
    write_rows_csv,
)
from divproj.projection import PanelData
from divproj.spectest import DEFAULT_RULE, spec_test
from divproj.weights import build_weights, initial_transform_weights, rolling_window_weights


def write_triplets(path, values) -> None:
    """Write the nonzero entries of a matrix as (i, j, value) rows, 1-based: the reference for the sparse writer."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    i, j = np.nonzero(values)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "value"])
        writer.writerows(zip((i + 1).tolist(), (j + 1).tolist(), values[i, j].tolist()))


def write_series(path, values, labels=None, value_name: str = "value") -> None:
    """Write a (time, value) CSV, the layout `read_series` reads."""
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    write_matrix(path, values, labels or [str(j + 1) for j in range(len(values))], [value_name], corner="time")


@pytest.fixture
def panel_csv(tmp_path):
    path = tmp_path / "x.csv"
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 40))
    write_panel(path, PanelData(X))
    return path, X


class TestPanelIO:
    def test_round_trip_values(self, tmp_path):
        path = tmp_path / "p.csv"
        X = np.array([[0.1, -2.5, 1e-17], [3.0, 0.3333333333333333, 7.0]])
        write_panel(path, PanelData(X, series_ids=["a", "b"], time_ids=["t1", "t2", "t3"]))
        back = read_panel(path)
        np.testing.assert_array_equal(back.X, X)  # repr round-trip is lossless
        assert back.series_ids == ["a", "b"]
        assert back.time_ids == ["t1", "t2", "t3"]

    def test_write_then_read_then_write_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        X = np.array([[1.5, 0.1], [2.0, -3.25]])
        write_panel(p1, PanelData(X))
        write_panel(p2, read_panel(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(DegenerateDataError, match="empty"):
            read_panel(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("time,s1,s2\n")
        with pytest.raises(DegenerateDataError, match="header only"):
            read_panel(path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("time,s1,s2\n1,1.0,2.0\n2,3.0\n")
        with pytest.raises(DegenerateDataError, match="row 3"):
            read_panel(path)

    def test_nan_cell_rejected_with_location(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("time,s1,s2\n1,1.0,NaN\n")
        with pytest.raises(DegenerateDataError, match="row 2, column 3"):
            read_panel(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("time,s1\n1,abc\n")
        with pytest.raises(DegenerateDataError, match="not numeric"):
            read_panel(path)


READER_MESSAGES = [
    (read_series, "time,y\n", "header only, the series has no observations"),
    (read_series, "time,y\n1,2.0,3.0\n", "row 2 has 3 cells, expected 2"),
    (read_panel, "time\n1\n", "header names no series"),
    (read_series, "time,y\n1,1.0\n2,nan\n", "non-finite cell at row 3, column 2"),
    (read_panel, "time,s1,s2\n1,1.0,-inf\n", "non-finite cell at row 2, column 3"),
    (read_panel, "time,s1,s2,s3\n1,x,Infinity,1__0\n", "cell at row 2, column 2 is not numeric: 'x'"),
    (read_panel, "time,s1,s2\n1,1.0,1__0\n2,1.0\n", "cell at row 2, column 3 is not numeric: '1__0'"),
    (read_panel, "time,s1,s2\n1,1.0,2.0\n2, 1 ,Infinity\n", "non-finite cell at row 3, column 3"),
]

PYTHON_FLOAT_CELLS = [" 1.5", "2 ", "1_0", "+.5", "-0.0", "1e-400", "5e-324", "1E308", "0.1"]


@pytest.mark.parametrize("reader, text, message", READER_MESSAGES)
def test_reader_messages(tmp_path, reader, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DegenerateDataError, match=re.escape(message)):
        reader(path)


def test_cells_parse_as_python_floats(tmp_path):
    cells = PYTHON_FLOAT_CELLS
    path = tmp_path / "p.csv"
    path.write_text("time," + ",".join(f"s{j}" for j in range(len(cells))) + "\n1," + ",".join(cells) + "\n")
    assert read_panel(path).X[:, 0].tobytes() == np.array([float(c) for c in cells]).tobytes()


def _table_or_error(read, path, what, width):
    try:
        header, labels, body = read(path, what, width)
    except DegenerateDataError as exc:
        return str(exc)
    return header, labels, body.tobytes()


_PANEL, _SERIES = ("panel", None), ("series", 2)
READER_CASES = [
    *((text, _SERIES if reader is read_series else _PANEL) for reader, text, _ in READER_MESSAGES),
    *(("time,s\n1," + cell + "\n", _PANEL) for cell in PYTHON_FLOAT_CELLS),
    ("time," + ",".join("s" * len(PYTHON_FLOAT_CELLS)) + "\nt," + ",".join(PYTHON_FLOAT_CELLS) + "\n", _PANEL),
    ("", _PANEL),
    ("time,a,b\n", _PANEL),
    ("time,a,b\n1,1.0,2.0\n\n2,3.0,4.0\n", _PANEL),  # blank line in the middle
    ("time,a,b\n1,1.0,2.0\n2,3.0,4.0\n\n", _PANEL),  # trailing blank line
    ("time,y\n1,1.0\n\n2,3.0\n", _SERIES),
    ("time,y\n1,1.0\n2,3.0\n\n", _SERIES),
    ("time,y\n1,\n", _SERIES),  # a label with no cell after it
    ("time,y\n1\n", _SERIES),
    ("time,a,b\r\n1,1.0,2.0\r\n2,3.0,4.0\r\n", _PANEL),
    ("time,a,b\r1,1.0,2.0\r2,3.0,4.0\r", _PANEL),
    ("time,a,b\r\n1,1.0,2.0\r2,3.0,4.0", _PANEL),
    ('time,a,b\n"t,1",1.0,2.0\n', _PANEL),  # quoted label
    ('time,a,b\n1,"1.0",2.0\n', _PANEL),  # quoted number cell
    ('time,"a,b",c\n1,1.0,2.0\n', _PANEL),  # quoted header id with a comma
    ('"time\nstamp",a\n1,1.0\n', _PANEL),  # header spanning two lines
    ("time,a,b\n1,,2.0\n", _PANEL),  # empty cell
    ("time,a,b\n1, ,2.0\n", _PANEL),  # whitespace-only cell
    ("time,a,b\n1,1.0,2.0,\n", _PANEL),  # trailing comma
    ("time,a,b\n 1 ,1.0,2.0\n t2\t,3.0,4.0\n", _PANEL),  # labels are stripped
    ("time,a,b\n1,1.0,2.0\n2,3.0,4.0", _PANEL),  # no final newline
    ("time,a,b\n1,1e400,2.0\n", _PANEL),
    ("time,a,b\n1,\u0661,2.0\n", _PANEL),  # a non-ASCII digit, which float() reads
    ("time,a,b\n1,1.5\u2003,\u20032.0\n", _PANEL),
    # fields and lines longer than the csv module's field size limit
    pytest.param("time,a\n" + "t" * 200_000 + ",1.0\n", _PANEL, id="oversized-label"),
    pytest.param("time,a\n1," + "0" * 200_000 + "\n", _PANEL, id="oversized-cell"),
    pytest.param("time," + ",".join("s" * 40_000) + "\n1," + ",".join(["1.0"] * 40_000) + "\n", _PANEL,
                 id="oversized-line"),
    ("time,y\n1, \t\n", _SERIES),  # whitespace-only rows after their labels
    ("time,y\n1,1.0\n2, \t\n", _SERIES),
    ("time,a,b\n1,1.0,2.0\n2,\u2003\n", _PANEL),
    ("time,y\n1,\r\n", _SERIES),  # a \r row after its label
    ("time,y\n1,1.0\n2,\r\n3,4.0\n", _SERIES),
    ("time,a,b\n1,1.0,2.0\n2,\r3,4.0,5.0\n", _PANEL),
    ("time,y\n1,1.0\n\r\n2,3.0\n", _SERIES),  # a row that is one \r
    ("time,a,b\r1,1.0,2.0\r\r2,3.0,4.0\r", _PANEL),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, kind", READER_CASES)
def test_one_pass_reader_matches_the_csv_reader(tmp_path, text, kind):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    what, width = kind
    fast = _table_or_error(io_module._read_table, path, what, width)
    assert fast == _table_or_error(io_module._read_table_csv, path, what, width)


@pytest.mark.parametrize("read", [io_module._read_table, io_module._read_table_csv])
@pytest.mark.parametrize(
    "text, line",
    [
        ("time," + "a" * 200_000 + "\n1,1.0\n", 1),
        ("time,a\n" + "t" * 200_000 + ",1.0\n", 2),
        ("time,a\n1,1.0\n2," + "0" * 200_000 + "\n", 3),
    ],
    ids=["header", "label", "cell"],
)
def test_oversized_field_is_a_located_data_error(tmp_path, read, text, line):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(DegenerateDataError, match=f"t.csv: line {line}: field larger than field limit"):
        read(path, "panel")


def test_plain_tables_are_read_in_one_pass(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    write_panel(tmp_path / "p.csv", PanelData(rng.standard_normal((30, 7)), time_ids=[" a", "b ", "", "d", "e", "f", "g"]))
    write_series(tmp_path / "s.csv", rng.standard_normal(5))
    expected = read_panel(tmp_path / "p.csv").X, read_series(tmp_path / "s.csv")[1]
    monkeypatch.setattr(io_module, "_read_table_csv", None)
    assert read_panel(tmp_path / "p.csv").X.tobytes() == expected[0].tobytes()
    assert read_series(tmp_path / "s.csv")[1].tobytes() == expected[1].tobytes()


def _csv_rendering(header, labels, rows) -> bytes:
    buf = StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([label, *row.tolist()] for label, row in zip(labels, rows))
    return buf.getvalue().encode()


def test_writers_match_the_csv_module(tmp_path):
    rng = np.random.default_rng(5)
    k = 1000
    sparse = np.zeros(k)
    sparse[rng.choice(k, size=500, replace=False)] = -0.0
    sparse[17] = 0.25
    special = np.resize([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, -1e16, 0.1], k)
    values = np.array([rng.standard_normal(k) * 10.0 ** rng.integers(-5, 5, k), sparse, special, np.zeros(k), -np.zeros(k)])
    labels = ["", "a,b", 'q"x', "two\nlines", " pad "]
    cols = [f"c{j + 1}" for j in range(k)]
    finite = np.isfinite(values).all(axis=1)

    write_matrix(tmp_path / "m.csv", values, labels, cols, corner="id")
    assert (tmp_path / "m.csv").read_bytes() == _csv_rendering(["id", *cols], labels, values)
    io_module._write_labelled(tmp_path / "g.csv", ["id", *cols], labels, iter(values))  # rows from any iterable
    assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "m.csv").read_bytes()
    write_matrix(tmp_path / "d.csv", values)
    assert (tmp_path / "d.csv").read_bytes() == _csv_rendering(
        ["row", *cols], [f"r{i + 1}" for i in range(len(values))], values)
    panel_labels = [label for label, keep in zip(labels, finite) if keep]
    write_panel(tmp_path / "p.csv", PanelData(values[finite].T, series_ids=cols, time_ids=panel_labels))
    assert (tmp_path / "p.csv").read_bytes() == _csv_rendering(["time", *cols], panel_labels, values[finite])
    series_labels = [*labels, 7, None, "plain"]
    column = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 2.5])
    write_series(tmp_path / "s.csv", column, series_labels, value_name="v,w")
    assert (tmp_path / "s.csv").read_bytes() == _csv_rendering(["time", "v,w"], series_labels, column[:, None])
    write_matrix(tmp_path / "e.csv", np.zeros((3, 0)), ["", "x", "a,b"], [])
    assert (tmp_path / "e.csv").read_bytes() == _csv_rendering(["row"], ["", "x", "a,b"], np.zeros((3, 0)))


@pytest.mark.parametrize("with_zeros", [False, True], ids=["every-row-spliced", "rows-of-zeros-spliced"])
def test_spliced_rows_have_the_bytes_of_dense_rows(tmp_path, with_zeros):
    """Rows of widths 1-17 with +-0.0, nan, +-inf and subnormals, written from their parts and as dense rows.

    The parts hold every cell that is not +0.0, and some +0.0 cells too when
    `with_zeros`: a part may be zero, and is spliced in like any other.
    """
    rng = np.random.default_rng(29)
    pool = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, 1.5, -2.0, 1e300])
    for width in [*range(1, 18), *range(17, 0, -1)]:
        rows, parts = [], []
        for _ in range(12):
            row = np.zeros(width)
            at = rng.choice(width, size=rng.integers(0, width + 1), replace=False)
            row[at] = rng.choice(pool, size=at.size)
            given = (row != 0) | np.signbit(row)
            if with_zeros:
                given |= rng.random(width) < 0.3
            columns = np.flatnonzero(given)
            rows.append(row)
            parts.append((columns.tolist(), row[columns]))
        labels = [f"r{i}" for i in range(len(rows))]
        header = ["id", *(f"c{j}" for j in range(width))]
        io_module._write_labelled(tmp_path / "dense.csv", header, labels, rows)
        assert (tmp_path / "dense.csv").read_bytes() == _csv_rendering(header, labels, rows)
        io_module._write_parts(tmp_path / "parts.csv", header, labels, iter(parts))
        assert (tmp_path / "parts.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()
        io_module._write_triplets(tmp_path / "triplets.csv", iter(parts))
        write_triplets(tmp_path / "ref.csv", np.array(rows))
        assert (tmp_path / "triplets.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_floats_are_written_as_their_repr(tmp_path):
    x = np.array([-0.0, 5e-324, 1e16, 0.1, 1 / 3])
    cells = ["-0.0", "5e-324", "1e+16", "0.1", "0.3333333333333333"]
    assert cells == [repr(v) for v in x.tolist()]
    write_matrix(tmp_path / "m.csv", x[None, :])
    write_panel(tmp_path / "p.csv", PanelData(x[:, None]))
    write_series(tmp_path / "s.csv", x)
    io_module._write_triplets(tmp_path / "t.csv", [([0, 1, 2, 3, 4], x)])

    def lines(name):
        return (tmp_path / name).read_text().splitlines()

    assert lines("m.csv") == ["row,c1,c2,c3,c4,c5", "r1," + ",".join(cells)]
    assert lines("p.csv") == ["time,s1,s2,s3,s4,s5", "1," + ",".join(cells)]
    assert lines("s.csv") == ["time,value", *(f"{j + 1},{c}" for j, c in enumerate(cells))]
    # -0.0 is zero, so it has no triplet
    assert lines("t.csv") == ["i,j,value", *(f"1,{j + 1},{c}" for j, c in enumerate(cells) if j > 0)]
    _, back = read_series(tmp_path / "s.csv")
    assert back.tobytes() == x.tobytes()  # bit for bit, the sign of -0.0 included


class TestSeriesIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "y.csv"
        write_series(path, [1.25, -0.5], labels=["a", "b"])
        labels, values = read_series(path)
        assert labels == ["a", "b"]
        np.testing.assert_array_equal(values, [1.25, -0.5])

    def test_format_value(self):
        assert format_value(0.1) == "0.1"
        assert format_value(3) == "3"
        assert format_value(True) == "1"
        assert float(format_value(1 / 3)) == 1 / 3


class TestCLI:
    def test_estimate_writes_artifacts(self, tmp_path, panel_csv):
        path, X = panel_csv
        out = tmp_path / "out"
        code = run(["estimate", "--panel", str(path), "--scheme", "walsh",
                    "--R", "2", "--out", str(out)])
        assert code == 0
        for name in ("factors.csv", "loadings.csv", "residuals.csv",
                     "diagnostics.json", "manifest.json"):
            assert (out / name).exists()
        from divproj.projection import fit
        from divproj.weights import walsh_hadamard_weights

        expected = fit(X, walsh_hadamard_weights(6, 2))
        factors = read_panel(out / "factors.csv")  # same labelled-matrix layout
        np.testing.assert_allclose(factors.X.T, expected.factors, atol=1e-12)

    def test_missing_panel_is_data_error(self, tmp_path, capsys):
        code = run(["estimate", "--panel", str(tmp_path / "nope.csv"),
                    "--scheme", "walsh", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_oversized_field_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("time,a\n" + "t" * 200_000 + ",1.0\n2,\n")
        code = run(["estimate", "--panel", str(path), "--scheme", "walsh", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "big.csv: line 2: field larger than field limit" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["estimate", "--no-such-flag"]) == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert run(["frobnicate"]) == 1

    def test_cov_subcommand(self, tmp_path, panel_csv):
        path, X = panel_csv
        out = tmp_path / "cov_out"
        code = run(["cov", "--panel", str(path), "--scheme", "walsh", "--R", "1",
                    "--rule", "scad", "--C", "2.0", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["omega"] > 0
        assert (out / "sigma_u.csv").exists()

    def test_cov_sparse_triplets(self, tmp_path, panel_csv):
        path, _ = panel_csv
        out = tmp_path / "cov_sparse"
        code = run(["cov", "--panel", str(path), "--scheme", "walsh", "--R", "1",
                    "--sparse", "--out", str(out)])
        assert code == 0
        header = (out / "sigma_u.csv").read_text().splitlines()[0]
        assert header == "i,j,value"

    def test_fdr_subcommand(self, tmp_path, panel_csv):
        path, _ = panel_csv
        out = tmp_path / "fdr_out"
        code = run(["fdr", "--panel", str(path), "--scheme", "walsh", "--R", "1",
                    "--q", "0.1", "--out", str(out)])
        assert code == 0
        lines = (out / "fdr.csv").read_text().splitlines()
        assert lines[0] == "series,alpha_hat,z,p,rejected"
        assert len(lines) == 7

    def test_spectest_subcommand(self, tmp_path):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((12, 2))
        F = rng.standard_normal((50, 2))
        X = B @ F.T + 0.5 * rng.standard_normal((12, 50))
        panel = tmp_path / "panel.csv"
        factors = tmp_path / "factors.csv"
        write_panel(panel, PanelData(X))
        write_panel(factors, PanelData(F.T, series_ids=["f1", "f2"]))
        out = tmp_path / "spec_out"
        code = run(["spectest", "--panel", str(panel), "--factors", str(factors),
                    "--scheme", "hadamard", "--out", str(out), "--draws", "500"])
        assert code == 0
        result = json.loads((out / "spectest.json").read_text())
        assert 0.0 <= result["p_value"] <= 1.0

    def test_spectest_default_C_is_the_library_default(self, tmp_path):
        rng = np.random.default_rng(5)
        F = rng.standard_normal((50, 2))
        X = rng.standard_normal((12, 2)) @ F.T + 0.5 * rng.standard_normal((12, 50))
        panel, factors = tmp_path / "panel.csv", tmp_path / "factors.csv"
        write_panel(panel, PanelData(X))
        write_panel(factors, PanelData(F.T, series_ids=["f1", "f2"]))
        out = tmp_path / "spec_out"
        assert run(["spectest", "--panel", str(panel), "--factors", str(factors),
                    "--scheme", "hadamard", "--out", str(out), "--draws", "500"]) == 0
        result = json.loads((out / "spectest.json").read_text())
        W = build_weights("hadamard", 12, 2)
        expected = spec_test(X, F, W, rule=None, n_draws=500, seed=0)
        for key in ("statistic", "mean_hat", "sigma_hat", "z", "p_value"):
            assert result[key] == getattr(expected, key), key
        at_c2 = spec_test(X, F, W, rule=ThresholdRule(kind="scad", constant_C=2.0), n_draws=500, seed=0)
        assert result["mean_hat"] != at_c2.mean_hat  # the default matters here

    def test_infer_subcommand(self, tmp_path):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((10, 80))
        g = X[0] + rng.standard_normal(80)
        y = 2.0 * g + rng.standard_normal(80)
        panel, yp, gp = tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "g.csv"
        write_panel(panel, PanelData(X))
        write_series(yp, y)
        write_series(gp, g)
        out = tmp_path / "infer_out"
        code = run(["infer", "--panel", str(panel), "--outcome", str(yp),
                    "--treatment", str(gp), "--scheme", "walsh", "--R", "1",
                    "--out", str(out)])
        assert code == 0
        res = json.loads((out / "inference.json").read_text())
        assert res["ci"]["lo"] < 2.0 < res["ci"]["hi"]

    def test_forecast_subcommand(self, tmp_path):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((8, 60))
        y = rng.standard_normal(60)
        panel, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        write_panel(panel, PanelData(X))
        write_series(yp, y)
        out = tmp_path / "fc_out"
        code = run(["forecast", "--panel", str(panel), "--outcome", str(yp),
                    "--scheme", "walsh", "--R", "2", "--window", "30",
                    "--steps", "10", "--compare-pc", "--out", str(out)])
        assert code == 0
        lines = (out / "forecast.csv").read_text().splitlines()
        assert lines[0] == "step,realized,forecast_walsh,forecast_pc"
        assert len(lines) == 11

    @pytest.mark.parametrize("steps", ["0", "-2"])
    def test_forecast_rejects_steps_below_one(self, tmp_path, capsys, steps):
        rng = np.random.default_rng(7)
        panel, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        write_panel(panel, PanelData(rng.standard_normal((8, 60))))
        write_series(yp, rng.standard_normal(60))
        out = tmp_path / "fc_out"
        code = run(["forecast", "--panel", str(panel), "--outcome", str(yp),
                    "--scheme", "walsh", "--R", "2", "--window", "30",
                    "--steps", steps, "--compare-pc", "--out", str(out)])
        assert code == 2
        assert "steps must be at least 1" in capsys.readouterr().err
        assert not (out / "mse.json").exists()

    @pytest.mark.parametrize("flags, message", [(["--R", "0"], "R >= 1"),
                                                 (["--epsilon", "nan"], "epsilon must be positive and finite"),
                                                 (["--epsilon", "inf"], "epsilon must be positive and finite")])
    def test_rolling_forecast_rejects_bad_weight_arguments(self, tmp_path, capsys, flags, message):
        rng = np.random.default_rng(7)
        panel, yp, hist = tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "h.csv"
        write_panel(panel, PanelData(rng.standard_normal((8, 60))))
        write_panel(hist, PanelData(rng.standard_normal((8, 31))))
        write_series(yp, rng.standard_normal(60))
        out = tmp_path / "fc_out"
        code = run(["forecast", "--panel", str(panel), "--outcome", str(yp), "--history", str(hist),
                    "--scheme", "rolling", "--R", "2", "--window", "30", "--steps", "10", *flags,
                    "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "mse.json").exists()

    def test_simulate_smoke(self, tmp_path):
        out = tmp_path / "sim_out"
        code = run(["simulate", "--experiment", "table3", "--reps", "2",
                    "--seed", "7", "--out", str(out)])
        assert code == 0
        assert (out / "results.csv").exists()
        config = json.loads((out / "config.json").read_text())
        assert config["experiment"] == "table3"
        assert config["seed"] == 7
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifact"] == "divproj"

    def test_simulate_table3_runs_library_default_C(self, tmp_path):
        out = tmp_path / "t3"
        assert run(["simulate", "--experiment", "table3", "--reps", "2",
                    "--seed", "7", "--out", str(out)]) == 0
        assert json.loads((out / "config.json").read_text())["C"] == 1.0
        rows = experiment_spectest(n_reps=2, seed=7, C=1.0)
        write_rows_csv(tmp_path / "expected.csv", RESULT_COLUMNS["table3"], rows)
        assert (out / "results.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_config_file_defaults_and_flag_override(self, tmp_path, panel_csv):
        path, _ = panel_csv
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scheme": "walsh", "R": 2, "out": str(tmp_path / "a")}))
        code = run(["estimate", "--panel", str(path), "--config", str(cfg)])
        assert code == 0
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["config"]["R"] == 2
        # explicit flag beats the config file
        code = run(["estimate", "--panel", str(path), "--config", str(cfg),
                    "--R", "1", "--out", str(tmp_path / "b")])
        assert code == 0
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["config"]["R"] == 1

    @pytest.mark.parametrize("text, code", [
        ('{"R": "2"}', 0),            # parsed as --R 2
        ('{"R": 2.0}', 1),            # not an int
        ('{"R": true}', 1),           # not a switch
        ('{"scheme": "bogus"}', 1),   # not a choice
        ('{"epsilon": "x"}', 1),      # not a float, though walsh weights ignore it
        ('{"bogus": 1}', 1),          # not a flag of estimate
        ('[1, 2]', 1),                # not an object
        ('{"R": ', 2),                # malformed JSON
        (None, 2),                    # no such file
    ])
    def test_config_values_are_parsed_as_flags(self, tmp_path, panel_csv, capsys, text, code):
        path, _ = panel_csv
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "out"
        assert run(["estimate", "--panel", str(path), "--config", str(cfg), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("divproj: ") and "Traceback" not in err
        else:
            assert json.loads((out / "manifest.json").read_text())["config"]["R"] == 2

    def test_config_supplies_required_flags(self, tmp_path, panel_csv):
        path, _ = panel_csv
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps({"panel": str(path), "out": str(out)}))
        assert run(["estimate", "--config", str(cfg)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["panel"] == str(path)

    def test_bad_threads_env_is_a_usage_error(self, tmp_path, panel_csv, monkeypatch, capsys):
        path, _ = panel_csv
        monkeypatch.setenv("DIVPROJ_THREADS", "abc")
        assert run(["estimate", "--panel", str(path), "--out", str(tmp_path / "a")]) == 1
        assert capsys.readouterr().err.startswith("divproj: ")
        # an explicit flag wins over the environment
        assert run(["estimate", "--panel", str(path), "--threads", "2", "--out", str(tmp_path / "b")]) == 0
        assert json.loads((tmp_path / "b" / "manifest.json").read_text())["config"]["threads"] == 2

    @pytest.mark.parametrize("command", [
        ["simulate", "--experiment", "table3", "--reps", "1"],
        ["spectest", "--panel", "panel.csv", "--factors", "factors.csv"],
    ])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert run([*command, "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("divproj: --seed")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "nan"])
    @pytest.mark.parametrize("command", ["cov", "spectest"])
    def test_threshold_constant_must_be_a_non_negative_number(self, tmp_path, capsys, command, value):
        """A NaN C once thresholded nothing: `cov --C nan` wrote the raw covariance and exited 0."""
        rng = np.random.default_rng(5)
        F = rng.standard_normal((50, 2))
        panel, factors = tmp_path / "panel.csv", tmp_path / "factors.csv"
        write_panel(panel, PanelData(rng.standard_normal((12, 2)) @ F.T + rng.standard_normal((12, 50))))
        write_panel(factors, PanelData(F.T, series_ids=["f1", "f2"]))
        args = {"cov": ["--R", "2"], "spectest": ["--factors", str(factors)]}[command]
        out = tmp_path / "out"
        assert run([command, "--panel", str(panel), "--scheme", "hadamard", *args, "--C", value,
                    "--out", str(out)]) == 2
        assert "constant_C must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_one_bootstrap_draw_is_a_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        F = rng.standard_normal((50, 2))
        panel, factors = tmp_path / "panel.csv", tmp_path / "factors.csv"
        write_panel(panel, PanelData(rng.standard_normal((12, 2)) @ F.T + rng.standard_normal((12, 50))))
        write_panel(factors, PanelData(F.T, series_ids=["f1", "f2"]))
        out = tmp_path / "out"
        assert run(["spectest", "--panel", str(panel), "--factors", str(factors), "--scheme", "hadamard",
                    "--draws", "1", "--out", str(out)]) == 2
        assert "n_draws must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, env", [(["--threads", "0"], None), (["--threads", "-3"], None),
                                           ([], "0")])
    def test_threads_below_one_is_a_usage_error(self, tmp_path, monkeypatch, capsys, flag, env):
        if env is not None:
            monkeypatch.setenv("DIVPROJ_THREADS", env)
        out = tmp_path / "out"
        assert run(["simulate", "--experiment", "table3", "--reps", "2", *flag, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("divproj: --threads")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["fig1", "table3"])
    def test_zero_reps_is_an_error_without_traceback(self, tmp_path, capsys, name):
        assert run(["simulate", "--experiment", name, "--reps", "0", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("divproj: ") and "n_reps" in err and "Traceback" not in err

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DIVPROJ_THREADS", "3")
        out = tmp_path / "env_out"
        code = run(["simulate", "--experiment", "table3", "--reps", "2",
                    "--seed", "1", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["threads"] == 3

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0


@pytest.mark.parametrize("command", ["forecast", "infer", "spectest"])
def test_initial_weights_trim_the_companion_series(tmp_path, command):
    """Initial weights consume x_0: each output is the library's on X[:, 1:] and the trimmed series."""
    rng = np.random.default_rng(11)
    X = rng.standard_normal((10, 60))
    F = rng.standard_normal((60, 2))
    y, g = rng.standard_normal(60), rng.standard_normal(60)
    write_panel(tmp_path / "x.csv", PanelData(X))
    write_panel(tmp_path / "f.csv", PanelData(F.T, series_ids=["f1", "f2"]))
    write_series(tmp_path / "y.csv", y)
    write_series(tmp_path / "g.csv", g)
    W = initial_transform_weights(X[:, 0], 2)
    out = tmp_path / "out"
    flags = [command, "--panel", str(tmp_path / "x.csv"), "--scheme", "initial", "--out", str(out)]
    if command == "forecast":
        assert run([*flags, "--outcome", str(tmp_path / "y.csv"), "--R", "2",
                    "--window", "30", "--steps", "10"]) == 0
        expected = rolling_forecast(y[1:], X[:, 1:], 30, 10, FixedWeightScheme(W))
        with open(out / "forecast.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["realized"]) for r in rows] == expected.realized.tolist()
        assert [float(r["forecast_initial"]) for r in rows] == expected.forecasts.tolist()
    elif command == "infer":
        assert run([*flags, "--outcome", str(tmp_path / "y.csv"),
                    "--treatment", str(tmp_path / "g.csv"), "--R", "2"]) == 0
        expected = double_selection(y[1:], g[1:], X[:, 1:], W)
        result = json.loads((out / "inference.json").read_text())
        assert (result["beta_hat"], result["se"]) == (expected.beta_hat, expected.se)
    else:
        assert run([*flags, "--factors", str(tmp_path / "f.csv"), "--draws", "200"]) == 0
        expected = spec_test(X[:, 1:], F[1:], W, n_draws=200, seed=0)
        result = json.loads((out / "spectest.json").read_text())
        for key in ("statistic", "mean_hat", "sigma_hat", "z", "p_value"):
            assert result[key] == getattr(expected, key), key


def _covariance_case(case, rng):
    """A 30 x 30 symmetric matrix: one dense positive definite block, permuted blocks, or indefinite."""
    n = 30
    if case == "dense":
        m = rng.standard_normal((n, n))
        return m @ m.T / n + np.eye(n)
    sigma = np.diag(rng.uniform(1.0, 2.0, n))
    perm = rng.permutation(n)
    for b in (perm[:6], perm[6:9], perm[9:13]):
        m = rng.standard_normal((b.size, b.size))
        sigma[np.ix_(b, b)] = m @ m.T + b.size * np.eye(b.size)
    if case == "shifted":
        sigma[np.ix_(perm[6:9], perm[6:9])] *= -1.0
    return sigma


@pytest.mark.parametrize("case", ["dense", "blocks", "shifted"])
def test_cov_inverse_file_is_the_dense_inverse(tmp_path, monkeypatch, case):
    """sigma_u_inv.csv, written row by row from the blocks, has the bytes of write_matrix(invert_sparse_cov(.))."""
    rng = np.random.default_rng(21)
    sigma = _covariance_case(case, rng)
    monkeypatch.setattr(cli_module, "sparse_idio_cov", lambda residuals, rule: (
        SparseCovariance(_as_blocks(sigma.copy()), omega=0.1, nonzero_offdiag=0)))
    write_panel(tmp_path / "x.csv", PanelData(rng.standard_normal((30, 40))))
    ids = [f"s{i + 1}" for i in range(30)]
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["cov", "--panel", str(tmp_path / "x.csv"), "--scheme", "walsh", "--R", "1", "--out", str(out)]) == 0
        write_matrix(tmp_path / "ref.csv", invert_sparse_cov(sigma), ids, ids, corner="series")
    shifts = [w for w in caught if issubclass(w.category, NumericalWarning)]
    assert len(shifts) == (2 if case == "shifted" else 0)  # the command's and the reference's
    blocks, singles = _blocks(sigma)
    assert sorted(b.size for b in blocks) == ([30] if case == "dense" else [3, 4, 6])
    assert singles.size == (0 if case == "dense" else 17)
    assert (out / "sigma_u_inv.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _residual_design(design, rng):
    """24 x 400 residuals: independent series, or three blocks of correlated series at permuted indices."""
    U = rng.standard_normal((24, 400))
    if design == "blocks":
        perm = rng.permutation(24)
        for b in (perm[:5], perm[5:8], perm[8:10]):
            U[b] += 1.5 * rng.standard_normal(400)
    return U


@pytest.mark.parametrize("C", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("design", ["independent", "blocks"])
def test_cov_files_have_the_bytes_of_the_dense_writers(tmp_path, monkeypatch, design, kind, C):
    """sigma_u.csv (dense and --sparse) and sigma_u_inv.csv, written from the estimate's blocks, are the dense writers' files.

    The command thresholds designed residuals at its rule and C.  C = 0
    gives one block of every series; independent series at C = 2 give
    singletons only; the block design gives blocks of non-consecutive
    indices at C > 0.  Two series ids need csv quoting.
    """
    rng = np.random.default_rng(40)
    U = _residual_design(design, rng)
    made = []

    def threshold(residuals, rule):
        made.append(sparse_idio_cov(U, rule))
        return made[-1]

    monkeypatch.setattr(cli_module, "sparse_idio_cov", threshold)
    ids = [f"s{i + 1}" for i in range(24)]
    ids[3], ids[7] = "a,b", 'q"x'
    write_panel(tmp_path / "x.csv", PanelData(rng.standard_normal((24, 30)), series_ids=ids))
    argv = ["cov", "--panel", str(tmp_path / "x.csv"), "--scheme", "walsh", "--R", "1", "--rule", kind, "--C", str(C)]
    assert run([*argv, "--out", str(tmp_path / "dense")]) == 0
    assert run([*argv, "--sparse", "--out", str(tmp_path / "sparse")]) == 0
    cov = made[0]
    blocks, singles = cov.estimate.blocks, cov.estimate.singles
    if C == 0.0:
        assert [b.tolist() for b in blocks] == [list(range(24))]
    elif design == "independent" and C == 2.0:
        assert blocks == [] and singles.size == 24
    elif design == "blocks":
        assert len(blocks) >= 2 and any(b[-1] - b[0] + 1 != b.size for b in blocks)
    write_matrix(tmp_path / "sigma.csv", cov.sigma_u, ids, ids, corner="series")
    write_triplets(tmp_path / "triplets.csv", cov.sigma_u)
    write_matrix(tmp_path / "inverse.csv", invert_sparse_cov(cov.sigma_u), ids, ids, corner="series")
    assert (tmp_path / "dense" / "sigma_u.csv").read_bytes() == (tmp_path / "sigma.csv").read_bytes()
    assert (tmp_path / "sparse" / "sigma_u.csv").read_bytes() == (tmp_path / "triplets.csv").read_bytes()
    for out in ("dense", "sparse"):
        assert (tmp_path / out / "sigma_u_inv.csv").read_bytes() == (tmp_path / "inverse.csv").read_bytes()
    assert '"a,b"' in (tmp_path / "sigma.csv").read_text()


@pytest.fixture(scope="module")
def wide_panel(tmp_path_factory):
    """An N = 1200, T = 240 two-factor panel, a characteristic driving its loadings, and its factors, as CSV files."""
    d = tmp_path_factory.mktemp("wide")
    rng = np.random.default_rng(1200)
    z = np.sin(rng.standard_normal(1200))
    F = rng.standard_normal((240, 2))
    X = (np.column_stack([z, z**2]) + 0.5 * rng.standard_normal((1200, 2))) @ F.T + rng.standard_normal((1200, 240))
    write_panel(d / "panel.csv", PanelData(X))
    write_matrix(d / "chars.csv", z[:, None], [f"s{i + 1}" for i in range(1200)], ["z"], corner="series")
    write_panel(d / "factors.csv", PanelData(F.T, series_ids=["g1", "g2"]))
    return d


@pytest.mark.parametrize("command", ["cov", "spectest"])
def test_wide_commands_hold_one_n_by_n_array(wide_panel, tmp_path, command):
    """At N = 1200 the cov and spectest commands peak below two N x N arrays (2 x 8 N^2 bytes), cov below one.

    They hold the thresholded covariance as its blocks and row-sized
    temporaries.  The cov command's estimate is sparse, and it peaks at
    0.64 x 8 N^2 (1.53 with a dense estimate); the spectest command's is
    one block of every series (1.21, against 1.52).  The former S + S'
    average, the spec test's rescaled copy and the dense inverse beside
    the covariance are gone too (peaks of 3.4 and 2.5 x 8 N^2).
    """
    flags = {"cov": ["--scheme", "sieve", "--R", "2", "--chars", str(wide_panel / "chars.csv")],
             "spectest": ["--factors", str(wide_panel / "factors.csv"), "--scheme", "initial", "--draws", "200"]}
    tracemalloc.start()
    try:
        code = run([command, "--panel", str(wide_panel / "panel.csv"), *flags[command], "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 8 * 1200**2
    assert peak < {"cov": 0.75, "spectest": 1.35}[command] * 8 * 1200**2


def test_cov_inverse_uses_the_thresholding_pass_partition(wide_panel, tmp_path, monkeypatch):
    """At N = 1200 the cov command never scans its estimate into a pattern; its files are those of a fresh partition.

    The thresholding pass builds the estimate's blocks, and both matrices
    are written from those, so `_blocks` is never called.  A run whose
    estimate is its dense matrix partitioned again by `_blocks` writes the
    same bytes.
    """
    argv = ["cov", "--panel", str(wide_panel / "panel.csv"), "--scheme", "sieve", "--R", "2",
            "--chars", str(wide_panel / "chars.csv"), "--rule", "soft", "--C", "0.5"]
    counted = []

    def counting_blocks(a):
        counted.append(a.shape)
        return _blocks(a)

    with monkeypatch.context() as m:
        m.setattr(covariance, "_blocks", counting_blocks)
        assert run([*argv, "--out", str(tmp_path / "pass")]) == 0
    assert counted == []
    monkeypatch.setattr(cli_module, "sparse_idio_cov", lambda residuals, rule: (
        lambda cov: SparseCovariance(_as_blocks(cov.sigma_u), cov.omega, cov.nonzero_offdiag))(
        sparse_idio_cov(residuals, rule)))
    assert run([*argv, "--out", str(tmp_path / "fresh")]) == 0
    summary = json.loads((tmp_path / "pass" / "summary.json").read_text())
    assert summary["nonzero_offdiag"] > 1000  # blocks of more than one member to invert
    for name in ("sigma_u.csv", "sigma_u_inv.csv", "summary.json"):
        assert (tmp_path / "pass" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_cov_characteristic_scheme_is_sieve(tmp_path):
    """--scheme characteristic is another name of the sieve scheme: cov writes the same files."""
    rng = np.random.default_rng(31)
    ids = [f"s{i + 1}" for i in range(25)]
    write_panel(tmp_path / "x.csv", PanelData(rng.standard_normal((25, 40)), series_ids=ids))
    write_matrix(tmp_path / "z.csv", rng.uniform(-1.0, 1.0, (25, 1)), ids, ["z"], corner="series")
    for name in ("sieve", "characteristic"):
        assert run(["cov", "--panel", str(tmp_path / "x.csv"), "--scheme", name, "--R", "2",
                    "--chars", str(tmp_path / "z.csv"), "--out", str(tmp_path / name)]) == 0
    for name in ("sigma_u.csv", "sigma_u_inv.csv", "summary.json"):
        assert (tmp_path / "sieve" / name).read_bytes() == (tmp_path / "characteristic" / name).read_bytes()


def _library_default(func, name):
    return inspect.signature(func).parameters[name].default


def test_flag_defaults_are_the_library_defaults():
    """Each subcommand parsed with its required flags only carries the library's defaults."""
    parse = _build_parser().parse_args
    epsilon = _library_default(build_weights, "epsilon")
    assert epsilon == _library_default(rolling_window_weights, "epsilon")
    needed = {
        "estimate": ["--panel", "x"],
        "forecast": ["--panel", "x", "--outcome", "y", "--window", "5", "--steps", "2"],
        "infer": ["--panel", "x", "--outcome", "y", "--treatment", "g"],
        "cov": ["--panel", "x"],
        "spectest": ["--panel", "x", "--factors", "f"],
        "fdr": ["--panel", "x"],
    }
    for command, flags in needed.items():
        assert parse([command, *flags]).epsilon == epsilon, command
    forecast = parse(["forecast", *needed["forecast"]])
    assert forecast.lead == _library_default(rolling_forecast, "h")
    infer = parse(["infer", *needed["infer"]])
    assert infer.C == _library_default(double_selection, "C")
    assert infer.level == _library_default(confidence_interval, "level")
    cov = parse(["cov", *needed["cov"]])
    rule = ThresholdRule()
    assert (cov.rule, cov.C, cov.scad_a) == (rule.kind, rule.constant_C, rule.scad_a)
    spectest = parse(["spectest", *needed["spectest"]])
    assert spectest.rule == DEFAULT_RULE.kind
    assert spectest.C == DEFAULT_RULE.constant_C
    assert spectest.draws == _library_default(spec_test, "n_draws")
    assert parse(["fdr", *needed["fdr"]]).q == _library_default(farm_test, "q")


def _stub_experiment(monkeypatch, name):
    """Replace an experiment by a no-op with its signature; returns the recorded calls."""
    real = SIMULATIONS[name]
    calls = []

    @functools.wraps(real)
    def stub(**kwargs):
        calls.append(kwargs)
        return ({}, []) if name == "postsel" else []

    monkeypatch.setitem(SIMULATIONS, name, stub)
    return calls


# Each experiment's results.csv columns, in order, and a small design that runs it in well under a second.
RESULT_COLUMNS = {
    "fig1": ["alpha", "rho_T", "N", "method", "C", "err_cov_mean", "err_cov_se", "err_inv_mean", "err_inv_se"],
    "table2": ["alpha", "rho_T", "N", "T", "method", "mse_ratio_mean", "mse_ratio_se"],
    "postsel": ["r", "method", "mean_z", "std_z", "coverage", "level"],
    "table3": ["scheme", "gamma", "T", "N", "rejection_rate", "mc_se", "level"],
}
SMALL_DESIGNS = {
    "fig1": dict(sizes=(20,), alphas=(1.0,), rho_Ts=(0.1,), C_values=(1.0,), extra_factors=(0,)),
    "table2": dict(window_sizes=(20,), rho_Ts=(0.0,), alphas=(1.0,), n_series=20, n_steps=2, extra_factors=(0,)),
    "postsel": dict(r_values=(0,), working_factors=(1,), n_series=30, n_periods=40),
    "table3": dict(gammas=(0.0,), T_values=(30,), schemes=("characteristic",), n_series=30, n_draws=20),
}


class TestSimulateSettings:
    @pytest.mark.parametrize("name", sorted(SIMULATIONS))
    def test_results_columns_are_the_row_keys(self, tmp_path, monkeypatch, name):
        """results.csv's header is the keys of the study's rows, in their order."""
        real = SIMULATIONS[name]
        small = functools.wraps(real)(lambda **kw: real(**{**kw, **SMALL_DESIGNS[name]}))
        monkeypatch.setitem(SIMULATIONS, name, small)
        assert run(["simulate", "--experiment", name, "--reps", "1", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "results.csv", newline="") as fh:
            assert next(csv.reader(fh)) == RESULT_COLUMNS[name]

    @pytest.mark.parametrize("name", sorted(SIMULATIONS))
    def test_config_is_the_bound_signature(self, tmp_path, monkeypatch, name):
        calls = _stub_experiment(monkeypatch, name)
        out = tmp_path / name
        assert run(["simulate", "--experiment", name, "--reps", "3", "--seed", "5",
                    "--threads", "2", "--out", str(out)]) == 0
        bound = inspect.signature(SIMULATIONS[name]).bind(n_reps=3, seed=5, threads=2)
        bound.apply_defaults()
        assert calls == [bound.arguments]
        config = json.loads((out / "config.json").read_text())
        assert config == json.loads(json.dumps({"experiment": name, **bound.arguments}))

    @pytest.mark.parametrize("name, key, value", [
        ("fig1", "C_values", (3.0,)), ("postsel", "C", 3.0), ("table3", "C", 3.0),
    ])
    def test_C_reaches_the_experiment(self, tmp_path, monkeypatch, name, key, value):
        calls = _stub_experiment(monkeypatch, name)
        assert run(["simulate", "--experiment", name, "--C", "3", "--out", str(tmp_path)]) == 0
        assert calls[0][key] == value

    def test_C_rejected_for_table2(self, tmp_path, monkeypatch, capsys):
        calls = _stub_experiment(monkeypatch, "table2")
        assert run(["simulate", "--experiment", "table2", "--C", "3", "--out", str(tmp_path)]) == 1
        assert calls == []
        assert "--C" in capsys.readouterr().err


def test_simulate_bytes_do_not_depend_on_blas_threads_or_workers(tmp_path):
    """`simulate` writes the same results.csv at 1 and 2 OpenBLAS threads, in process and in workers.

    `main` runs the command again at one BLAS thread, which OpenBLAS reads
    when numpy is imported, so each run needs its own interpreter.  On a
    one-core host both settings run one thread, and the test cannot tell
    them apart.
    """
    src = str(Path(cli_module.__file__).resolve().parents[1])
    outputs = []
    for blas, threads in [("1", "1"), ("2", "1"), ("2", "2")]:
        out = tmp_path / f"blas{blas}_threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "divproj.cli", "simulate", "--experiment", "fig1", "--reps", "1",
                        "--seed", "3", "--threads", threads, "--out", str(out)], env=env, check=True)
        outputs.append((out / "results.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
