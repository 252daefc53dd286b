"""Degenerate inputs to the CLI: each (command, input) exits 0 with finite outputs, or exits 2 with one line.

A 30-period x 40-series panel and its companion files go through the six
data commands, and `simulate` runs one replication.  A case that exits 2
prints one `divproj:` line and nothing else; a case that exits 0 writes
only finite numbers.  No case raises past `run` (a traceback) or emits a
numpy RuntimeWarning; a NumericalWarning (a pseudo-inverse, an eigenvalue
shift) is allowed.  The cases whose exit code is given must exit so: they
are the inputs that once ended in a traceback or a silent answer, and the
one-period, one-series, R-above-T and out-of-range-constant inputs, pinned
as they behave.  A NaN given to an integer flag is a usage error: it exits
1, with one `divproj:` line.  No command, and no replication of
`simulate`, reaches np.linalg.lstsq: every least-squares fit takes the
library's gram solve.
"""

import csv
import json
import math
import warnings

import numpy as np
import pytest

from divproj.cli import run
from divproj.exceptions import NumericalWarning
from divproj.io import write_matrix, write_panel
from divproj.projection import PanelData

N, T = 40, 30


def _write_series(path, values, labels):
    write_matrix(path, np.asarray(values, dtype=float)[:, None], labels, ["value"], corner="time")


def _inputs(d, X=None, times=None, series=None):
    """The panel (N x T, default seeded) and its companions, with the panel's labels unless given."""
    rng = np.random.default_rng(5)
    if X is None:
        X = rng.standard_normal((N, 2)) @ rng.standard_normal((2, T)) + rng.standard_normal((N, T))
    n, t = X.shape
    times = times or [str(j + 1) for j in range(t)]
    series = series or [f"s{i + 1}" for i in range(n)]
    write_panel(d / "panel.csv", PanelData(X, series_ids=series, time_ids=times))
    _write_series(d / "y.csv", rng.standard_normal(t), times)
    _write_series(d / "g.csv", rng.standard_normal(t), times)
    write_panel(d / "factors.csv", PanelData(rng.standard_normal((2, t)), series_ids=["g1", "g2"], time_ids=times))
    write_matrix(d / "chars.csv", np.sin(rng.standard_normal(n))[:, None], series, ["z"], corner="series")
    write_panel(d / "history.csv", PanelData(rng.standard_normal((n, 20)), series_ids=series))
    return d


def _argv(d, command, *flags):
    panel = ["--panel", str(d / "panel.csv")]
    base = {
        "estimate": ["--scheme", "walsh", "--R", "2"],
        "cov": ["--scheme", "walsh", "--R", "2"],
        "spectest": ["--factors", str(d / "factors.csv"), "--scheme", "walsh", "--draws", "50"],
        "fdr": ["--scheme", "walsh", "--R", "2"],
        "forecast": ["--outcome", str(d / "y.csv"), "--scheme", "walsh", "--R", "2", "--window", "10",
                     "--steps", "5", "--compare-pc"],
        "infer": ["--outcome", str(d / "y.csv"), "--treatment", str(d / "g.csv"), "--scheme", "walsh", "--R", "2"],
    }[command]
    return [command, *panel, *base, *flags, "--out", str(d / "out" / command)]


def _panel_of(shape):
    return lambda d: _inputs(d, np.random.default_rng(7).standard_normal(shape))


def _constant_series(d):
    X = np.random.default_rng(6).standard_normal((N, T))
    X[7] = 3.0
    return _inputs(d, X)


def _reordered(d, name, reader_layout):
    """Swap the first two labels of a companion file (rows, or the header's series for a panel layout)."""
    lines = (d / name).read_text().splitlines()
    if reader_layout == "rows":
        lines[1:3] = [lines[2].split(",")[0] + "," + lines[1].split(",", 1)[1],
                      lines[1].split(",")[0] + "," + lines[2].split(",", 1)[1]]
    else:
        head = lines[0].split(",")
        head[1], head[2] = head[2], head[1]
        lines[0] = ",".join(head)
    (d / name).write_text("\n".join(lines) + "\n")
    return d


def _short(d, name):
    lines = (d / name).read_text().splitlines()
    (d / name).write_text("\n".join(lines[:-1]) + "\n")
    return d


COMMANDS = ["estimate", "cov", "spectest", "fdr", "forecast", "infer"]

# (case id, input maker, command, extra flags, required exit code or None)
CASES = [
    *[(f"constant_series-{c}", _constant_series, c, [], None) for c in COMMANDS],
    *[(f"all_zero-{c}", lambda d: _inputs(d, np.zeros((N, T))), c, [], None) for c in COMMANDS],
    *[(f"T2-{c}", lambda d: _inputs(d, np.random.default_rng(7).standard_normal((N, 2))), c, [], None)
      for c in COMMANDS],
    *[(f"R_above_N-{c}", _inputs, c, ["--R", str(N + 1)], None) for c in COMMANDS if c != "spectest"],
    ("infer_treatment_is_outcome", _inputs, "infer", ["--treatment", "{d}/y.csv"], 2),
    ("infer_C_nan", _inputs, "infer", ["--C", "nan"], 2),
    ("infer_C_negative", _inputs, "infer", ["--C", "-1"], 2),
    ("forecast_short_outcome", lambda d: _short(_inputs(d), "y.csv"), "forecast", [], 2),
    ("forecast_reordered_outcome", lambda d: _reordered(_inputs(d), "y.csv", "rows"), "forecast", [], 2),
    ("infer_reordered_outcome", lambda d: _reordered(_inputs(d), "y.csv", "rows"), "infer", [], 2),
    ("infer_reordered_treatment", lambda d: _reordered(_inputs(d), "g.csv", "rows"), "infer", [], 2),
    ("infer_initial_short_outcome", lambda d: _short(_inputs(d), "y.csv"), "infer", ["--scheme", "initial"], 2),
    ("spectest_reordered_factors", lambda d: _reordered(_inputs(d), "factors.csv", "rows"), "spectest", [], 2),
    ("cov_reordered_chars", lambda d: _reordered(_inputs(d), "chars.csv", "rows"), "cov",
     ["--scheme", "sieve", "--chars", "{d}/chars.csv"], 2),
    ("cov_short_chars", lambda d: _short(_inputs(d), "chars.csv"), "cov",
     ["--scheme", "sieve", "--chars", "{d}/chars.csv"], 2),
    ("fdr_reordered_history", lambda d: _reordered(_inputs(d), "history.csv", "header"), "fdr",
     ["--scheme", "rolling", "--history", "{d}/history.csv"], 2),
    ("forecast_reordered_history", lambda d: _reordered(_inputs(d), "history.csv", "header"), "forecast",
     ["--scheme", "rolling", "--history", "{d}/history.csv"], 2),
    # estimate at T = 1 < R takes a pseudo-inverse; the others need more periods
    *[(f"T1-{c}", _panel_of((N, 1)), c, [], 0 if c == "estimate" else 2) for c in COMMANDS],
    # cov at N = R = 1 leaves no residual variance; spectest's two factors exceed N
    *[(f"N1-{c}", _panel_of((1, T)), c, [] if c == "spectest" else ["--R", "1"], 2 if c in ("cov", "spectest") else 0)
      for c in COMMANDS],
    ("cov_R_above_T", _inputs, "cov", ["--R", "35"], 0),
    ("estimate_R_above_T", _inputs, "estimate", ["--R", "31"], 0),
    *[(f"fdr_q_{name}", _inputs, "fdr", ["--q", v], 2)
      for name, v in [("nan", "nan"), ("negative", "-0.1"), ("zero", "0"), ("above_one", "1.5")]],
    *[(f"infer_level_{name}", _inputs, "infer", ["--level", v], 2)
      for name, v in [("nan", "nan"), ("negative", "-0.5"), ("above_one", "1.5")]],
    *[(f"forecast_{flag}_{name}", _inputs, "forecast", [f"--{flag}", v], 1 if name == "nan" else 2)
      for flag in ("lead", "steps", "window") for name, v in [("nan", "nan"), ("negative", "-1"), ("zero", "0"),
                                                     ("past_the_panel", "100")]],
    ("spectest_draws_0", _inputs, "spectest", ["--draws", "0"], 2),
]


def _numbers(path):
    """Every number a JSON or CSV output holds (a CSV cell that parses as a float)."""
    if path.suffix == ".json":
        def walk(x):
            if isinstance(x, dict):
                for v in x.values():
                    yield from walk(v)
            elif isinstance(x, list):
                for v in x:
                    yield from walk(v)
            elif isinstance(x, float):
                yield x
        yield from walk(json.loads(path.read_text()))
    else:
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                for cell in row:
                    try:
                        yield float(cell)
                    except ValueError:
                        pass


def _run(argv, capsys):
    """(exit code, stderr, the warnings raised) of one in-process run."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    return code, capsys.readouterr().err, caught


def _assert_clean(code, err, caught, out, required):
    assert [w for w in caught if not issubclass(w.category, NumericalWarning)] == []  # no numpy RuntimeWarning
    assert "Traceback" not in err and "RuntimeWarning" not in err
    if required is not None:
        assert code == required, err
    assert code in (0, 2) or code == required == 1
    if code != 0:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("divproj: "), err
    else:
        files = [p for p in out.rglob("*") if p.is_file()]
        assert files
        for path in files:
            bad = [x for x in _numbers(path) if not math.isfinite(x)]
            assert bad == [], f"{path.name}: {bad[:5]}"


@pytest.mark.parametrize("case, make, command, flags, required", CASES, ids=[c[0] for c in CASES])
def test_degenerate_input(tmp_path, capsys, case, make, command, flags, required):
    d = make(tmp_path)
    argv = _argv(d, command, *(f.format(d=d) for f in flags))
    code, err, caught = _run(argv, capsys)
    _assert_clean(code, err, caught, d / "out" / command, required)


def test_simulate_postsel_at_one_replication(tmp_path, capsys):
    """One replication: std_z is 0.0, the rule of every study's spread at one replication, with no numpy warning."""
    out = tmp_path / "out"
    code, err, caught = _run(["simulate", "--experiment", "postsel", "--reps", "1", "--out", str(out)], capsys)
    _assert_clean(code, err, caught, out, 0)
    with open(out / "results.csv", newline="") as fh:
        assert {row["std_z"] for row in csv.DictReader(fh)} == {"0.0"}


def test_no_command_calls_lstsq(tmp_path, capsys, monkeypatch):
    """The six data commands and a post-selection replication fit by the gram solve, never by lstsq."""

    def lstsq(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq was called")

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    d = _inputs(tmp_path)
    for command in COMMANDS:
        code, err, caught = _run(_argv(d, command), capsys)
        _assert_clean(code, err, caught, d / "out" / command, 0)
    out = tmp_path / "simulate"
    code, err, caught = _run(["simulate", "--experiment", "postsel", "--reps", "1", "--out", str(out)], capsys)
    _assert_clean(code, err, caught, out, 0)
