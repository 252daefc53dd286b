"""Write the seeded reference values that `tests/test_reference.py` checks.

Run from the repository root:

    PYTHONPATH=src python tests/reference/write_reference.py          # rewrite values.json
    PYTHONPATH=src python tests/reference/write_reference.py --diff   # list the moved values, write nothing

The values are the result rows of four small study calls (with the
post-selection study's z-samples) and every number that the six data
subcommands write for one small generated panel.  They are computed in one
subprocess whose BLAS runs one thread (`experiments._ONE_BLAS_THREAD`), so
that they do not move with the host's thread count, and written with the
environment they were computed in to `values.json` beside this script.
A change that moves them reruns this script and names the moved values,
and why, in CHANGES.md; `--diff` lists every value whose bits moved, with
its relative change, and leaves `values.json` as it is.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("values.json")

# The studies, with every argument that differs from its default.
STUDIES = {
    "experiment_cov": dict(sizes=(40, 60), alphas=(1.0,), rho_Ts=(0.7,), n_reps=2, seed=5,
                           C_values=(1.0, 2.0), extra_factors=(0, 2)),
    "experiment_forecast": dict(window_sizes=(40,), rho_Ts=(0.5,), alphas=(1.0,), n_series=50,
                                n_steps=10, n_reps=2, seed=5),
    "experiment_postsel": dict(n_series=80, n_periods=80, n_reps=3, seed=5),
    "experiment_spectest": dict(n_series=60, T_values=(60,), n_reps=3, n_draws=200, seed=5),
}

# The data subcommands' panel: N series, T periods, two factors.
CLI_N, CLI_T, CLI_SEED = 40, 60, 1001
FDR_Q = 0.1


def _write_inputs(inputs: Path) -> None:
    """The panel, characteristics, target, treatment and observed factors of the subcommands."""
    from divproj.io import write_matrix

    rng = np.random.default_rng(CLI_SEED)
    n, t = CLI_N, CLI_T
    z = np.sin(rng.standard_normal(n))
    B = np.column_stack([z, z**2]) + 0.5 * rng.standard_normal((n, 2))
    F = rng.standard_normal((t, 2))
    X = B @ F.T + rng.standard_normal((n, t))
    X[: n // 10] += 0.5
    theta = np.zeros(n)
    theta[5:8] = (1.0, -1.5, 0.5)
    g = theta @ X + rng.standard_normal(t)
    y = np.empty(t)
    y[0] = 3.0
    for j in range(1, t):
        y[j] = 1.5 + 0.5 * y[j - 1] + F[j - 1].sum() + 0.5 * g[j] + rng.standard_normal()
    times = [str(j + 1) for j in range(t)]
    series = [f"s{i + 1}" for i in range(n)]
    write_matrix(inputs / "panel.csv", X.T, times, series, corner="time")
    write_matrix(inputs / "chars.csv", z[:, None], series, ["z"], corner="series")
    write_matrix(inputs / "target.csv", y[:, None], times, ["y"], corner="time")
    write_matrix(inputs / "treatment.csv", g[:, None], times, ["g"], corner="time")
    write_matrix(inputs / "factors.csv", F + 0.1 * rng.standard_normal((t, 2)), times, ["g1", "g2"], corner="time")


def _commands(inputs: Path, out: Path) -> dict[str, list[str]]:
    """The six data subcommands with every flag explicit."""
    common = ["--seed", str(CLI_SEED), "--threads", "1", "--epsilon", "1.0"]

    def cmd(name, *flags):
        return [name, "--panel", str(inputs / "panel.csv"), *flags, *common, "--out", str(out / name)]

    return {
        "estimate": cmd("estimate", "--scheme", "walsh", "--R", "4"),
        "cov": cmd("cov", "--scheme", "sieve", "--R", "2", "--chars", str(inputs / "chars.csv"),
                   "--rule", "scad", "--C", "2.0", "--scad-a", "3.7"),
        "spectest": cmd("spectest", "--factors", str(inputs / "factors.csv"), "--scheme", "initial",
                        "--rule", "scad", "--C", "1.0", "--draws", "200"),
        "fdr": cmd("fdr", "--scheme", "hadamard", "--R", "3", "--q", str(FDR_Q)),
        "forecast": cmd("forecast", "--outcome", str(inputs / "target.csv"), "--scheme", "walsh", "--R", "3",
                        "--window", "30", "--steps", "29", "--lead", "1", "--compare-pc"),
        "infer": cmd("infer", "--outcome", str(inputs / "target.csv"), "--treatment", str(inputs / "treatment.csv"),
                     "--scheme", "initial", "--R", "2", "--C", "4.1", "--level", "0.95"),
    }


def _cell(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _read_output(path: Path):
    """A JSON output as parsed; a CSV output as {column: cells}, numbers parsed."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return {name: [_cell(row[k]) for row in rows] for k, name in enumerate(header)}


def _plain(x):
    """x with numpy arrays and scalars, tuples and dict values made JSON values."""
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_plain(v) for v in x]
    return x.item() if isinstance(x, np.generic) else x


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu": cpu,
    }


@contextlib.contextmanager
def _recording(module, name: str, keep, record: list):
    """Within the block, each call of `module.name` appends keep(args, result) to `record`."""
    fn = getattr(module, name)

    def recording(*args, **kwargs):
        res = fn(*args, **kwargs)
        record.append(keep(args, res))
        return res

    setattr(module, name, recording)
    try:
        yield
    finally:
        setattr(module, name, fn)


def compute() -> dict:
    """The reference values, the smallest decision margins and the environment, in this process.

    A margin is the smallest distance, relative to the cut-off, between a
    recorded number and the cut-off of a decision taken on it: the
    post-selection study's coverage (|z| against the normal quantile),
    the spec-test study's rejections (each replication's p-value against
    the level), the `cov` command's thresholding (each off-diagonal |s_ij|
    of S = U U'/T against its threshold tau_ij, which decides whether
    sigma_u.csv holds a zero) and the `fdr` command's Benjamini-Hochberg
    rejections (the k-th smallest p-value against k q / N).
    """
    from divproj import cli, covariance, experiments

    values, margins = {}, {}
    p_values = []
    with _recording(experiments, "spec_test", lambda args, res: res.p_value, p_values):
        for name, kwargs in STUDIES.items():
            values[name] = _plain(getattr(experiments, name)(threads=1, **kwargs))
    samples, rows = values["experiment_postsel"]
    values["experiment_postsel"] = {"rows": rows, "z_samples": samples}

    q = statistics.NormalDist().inv_cdf(0.5 + rows[0]["level"] / 2.0)
    z = np.concatenate([np.asarray(s) for s in samples.values()])
    margins["postsel coverage"] = float(np.min(np.abs(np.abs(z) - q)) / q)
    level = values["experiment_spectest"][0]["level"]
    margins["spectest rejections"] = float(np.min(np.abs(np.asarray(p_values) - level)) / level)

    with tempfile.TemporaryDirectory() as tmp:
        inputs, out = Path(tmp) / "inputs", Path(tmp) / "out"
        inputs.mkdir()
        _write_inputs(inputs)
        values["cli"] = {}
        raw, taus = {}, {}  # each command's S before thresholding, and its tau row blocks

        # S is thresholded in place after _sample_cov returns; _shrink leaves tau as it was
        for name, argv in _commands(inputs, out).items():
            with (_recording(covariance, "_sample_cov", lambda args, res: res[0].copy(), raw.setdefault(name, [])),
                  _recording(covariance, "_shrink", lambda args, res: np.array(args[1]), taus.setdefault(name, []))):
                if cli.run(argv) != 0:
                    raise RuntimeError(f"divproj {name} failed")
            values["cli"][name] = {
                path.name: _read_output(path) for path in sorted((out / name).iterdir()) if path.name != "manifest.json"
            }
    (s,), tau = raw["cov"], np.vstack(taus["cov"])  # the command's one S, and its tau row block after row block
    off = ~np.eye(CLI_N, dtype=bool)
    margins["cov thresholding"] = float(np.min(np.abs(np.abs(s[off]) - tau[off]) / tau[off]))
    p = np.sort(values["cli"]["fdr"]["fdr.csv"]["p"])
    cut = FDR_Q * np.arange(1, p.size + 1) / p.size
    margins["fdr rejections"] = float(np.min(np.abs(p - cut) / cut))
    return {"environment": _environment(), "margins": margins, "values": values}


def pinned_values() -> dict:
    """`compute()` run in a subprocess whose BLAS runs one thread."""
    from divproj import experiments

    src = str(Path(experiments.__file__).resolve().parents[1])
    env = dict(os.environ, **experiments._ONE_BLAS_THREAD,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, __file__, "--print"], env=env, capture_output=True, text=True)
    if run.returncode:
        raise RuntimeError(f"computing the reference values failed:\n{run.stderr}")
    return json.loads(run.stdout)


def moved(ref, got, path=""):
    """(path, reference, recomputed) of every value of `got` whose bits differ from `ref`'s.

    Floats are compared by their bits (so -0.0 differs from 0.0 and nan
    equals nan); a dict with other keys or a list of another length is one
    moved value at its path.
    """
    if isinstance(ref, dict) and isinstance(got, dict) and ref.keys() == got.keys():
        return [m for k in ref for m in moved(ref[k], got[k], f"{path}/{k}")]
    if isinstance(ref, list) and isinstance(got, list) and len(ref) == len(got):
        return [m for i, (r, g) in enumerate(zip(ref, got)) for m in moved(r, g, f"{path}[{i}]")]
    if type(ref) is type(got) and (ref.hex() == got.hex() if isinstance(ref, float) else ref == got):
        return []
    return [(path, ref, got)]


def relative_change(ref, got) -> float | None:
    """|got - ref| / |ref| for two finite numbers with ref nonzero, else None."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in (ref, got))
    return abs(got - ref) / abs(ref) if numbers and ref != 0 else None


def print_diff() -> None:
    """Print each value of `values.json` that `pinned_values()` moves, with its relative change."""
    rows = moved(json.loads(REFERENCE_FILE.read_text())["values"], pinned_values()["values"])
    for path, ref, got in rows:
        change = relative_change(ref, got)
        print(f"{path}: {ref!r} -> {got!r}" + ("" if change is None else f" (relative change {change:.3g})"))
    print(f"{len(rows)} values moved")


if __name__ == "__main__":
    if sys.argv[1:] == ["--print"]:
        json.dump(compute(), sys.stdout)
    elif sys.argv[1:] == ["--diff"]:
        print_diff()
    else:
        REFERENCE_FILE.write_text(json.dumps(pinned_values(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {REFERENCE_FILE}")
