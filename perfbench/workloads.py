"""The four benchmark workloads: inputs, one measured pass, output checks, digest.

Every workload passes each experiment argument or CLI flag explicitly, so a
later change to a library or CLI default cannot silently change the work.
`threads=1` everywhere: at the commit that defined this benchmark,
replication threads plus OpenBLAS threads oversubscribe a 2-core machine,
so a threaded workload would measure the scheduler.

A workload takes the seed, a working directory and the `hostclock.ProbeClock`
that times its calls.  A pass returns the number of units attempted and
failed, the seconds spent in the timed calls (wall, and rescaled to the
reference host speed), one timing sample per experiment call (per pass for
`desk_cli`), the peak resident set up to their end, a sha256 digest of its
results and, for `desk_cli`, the wall time of each subcommand.  Output
checks run after the timed calls.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import resource
import shutil
import sys
from pathlib import Path

import numpy as np

# A measured pass makes MC_CALLS experiment calls of MC_REPS replications per
# cell each, call i of pass seed s with seed 10 s + i; one pass runs in a
# fresh interpreter, and a run repeats passes for its measuring time.  Each
# call is one timing sample, so that a run's median has a dozen or more
# samples to choose from, not the three or four passes a run has time for.
MC_CALLS = {"mc_cov": 3, "mc_forecast": 3, "mc_postsel": 4}
MC_REPS = {"mc_cov": 2, "mc_forecast": 2, "mc_postsel": 15}

# Relative tolerance of the W'U_hat = 0 and U_hat F_hat = 0 identities on the
# re-read estimate output, and absolute tolerance of sigma_u_inv sigma_u = I.
IDENTITY_RTOL = 1e-10
INVERSE_ATOL = 1e-8

DESK_N, DESK_T, DESK_R = 1200, 240, 2
FDR_Q = 0.1


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item if isinstance(item, bytes) else json.dumps(item, sort_keys=True).encode())
    return h.hexdigest()


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _report(problems: list[str], label: str) -> None:
    for p in problems:
        print(f"check failed [{label}]: {p}", file=sys.stderr)


def _maxrss_mb() -> float:
    """High-water resident set of this process so far; read before the output checks allocate."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------

def _check_rows(rows, n_expected, keys, finite_keys):
    problems = []
    if len(rows) != n_expected:
        problems.append(f"expected {n_expected} rows, got {len(rows)}")
    for i, row in enumerate(rows):
        if set(row) != set(keys):
            problems.append(f"row {i} has keys {sorted(row)}")
            continue
        problems += [f"row {i}: {k}={row[k]!r} is not finite" for k in finite_keys if not _finite(row[k])]
    return problems


def _mc_pass(label, seed, clock, call, n_units, check, digest_items):
    """Time MC_CALLS[label] calls, call(10 seed + i), of n_units replications each; then check them."""
    runs = [clock.measure(lambda: call(10 * seed + i)) for i in range(MC_CALLS[label])]
    result = {"attempted": n_units * len(runs), "failed": 0,
              "timed_s": sum(m.wall_s for m in runs), "ref_s": sum(m.ref_s for m in runs),
              "cpu_s": sum(m.cpu_s for m in runs), "probes": sum(m.probes for m in runs),
              "samples": [[n_units, m.ref_s, m.wall_s] for m in runs], "maxrss_mb": _maxrss_mb()}
    items = []
    for i, m in enumerate(runs):
        problems = [m.error] if m.error is not None else check(m.out)
        _report(problems, f"{label} call {i}")
        if problems:
            result["failed"] += n_units
        else:
            items += digest_items(m.out)
    result["digest"] = _digest(items) if result["failed"] == 0 else None
    return result


def mc_cov(seed: int, workdir: Path, clock) -> dict:
    from divproj.experiments import experiment_cov

    reps = MC_REPS["mc_cov"]
    sizes, C_values, extra = (100, 300), (1.0, 2.0), (0, 1, 2, 3)

    def call(call_seed):
        return experiment_cov(
            sizes=sizes, alphas=(1.0,), rho_Ts=(0.7,), n_reps=reps, seed=call_seed,
            C_values=C_values, rule_kind="scad", n_factors_true=1, extra_factors=extra,
            include_pc=True, include_known=True, threads=1,
        )

    def check(rows):
        keys = ["alpha", "rho_T", "N", "method", "C", "err_cov_mean", "err_cov_se", "err_inv_mean", "err_inv_se"]
        n_methods = len(extra) + 2  # diversified projections, PC, known factors
        problems = _check_rows(rows, len(sizes) * n_methods * len(C_values), keys, keys[4:])
        problems += [
            f"row {i}: non-positive error" for i, r in enumerate(rows)
            if not (r.get("err_cov_mean", 0) > 0 and r.get("err_inv_mean", 0) > 0)
        ]
        return problems

    return _mc_pass("mc_cov", seed, clock, call, reps * len(sizes), check, lambda rows: [rows])


def mc_forecast(seed: int, workdir: Path, clock) -> dict:
    from divproj.experiments import experiment_forecast

    reps = MC_REPS["mc_forecast"]
    schemes, extra = ("characteristic", "rolling"), (0, 1, 3)

    def call(call_seed):
        return experiment_forecast(
            window_sizes=(100,), rho_Ts=(0.9,), alphas=(1.0,), n_series=100, n_steps=50,
            n_reps=reps, seed=call_seed, schemes=schemes, extra_factors=extra, epsilon=1.0, threads=1,
        )

    def check(rows):
        keys = ["alpha", "rho_T", "N", "T", "method", "mse_ratio_mean", "mse_ratio_se"]
        problems = _check_rows(rows, len(schemes) * len(extra), keys, keys[5:])
        problems += [f"row {i}: non-positive MSE ratio" for i, r in enumerate(rows) if not r.get("mse_ratio_mean", 0) > 0]
        return problems

    return _mc_pass("mc_forecast", seed, clock, call, reps, check, lambda rows: [rows])


def mc_postsel(seed: int, workdir: Path, clock) -> dict:
    from divproj.experiments import experiment_postsel

    reps = MC_REPS["mc_postsel"]
    r_values, working = (0, 2), (1, 2, 3)

    def call(call_seed):
        return experiment_postsel(
            r_values=r_values, working_factors=working, include_plain=True, n_series=200,
            n_periods=200, n_reps=reps, seed=call_seed, beta=1.0, sparse_coefs=(1.0, -1.5, 0.5),
            support_offset=12, C=4.1, oracle_sigma=True, level=0.95, threads=1,
        )

    def check(out):
        samples, rows = out
        keys = ["r", "method", "mean_z", "std_z", "coverage", "level"]
        n_methods = len(working) + 1  # plus plain double selection
        problems = _check_rows(rows, len(r_values) * n_methods, keys, ["mean_z", "std_z", "coverage"])
        problems += [f"row {i}: coverage outside [0, 1]" for i, r in enumerate(rows) if not 0.0 <= r.get("coverage", -1) <= 1.0]
        if len(samples) != len(r_values) * n_methods:
            problems.append(f"expected {len(r_values) * n_methods} z-samples, got {len(samples)}")
        for name, z in samples.items():
            if z.shape != (reps,) or not np.all(np.isfinite(z)):
                problems.append(f"z-sample {name} is not {reps} finite values")
        return problems

    def digest_items(out):
        samples, rows = out
        return [rows, {k: v.tolist() for k, v in sorted(samples.items())}]

    return _mc_pass("mc_postsel", seed, clock, call, reps * len(r_values), check, digest_items)


# ---------------------------------------------------------------------------
# desk_cli: one wide generated panel through every CLI subcommand
# ---------------------------------------------------------------------------

def _write_table(path: Path, header, labels, body) -> None:
    lines = [",".join(header)]
    lines += [",".join([lab, *map(repr, row)]) for lab, row in zip(labels, body.tolist())]
    path.write_text("\n".join(lines) + "\n")


def make_desk_inputs(seed: int, inputs: Path) -> None:
    """Write the desk_cli panel and its companion series, seeded by `seed`.

    N = 1200 series (just above 2^10), T = 240 periods, two factors, AR(1)
    rho = 0.5 noise and a nonzero mean on 5% of the series.  The generator
    is this benchmark's own, independent of divproj.simulation.
    """
    rng = np.random.default_rng([seed, 20190804])
    n, t, r = DESK_N, DESK_T, DESK_R
    z = np.sin(rng.standard_normal(n))
    B = np.column_stack([z, z**2]) + 0.5 * rng.standard_normal((n, r))
    F = rng.standard_normal((t, r))
    e = rng.standard_normal((n, t))
    U = np.empty((n, t))
    U[:, 0] = e[:, 0] / math.sqrt(1.0 - 0.5**2)
    for j in range(1, t):
        U[:, j] = 0.5 * U[:, j - 1] + e[:, j]
    mu = np.zeros(n)
    mu[: n // 20] = 0.5
    X = mu[:, None] + B @ F.T + U
    theta = np.zeros(n)
    theta[100:103] = (1.0, -1.5, 0.5)
    g = theta @ X + rng.standard_normal(t)
    y = np.empty(t)
    y[0] = 3.0
    eps = rng.standard_normal(t)
    for j in range(1, t):
        y[j] = 1.5 + 0.5 * y[j - 1] + F[j - 1].sum() + 0.5 * g[j] + eps[j]

    inputs.mkdir(parents=True, exist_ok=True)
    times = [str(j + 1) for j in range(t)]
    series = [f"s{i + 1}" for i in range(n)]
    _write_table(inputs / "panel.csv", ["time", *series], times, X.T)
    _write_table(inputs / "chars.csv", ["series", "z"], series, z[:, None])
    _write_table(inputs / "target.csv", ["time", "y"], times, y[:, None])
    _write_table(inputs / "treatment.csv", ["time", "g"], times, g[:, None])
    _write_table(inputs / "factors.csv", ["time", "g1", "g2"], times, F)


def desk_commands(seed: int, inputs: Path, out: Path) -> dict[str, list[str]]:
    """The six subcommands with every flag explicit, in run order."""
    panel = str(inputs / "panel.csv")
    common = ["--seed", str(seed), "--threads", "1", "--epsilon", "1.0"]

    def cmd(name, *flags):
        return [name, "--panel", panel, *flags, *common, "--out", str(out / name)]

    return {
        "estimate": cmd("estimate", "--scheme", "walsh", "--R", "4"),
        "cov": cmd("cov", "--scheme", "sieve", "--R", "2", "--chars", str(inputs / "chars.csv"),
                   "--rule", "scad", "--C", "2.0", "--scad-a", "3.7"),
        "spectest": cmd("spectest", "--factors", str(inputs / "factors.csv"), "--scheme", "initial",
                        "--rule", "scad", "--C", "1.0", "--draws", "2000"),
        "fdr": cmd("fdr", "--scheme", "hadamard", "--R", "3", "--q", str(FDR_Q)),
        "forecast": cmd("forecast", "--outcome", str(inputs / "target.csv"), "--scheme", "walsh", "--R", "3",
                        "--window", "120", "--steps", "119", "--lead", "1", "--compare-pc"),
        "infer": cmd("infer", "--outcome", str(inputs / "target.csv"), "--treatment", str(inputs / "treatment.csv"),
                     "--scheme", "initial", "--R", "2", "--C", "4.1", "--level", "0.95"),
    }


def _read_matrix(path: Path) -> np.ndarray:
    """Body of a labelled CSV matrix (first row and first column dropped)."""
    with open(path) as fh:
        n_cols = len(fh.readline().split(",")) - 1
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(1, n_cols + 1), ndmin=2)


def walsh_corner(n: int, r: int) -> np.ndarray:
    """N x R corner of the Sylvester-Hadamard matrix: (-1)^popcount(i & j)."""
    i = np.arange(n)[:, None]
    j = np.arange(r)[None, :]
    bits = np.bitwise_and(i, j)
    parity = np.zeros_like(bits)
    while np.any(bits):
        parity ^= bits & 1
        bits >>= 1
    return 1.0 - 2.0 * parity


def bh_rejected(p: np.ndarray, q: float) -> set[int]:
    """Benjamini-Hochberg step-up rejections, written independently of divproj."""
    order = np.argsort(p, kind="stable")
    n = p.size
    passing = [k for k in range(n) if p[order[k]] <= q * (k + 1) / n]
    return set(order[: passing[-1] + 1].tolist()) if passing else set()


def _rel(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    return float(np.linalg.norm(a) / max(np.linalg.norm(b) * np.linalg.norm(c), 1e-300))


def check_estimate(d: Path) -> list[str]:
    F = _read_matrix(d / "factors.csv")
    B = _read_matrix(d / "loadings.csv")
    U = _read_matrix(d / "residuals.csv").T
    json.loads((d / "diagnostics.json").read_text())
    problems = []
    if F.shape != (DESK_T, 4) or B.shape != (DESK_N, 4) or U.shape != (DESK_N, DESK_T):
        return [f"shapes F{F.shape} B{B.shape} U{U.shape}"]
    W = walsh_corner(DESK_N, 4)
    for name, value in (("W'U_hat", _rel(W.T @ U, W, U)), ("U_hat F_hat", _rel(U @ F, U, F))):
        if not value <= IDENTITY_RTOL:
            problems.append(f"{name} relative norm {value:.3g} > {IDENTITY_RTOL:g}")
    return problems


def check_cov(d: Path) -> list[str]:
    S = _read_matrix(d / "sigma_u.csv")
    S_inv = _read_matrix(d / "sigma_u_inv.csv")
    json.loads((d / "summary.json").read_text())
    if S.shape != (DESK_N, DESK_N) or S_inv.shape != S.shape:
        return [f"shapes {S.shape} {S_inv.shape}"]
    # the library shifts the diagonal before inverting when lambda_min <= 1e-6 mean(diag)
    shifted = np.linalg.eigvalsh(S)[0] <= 1e-6 * np.mean(np.diag(S))
    err = float(np.max(np.abs(S_inv @ S - np.eye(DESK_N))))
    if not shifted and not err <= INVERSE_ATOL:
        return [f"max |sigma_u_inv sigma_u - I| = {err:.3g} > {INVERSE_ATOL:g}"]
    return []


def check_spectest(d: Path) -> list[str]:
    res = json.loads((d / "spectest.json").read_text())
    if not (_finite(res["p_value"]) and 0.0 <= res["p_value"] <= 1.0):
        return [f"p-value {res['p_value']!r} outside [0, 1]"]
    if not (_finite(res["statistic"]) and _finite(res["sigma_hat"]) and res["sigma_hat"] > 0):
        return ["statistic or bootstrap sd not finite and positive"]
    return []


def check_fdr(d: Path) -> list[str]:
    with open(d / "fdr.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != DESK_N:
        return [f"expected {DESK_N} rows, got {len(rows)}"]
    p = np.array([float(r["p"]) for r in rows])
    written = {i for i, r in enumerate(rows) if r["rejected"] == "1"}
    if not np.all((p >= 0) & (p <= 1)):
        return ["p-values outside [0, 1]"]
    expected = bh_rejected(p, FDR_Q)
    if written != expected:
        return [f"rejected set of {len(written)} differs from Benjamini-Hochberg's {len(expected)}"]
    return []


def check_forecast(d: Path) -> list[str]:
    body = _read_matrix(d / "forecast.csv")
    mse = json.loads((d / "mse.json").read_text())["mse"]
    problems = []
    if body.shape != (119, 3) or not np.all(np.isfinite(body)):
        problems.append(f"forecast table has shape {body.shape} or non-finite values")
    if set(mse) != {"forecast_walsh", "forecast_pc"} or not all(_finite(v) and v > 0 for v in mse.values()):
        problems.append(f"bad MSE record {mse}")
    return problems


def check_infer(d: Path) -> list[str]:
    res = json.loads((d / "inference.json").read_text())
    ok = _finite(res["beta_hat"]) and _finite(res["se"]) and res["se"] > 0 and res["ci"]["lo"] < res["ci"]["hi"]
    return [] if ok else ["treatment estimate or standard error not finite"]


DESK_CHECKS = {
    "estimate": check_estimate,
    "cov": check_cov,
    "spectest": check_spectest,
    "fdr": check_fdr,
    "forecast": check_forecast,
    "infer": check_infer,
}


def desk_cli(seed: int, workdir: Path, clock) -> dict:
    from divproj import cli

    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)  # a stale file must not pass a check
    commands = desk_commands(seed, workdir / "inputs", out)
    codes, wall, ref, cpu, probes = {}, {}, 0.0, 0.0, 0
    for name, argv in commands.items():
        m = clock.measure(lambda: cli.run(argv))
        codes[name], wall[name] = (1 if m.error else m.out), m.wall_s
        ref, cpu, probes = ref + m.ref_s, cpu + m.cpu_s, probes + m.probes
        if m.error:
            print(m.error, file=sys.stderr)
    maxrss = _maxrss_mb()

    failed, digest_items = 0, []
    for name in commands:
        d = out / name
        if codes[name] != 0:
            print(f"check failed [desk_cli {name}]: exit code {codes[name]}", file=sys.stderr)
            failed += 1
            continue
        try:
            json.loads((d / "manifest.json").read_text())
            problems = DESK_CHECKS[name](d)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"output does not parse back: {exc!r}"]
        _report(problems, f"desk_cli {name}")
        failed += bool(problems)
        digest_items += [p.relative_to(out).as_posix().encode() + b"\0" + p.read_bytes()
                         for p in sorted(d.rglob("*")) if p.is_file()]
    return {
        "attempted": len(commands),
        "failed": failed,
        "timed_s": sum(wall.values()),
        "ref_s": ref,
        "cpu_s": cpu,
        "probes": probes,
        "samples": [[len(commands), ref, sum(wall.values())]],
        "maxrss_mb": maxrss,
        "digest": _digest(digest_items),
        "unit_wall_s": wall,
    }


WORKLOADS = {"mc_cov": mc_cov, "mc_forecast": mc_forecast, "mc_postsel": mc_postsel, "desk_cli": desk_cli}
