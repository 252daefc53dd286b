"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line with the measured
quantities (run with ``pytest -s`` to see them as they complete).  Stated
runtime caps are asserted too.  The full suite is sized for a single CPU
core.
"""

import filecmp
import time
import warnings

import numpy as np
import pytest

from divproj.cli import run
from divproj.covariance import ThresholdRule, threshold_value
from divproj.exceptions import NumericalWarning
from divproj.experiments import (
    experiment_cov,
    experiment_forecast,
    experiment_postsel,
    experiment_spectest,
)
from divproj.projection import fit, pseudo_inverse
from divproj.weights import (
    WeightMatrix,
    hadamard_pattern_weights,
    sieve_weights,
    walsh_hadamard_weights,
)
from lasso_path import objective_path


def _report(criterion, passed, detail):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_1_algebraic_identities():
    start = time.time()
    rng = np.random.default_rng(101)
    worst_wu, worst_uf, worst_hh = 0.0, 0.0, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericalWarning)
        for _ in range(50):
            n = int(rng.integers(4, 51))
            t = int(rng.integers(4, 51))
            r = int(rng.integers(1, min(6, n + 1)))
            X = rng.standard_normal((n, t)) * rng.uniform(0.1, 10)
            W = WeightMatrix(rng.standard_normal((n, r)))
            fr = fit(X, W)
            scale = np.max(np.abs(X))
            worst_wu = max(worst_wu, np.max(np.abs(W.values.T @ fr.residuals))
                           / (scale * np.max(np.abs(W.values)) * n))
            worst_uf = max(worst_uf, np.max(np.abs(fr.residuals @ fr.factors))
                           / (scale * max(np.max(np.abs(fr.factors)), 1e-300) * t))
            # pseudo-inverse left identity on a full-column-rank transform
            h_rows = int(rng.integers(r, 7))
            H = rng.standard_normal((h_rows, r))
            worst_hh = max(worst_hh, np.max(np.abs(pseudo_inverse(H) @ H - np.eye(r))))
    elapsed = time.time() - start
    ok = worst_wu < 1e-10 and worst_uf < 1e-10 and worst_hh < 1e-8 and elapsed < 5
    _report(1, ok, f"max W'U {worst_wu:.2e}, max UF {worst_uf:.2e}, "
                   f"max |H+H - I| {worst_hh:.2e}, {elapsed:.2f}s")
    assert worst_wu < 1e-10
    assert worst_uf < 1e-10
    assert worst_hh < 1e-8
    assert elapsed < 5


def test_criterion_2_noiseless_recovery():
    start = time.time()
    rng = np.random.default_rng(7)
    n, t, r = 24, 18, 2
    B = rng.standard_normal((n, r))
    F = rng.standard_normal((t, r))
    X = B @ F.T
    truth = np.linalg.norm(X)
    worst = 0.0
    schemes = [
        walsh_hadamard_weights(n, 3),
        hadamard_pattern_weights(n, 2),
        sieve_weights(rng.standard_normal(n), 3),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericalWarning)
        for W in schemes:
            H = W.values.T @ B / n
            assert np.linalg.matrix_rank(H, tol=1e-8) == r  # scheme qualifies
            fr = fit(X, W)
            worst = max(worst, np.linalg.norm(fr.common_component() - X) / truth)
    elapsed = time.time() - start
    ok = worst < 1e-8 and elapsed < 1
    _report(2, ok, f"worst relative Frobenius error {worst:.2e} over "
                   f"{len(schemes)} schemes, {elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 1


def test_criterion_3_thresholding_contract():
    start = time.time()
    s_grid = np.linspace(-8, 8, 1601)
    tau_grid = (0.05, 0.3, 1.0, 2.0)
    rules = [ThresholdRule(kind=k, constant_C=1.0) for k in ("hard", "soft", "scad")]
    for rule in rules:
        for tau in tau_grid:
            h = threshold_value(s_grid, tau, rule)
            assert np.all(h[np.abs(s_grid) < tau] == 0.0)
            assert np.all(np.abs(h - s_grid) <= tau + 1e-12)
            if rule.kind == "scad":
                tail = np.abs(s_grid) > 3.7 * tau
                assert np.all(h[tail] == s_grid[tail])
    elapsed = time.time() - start
    _report(3, elapsed < 1, f"3 rules x {len(tau_grid)} thresholds x {s_grid.size} "
                            f"points, {elapsed:.2f}s")
    assert elapsed < 1


def test_criterion_4_lasso_kkt():
    start = time.time()
    worst_kkt = 0.0
    worst_increase = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        D = rng.standard_normal((40, 10))
        beta = np.zeros(10)
        beta[rng.choice(10, size=3, replace=False)] = rng.normal(0, 2, size=3)
        y = D @ beta + rng.standard_normal(40)
        tau = float(rng.uniform(0.05, 1.0))
        G = D.T @ D / 40
        c = D.T @ y / 40
        gamma, objectives, converged = objective_path(G, c, float(np.mean(y**2)), tau)
        assert converged
        grad = 2.0 * (c - G @ gamma)
        for j in range(10):
            if gamma[j] == 0.0:
                worst_kkt = max(worst_kkt, abs(grad[j]) - tau)
            else:
                worst_kkt = max(worst_kkt, abs(grad[j] - tau * np.sign(gamma[j])))
        if len(objectives) > 1:
            worst_increase = max(worst_increase, float(np.max(np.diff(objectives))))
    elapsed = time.time() - start
    ok = worst_kkt < 1e-6 and worst_increase <= 1e-12 and elapsed < 10
    _report(4, ok, f"worst KKT violation {worst_kkt:.2e}, worst objective "
                   f"increase {worst_increase:.2e}, {elapsed:.1f}s")
    assert worst_kkt < 1e-6
    assert worst_increase <= 1e-12
    assert elapsed < 10


def test_criterion_5_covariance_error_trend():
    start = time.time()
    rows = experiment_cov(sizes=(100, 200, 300), alphas=(0.5, 1.0), rho_Ts=(0.1, 0.7),
                          n_reps=30, seed=1, C_values=(2.0,), threads=1)
    details = []
    for alpha in (0.5, 1.0):
        for rho in (0.1, 0.7):
            cell = {r["N"]: r for r in rows
                    if r["alpha"] == alpha and r["rho_T"] == rho and r["method"] == "dp_R1"}
            errs = [cell[n]["err_cov_mean"] for n in (100, 200, 300)]
            ses = [cell[n]["err_cov_se"] for n in (100, 200, 300)]
            for k in range(2):
                slack = np.hypot(ses[k], ses[k + 1])
                assert errs[k + 1] < errs[k] + slack, (alpha, rho, errs)
            known = [r for r in rows if r["alpha"] == alpha and r["rho_T"] == rho
                     and r["method"] == "known_factor" and r["N"] == 300][0]
            ratio = cell[300]["err_cov_mean"] / known["err_cov_mean"]
            assert ratio <= 1.25, (alpha, rho, ratio)
            details.append(f"a={alpha},rho={rho}: {errs[0]:.2f}>{errs[1]:.2f}>{errs[2]:.2f},"
                           f" vs known x{ratio:.3f}")
    elapsed = time.time() - start
    _report(5, elapsed < 600, "; ".join(details) + f", {elapsed:.0f}s")
    assert elapsed < 600


def test_criterion_6_forecast_relative_mse():
    start = time.time()
    rows = experiment_forecast(window_sizes=(100,), rho_Ts=(0.9,), alphas=(1.0,),
                               n_reps=20, seed=3, schemes=("characteristic",),
                               extra_factors=(0,), threads=1)
    cell = [r for r in rows if r["method"] == "characteristic_R2"][0]
    elapsed = time.time() - start
    ok = cell["mse_ratio_mean"] < 0.8 and elapsed < 600
    _report(6, ok, f"relative MSE {cell['mse_ratio_mean']:.3f} "
                   f"+- {cell['mse_ratio_se']:.3f} (reference value 0.434), {elapsed:.0f}s")
    assert cell["mse_ratio_mean"] < 0.8
    assert elapsed < 600


def _timed_postsel(**kwargs):
    """experiment_postsel's summary rows and the seconds the experiment took."""
    start = time.time()
    _, rows = experiment_postsel(**kwargs)
    return rows, time.time() - start


@pytest.fixture(scope="module")
def postsel_rows():
    return _timed_postsel(n_reps=200, seed=7, threads=1)


@pytest.fixture(scope="module")
def postsel_confounded_rows():
    return _timed_postsel(r_values=(2,), working_factors=(2,), n_series=1000,
                          factor_coef=0.7, alpha_strength=0.5, weights="characteristic",
                          oracle_sigma=False, n_reps=200, seed=7, threads=1)


def _postsel_row(rows, r_true, method):
    row = [x for x in rows if x["r"] == r_true and x["method"] == method][0]
    detail = (f"r={r_true} {method}: mean {row['mean_z']:+.3f} "
              f"std {row['std_z']:.3f} cover {row['coverage']:.3f}")
    return row, detail


def test_criterion_7_postselection_normality_and_coverage(postsel_rows):
    rows, elapsed = postsel_rows
    # Plain double selection is a target too: in this design both reduced
    # forms are exactly sparse in the controls, so it must be consistent.
    targets = [(0, "dp_R1"), (0, "dp_R2"), (0, "dp_R3"), (2, "dp_R2"), (2, "plain")]
    details = []
    for r_true, method in targets:
        row, detail = _postsel_row(rows, r_true, method)
        details.append(detail)
        assert abs(row["mean_z"]) < 0.2, row
        assert 0.8 <= row["std_z"] <= 1.25, row
        assert 0.90 <= row["coverage"] <= 0.99, row
    _report("7 (normality and coverage)", True, "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_7_plain_double_selection_severely_biased(postsel_confounded_rows):
    """Plain double selection at r = 2 is severely biased when factors confound.

    In the default design of `experiment_postsel` both reduced forms are
    exactly sparse in the controls.  That is the model of Belloni,
    Chernozhukov & Hansen (2014), and plain double selection is consistent
    there (the test above asserts it).  The clause is therefore checked on
    the confounded design: the first true factor enters g and y with
    coefficient 0.7, the factors are weak (alpha = 0.5, N = 1000), and the
    penalties are tuned feasibly, as on real data.  No single control is a
    good proxy for the confounder, while the diversified projection
    averages over all N.  Plain double selection must be severely biased,
    |mean z| > 2, while the characteristic-weight arm on the same
    replications keeps the spread and coverage bounds.  That arm's own mean
    z is about +0.4, an errors-in-variables bias of order sqrt(T) / N^alpha,
    so its mean is reported, not bounded.  The designs tried, and why this
    one, are recorded in CHANGES.md; `demos/postsel_designs.py` reruns them.
    """
    rows, elapsed = postsel_confounded_rows
    plain, plain_detail = _postsel_row(rows, 2, "plain")
    dp, dp_detail = _postsel_row(rows, 2, "dp_R2")
    assert abs(plain["mean_z"]) > 2, plain
    assert 0.8 <= dp["std_z"] <= 1.25, dp
    assert 0.90 <= dp["coverage"] <= 0.99, dp
    _report("7 (plain benchmark under factor confounding)", True,
            f"{plain_detail} (criterion wants |mean z| > 2); {dp_detail}, {elapsed:.0f}s")


def test_criterion_8_spec_test_size_and_power():
    start = time.time()
    rows = experiment_spectest(gammas=(0.0, 0.2), T_values=(100,),
                               schemes=("characteristic",), n_reps=1000,
                               seed=2024, threads=1)
    size = [r for r in rows if r["gamma"] == 0.0][0]["rejection_rate"]
    power = [r for r in rows if r["gamma"] == 0.2][0]["rejection_rate"]
    elapsed = time.time() - start
    ok = 0.03 <= size <= 0.08 and power >= 0.95 and elapsed < 900
    _report(8, ok, f"size {size:.3f} (reference 0.054), power {power:.3f} "
                   f"(reference 1.000), {elapsed:.0f}s")
    assert 0.03 <= size <= 0.08
    assert power >= 0.95
    assert elapsed < 900


def test_criterion_9_thread_count_determinism(tmp_path):
    outputs = {}
    for threads in (1, 4):
        out = tmp_path / f"t{threads}"
        assert run(["simulate", "--experiment", "table3", "--reps", "4",
                    "--seed", "11", "--threads", str(threads), "--out", str(out)]) == 0
        assert run(["simulate", "--experiment", "postsel", "--reps", "2",
                    "--seed", "11", "--threads", str(threads),
                    "--out", str(out / "postsel")]) == 0
        outputs[threads] = out
    mismatches = []
    for rel in ("results.csv", "postsel/results.csv", "postsel/postsel_z_samples.csv"):
        a = outputs[1] / rel
        b = outputs[4] / rel
        if not filecmp.cmp(a, b, shallow=False):
            mismatches.append(rel)
    _report(9, not mismatches,
            "result CSVs byte-identical across --threads 1 and 4"
            if not mismatches else f"mismatch in {mismatches}")
    assert not mismatches
