import ast
from pathlib import Path

import numpy as np
import pytest

import divproj
from divproj.covariance import (
    SparseCovariance,
    ThresholdRule,
    invert_sparse_cov,
    sparse_idio_cov,
    threshold_value,
)
from divproj.exceptions import DegenerateDataError, NumericalWarning
from divproj.projection import fit
from divproj.simulation import SimConfig, cross_section_cov, generate_panel
from divproj.weights import sieve_weights

HARD = ThresholdRule(kind="hard", constant_C=2.0)
SOFT = ThresholdRule(kind="soft", constant_C=2.0)
SCAD = ThresholdRule(kind="scad", constant_C=2.0)


class TestThresholdValue:
    def test_soft(self):
        assert threshold_value(3.0, 1.0, SOFT) == pytest.approx(2.0)
        assert threshold_value(-3.0, 1.0, SOFT) == pytest.approx(-2.0)

    def test_hard(self):
        assert threshold_value(0.5, 1.0, HARD) == 0.0
        assert threshold_value(1.5, 1.0, HARD) == 1.5

    def test_scad_identity_tail(self):
        tau = 0.37
        assert threshold_value(10 * tau, tau, SCAD) == pytest.approx(10 * tau)

    def test_scad_continuity(self):
        tau, a = 0.8, 3.7
        eps = 1e-9
        for point in (tau, 2 * tau, a * tau):
            lo = threshold_value(point - eps, tau, SCAD)
            hi = threshold_value(point + eps, tau, SCAD)
            assert abs(hi - lo) < 1e-6

    def test_vectorized(self):
        s = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        out = threshold_value(s, 1.0, SOFT)
        np.testing.assert_allclose(out, [-1.0, 0.0, 0.0, 0.0, 1.0])

    @pytest.mark.parametrize("rule", [HARD, SOFT, SCAD])
    def test_thresholding_function_conditions(self, rule):
        taus = np.array([0.1, 0.5, 1.0, 2.5])
        ss = np.linspace(-12, 12, 2001)
        for tau in taus:
            h = threshold_value(ss, tau, rule)
            below = np.abs(ss) < tau
            assert np.all(h[below] == 0.0)                    # (i)
            assert np.all(np.abs(h - ss) <= tau + 1e-12)      # (ii)
            if rule.kind == "scad":
                tail = np.abs(ss) > rule.scad_a * tau
                assert np.all(h[tail] == ss[tail])            # (iii), exactly

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            threshold_value(1.0, -0.1, HARD)


class TestThresholdRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdRule(kind="banded")
        with pytest.raises(ValueError):
            ThresholdRule(scad_a=2.0)
        with pytest.raises(ValueError):
            ThresholdRule(constant_C=-1.0)


class TestSparseIdioCov:
    def test_diagonal_input_stays_diagonal(self):
        rng = np.random.default_rng(0)
        # build residuals whose sample covariance is exactly diagonal
        U = rng.standard_normal((4, 60))
        q, _ = np.linalg.qr(U.T)
        U = (q * np.array([1.0, 2.0, 3.0, 4.0])).T * np.sqrt(60)
        cov = sparse_idio_cov(U, SCAD)
        np.testing.assert_allclose(cov.sigma_u, np.diag(np.diag(cov.sigma_u)), atol=1e-12)
        np.testing.assert_allclose(np.diag(cov.sigma_u), np.sum(U**2, axis=1) / 60)

    def test_zero_constant_keeps_raw_covariance(self):
        rng = np.random.default_rng(1)
        U = rng.standard_normal((5, 40))
        raw = U @ U.T / 40
        for kind in ("hard", "soft", "scad"):
            cov = sparse_idio_cov(U, ThresholdRule(kind=kind, constant_C=0.0))
            np.testing.assert_allclose(cov.sigma_u, raw, atol=1e-12)

    def test_omega_value(self):
        rng = np.random.default_rng(2)
        cov = sparse_idio_cov(rng.standard_normal((100, 100)), SCAD)
        assert cov.omega == pytest.approx(np.sqrt(np.log(100) / 100) + 0.1)
        assert cov.omega == pytest.approx(0.3145966026, abs=1e-9)

    def test_degenerate_residual_rejected(self):
        U = np.vstack([np.zeros(10), np.ones(10)])
        with pytest.raises(DegenerateDataError):
            sparse_idio_cov(U, SCAD)

    def test_sparsity_monotone_in_constant(self):
        rng = np.random.default_rng(3)
        U = rng.standard_normal((20, 50))
        counts = [
            sparse_idio_cov(U, ThresholdRule(kind="scad", constant_C=c)).nonzero_offdiag
            for c in (0.0, 0.5, 1.0, 2.0, 4.0)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_scale_covariance_and_support_invariance(self):
        rng = np.random.default_rng(4)
        U = rng.standard_normal((10, 80))
        base = sparse_idio_cov(U, SCAD)
        scaled = sparse_idio_cov(3.0 * U, SCAD)
        np.testing.assert_allclose(scaled.sigma_u, 9.0 * base.sigma_u, rtol=1e-10)
        np.testing.assert_array_equal(scaled.sigma_u != 0, base.sigma_u != 0)

    def test_support_recovery_on_block_design(self):
        cfg = SimConfig(n_series=300, n_periods=300, n_factors_true=1, seed=9)
        truth = cross_section_cov(cfg)
        off = ~np.eye(300, dtype=bool)
        true_nonzero = (truth != 0) & off
        true_zero = (truth == 0) & off
        fp, fn = [], []
        for rep in range(3):
            sim = generate_panel(cfg, replication=rep)
            fr = fit(sim.panel.X, sieve_weights(sim.z_chars, 1))
            est = sparse_idio_cov(fr.residuals, SCAD).sigma_u != 0
            fp.append(np.sum(est & true_zero) / np.sum(true_zero))
            fn.append(np.sum(~est & true_nonzero) / np.sum(true_nonzero))
        assert np.mean(fp) < 0.05
        assert np.mean(fn) < 0.20

    def test_sparsity_diagnostic(self):
        cov = SparseCovariance(
            sigma_u=np.array([[1.0, 0.5], [0.5, 2.0]]),
            omega=0.1, nonzero_offdiag=2,
        )
        assert cov.sparsity_m(0) == 2.0
        assert cov.sparsity_m(1) == 2.5


class TestInvertSparseCov:
    def test_identity(self):
        np.testing.assert_allclose(invert_sparse_cov(np.eye(5)), np.eye(5), atol=1e-12)

    def test_diagonal(self):
        d = np.array([0.5, 1.0, 4.0])
        np.testing.assert_allclose(invert_sparse_cov(np.diag(d)), np.diag(1.0 / d), atol=1e-12)

    def test_toeplitz_block_vs_direct_solve(self):
        idx = np.arange(4)
        A = 0.7 ** np.abs(idx[:, None] - idx[None, :])
        np.testing.assert_allclose(invert_sparse_cov(A), np.linalg.solve(A, np.eye(4)), atol=1e-10)

    def test_eigenvalue_floor_shift(self):
        sigma = np.diag([2.0, 2.0, -1.0])  # indefinite; the floor is 1e-6 x mean diagonal = 1e-6
        with pytest.warns(NumericalWarning, match="shifting diagonal"):
            inv = invert_sparse_cov(sigma)
        # the diagonal is shifted by 1e-6 - (-1) before inversion
        np.testing.assert_allclose(inv, np.diag(1.0 / np.array([3.0 + 1e-6, 3.0 + 1e-6, 1e-6])), rtol=1e-9)

    def test_nonpositive_mean_diagonal_rejected(self):
        # no eigenvalue floor exists, so no diagonal shift gives a positive definite matrix
        with pytest.raises(DegenerateDataError, match="mean diagonal"):
            invert_sparse_cov(np.diag([-1.0, -2.0]))


def _imports_scipy_linalg(node) -> bool:
    """`import scipy.linalg[.x]`, `from scipy import linalg` or `from scipy.linalg[.x] import y`."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom) and node.module:
        names = [f"{node.module}.{a.name}" for a in node.names]
    else:
        return False
    return any(f"{name}.".startswith("scipy.linalg.") for name in names)


def test_no_module_imports_scipy_linalg():
    """The package runs its linear algebra on numpy's BLAS alone.

    scipy bundles a second OpenBLAS, and under default threading calls that
    alternate between the two libraries' thread pools oversubscribe the
    cores.  On a 2-vCPU host (numpy 2.4.6, scipy 1.17.1, no BLAS thread
    setting), inverting the thresholded covariance with scipy.linalg's
    Cholesky made test_criterion_5_covariance_error_trend take 77-80 s and
    a small experiment_cov run 2.4-2.7 replications/s; with numpy.linalg
    they take 18 s and run 8.8-8.9/s.  scipy.stats stays: it makes no BLAS
    call.
    """
    offenders = []
    for path in sorted(Path(divproj.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if _imports_scipy_linalg(n)]
    assert offenders == []
