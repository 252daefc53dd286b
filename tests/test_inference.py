import math

import numpy as np
import pytest

from divproj.exceptions import InsufficientDataError
from divproj.inference import (
    confidence_interval,
    double_selection,
    tuning_tau,
    _cd_lasso,
    _iterate_sigma_core,
)
from divproj.simulation import rep_rng
from divproj.weights import walsh_hadamard_weights
from lasso_path import objective_path


def kkt_violation(design, response, tau, gamma):
    """Largest violation of the lasso subgradient conditions."""
    t = design.shape[0]
    grad = 2.0 * design.T @ (response - design @ gamma) / t
    worst = 0.0
    for j in range(design.shape[1]):
        if gamma[j] == 0.0:
            worst = max(worst, abs(grad[j]) - tau)
        else:
            worst = max(worst, abs(grad[j] - tau * np.sign(gamma[j])))
    return worst


def gram_form(design, response):
    """(G, c) = (D'D/T, D'y/T), the solver's view of the design and response."""
    t = design.shape[0]
    return design.T @ design / t, design.T @ response / t


def iterated_tuning(design, response, n_rounds=5):
    """(tau, sigma2) of the feasible iteration at C = 4.1."""
    t, n = design.shape
    G, c = gram_form(design, response)
    tau, sigma2, _ = _iterate_sigma_core(
        G, c, float(np.var(response)), float(np.mean(response**2)), n, t, 4.1, n_rounds
    )
    return tau, sigma2


class TestLasso:
    def test_unpenalized_square_design_gives_ols(self):
        rng = np.random.default_rng(0)
        D = rng.standard_normal((8, 8)) + 3 * np.eye(8)
        y = rng.standard_normal(8)
        gamma, _ = _cd_lasso(*gram_form(D, y), tau=0.0, tol=1e-11, max_iter=50000)
        np.testing.assert_allclose(gamma, np.linalg.solve(D, y), atol=1e-6)

    def test_full_shrinkage_at_large_tau(self):
        rng = np.random.default_rng(1)
        D = rng.standard_normal((30, 6))
        y = rng.standard_normal(30)
        tau = 2.0 * np.max(np.abs(D.T @ y)) / 30
        gamma, _ = _cd_lasso(*gram_form(D, y), tau=tau * 1.0001)
        np.testing.assert_array_equal(gamma, np.zeros(6))

    @pytest.mark.parametrize("seed", range(8))
    def test_kkt_conditions(self, seed):
        rng = np.random.default_rng(seed)
        D = rng.standard_normal((30, 5))
        beta = np.array([1.5, 0.0, -0.8, 0.0, 0.0])
        y = D @ beta + 0.3 * rng.standard_normal(30)
        tau = 0.4
        gamma, _ = _cd_lasso(*gram_form(D, y), tau=tau)
        assert kkt_violation(D, y, tau, gamma) < 1e-6

    def test_objective_monotone_per_sweep(self):
        rng = np.random.default_rng(5)
        D = rng.standard_normal((40, 12))
        y = rng.standard_normal(40)
        G, c = gram_form(D, y)
        _, objectives, converged = objective_path(G, c, float(np.mean(y**2)), tau=0.2)
        assert converged
        diffs = np.diff(objectives)
        assert np.all(diffs <= 1e-12)

    def test_nonconvergence_flagged(self):
        rng = np.random.default_rng(6)
        D = rng.standard_normal((20, 10))
        y = rng.standard_normal(20)
        _, converged = _cd_lasso(*gram_form(D, y), tau=0.01, max_iter=1, tol=1e-16)
        assert converged is False


class TestTuningTau:
    def test_log_scale(self):
        assert tuning_tau(1.0, math.e, 1, C=4.1) == pytest.approx(4.1)

    def test_sample_size_scaling(self):
        assert tuning_tau(2.0, 50, 200) == pytest.approx(tuning_tau(2.0, 50, 100) / math.sqrt(2))

    def test_reference_value(self):
        assert tuning_tau(1.0, 200, 200, C=4.1) == pytest.approx(0.6673257, abs=1e-6)


class TestIterateSigma:
    def test_zero_response_floored(self):
        rng = np.random.default_rng(7)
        D = rng.standard_normal((25, 4))
        tau, sigma2 = iterated_tuning(D, np.zeros(25))
        assert sigma2 == pytest.approx(1e-12)
        assert tau < 1e-5

    def test_sigma_decreases_across_rounds_on_noiseless_signal(self):
        rng = np.random.default_rng(8)
        D = rng.standard_normal((60, 10))
        y = D @ np.array([2.0, -1.0] + [0.0] * 8)
        estimates = [iterated_tuning(D, y, n_rounds=k)[1] for k in (1, 2, 3, 4)]
        assert all(b <= a + 1e-12 for a, b in zip(estimates, estimates[1:]))
        assert estimates[-1] < 0.05 * np.var(y)

    def test_pure_noise_variance_recovery(self):
        errors = []
        for rep in range(100):
            rng = rep_rng(55, rep)
            D = rng.standard_normal((200, 10))
            y = 1.3 * rng.standard_normal(200)
            _, sigma2 = iterated_tuning(D, y)
            errors.append(abs(sigma2 / 1.69 - 1.0))
        errors = np.array(errors)
        assert np.mean(errors) < 0.15
        assert np.mean(errors < 0.2) >= 0.85


def _simulate_system(seed=0, n=60, t=120, beta=1.0, with_noise=True):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, t))
    theta = np.zeros(n)
    theta[:3] = (1.0, -1.5, 0.5)
    eps_g = rng.standard_normal(t)
    eta = rng.standard_normal(t) if with_noise else np.zeros(t)
    g = theta @ X + eps_g
    y = beta * g + theta @ X + eta
    return y, g, X


class TestDoubleSelection:
    def test_exact_recovery_without_controls(self):
        # beta = 1, theta = nu = 0, eta = 0: y = g exactly
        rng = np.random.default_rng(9)
        X = rng.standard_normal((20, 50))
        g = rng.standard_normal(50)
        y = 1.0 * g
        res = double_selection(y, g, X, None)
        assert res.beta_hat == pytest.approx(1.0, abs=1e-8)
        res2 = double_selection(y, g, X, walsh_hadamard_weights(20, 1))
        assert res2.beta_hat == pytest.approx(1.0, abs=1e-8)

    def test_selection_and_moments(self):
        y, g, X = _simulate_system(seed=10, n=40, t=200)
        res = double_selection(y, g, X, walsh_hadamard_weights(40, 2))
        assert set(res.selected.tolist()) >= {0, 1, 2}
        assert res.se > 0
        assert res.beta_hat == pytest.approx(1.0, abs=0.3)
        # gamma_hat and theta_hat supported on the selected set only
        outside = np.setdiff1d(np.arange(40), res.selected)
        assert np.all(res.gamma_hat[outside] == 0)
        assert np.all(res.theta_hat[outside] == 0)

    def test_post_refit_orthogonality(self):
        y, g, X = _simulate_system(seed=11, n=30, t=150)
        W = walsh_hadamard_weights(30, 2)
        res = double_selection(y, g, X, W)
        from divproj.projection import fit as pfit

        fr = pfit(X, W)
        assert np.max(np.abs(fr.factors.T @ res.eps_g_hat)) < 1e-8 * np.max(np.abs(g))
        if res.selected.size:
            assert np.max(np.abs(fr.residuals[res.selected] @ res.eps_g_hat)) < 1e-7 * np.max(np.abs(g))

    def test_refit_false_still_returns_estimate(self):
        y, g, X = _simulate_system(seed=12, n=30, t=100)
        res = double_selection(y, g, X, None, refit=False)
        assert np.isfinite(res.beta_hat)
        assert np.isfinite(res.se)

    def test_refit_infeasible_error(self):
        rng = np.random.default_rng(13)
        t, n = 30, 60
        X = rng.standard_normal((n, t))
        g = rng.standard_normal(t)
        y = rng.standard_normal(t)
        # a vanishing penalty saturates the active set at the sample size
        with pytest.raises(InsufficientDataError, match="refit infeasible"):
            double_selection(y, g, X, None, sigma2_y=1e-12, sigma2_g=1e-12)

    def test_scale_equivariance(self):
        y, g, X = _simulate_system(seed=14, n=30, t=140)
        res1 = double_selection(y, g, X, None)
        res2 = double_selection(10.0 * y, g, X, None)
        assert res2.beta_hat == pytest.approx(10.0 * res1.beta_hat, rel=1e-6)
        z1 = (res1.beta_hat - 1.0) / res1.se
        z2 = (res2.beta_hat - 10.0) / res2.se
        assert z2 == pytest.approx(z1, rel=1e-5)

    def test_plain_path_matches_inline_reference(self):
        """The no-factor path equals running the steps directly on X."""
        y, g, X = _simulate_system(seed=15, n=25, t=90)
        res = double_selection(y, g, X, None)

        t = y.size
        D = X.T
        G = D.T @ D / t

        def reference_equation(resp):
            c = D.T @ resp / t
            y2 = float(np.mean(resp**2))
            tau, _, gam = _iterate_sigma_core(G, c, float(np.var(resp)), y2, 25, t, 4.1)
            gam, _ = _cd_lasso(G, c, tau, gamma0=gam)
            return gam

        gam = reference_equation(y)
        th = reference_equation(g)
        J = np.flatnonzero((np.abs(gam) > 1e-10) | (np.abs(th) > 1e-10))
        gam_hat = np.zeros(25); th_hat = np.zeros(25)
        gam_hat[J] = np.linalg.lstsq(D[:, J], y, rcond=None)[0]
        th_hat[J] = np.linalg.lstsq(D[:, J], g, rcond=None)[0]
        eps_y = y - D @ gam_hat
        eps_g = g - D @ th_hat
        beta_ref = float(eps_g @ eps_y) / float(eps_g @ eps_g)

        np.testing.assert_array_equal(res.selected, J)
        assert res.beta_hat == beta_ref  # bit-identical

    def test_oracle_sigma_override(self):
        y, g, X = _simulate_system(seed=16, n=30, t=150)
        res = double_selection(y, g, X, None, sigma2_y=2.0, sigma2_g=1.0)
        assert set(res.selected.tolist()) >= {0, 1, 2}


class TestConfidenceInterval:
    def _result(self, beta=1.0, se=0.1):
        from divproj.inference import DoubleSelectionResult

        return DoubleSelectionResult(
            beta_hat=beta, se=se, selected=np.array([], dtype=int),
            alpha_y=np.zeros(0), alpha_g=np.zeros(0),
            gamma_hat=np.zeros(3), theta_hat=np.zeros(3),
            sigma_g2=1.0, sigma_eta_g2=1.0,
            eps_y_hat=np.zeros(5), eps_g_hat=np.zeros(5),
        )

    def test_collapses_as_level_vanishes(self):
        res = self._result()
        lo, hi = confidence_interval(res, level=1e-12)
        assert hi - lo < 1e-9

    def test_reference_interval(self):
        lo, hi = confidence_interval(self._result(), level=0.95)
        assert lo == pytest.approx(1.0 - 1.959964 * 0.1, abs=1e-6)
        assert hi == pytest.approx(1.0 + 1.959964 * 0.1, abs=1e-6)

    def test_nesting(self):
        res = self._result()
        lo95, hi95 = confidence_interval(res, 0.95)
        lo99, hi99 = confidence_interval(res, 0.99)
        assert lo99 < lo95 and hi99 > hi95

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 2.0])
    def test_invalid_level(self, level):
        with pytest.raises(ValueError):
            confidence_interval(self._result(), level)
