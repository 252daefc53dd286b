import warnings

import numpy as np
import pytest
from scipy.stats import kstest, norm

from divproj import spectest
from divproj.covariance import ThresholdRule, _Blocks
from divproj.exceptions import DimensionError, NumericalWarning, SingularGramError
from divproj.projection import _solve_gram, pseudo_inverse
from divproj.projection import fit as projection_fit
from divproj.simulation import SimConfig, generate_panel, rep_rng
from divproj.spectest import SpecTestResult, mean_hat, sigma_bootstrap, spec_statistic, spec_test
from divproj.weights import sieve_weights


def dense_projection(a):
    a = np.atleast_2d(a)
    return a @ pseudo_inverse(a.T @ a) @ a.T


class TestSpecStatistic:
    def test_identical_spans(self):
        rng = np.random.default_rng(0)
        F = rng.standard_normal((15, 2))
        assert spec_statistic(F, F) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_one_dimensional_spans(self):
        F = np.zeros((6, 1)); F[0, 0] = 1.0
        G = np.zeros((6, 1)); G[1, 0] = 1.0
        assert spec_statistic(F, G) == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_against_dense_projection_oracle(self, seed):
        rng = np.random.default_rng(seed)
        F = rng.standard_normal((5, 2))
        G = rng.standard_normal((5, 2))
        expected = float(np.sum((dense_projection(G) - dense_projection(F)) ** 2))
        assert spec_statistic(F, G) == pytest.approx(expected, abs=1e-10)

    def test_column_count_mismatch(self):
        with pytest.raises(DimensionError):
            spec_statistic(np.ones((5, 2)), np.ones((5, 3)))

    def test_invariance_to_remixing(self):
        rng = np.random.default_rng(9)
        F = rng.standard_normal((12, 2))
        G = rng.standard_normal((12, 2))
        Q1 = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        Q2 = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        assert spec_statistic(F @ Q1, G @ Q2) == pytest.approx(spec_statistic(F, G), abs=1e-10)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_upper_bound(self, r):
        rng = np.random.default_rng(r)
        for _ in range(5):
            F = rng.standard_normal((10, r))
            G = rng.standard_normal((10, r))
            assert spec_statistic(F, G) <= 2 * r + 1e-10


class TestMeanHat:
    def test_zero_covariance(self):
        rng = np.random.default_rng(1)
        F = rng.standard_normal((10, 2))
        W = rng.standard_normal((6, 2))
        assert mean_hat(F, W, np.zeros((6, 6))) == 0.0

    def test_scalar_case(self):
        n, t = 8, 5
        F = np.ones((t, 1))  # gram = 1
        W = np.ones((n, 1))
        val = mean_hat(F, W, np.eye(n))
        assert val == pytest.approx(2.0 / n)

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(2)
        n, t, r = 7, 12, 2
        F = rng.standard_normal((t, r))
        W = rng.standard_normal((n, r))
        S = rng.standard_normal((n, n)); S = S @ S.T
        A = 2.0 * np.linalg.inv(F.T @ F / t)
        M = A @ (W.T @ S @ W)
        expected = sum(M[i, i] for i in range(r)) / n**2
        assert mean_hat(F, W, S) == pytest.approx(expected, abs=1e-12)

    def test_singular_gram(self):
        F = np.ones((10, 2))  # collinear columns
        with pytest.raises(SingularGramError):
            mean_hat(F, np.ones((4, 2)), np.eye(4))


class TestSigmaBootstrap:
    def test_zero_variance(self):
        assert sigma_bootstrap(np.ones((1, 1)), np.zeros((1, 1)), n_draws=100, seed=0) == 0.0

    def test_chi_square_variance_identity(self):
        # A = 2, V = 1: statistic is 2*chi2_1 whose std is sqrt(8)
        est = sigma_bootstrap(np.array([[2.0]]), np.array([[1.0]]), n_draws=200_000, seed=3)
        assert est == pytest.approx(np.sqrt(8.0), rel=0.03)

    def test_matches_analytic_quadratic_form_variance(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((3, 3)); A = A @ A.T
        V = rng.standard_normal((3, 3)); V = V @ V.T
        analytic = np.sqrt(2.0 * np.trace(A @ V @ A @ V))
        est = sigma_bootstrap(A, V, n_draws=200_000, seed=5)
        assert est == pytest.approx(analytic, rel=0.03)

    def test_deterministic_for_fixed_seed(self):
        a = sigma_bootstrap(np.eye(2), np.eye(2), n_draws=500, seed=11)
        b = sigma_bootstrap(np.eye(2), np.eye(2), n_draws=500, seed=11)
        assert a == b

    def test_draw_doubling_is_stable(self):
        base = sigma_bootstrap(np.eye(2), np.diag([1.0, 3.0]), n_draws=20_000, seed=6)
        double = sigma_bootstrap(np.eye(2), np.diag([1.0, 3.0]), n_draws=40_000, seed=6)
        assert abs(double - base) / base < 0.05

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError):
            sigma_bootstrap(np.eye(2), np.diag([1.0, -0.5]), n_draws=100, seed=0)

    def test_rounding_negative_eigenvalue_clip_names_the_caller(self, monkeypatch):
        """A V with a -1e-13 eigenvalue is clipped with a warning that names this file, directly or via spec_test."""
        v = np.diag([1.0, -1e-13])
        rng = np.random.default_rng(2)
        X, W, G = rng.standard_normal((30, 80)), rng.standard_normal((30, 2)), rng.standard_normal((80, 2))
        monkeypatch.setattr(_Blocks, "sandwich", lambda self, w: v.copy())
        for call in (lambda: sigma_bootstrap(np.eye(2), v, n_draws=100, seed=0),
                     lambda: spec_test(X, G, W, n_draws=100, seed=0)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            clipped = [w for w in caught if issubclass(w.category, NumericalWarning)]
            assert [w.filename for w in clipped] == [__file__], [str(w.message) for w in caught]

    def test_one_draw_rejected(self):
        """One draw has no sample standard deviation (ddof=1), so no p-value."""
        with pytest.raises(ValueError, match="n_draws must be at least 2"):
            sigma_bootstrap(np.eye(2), np.eye(2), n_draws=1, seed=0)


def _null_instance(rep, t_len=100, seed=17):
    cfg = SimConfig(n_series=200, n_periods=t_len + 1, n_factors_true=2,
                    alpha_strength=1.0, rho_T=0.0, seed=seed)
    rng = rep_rng(cfg.seed, rep)
    sim = generate_panel(cfg, rng=rng)
    return sim.panel.X[:, 1:], sim.F_true[1:], sieve_weights(sim.z_chars, 2), cfg


class TestSpecTest:
    def test_noiseless_panel_is_non_rejection(self):
        rng = np.random.default_rng(7)
        B = rng.standard_normal((30, 2))
        F = rng.standard_normal((25, 2))
        X = B @ F.T
        W = sieve_weights(rng.standard_normal(30), 2)
        res = spec_test(X, F, W, n_draws=500, seed=1)
        assert res.statistic == pytest.approx(0.0, abs=1e-10)
        assert res.p_value > 0.05

    def test_one_draw_rejected_before_the_fit(self, monkeypatch):
        """n_draws < 2 fails with `sigma_bootstrap`'s message before the panel is fitted or thresholded."""
        def fail(*args, **kwargs):
            raise AssertionError("the test's work started")

        monkeypatch.setattr(spectest, "projection_fit", fail)
        monkeypatch.setattr(spectest, "sparse_idio_cov", fail)
        X, F, W, _ = _null_instance(0, t_len=40)
        for n_draws in (1, 0):
            with pytest.raises(ValueError, match="n_draws must be at least 2"):
                spec_test(X, F, W, n_draws=n_draws, seed=1)

    def test_noiseless_panel_result_is_that_of_a_zero_n_by_n_covariance(self):
        """The noiseless branch passes an R x R zero V; every field equals the N x N zero covariance's, signed zeros included."""
        rng = np.random.default_rng(7)
        B = rng.standard_normal((30, 2))
        F = rng.standard_normal((25, 2))
        X = B @ F.T
        W = sieve_weights(rng.standard_normal(30), 2)
        res = spec_test(X, F, W, n_draws=500, seed=1)
        n, t = X.shape
        F_hat = projection_fit(X, W).factors
        v = W.values.T @ np.zeros((n, n)) @ W.values
        a_hat = 2.0 * _solve_gram(F_hat.T @ F_hat / t, np.eye(2), strict=True)
        m_hat = mean_hat(F_hat, W, np.zeros((n, n)))
        sd = max(sigma_bootstrap(a_hat, v / n, n_draws=500, seed=1), spectest._SIGMA_FLOOR)
        stat = spec_statistic(F_hat, F)
        z = float(n * np.sqrt(t) * (stat - m_hat) / sd)
        expected = SpecTestResult(stat, m_hat, sd, z, float(spectest._two_sided_p(z)), 500, 1)
        assert res == expected
        assert repr(res) == repr(expected)

    def test_weight_dimension_check(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((20, 30))
        G = rng.standard_normal((30, 2))
        with pytest.raises(DimensionError):
            spec_test(X, G, sieve_weights(np.arange(1.0, 21.0), 3))

    def test_determinism(self):
        X, G, W, cfg = _null_instance(0)
        a = spec_test(X, G, W, n_draws=400, seed=5)
        b = spec_test(X, G, W, n_draws=400, seed=5)
        assert a.z == b.z and a.sigma_hat == b.sigma_hat

    @pytest.mark.parametrize("target", [0.0, 1e-9, 0.3, 1.0, 1.96, 4.0, 9.0, 17.0, 26.0, 37.0])
    def test_p_value_matches_scipy_normal_tail(self, monkeypatch, target):
        """p = erfc(|z| / sqrt 2) agrees with 2 * scipy's norm.sf within 1e-12 relative.

        The bootstrap standard deviation is replaced by one that puts |z| at
        the target; z = 0 is the noiseless panel's exact zero statistic.
        """
        if target == 0.0:
            rng = np.random.default_rng(7)
            F = rng.standard_normal((25, 2))
            res = spec_test(rng.standard_normal((30, 2)) @ F.T, F, sieve_weights(rng.standard_normal(30), 2),
                            n_draws=50, seed=1)
            assert res.statistic == pytest.approx(0.0, abs=1e-10)
        else:
            X, G, W, cfg = _null_instance(0)
            base = spec_test(X, G, W, n_draws=200, seed=5)
            sd = base.sigma_hat * abs(base.z) / target
            monkeypatch.setattr(spectest, "sigma_bootstrap", lambda *args, **kwargs: sd)
            res = spec_test(X, G, W, n_draws=200, seed=5)
            assert abs(res.z) == pytest.approx(target, rel=1e-9)
        assert res.p_value == pytest.approx(2.0 * norm.sf(abs(res.z)), rel=1e-12, abs=0.0)
        if res.z == 0.0:
            assert res.p_value == 1.0

    def test_null_distribution_kolmogorov_smirnov(self):
        """Null z-statistics over 1000 replications look standard normal.

        The plug-in covariance uses hard thresholding here: it is exactly
        unbiased on every entry it keeps, which is what the standardization
        needs.  The SCAD default trades a small positive mean shift (its
        interpolation zone shrinks the mid-sized block covariances) for a
        continuous rule; that shift is visible to a KS test at this sample
        size although the 5%-level rejection rate stays on target.
        """
        rule = ThresholdRule(kind="hard", constant_C=1.2)
        zs = np.empty(1000)
        for rep in range(1000):
            X, G, W, cfg = _null_instance(rep)
            res = spec_test(X, G, W, rule=rule, n_draws=2000, seed=cfg.seed,
                            rng=rep_rng(cfg.seed, rep, 1))
            zs[rep] = res.z
        stat, p = kstest(zs, "norm")
        assert p > 0.01
        # and the default SCAD rule still yields a usable 5% test
        assert abs(np.mean(zs)) < 0.15

    def test_scad_default_size_stays_on_target(self):
        rule = ThresholdRule(kind="scad", constant_C=1.0)
        rejections = 0
        n_reps = 300
        for rep in range(n_reps):
            X, G, W, cfg = _null_instance(rep)
            res = spec_test(X, G, W, rule=rule, n_draws=2000, seed=cfg.seed,
                            rng=rep_rng(cfg.seed, rep, 1))
            rejections += res.p_value < 0.05
        assert 0.02 < rejections / n_reps < 0.10
