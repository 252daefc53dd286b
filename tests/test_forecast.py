import numpy as np
import pytest

from divproj import projection
from divproj.exceptions import DimensionError, InsufficientDataError, NumericalWarning
from divproj.experiments import experiment_forecast
from divproj.forecast import (
    FixedWeightScheme,
    PCScheme,
    RollingWeightScheme,
    fit_augmented,
    predict,
    rolling_forecast,
)
from divproj.projection import estimate_factors, pc_factors
from divproj.weights import rolling_window_weights, walsh_hadamard_weights


class TestFitAugmented:
    def test_recovers_exact_observable_relation(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal(30)
        y = np.empty(30)
        y[1:] = g[:-1]  # y_{t+1} = g_t exactly
        y[0] = 0.0
        model = fit_augmented(y, g, np.zeros((30, 0)), lead=1)
        assert model.delta_hat[0] == pytest.approx(1.0, abs=1e-10)

    def test_constant_series_with_intercept(self):
        y = np.full(20, 7.0)
        obs = np.ones((20, 1))
        model = fit_augmented(y, obs, np.zeros((20, 0)), lead=1)
        fitted = obs[:-1] @ model.delta_hat
        np.testing.assert_allclose(fitted, y[1:], atol=1e-10)

    def test_tiny_instance_vs_normal_equations(self):
        # T=6, one factor, one observable: solve the 2x2 system by hand
        y = np.array([1.0, 2.0, 0.5, -1.0, 3.0, 2.5])
        f = np.array([[0.3], [1.2], [-0.7], [0.4], [1.0], [-0.2]])
        g = np.array([[1.0], [0.5], [2.0], [1.5], [-1.0], [0.0]])
        h = 1
        Z = np.hstack([f, g])[:-h]
        target = y[h:]
        expected = np.linalg.solve(Z.T @ Z, Z.T @ target)
        model = fit_augmented(y, g, f, lead=h)
        np.testing.assert_allclose(model.delta_hat, expected, atol=1e-12)

    def test_too_few_observations(self):
        with pytest.raises(InsufficientDataError):
            fit_augmented(np.ones(4), np.ones((4, 2)), np.ones((4, 2)), lead=1)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(40)
        F = rng.standard_normal((40, 2))
        G = rng.standard_normal((40, 1))
        model = fit_augmented(y, G, F, lead=1)
        Z = np.hstack([F, G])[:-1]
        resid = y[1:] - Z @ model.delta_hat
        assert np.max(np.abs(Z.T @ resid)) < 1e-8

    def test_duplicated_factor_column_keeps_fitted_values(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(25)
        F = rng.standard_normal((25, 2))
        base = fit_augmented(y, None, F, lead=1)
        with pytest.warns(NumericalWarning):
            dup = fit_augmented(y, None, np.hstack([F, F[:, :1]]), lead=1)
        fitted_base = F[:-1] @ base.delta_hat
        fitted_dup = np.hstack([F, F[:, :1]])[:-1] @ dup.delta_hat
        np.testing.assert_allclose(fitted_dup, fitted_base, atol=1e-8)

    def test_invariance_to_factor_remixing(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(30)
        F = rng.standard_normal((30, 2))
        G = rng.standard_normal((30, 1))
        Q = np.array([[2.0, 0.3], [-1.0, 0.8]])
        m1 = fit_augmented(y, G, F, lead=1)
        m2 = fit_augmented(y, G, F @ Q, lead=1)
        p1 = predict(m1, F[-1], G[-1])
        p2 = predict(m2, (F @ Q)[-1], G[-1])
        assert p2 == pytest.approx(p1, rel=1e-8)


class TestPredict:
    def _model(self, delta):
        from divproj.forecast import AugmentedRegression

        return AugmentedRegression(
            delta_hat=np.asarray(delta, dtype=float), lead=1,
            design_gram=np.eye(len(delta)), n_factors=1,
        )

    def test_zero_coefficients(self):
        assert predict(self._model([0.0, 0.0]), [1.0], [2.0]) == 0.0

    def test_unit_vector(self):
        assert predict(self._model([1.0, 0.0]), [3.0], [5.0]) == pytest.approx(3.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            predict(self._model([1.0, 0.0]), [3.0], [5.0, 6.0])


class TestRollingForecast:
    def test_exact_autoregression(self):
        # y_{t+1} = 1.5 + 0.98 y_t with no factor signal: fits exactly
        # (slow decay keeps the recursion away from its fixed point, so the
        # design stays full rank inside every window)
        t_total = 80
        y = np.empty(t_total)
        y[0] = 1.0
        for j in range(1, t_total):
            y[j] = 1.5 + 0.98 * y[j - 1]
        rng = np.random.default_rng(4)
        X = rng.standard_normal((8, t_total))
        report = rolling_forecast(y, X, window=30, steps=20,
                                  scheme=FixedWeightScheme(walsh_hadamard_weights(8, 2)))
        assert report.mse < 1e-12

    def test_constant_series(self):
        y = np.full(60, 4.0)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 60))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericalWarning)  # intercept vs constant lag
            report = rolling_forecast(y, X, window=20, steps=10, scheme=PCScheme(1))
        assert report.mse == pytest.approx(0.0, abs=1e-16)

    def test_mse_definition(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal(70)
        X = rng.standard_normal((8, 70))
        report = rolling_forecast(y, X, window=25, steps=12, scheme=PCScheme(2))
        assert report.mse == pytest.approx(float(np.mean((report.forecasts - report.realized) ** 2)))
        np.testing.assert_array_equal(report.realized, y[25:37])

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            rolling_forecast(np.ones(10), np.ones((3, 10)), window=8, steps=5, scheme=PCScheme(1))

    def test_schemes_see_identical_windows(self):
        """Competing estimators receive exactly the same data slices."""
        rng = np.random.default_rng(7)
        y = rng.standard_normal(50)
        X = rng.standard_normal((8, 50))

        class Spy:
            def __init__(self, inner):
                self.inner = inner
                self.seen = []

            def factors(self, X, start, window):
                block = X[:, start : start + window]
                self.seen.append((start, window, block.tobytes()))
                return self.inner.factors(X, start, window)

        spy_pc = Spy(PCScheme(2))
        spy_dp = Spy(FixedWeightScheme(walsh_hadamard_weights(8, 2)))
        rolling_forecast(y, X, window=20, steps=10, scheme=spy_pc)
        rolling_forecast(y, X, window=20, steps=10, scheme=spy_dp)
        assert spy_pc.seen == spy_dp.seen

    def test_rolling_weight_scheme_uses_preceding_history(self):
        rng = np.random.default_rng(8)
        history = rng.standard_normal((6, 21))
        X = rng.standard_normal((6, 40))
        scheme = RollingWeightScheme(history, n_factors=1, epsilon=1.0)
        F = scheme.factors(X, 0, 20)
        assert F.shape == (20, 1)
        # window 3 needs history columns from the combined series
        F3 = scheme.factors(X, 3, 20)
        assert F3.shape == (20, 1)

    def test_rolling_weight_scheme_insufficient_history(self):
        scheme = RollingWeightScheme(np.ones((4, 5)), n_factors=1)
        with pytest.raises(InsufficientDataError):
            scheme.factors(np.ones((4, 30)), 0, 20)

    @pytest.mark.parametrize("window", [8, 15])
    def test_pc_scheme_equals_pc_factors(self, window):
        """Windows with T <= N and with T > N give pc_factors' factors bit for bit."""
        X = np.random.default_rng(10).standard_normal((10, 30))
        scheme = PCScheme(3)
        for start in range(X.shape[1] - window + 1):
            expected = pc_factors(X[:, start : start + window], 3).factors
            assert np.array_equal(scheme.factors(X, start, window), expected), start

    def test_pc_scheme_checks_the_rank(self):
        with pytest.raises(DimensionError):
            PCScheme(5).factors(np.ones((4, 30)), 0, 20)


class TestSharedWindowSVD:
    """Siblings of a RollingWeightScheme share one eigendecomposition per history window."""

    @staticmethod
    def _data():
        rng = np.random.default_rng(9)
        return rng.standard_normal((7, 15)), rng.standard_normal((7, 30))

    @pytest.mark.parametrize("order", [(3, 2, 1), (1, 2, 3)])
    def test_siblings_equal_stand_alone_weights(self, order):
        history, X = self._data()
        window, eps = 12, 0.7
        parent = RollingWeightScheme(history, n_factors=3, epsilon=eps)
        combined = np.hstack([history, X])
        for start in range(X.shape[1] - window + 1):
            hist_win = combined[:, history.shape[1] + start - window : history.shape[1] + start]
            for r in order:
                expected = estimate_factors(
                    X[:, start : start + window], rolling_window_weights(hist_win, r, eps)
                )
                got = parent.with_factors(r).factors(X, start, window)
                assert np.array_equal(got, expected), (start, r)

    def test_sibling_cannot_exceed_parent(self):
        history, _ = self._data()
        parent = RollingWeightScheme(history, n_factors=3)
        with pytest.raises(ValueError):
            parent.with_factors(4)
        with pytest.raises(ValueError):
            parent.with_factors(2).with_factors(4)
        with pytest.raises(ValueError):
            parent.with_factors(0)

    def test_new_panel_recomputes_the_window_svd(self):
        history, X = self._data()
        scheme = RollingWeightScheme(history, n_factors=2)
        scheme.factors(X, 5, 12)
        X2 = X + 1.0
        hist_win = np.hstack([history, X2])[:, 15 + 5 - 12 : 15 + 5]
        expected = estimate_factors(X2[:, 5:17], rolling_window_weights(hist_win, 2))
        assert np.array_equal(scheme.factors(X2, 5, 12), expected)

    def test_forecast_study_runs_one_svd_per_window_and_scheme(self, monkeypatch):
        n_series, window, n_steps = 20, 30, 8
        shapes = []
        leading_vt = projection._leading_vt

        def counting(X, n_rows):
            shapes.append(X.shape)
            return leading_vt(X, n_rows)

        monkeypatch.setattr(projection, "_leading_vt", counting)
        experiment_forecast(window_sizes=(window,), rho_Ts=(0.0,), alphas=(1.0,), n_series=n_series,
                            n_steps=n_steps, n_reps=1, extra_factors=(0, 1, 3))
        # PC on each forecast window, plus one shared SVD per history window
        assert shapes == [(n_series, window)] * (2 * n_steps)
