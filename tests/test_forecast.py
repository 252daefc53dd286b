import warnings

import numpy as np
import pytest

from divproj import forecast, projection
from divproj.exceptions import DegenerateWeightsWarning, DimensionError, InsufficientDataError, NumericalWarning
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
from divproj.weights import _warn_if_degenerate, rolling_window_weights, walsh_hadamard_weights


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
                self.n_factors = inner.n_factors
                self.seen = []

            def window_factors(self, X, start, window, count):
                for s in range(start, start + count):
                    self.seen.append((s, window, X[:, s : s + window].tobytes()))
                return self.inner.window_factors(X, start, window, count)

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
        F = scheme.window_factors(X, 0, 20, 1)
        assert F.shape == (1, 20, 1)
        # windows 3..7 need history columns from the combined series
        F3 = scheme.window_factors(X, 3, 20, 5)
        assert F3.shape == (5, 20, 1)

    def test_rolling_weight_scheme_insufficient_history(self):
        scheme = RollingWeightScheme(np.ones((4, 5)), n_factors=1)
        with pytest.raises(InsufficientDataError):
            scheme.window_factors(np.ones((4, 30)), 0, 20, 1)

    @pytest.mark.parametrize("window", [8, 15])
    def test_pc_scheme_equals_pc_factors(self, window):
        """Windows with T > N give pc_factors' factors bit for bit; with T <= N to FACTOR_RTOL (band grams)."""
        X = np.random.default_rng(10).standard_normal((10, 30))
        count = X.shape[1] - window + 1
        got = PCScheme(3).window_factors(X, 0, window, count)
        assert got.shape == (count, window, 3)
        for start in range(count):
            expected = pc_factors(X[:, start : start + window], 3).factors
            assert_factors_equal(got[start], expected, exact=window > X.shape[0])

    def test_pc_scheme_checks_the_rank(self):
        with pytest.raises(DimensionError):
            PCScheme(5).window_factors(np.ones((4, 30)), 0, 20, 1)


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
        # blocks of 1, 4 and 14 windows starting before, across and after the history's end
        for start, count in [(0, 1), (1, 4), (5, 14)]:
            for r in order:
                got = parent.with_factors(r).window_factors(X, start, window, count)
                for s in range(start, start + count):
                    hist_win = combined[:, history.shape[1] + s - window : history.shape[1] + s]
                    expected = estimate_factors(
                        X[:, s : s + window], rolling_window_weights(hist_win, r, eps)
                    )
                    assert np.array_equal(got[s - start], expected), (s, r)

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
        scheme.window_factors(X, 5, 12, 1)
        X2 = X + 1.0
        hist_win = np.hstack([history, X2])[:, 15 + 5 - 12 : 15 + 5]
        expected = estimate_factors(X2[:, 5:17], rolling_window_weights(hist_win, 2))
        assert np.array_equal(scheme.window_factors(X2, 5, 12, 1)[0], expected)

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

    def test_forecast_study_runs_one_eigendecomposition_per_window_and_scheme(self, monkeypatch):
        """With window <= N the window kernels are eigendecompositions of band submatrices."""
        n_series, window, n_steps = 40, 30, 8
        shapes = []
        gram_vt = projection._gram_vt
        monkeypatch.setattr(projection, "_gram_vt", lambda g, k: shapes.append(g.shape) or gram_vt(g, k))
        monkeypatch.setattr(projection, "_leading_vt", None)  # no window takes the per-window path
        experiment_forecast(window_sizes=(window,), rho_Ts=(0.0,), alphas=(1.0,), n_series=n_series,
                            n_steps=n_steps, n_reps=1, extra_factors=(0, 1, 3))
        assert shapes == [(window, window)] * (2 * n_steps)


# Window grams taken from a band product differ from the per-window grams in
# their last bits, so principal-components factors of windows with T <= N are
# compared at this tolerance, relative to the largest factor entry.
FACTOR_RTOL = 1e-12


def assert_factors_equal(got, expected, exact):
    """Factors equal bit for bit, or (exact=False) to FACTOR_RTOL times the largest |entry|."""
    if exact:
        assert np.array_equal(got, expected)
    else:
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= FACTOR_RTOL * np.max(np.abs(expected))


def per_window_reference(y, X, window, steps, factors_of, h=1):
    """Factors and forecasts of rolling_forecast, one window and one fit at a time."""
    factors, forecasts = [], []
    for t in range(steps):
        F = factors_of(t, X[:, t : t + window])
        obs = np.column_stack([np.ones(window), y[t : t + window]])
        model = fit_augmented(y[t : t + window], obs, F, lead=h)
        factors.append(F)
        forecasts.append(predict(model, F[-1], obs[-1]))
    return np.stack(factors), np.array(forecasts)


def rolling_reference(history, X, r, eps):
    """Per-window factors from rolling_window_weights on the preceding history window."""
    combined = np.hstack([history, X])
    t_pre = history.shape[1]

    def factors_of(t, win):
        hist_win = combined[:, t_pre + t - win.shape[1] : t_pre + t]
        return estimate_factors(win, rolling_window_weights(hist_win, r, eps))

    return factors_of


class Recorder:
    """A scheme wrapper that keeps the factor stacks rolling_forecast receives."""

    def __init__(self, inner):
        self.inner = inner
        self.n_factors = inner.n_factors
        self.blocks, self.stacks = [], []

    def window_factors(self, X, start, window, count):
        F = self.inner.window_factors(X, start, window, count)
        self.blocks.append((start, count))
        self.stacks.append(F)
        return F


def block_windows(monkeypatch, block, n, window, r):
    """Make rolling_forecast's blocks `block` windows long for an N-series panel and R factors.

    With window <= N a scheme is still asked for the factors of at least
    `window` windows at once; the length of those runs is returned.
    """
    monkeypatch.setattr(forecast, "_BLOCK_ENTRIES", block * (n + window) * (r + 2))
    return max(block, window) if window <= n else block


class TestBlockEquivalence:
    """Block-wise evaluation equals the per-window fits: factors bit for bit, forecasts to 1e-12."""

    BLOCK = 4

    @staticmethod
    def _data(n, window, steps, seed=20):
        rng = np.random.default_rng(seed)
        t_total = window + steps + 3
        return rng.standard_normal(t_total), rng.standard_normal((n, t_total)), rng.standard_normal((n, window + 2))

    def _check(self, y, X, window, steps, scheme, factors_of, h, blocks=None):
        """The per-window fits' factors: bit for bit for fixed weights (on these C-ordered panels) and for
        windows longer than N, to FACTOR_RTOL otherwise; their forecasts to 1e-12."""
        rec = Recorder(scheme)
        report = rolling_forecast(y, X, window, steps, rec, h=h)
        F_ref, f_ref = per_window_reference(y, X, window, steps, factors_of, h)
        exact = isinstance(scheme, FixedWeightScheme) or window > X.shape[0]
        assert_factors_equal(np.concatenate(rec.stacks), F_ref, exact)
        np.testing.assert_allclose(report.forecasts, f_ref, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(report.realized, y[window - 1 + h : window - 1 + h + steps])
        if blocks is not None:
            assert rec.blocks == blocks

    @pytest.mark.parametrize("n, window", [(12, 9), (6, 14)])  # T <= N (band grams), and T > N (thin SVD)
    @pytest.mark.parametrize("h", [1, 2])
    # a run of windows is max(BLOCK, window) = 9 windows long with T <= N, and BLOCK with T > N
    @pytest.mark.parametrize("steps", [1, BLOCK - 1, BLOCK, BLOCK + 1, 19])
    @pytest.mark.parametrize("kind", ["pc", "fixed", "rolling"])
    def test_scheme_matches_per_window_fits(self, monkeypatch, n, window, h, steps, kind):
        r = 2
        y, X, history = self._data(n, window, steps)
        run = block_windows(monkeypatch, self.BLOCK, n, window, r)
        if kind == "pc":
            scheme, factors_of = PCScheme(r), lambda t, win: pc_factors(win, r).factors
        elif kind == "fixed":
            W = walsh_hadamard_weights(n, r)
            scheme, factors_of = FixedWeightScheme(W), lambda t, win: estimate_factors(win, W)
        else:
            scheme, factors_of = RollingWeightScheme(history, r, 0.8), rolling_reference(history, X, r, 0.8)
        blocks = [(s, min(run, steps - s)) for s in range(0, steps, run)]
        self._check(y, X, window, steps, scheme, factors_of, h, blocks)

    @pytest.mark.parametrize("order", [(4, 2, 1), (1, 2, 4)])
    @pytest.mark.parametrize("n, window", [(12, 9), (6, 14)])
    @pytest.mark.parametrize("h", [1, 2])
    def test_rolling_siblings_in_either_order(self, monkeypatch, order, n, window, h):
        steps = 2 * self.BLOCK + 1
        y, X, history = self._data(n, window, steps, seed=21)
        parent = RollingWeightScheme(history, 4, 1.0)
        for r in order:
            block_windows(monkeypatch, self.BLOCK, n, window, r)
            self._check(y, X, window, steps, parent.with_factors(r), rolling_reference(history, X, r, 1.0), h)

    def test_default_block_size_across_its_boundary(self):
        n, window, r, h = 30, 20, 3, 1
        block = forecast._BLOCK_ENTRIES // ((n + window) * (r + 2))
        assert 1 < block < 100
        steps = block + 1
        y, X, _ = self._data(n, window, steps, seed=22)
        W = walsh_hadamard_weights(n, r)
        self._check(y, X, window, steps, FixedWeightScheme(W), lambda t, win: estimate_factors(win, W), h,
                    blocks=[(0, block), (block, 1)])


class TestBlockFallbacks:
    def test_singular_windows_warn_once_each(self, monkeypatch):
        """A block mixing singular and regular designs warns once per singular window."""
        n, window, steps, h = 8, 10, 30, 1
        rng = np.random.default_rng(23)
        y = rng.standard_normal(window + steps + h)
        y[12:30] = 4.0  # windows inside this stretch have a constant lag: intercept and lag collide
        X = rng.standard_normal((n, window + steps))
        singular = [t for t in range(steps) if np.ptp(y[t : t + window - h]) == 0.0]
        assert 0 < len(singular) < steps
        block_windows(monkeypatch, 7, n, window, 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = rolling_forecast(y, X, window, steps, PCScheme(2), h=h)
        numerical = [w for w in caught if issubclass(w.category, NumericalWarning)]
        assert len(numerical) == len(singular)
        assert all(str(w.message) == "4 x 4 gram matrix is singular to tolerance; using a pseudo-inverse"
                   for w in numerical)
        assert all(w.filename == __file__ for w in numerical)  # names the public call site
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericalWarning)
            _, expected = per_window_reference(y, X, window, steps, lambda t, win: pc_factors(win, 2).factors, h)
        np.testing.assert_allclose(report.forecasts, expected, rtol=1e-12, atol=0)

    def test_degenerate_rolling_weights_warn_once_per_window(self, monkeypatch):
        """History windows of rank one give an all-zero second weight: one warning per such window."""
        n, window, steps = 6, 8, 12
        rng = np.random.default_rng(24)
        history = np.zeros((n, window + 1))
        history[:, 4] = rng.standard_normal(n)
        X = rng.standard_normal((n, window + steps))
        X[:, :5] = 0.0
        y = rng.standard_normal(window + steps + 1)
        block_windows(monkeypatch, 5, n, window, 2)
        combined = np.hstack([history, X])
        t_pre = history.shape[1]
        expected = 0
        for t in range(steps):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rolling_window_weights(combined[:, t_pre + t - window : t_pre + t], 2)
            expected += sum(issubclass(w.category, DegenerateWeightsWarning) for w in caught)
        assert expected > 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rolling_forecast(y, X, window, steps, RollingWeightScheme(history, 2))
        degenerate = [w for w in caught if issubclass(w.category, DegenerateWeightsWarning)]
        assert len(degenerate) == expected
        assert {str(w.message) for w in degenerate} == {"rolling_window weights contain an all-zero column"}

    def test_collinear_weight_stack_warns_per_member(self):
        rng = np.random.default_rng(25)
        stack = rng.standard_normal((5, 10, 2))
        stack[1, :, 1] = 3.0 * stack[1, :, 0]
        stack[3, :, 1] = -stack[3, :, 0]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _warn_if_degenerate(stack, "rolling_window")
        assert [str(w.message) for w in caught] == ["rolling_window weights have collinear columns (rank 1 < 2)"] * 2

    @pytest.mark.parametrize("make", [lambda h: PCScheme(3), lambda h: RollingWeightScheme(h, 3)])
    def test_short_window_fails_before_any_eigendecomposition(self, monkeypatch, make):
        calls = []
        leading_vt, gram_vt = projection._leading_vt, projection._gram_vt
        monkeypatch.setattr(projection, "_leading_vt", lambda X, k: calls.append(X.shape) or leading_vt(X, k))
        monkeypatch.setattr(projection, "_gram_vt", lambda g, k: calls.append(g.shape) or gram_vt(g, k))
        rng = np.random.default_rng(26)
        # window - h = 5 < R + p + 1 = 6
        with pytest.raises(InsufficientDataError, match="T - h >= R"):
            rolling_forecast(rng.standard_normal(30), rng.standard_normal((10, 30)), window=6, steps=5,
                             scheme=make(rng.standard_normal((10, 7))))
        assert calls == []


class TestForecastArguments:
    @pytest.mark.parametrize("window, steps", [(20, 0), (20, -2), (0, 5), (-1, 5)])
    def test_window_and_steps_below_one(self, window, steps):
        rng = np.random.default_rng(27)
        with pytest.raises(ValueError, match="must be at least 1"):
            rolling_forecast(rng.standard_normal(40), rng.standard_normal((6, 40)), window=window, steps=steps,
                             scheme=PCScheme(1))


def test_blocks_bound_the_memory_of_a_study_sized_forecast(traced_peak):
    """One rolling forecast at the study's size stays below a stack of every window.

    N = 100, window 100, 50 steps, rolling weights with R = 5.  tracemalloc
    peaks: about 0.45 MB one window at a time, 0.6 MB in blocks of 11
    windows, 0.8 MB with the factors of all 50 windows asked for at once
    (one band gram serves them) and their loadings stacked 10 windows at a
    time, 1.6 MB with all 50 windows in one block; the bound is 1 MB.
    """
    rng = np.random.default_rng(28)
    n, window, steps = 100, 100, 50
    X = rng.standard_normal((n, window + steps))
    history = rng.standard_normal((n, window + 1))
    y = rng.standard_normal(window + steps + 1)
    rolling_forecast(y, X, window, steps, RollingWeightScheme(history, 5))  # numpy's one-time allocations
    assert traced_peak(lambda: rolling_forecast(y, X, window, steps, RollingWeightScheme(history, 5))) < 1 << 20


class TestBandGrams:
    """`projection._window_vts` takes each window gram from a band product over up to `window` windows."""

    @pytest.mark.parametrize("n, window", [(40, 9), (12, 12), (6, 14)])  # N > W, N = W, N < W (thin SVD)
    @pytest.mark.parametrize(
        "starts, n_bands",  # n_bands: {window: bands}; start > 0, windows across bands' boundaries, gaps
        [(range(0, 1), {9: 1, 12: 1}), (range(3, 25), {9: 3, 12: 2}), ([2, 3, 7, 19, 20, 29, 30], {9: 3, 12: 2})],
    )
    def test_window_grams_are_band_submatrices(self, monkeypatch, n, window, starts, n_bands):
        X = np.random.default_rng(30).standard_normal((n, window + 40))
        grams = []
        gram_vt = projection._gram_vt
        monkeypatch.setattr(projection, "_gram_vt", lambda g, k: grams.append(g) or gram_vt(g, k))
        vts = projection._window_vts(X, window, 3, starts)
        assert vts.shape == (len(starts), 3, window)
        expected = [projection._leading_vt(X[:, j : j + window], 3) for j in starts]
        if window > n:  # the thin SVD of each window, bit for bit
            assert len(grams) == 0
            assert np.array_equal(vts, np.stack(expected))
            return
        assert len(grams) == 2 * len(starts)  # the band's windows, then the expected per-window grams
        for g, j in zip(grams, starts):
            win = X[:, j : j + window]
            ref = win.T @ win
            assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref)), j
            assert g.base.shape[0] <= 2 * window - 1  # a principal submatrix of a band of at most 2 W - 1 columns
        assert len({id(g.base) for g in grams[: len(starts)]}) == n_bands[window]
        assert_factors_equal(projection._pc_scores(vts), projection._pc_scores(np.stack(expected)), exact=False)

    def test_pc_forecast_memory_does_not_grow_with_steps(self, traced_peak):
        rng = np.random.default_rng(31)
        n, window = 100, 60
        X = rng.standard_normal((n, 5 * window))
        y = rng.standard_normal(5 * window + 1)

        def run(steps):
            rolling_forecast(y, X, window, steps, PCScheme(3))

        run(window)  # numpy's one-time allocations
        assert traced_peak(run, 4 * window) <= 1.1 * traced_peak(run, window)
