import warnings
from dataclasses import MISSING, fields

import numpy as np
import pytest

from divproj.covariance import SparseCovariance
from divproj.exceptions import DimensionError, NumericalWarning, SingularGramError
from divproj.fdr import FarmTestResult, farm_stats, farm_test
from divproj import inference, projection
from divproj.forecast import AugmentedRegression, PCScheme, RollingForecastReport, fit_augmented, rolling_forecast
from divproj.inference import DoubleSelectionResult, double_selection
from divproj.projection import (
    FactorFit,
    PanelData,
    common_component,
    estimate_factors,
    estimate_loadings,
    fit,
    pc_factors,
    pseudo_inverse,
    residuals,
    space_distance,
    transform_matrix,
)
from divproj.simulation import SimConfig, SimOutput, generate_panel
from divproj.spectest import mean_hat
from divproj.weights import WeightMatrix, sieve_weights, walsh_hadamard_weights


def noiseless_panel(seed=0, n=20, t=15, r=2):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, r))
    F = rng.standard_normal((t, r))
    return B @ F.T, B, F


class TestEstimateFactors:
    def test_equal_weights_give_cross_sectional_mean(self):
        X = np.array([[1.0], [2.0], [3.0]])
        F = estimate_factors(X, np.ones((3, 1)))
        assert F[0, 0] == pytest.approx(2.0)

    def test_noiseless_affine_transform(self):
        X, B, F = noiseless_panel()
        W = walsh_hadamard_weights(20, 3)
        H = W.values.T @ B / 20
        np.testing.assert_allclose(estimate_factors(X, W), F @ H.T, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        X1, X2 = rng.standard_normal((2, 8, 11))
        W = walsh_hadamard_weights(8, 2)
        lhs = estimate_factors(2.5 * X1 - 4.0 * X2, W)
        rhs = 2.5 * estimate_factors(X1, W) - 4.0 * estimate_factors(X2, W)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            estimate_factors(np.ones((4, 5)), np.ones((3, 1)))


class TestEstimateLoadings:
    def test_reduces_to_ols(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((6, 3))
        F = np.eye(3)
        B = estimate_loadings(X, F)
        np.testing.assert_allclose(B, X @ F @ np.linalg.inv(F.T @ F), atol=1e-12)

    def test_noiseless_exact_fit(self):
        X, B, F = noiseless_panel()
        W = walsh_hadamard_weights(20, 2)
        fr = fit(X, W)
        np.testing.assert_allclose(fr.loadings @ fr.factors.T, X, atol=1e-8)

    def test_tiny_instance_vs_normal_equations(self):
        # N=2, T=3, R=1: b_i = sum_t x_it f_t / sum_t f_t^2
        X = np.array([[1.0, 2.0, -1.0], [0.5, 0.0, 3.0]])
        f = np.array([[0.3], [-1.2], [2.0]])
        expected = X @ f / float(f.ravel() @ f.ravel())
        np.testing.assert_allclose(estimate_loadings(X, f), expected, atol=1e-12)

    def test_singular_gram_falls_back_to_pinv(self):
        X, B, F = noiseless_panel(r=1)
        W = walsh_hadamard_weights(20, 3)  # R=3 > r=1, noiseless: singular gram
        Fhat = estimate_factors(X, W)
        with pytest.warns(NumericalWarning):
            Bhat = estimate_loadings(X, Fhat)
        np.testing.assert_allclose(Bhat @ Fhat.T, X, atol=1e-8)


class TestResiduals:
    def test_noiseless_zero(self):
        X, _, _ = noiseless_panel()
        fr = fit(X, walsh_hadamard_weights(20, 2))
        assert np.max(np.abs(fr.residuals)) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_algebraic_identities(self, seed):
        rng = np.random.default_rng(seed)
        n, t, r = rng.integers(4, 30), rng.integers(4, 30), rng.integers(1, 4)
        X = rng.standard_normal((n, t))
        W = walsh_hadamard_weights(n, r)
        fr = fit(X, W)
        scale = np.max(np.abs(X))
        assert np.max(np.abs(W.values.T @ fr.residuals)) < 1e-10 * scale
        assert np.max(np.abs(fr.residuals @ fr.factors)) < 1e-10 * scale * np.max(np.abs(fr.factors))

    def test_shape_check(self):
        with pytest.raises(DimensionError):
            residuals(np.ones((3, 4)), np.ones((3, 2)), np.ones((5, 2)))


class TestCommonComponent:
    def test_noiseless_recovers_panel(self):
        X, B, F = noiseless_panel()
        fr = fit(X, walsh_hadamard_weights(20, 2))
        np.testing.assert_allclose(common_component(fr.loadings, fr.factors), X, atol=1e-8)

    def test_equals_panel_minus_residuals(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10, 14))
        fr = fit(X, walsh_hadamard_weights(10, 2))
        np.testing.assert_allclose(
            common_component(fr.loadings, fr.factors), X - fr.residuals, atol=1e-12
        )

    def test_error_shrinks_with_dimension(self):
        errs = {}
        for size in (100, 300):
            cfg = SimConfig(n_series=size, n_periods=size, n_factors_true=1, seed=9)
            per_rep = []
            for rep in range(3):
                sim = generate_panel(cfg, replication=rep)
                fr = fit(sim.panel.X, sieve_weights(sim.z_chars, 1))
                truth = sim.B_true @ sim.F_true.T
                per_rep.append(np.linalg.norm(fr.common_component() - truth) / np.linalg.norm(truth))
            errs[size] = np.mean(per_rep)
        assert errs[300] < errs[100]


class TestPCFactors:
    def test_rank_one_panel(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal(12)
        f = rng.standard_normal(9)
        fr = pc_factors(np.outer(b, f), 1)
        corr = np.corrcoef(fr.factors[:, 0], f)[0, 1]
        assert abs(corr) == pytest.approx(1.0, abs=1e-10)

    def test_gram_normalization(self):
        rng = np.random.default_rng(4)
        fr = pc_factors(rng.standard_normal((15, 21)), 3)
        np.testing.assert_allclose(fr.gram, np.eye(3), atol=1e-10)

    def test_small_panel_vs_eigendecomposition(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((3, 3))
        fr = pc_factors(X, 2)
        eigval, eigvec = np.linalg.eigh(X.T @ X)
        top = eigvec[:, ::-1][:, :2]
        # compare spans: projections must agree
        P_est = fr.factors @ np.linalg.pinv(fr.factors)
        P_true = top @ top.T
        np.testing.assert_allclose(P_est, P_true, atol=1e-10)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((10, 8))
        fr = pc_factors(X, 2)
        assert np.max(np.abs(fr.residuals @ fr.factors)) < 1e-10 * np.max(np.abs(X))

    def test_too_many_factors(self):
        with pytest.raises(DimensionError):
            pc_factors(np.ones((4, 6)), 5)

    def test_negative_factor_count(self):
        with pytest.raises(DimensionError, match="R must be non-negative"):
            pc_factors(np.ones((30, 60)), -1)

    def test_zero_factors(self):
        X = np.random.default_rng(9).standard_normal((30, 60))
        fr = pc_factors(X, 0)
        assert fr.factors.shape == (60, 0)
        np.testing.assert_array_equal(fr.residuals, X)


def largest_angle_sine(a, b):
    """Sine of the largest principal angle between the row spaces of orthonormal a and b."""
    return float(np.linalg.norm(a.T - b.T @ (b @ a.T), 2))


def two_factor_panel(n, t, seed=0):
    """Two strong factors plus unit noise: a wide gap after the second eigenvalue."""
    rng = np.random.default_rng(seed)
    B = 3.0 * rng.standard_normal((n, 2))
    F = rng.standard_normal((t, 2))
    return B @ F.T + rng.standard_normal((n, t))


def leading_vt(X, n_rows):
    """The leading rows of V' of the whole panel: its one window in `_window_vts`."""
    return projection._window_vts(X, X.shape[1], n_rows, [0])[0]


class TestLeadingVt:
    """`_window_vts` takes a window's X'X eigenvectors when T <= N and its thin SVD when T > N."""

    @pytest.mark.parametrize("shape", [(60, 25), (25, 25), (15, 40)])
    def test_rows_are_orthonormal(self, shape):
        X = two_factor_panel(*shape, seed=1)
        vt = leading_vt(X, 5)
        assert vt.shape == (5, shape[1]) and vt.flags.c_contiguous
        np.testing.assert_allclose(vt @ vt.T, np.eye(5), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(200, 60), (60, 60), (40, 90)])
    @pytest.mark.parametrize("n_rows", [2, 5])
    def test_row_space_matches_svd(self, shape, n_rows):
        X = two_factor_panel(*shape, seed=2)
        reference = np.linalg.svd(X, full_matrices=False)[2][:n_rows]
        assert largest_angle_sine(leading_vt(X, n_rows), reference) <= 1e-10

    def test_rank_one_panel_with_tall_shape(self):
        rng = np.random.default_rng(3)
        b, f = rng.standard_normal(12), rng.standard_normal(9)
        vt = leading_vt(np.outer(b, f), 2)
        assert np.all(np.isfinite(vt))
        np.testing.assert_allclose(vt @ vt.T, np.eye(2), rtol=0, atol=1e-12)
        assert abs(vt[0] @ f) / np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)

    def test_pc_forecast_windows_make_no_svd(self, monkeypatch):
        """With T <= N every window's PC factors come from an eigendecomposition."""
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        rng = np.random.default_rng(4)
        X = two_factor_panel(30, 40, seed=4)
        y = rng.standard_normal(40)
        rolling_forecast(y, X, window=20, steps=15, scheme=PCScheme(2))
        assert calls == []
        pc_factors(X, 2)  # T > N still takes the thin SVD
        assert calls == [X.shape]


class TestTransformMatrix:
    def test_oracle_weights(self):
        rng = np.random.default_rng(11)
        B = rng.standard_normal((30, 2))
        H, svals, rank = transform_matrix(B, B)
        np.testing.assert_allclose(H, B.T @ B / 30, atol=1e-12)
        assert rank == 2
        assert np.all(np.linalg.eigvalsh(H) > 0)

    def test_orthogonal_weights_flagged(self):
        B = np.zeros((8, 1)); B[0, 0] = 1.0
        W = np.zeros((8, 1)); W[1, 0] = 1.0
        H, svals, rank = transform_matrix(W, B)
        assert rank == 0
        assert np.all(H == 0)

    def test_factor_strength_scaling(self):
        # loadings scale like N^{-(1-alpha)/2}; at alpha=0.5 the smallest
        # singular value of H should shrink by about (1/4)^{1/4} from N=100
        # to N=400
        nus = {}
        for size in (100, 400):
            cfg = SimConfig(n_series=size, n_periods=50, n_factors_true=2,
                            alpha_strength=0.5, seed=9)
            vals = []
            for rep in range(10):
                sim = generate_panel(cfg, replication=rep)
                _, svals, rank = transform_matrix(sieve_weights(sim.z_chars, 2), sim.B_true)
                vals.append(svals[rank - 1])
            nus[size] = np.mean(vals)
        ratio = nus[400] / nus[100]
        assert 0.55 < ratio < 0.9  # theory: (100/400)^{0.25} ~ 0.707


class TestSpaceDistance:
    def test_exact_factors(self):
        rng = np.random.default_rng(12)
        F = rng.standard_normal((20, 2))
        d = space_distance(F, F, np.eye(2))
        assert d.proj_overlap == pytest.approx(0.0, abs=1e-10)
        assert d.adjusted_distance == pytest.approx(0.0, abs=1e-10)

    def test_extra_column_spans_truth(self):
        rng = np.random.default_rng(13)
        F = rng.standard_normal((25, 1))
        extra = rng.standard_normal((25, 1))
        F_big = np.hstack([F, extra])
        H = np.array([[1.0], [0.0]])
        d = space_distance(F_big, F, H)
        assert d.proj_overlap == pytest.approx(0.0, abs=1e-10)

    def test_projection_estimate_quality_at_scale(self):
        cfg = SimConfig(n_series=200, n_periods=200, n_factors_true=2, alpha_strength=1.0, seed=9)
        sim = generate_panel(cfg, replication=0)
        W = sieve_weights(sim.z_chars, 2)
        H, _, _ = transform_matrix(W, sim.B_true)
        fr = fit(sim.panel.X, W)
        d = space_distance(fr.factors, sim.F_true, H)
        assert d.proj_overlap < 0.2

    def test_adjusted_distance_shrinks_with_dimension(self):
        dist = {}
        for size in (100, 200):
            cfg = SimConfig(n_series=size, n_periods=size, n_factors_true=1,
                            alpha_strength=1.0, seed=9)
            vals = []
            for rep in range(6):
                sim = generate_panel(cfg, replication=rep)
                W = sieve_weights(sim.z_chars, 2)
                H, _, _ = transform_matrix(W, sim.B_true)
                fr = fit(sim.panel.X, W)
                vals.append(space_distance(fr.factors, sim.F_true, H).adjusted_distance)
            dist[size] = np.mean(vals)
        assert dist[200] < dist[100]

    def test_runs_at_large_t(self):
        rng = np.random.default_rng(16)
        F = rng.standard_normal((5000, 2))
        d = space_distance(F + 0.5 * rng.standard_normal((5000, 2)), F, np.eye(2))
        assert 0.0 < d.proj_overlap < 1.0
        assert 0.0 < d.adjusted_distance < 1.0

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_projector_formula(self, seed):
        """The T x rank basis form equals the T x T projector form, rank-deficient cases included."""
        rng = np.random.default_rng(seed)
        t, R, r = int(rng.integers(5, 30)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        F_est = rng.standard_normal((t, R))
        F_true = rng.standard_normal((t, r))
        H = rng.standard_normal((R, r))
        if seed % 3 == 1:  # duplicated estimated factor, rank-deficient transform
            F_est[:, -1] = F_est[:, 0]
            H[-1] = 0.0
        if seed % 3 == 2:  # a zero true factor
            F_true[:, -1] = 0.0

        def projector(a):
            u, s, _ = np.linalg.svd(a, full_matrices=False)
            u = u[:, s > 1e-10 * s[0]] if s[0] > 0 else u[:, :0]
            return u @ u.T

        P_est, P_true = projector(F_est), projector(F_true)
        P_adj = projector(F_est @ pseudo_inverse(H @ H.T) @ H)
        d = space_distance(F_est, F_true, H)
        assert d.proj_overlap == pytest.approx(np.linalg.norm(P_est @ P_true - P_true, 2), abs=1e-12)
        assert d.adjusted_distance == pytest.approx(np.linalg.norm(P_adj - P_true, 2), abs=1e-12)


class TestSingularGram:
    """Every least-squares step decides singularity by the same gram check."""

    @staticmethod
    def _data(duplicate):
        rng = np.random.default_rng(21)
        n, t = 30, 80
        X = rng.standard_normal((n, t))
        F = rng.standard_normal((t, 2))
        W = rng.standard_normal((n, 2))
        if duplicate:
            F, W = np.hstack([F, F[:, :1]]), np.hstack([W, W[:, :1]])
        return X, F, W, rng.standard_normal(t), rng.standard_normal(t)

    CALLS = {
        "fit": lambda X, F, W, y, g: fit(X, W),
        "estimate_loadings": lambda X, F, W, y, g: estimate_loadings(X, F),
        "fit_augmented": lambda X, F, W, y, g: fit_augmented(y, None, F),
        "farm_stats": lambda X, F, W, y, g: farm_stats(X, W),
        "farm_test": lambda X, F, W, y, g: farm_test(X, W),
        "double_selection": lambda X, F, W, y, g: double_selection(y, g, X, W),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("duplicate", [False, True])
    def test_one_warning_per_singular_gram(self, name, duplicate):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.CALLS[name](*self._data(duplicate))
        numerical = [w for w in caught if issubclass(w.category, NumericalWarning)]
        assert len(numerical) == int(duplicate), [str(w.message) for w in numerical]
        assert all(w.filename == __file__ for w in numerical)  # names the public call site

    def test_more_weights_than_series_names_the_caller(self):
        """A 2 x 3 ndarray: the dataclass's R > N warning and the singular gram's both name this file.

        `farm_stats` wraps a raw array as `fit` does, so it gives both too.
        """
        X = self._data(duplicate=False)[0][:2]
        for call in (fit, farm_stats):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call(X, np.arange(6.0).reshape(2, 3))
            assert sorted(w.category.__name__ for w in caught) == ["DegenerateWeightsWarning", "NumericalWarning"]
            assert all(w.filename == __file__ for w in caught), [(w.filename, w.lineno) for w in caught]

    def test_refit_of_a_duplicated_control_is_the_minimum_norm_answer(self, monkeypatch):
        """Selecting a control and its copy makes the refit gram singular: one warning, lstsq's answer."""
        X, _, _, y, g = self._data(duplicate=False)
        X[5] = X[3]
        supports = iter([3, 5])  # the outcome's lasso selects control 3, the treatment's its copy 5

        def select(G, c, *args):
            gamma = np.zeros(c.size)
            gamma[next(supports)] = 1.0
            return gamma

        monkeypatch.setattr(inference, "_penalized_equation", select)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = double_selection(y, g, X, None)
        numerical = [w for w in caught if issubclass(w.category, NumericalWarning)]
        assert len(numerical) == 1 and numerical[0].filename == __file__, [str(w.message) for w in numerical]
        assert res.selected.tolist() == [3, 5]
        D = X[[3, 5]].T
        for got, resp in [(res.gamma_hat, y), (res.theta_hat, g)]:
            np.testing.assert_allclose(got[[3, 5]], np.linalg.lstsq(D, resp, rcond=None)[0], rtol=0, atol=1e-8)
        assert np.count_nonzero(res.gamma_hat) == np.count_nonzero(res.theta_hat) == 2

    def test_farm_stats_with_a_duplicated_weight_is_the_minimum_norm_answer(self):
        """The intercept regression with a repeated factor: one warning, and lstsq's intercepts and z-statistics."""
        X, _, W, _, _ = self._data(duplicate=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            alpha_hat, z = farm_stats(X, W)
        assert sum(issubclass(w.category, NumericalWarning) for w in caught) == 1
        t = X.shape[1]
        F = estimate_factors(X, W)
        design = np.hstack([np.ones((t, 1)), F])
        coef = np.linalg.lstsq(design, X.T, rcond=None)[0]
        Fc = F - F.mean(axis=0)
        weight = 1.0 - Fc @ np.linalg.lstsq(Fc.T @ Fc / t, F.mean(axis=0), rcond=None)[0]
        se = np.sqrt(np.sum(weight**2) * np.mean((X.T - design @ coef) ** 2, axis=0)) / t
        np.testing.assert_allclose(alpha_hat, coef[0], rtol=0, atol=1e-8)
        np.testing.assert_allclose(z, coef[0] / se, rtol=1e-8, atol=1e-8)

    def test_a_stack_warns_once_per_singular_member(self):
        rng = np.random.default_rng(22)
        A = rng.standard_normal((6, 40, 3))
        A[[1, 4], :, 2] = A[[1, 4], :, 0]
        grams, rhs = A.mT @ A, A.mT @ rng.standard_normal((6, 40, 2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x = projection._solve_gram(grams, rhs)
            singles = np.stack([projection._solve_gram(g, b) for g, b in zip(grams, rhs)])
        assert sum(issubclass(w.category, NumericalWarning) for w in caught) == 2 + 2
        assert np.array_equal(x, singles)
        with pytest.raises(SingularGramError):
            projection._solve_gram(grams, rhs, strict=True)

    def test_mean_hat_raises(self):
        X, F, W, _, _ = self._data(duplicate=True)
        with pytest.raises(SingularGramError):
            mean_hat(F, W, np.eye(X.shape[0]))


@pytest.mark.parametrize("call", [fit, farm_stats, farm_test])
def test_weight_arrays_are_validated_before_use(call):
    """A NaN weight raises WeightMatrix's error, not the SVD's LinAlgError (itself a ValueError)."""
    W = np.ones((12, 2))
    W[3, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        call(np.random.default_rng(3).standard_normal((12, 30)), W)


class TestPseudoInverse:
    def test_invertible_matrix(self):
        rng = np.random.default_rng(14)
        A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        np.testing.assert_allclose(pseudo_inverse(A), np.linalg.inv(A), atol=1e-10)

    def test_full_column_rank_left_inverse(self):
        rng = np.random.default_rng(15)
        H = rng.standard_normal((5, 3))
        np.testing.assert_allclose(pseudo_inverse(H) @ H, np.eye(3), atol=1e-10)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(pseudo_inverse(np.zeros((3, 2))), np.zeros((2, 3)))

    @pytest.mark.parametrize("seed", range(5))
    def test_moore_penrose_conditions(self, seed):
        A = np.random.default_rng(seed).standard_normal((5, 3))
        P = pseudo_inverse(A)
        np.testing.assert_allclose(A @ P @ A, A, atol=1e-10)
        np.testing.assert_allclose(P @ A @ P, P, atol=1e-10)
        np.testing.assert_allclose(A @ P, (A @ P).T, atol=1e-10)
        np.testing.assert_allclose(P @ A, (P @ A).T, atol=1e-10)


class TestGramAtScale:
    def test_gram_stays_invertible_with_extra_factors(self):
        # working factors beyond the true count leave the factor gram
        # invertible, with N * lambda_min bounded away from zero
        cfg = SimConfig(n_series=200, n_periods=200, n_factors_true=1, alpha_strength=1.0, seed=9)
        for rep in range(5):
            sim = generate_panel(cfg, replication=rep)
            fr = fit(sim.panel.X, sieve_weights(sim.z_chars, 3))
            lam_min = np.linalg.eigvalsh(fr.gram)[0]
            assert lam_min > 0
            assert 200 * lam_min > 0.005


class TestPanelData:
    def test_validation(self):
        with pytest.raises(ValueError):
            PanelData(np.array([[1.0, np.nan]]))
        p = PanelData(np.ones((2, 3)), series_ids=["a", "b"])
        assert p.n_series == 2 and p.n_periods == 3


@pytest.mark.parametrize(
    "cls",
    [SparseCovariance, FactorFit, PanelData, WeightMatrix, SimOutput, AugmentedRegression, RollingForecastReport,
     DoubleSelectionResult, FarmTestResult],
    ids=lambda cls: cls.__name__,
)
def test_array_holding_results_compare_by_identity(cls):
    """== on two results holding arrays is identity, not numpy's ambiguous truth value, and hash() works."""

    def make():
        return cls(**{f.name: np.ones((2, 2)) for f in fields(cls) if f.default is MISSING})

    a, b = make(), make()
    assert a == a and not a == b and a != b
    assert len({a, b, a}) == 2
