import warnings

import numpy as np
import pytest

from divproj.exceptions import (
    DegenerateWeightsWarning,
    DimensionError,
    InsufficientDataError,
)
from divproj.projection import pc_factors
from divproj.weights import (
    WeightMatrix,
    _warn_if_degenerate,
    build_weights,
    check_diversified,
    hadamard_pattern_weights,
    initial_transform_weights,
    rolling_window_weights,
    sieve_weights,
    walsh_hadamard_weights,
)


class TestHadamardPattern:
    def test_n4_r2(self):
        W = hadamard_pattern_weights(4, 2)
        np.testing.assert_array_equal(W.values[:, 0], [1, 1, 1, 1])
        np.testing.assert_array_equal(W.values[:, 1], [1, -1, 1, -1])

    def test_n4_r3_third_column(self):
        W = hadamard_pattern_weights(4, 3)
        np.testing.assert_array_equal(W.values[:, 2], [1, 1, -1, -1])

    def test_truncation_n5(self):
        W = hadamard_pattern_weights(5, 2)
        np.testing.assert_array_equal(W.values[:, 1], [1, -1, 1, -1, 1])

    @pytest.mark.parametrize("n,r", [(3, 1), (7, 4), (16, 8), (33, 5)])
    def test_entries_are_signs(self, n, r):
        W = hadamard_pattern_weights(n, r)
        assert set(np.unique(W.values)) <= {-1.0, 1.0}
        assert W.values.shape == (n, r)

    def test_r_exceeds_n(self):
        with pytest.raises(DimensionError):
            hadamard_pattern_weights(3, 4)


class TestWalshHadamard:
    def test_h4(self):
        W = walsh_hadamard_weights(4, 4)
        expected = np.array(
            [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float
        )
        np.testing.assert_array_equal(W.values, expected)

    def test_submatrix_extraction(self):
        full = walsh_hadamard_weights(4, 4).values
        W = walsh_hadamard_weights(3, 2)
        np.testing.assert_array_equal(W.values, full[:3, :2])

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_orthogonality_at_powers_of_two(self, k):
        n = 2**k
        W = walsh_hadamard_weights(n, n)
        np.testing.assert_array_equal(W.values.T @ W.values, n * np.eye(n))

    def test_single_series(self):
        assert walsh_hadamard_weights(1, 1).values.tolist() == [[1.0]]

    def test_corner_of_the_sylvester_matrix(self):
        from scipy.linalg import hadamard

        for n in [*range(1, 301), 1200]:
            k = int(np.ceil(np.log2(n))) if n > 1 else 0
            full = hadamard(2**k, dtype=float)
            for r in range(1, min(n, 8) + 1):
                np.testing.assert_array_equal(walsh_hadamard_weights(n, r).values, full[:n, :r])

    def test_memory_grows_with_n_times_r(self, traced_peak):
        n, r = 2**20 + 1, 3  # the full Sylvester matrix would be 2^21 x 2^21
        assert traced_peak(walsh_hadamard_weights, n, r) < 64 * n * r


class TestSieve:
    def test_monomials(self):
        W = sieve_weights(np.array([1.0, 2.0]), 2)
        np.testing.assert_array_equal(W.values, [[1, 1], [2, 4]])

    def test_zero_characteristics_warn(self):
        with pytest.warns(DegenerateWeightsWarning) as record:
            W = sieve_weights(np.zeros(4), 1)
        assert np.all(W.values == 0)
        assert record[0].filename == __file__  # the warning names the caller

    def test_constant_characteristics_collinear_warn(self):
        with pytest.warns(DegenerateWeightsWarning):
            sieve_weights(np.ones(5), 2)

    def test_bounded_characteristic_keeps_entries_bounded(self):
        rng = np.random.default_rng(42)
        z = np.sin(rng.standard_normal(50))
        W = sieve_weights(z, 3)
        assert check_diversified(W).max_abs_entry <= 1.0


class TestRollingWindow:
    def _loadings(self, hist, r):
        return pc_factors(hist, r).loadings

    def test_tiny_epsilon_keeps_raw_loadings(self):
        rng = np.random.default_rng(0)
        hist = rng.standard_normal((8, 30))
        W = rolling_window_weights(hist, 2, epsilon=1e-12)
        np.testing.assert_allclose(W.values, self._loadings(hist, 2))

    def test_trimming_inactive_for_small_loadings(self):
        rng = np.random.default_rng(1)
        hist = 0.1 * rng.standard_normal((6, 40))
        B1 = self._loadings(hist, 2)
        assert np.max(np.abs(B1)) <= 1.0  # so max(1, eps*max) = 1
        W = rolling_window_weights(hist, 2, epsilon=1.0)
        np.testing.assert_allclose(W.values, B1)

    def test_large_loading_scaled_down(self):
        rng = np.random.default_rng(2)
        hist = 20.0 * rng.standard_normal((5, 50))  # loadings well above 1
        B1 = self._loadings(hist, 1)
        m = np.max(np.abs(B1[:, 0]))
        assert m > 1.0
        W = rolling_window_weights(hist, 1, epsilon=1.0)
        np.testing.assert_allclose(W.values[:, 0], B1[:, 0] / m)

    @pytest.mark.parametrize("eps", [0.5, 1.0, 3.0])
    def test_trimming_bound(self, eps):
        rng = np.random.default_rng(3)
        hist = 5 * rng.standard_normal((10, 25))
        B1 = self._loadings(hist, 3)
        W = rolling_window_weights(hist, 3, epsilon=eps)
        for k in range(3):
            bound = max(np.max(np.abs(B1[:, k])), 1.0 / eps)
            assert np.max(np.abs(W.values[:, k])) <= bound + 1e-12

    def test_insufficient_history(self):
        with pytest.raises(InsufficientDataError):
            rolling_window_weights(np.ones((5, 2)), 3)

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
    def test_epsilon_must_be_positive_and_finite(self, eps):
        hist = np.random.default_rng(4).standard_normal((5, 10))
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            rolling_window_weights(hist, 2, epsilon=eps)

    @pytest.mark.parametrize("r", [0, -1])
    def test_factor_count_below_one(self, r):
        with pytest.raises(DimensionError, match="R >= 1"):
            rolling_window_weights(np.random.default_rng(5).standard_normal((5, 10)), r)


class TestInitialTransform:
    def test_signs(self):
        W = initial_transform_weights(np.array([1.0, -1.0]), 2)
        np.testing.assert_array_equal(W.values, [[1, 1], [-1, 1]])

    def test_powers_single_series(self):
        with pytest.warns(DegenerateWeightsWarning):  # R > N is rank deficient
            W = initial_transform_weights(np.array([2.0]), 3)
        np.testing.assert_array_equal(W.values, [[2, 4, 8]])

    def test_zero_initial_observation_warns(self):
        with pytest.warns(DegenerateWeightsWarning) as record:
            initial_transform_weights(np.zeros(3), 1)
        assert record[0].filename == __file__  # the warning names the caller


@pytest.mark.parametrize("scheme, inputs", [("sieve", {"characteristics": np.ones(5)}), ("initial", {"x0": np.ones(5)})])
def test_build_weights_warning_names_the_caller(scheme, inputs):
    """Constant inputs give collinear power columns; the warning names this file, not the dispatch."""
    with pytest.warns(DegenerateWeightsWarning, match="collinear") as record:
        build_weights(scheme, 5, 2, **inputs)
    assert [w.filename for w in record] == [__file__]


class TestCollinearityCheck:
    """The rank behind the collinearity warning comes from the R x R gram W'W."""

    @staticmethod
    def _messages(values):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            _warn_if_degenerate(values, "sieve")
        return [str(w.message) for w in seen]

    def test_duplicated_column_warns(self):
        W = np.random.default_rng(0).standard_normal((50, 3))
        W[:, 2] = W[:, 0]
        assert self._messages(W) == ["sieve weights have collinear columns (rank 2 < 3)"]

    def test_near_collinear_pair_warns(self):
        x, z = np.random.default_rng(1).standard_normal((2, 50))
        W = np.column_stack([x, x + 1e-9 * z])
        s = np.linalg.svd(W, compute_uv=False)
        assert 1e-10 < s[-1] / s[0] < 1e-8
        assert self._messages(W) == ["sieve weights have collinear columns (rank 1 < 2)"]

    def test_well_conditioned_weights_are_silent(self):
        rng = np.random.default_rng(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sieve_weights(rng.uniform(-1.0, 1.0, 200), 3)
            sieve_weights(np.sin(rng.standard_normal(50)), 3)
            initial_transform_weights(rng.standard_normal(200), 3)
            # columns far from unit scale: their gram would overflow unscaled
            assert self._messages(1e160 * rng.standard_normal((30, 2))) == []


class TestDiagnostics:
    def test_ones_column(self):
        d = check_diversified(WeightMatrix(np.ones((7, 1))))
        assert d.max_abs_entry == 1.0
        assert d.min_eig_gram == pytest.approx(1.0)
        assert d.gram_condition == pytest.approx(1.0)

    def test_full_walsh(self):
        d = check_diversified(walsh_hadamard_weights(8, 8))
        assert d.min_eig_gram == pytest.approx(1.0)
        assert d.gram_condition == pytest.approx(1.0)

    def test_collinear_columns_have_zero_min_eig(self):
        with pytest.warns(DegenerateWeightsWarning):
            W = sieve_weights(np.full(6, 2.0), 2)
        d = check_diversified(W)
        assert d.min_eig_gram == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("c", [0.5, 2.0, 17.0])
    def test_scale_covariance(self, c):
        rng = np.random.default_rng(7)
        W = rng.standard_normal((12, 3))
        base = check_diversified(W)
        scaled = check_diversified(c * W)
        assert scaled.max_abs_entry == pytest.approx(c * base.max_abs_entry)
        assert scaled.min_eig_gram == pytest.approx(c**2 * base.min_eig_gram)
        assert scaled.gram_condition == pytest.approx(base.gram_condition)


class TestBuildWeights:
    def test_dispatch_aliases(self):
        assert build_weights("hadamard", 6, 2).scheme == "hadamard_pattern"
        assert build_weights("walsh", 6, 2).scheme == "walsh_hadamard"
        z = np.arange(1.0, 7.0)
        assert build_weights("sieve", 6, 2, characteristics=z).scheme == "sieve"
        assert build_weights("initial", 6, 2, x0=z).scheme == "initial_transform"

    def test_missing_inputs(self):
        with pytest.raises(ValueError):
            build_weights("sieve", 4, 1)
        with pytest.raises(ValueError):
            build_weights("rolling", 4, 1)
        with pytest.raises(ValueError):
            build_weights("no_such_scheme", 4, 1)
