import numpy as np
import pytest
from scipy.stats import norm

from divproj import fdr
from divproj.fdr import _two_sided_p, bh_reject, farm_stats, farm_test
from divproj.simulation import SimConfig, generate_panel, rep_rng
from divproj.weights import sieve_weights, walsh_hadamard_weights


class TestFarmStats:
    def test_pure_factor_panel_has_zero_means(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((16, 2))
        F = rng.standard_normal((40, 2))
        X = B @ F.T
        alpha, z = farm_stats(X, walsh_hadamard_weights(16, 2))
        assert np.max(np.abs(alpha)) < 1e-10

    def test_constant_shift_recovered(self):
        rng = np.random.default_rng(1)
        X = 5.0 + rng.standard_normal((20, 400))
        # a sign-balanced weight column, so the constant cannot masquerade
        # as a factor and lands in the intercept instead
        from divproj.weights import WeightMatrix

        W = WeightMatrix(np.tile([1.0, -1.0], 10)[:, None])
        alpha, z = farm_stats(X, W)
        np.testing.assert_allclose(alpha, np.full(20, 5.0), atol=0.3)
        assert np.all(z > 10)

    def test_pure_noise_statistics_standardized(self):
        all_z = []
        for rep in range(200):
            rng = rep_rng(77, rep)
            X = rng.standard_normal((20, 500))
            _, z = farm_stats(X, walsh_hadamard_weights(20, 1))
            all_z.append(z)
        zs = np.concatenate(all_z)
        assert abs(np.mean(zs)) < 0.05
        assert 0.95 < np.std(zs) < 1.05

    @pytest.mark.parametrize("c", [0.1, 3.0])
    def test_scale_invariance(self, c):
        rng = np.random.default_rng(2)
        X = 1.0 + rng.standard_normal((10, 80))
        _, z1 = farm_stats(X, walsh_hadamard_weights(10, 2))
        _, z2 = farm_stats(c * X, walsh_hadamard_weights(10, 2))
        np.testing.assert_allclose(z2, z1, rtol=1e-10)


class TestBHReject:
    def test_all_ones(self):
        assert bh_reject(np.ones(10), 0.05).size == 0

    def test_all_zeros(self):
        np.testing.assert_array_equal(bh_reject(np.zeros(5), 0.05), np.arange(5))

    def test_worked_example(self):
        # thresholds at q=0.05, N=3: 0.0167, 0.0333, 0.05
        rejected = bh_reject(np.array([0.001, 0.02, 0.9]), 0.05)
        np.testing.assert_array_equal(rejected, [0, 1])

    def test_step_up_rescues_smaller_ranks(self):
        # p_(1) misses its own threshold but p_(2) passes, so both reject
        rejected = bh_reject(np.array([0.03, 0.032]), 0.05)
        np.testing.assert_array_equal(rejected, [0, 1])

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_in_pvalues(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(size=40)
        base = set(bh_reject(p, 0.1).tolist())
        j = rng.integers(40)
        p2 = p.copy()
        p2[j] *= 0.1
        shrunk = set(bh_reject(p2, 0.1).tolist())
        assert base <= shrunk

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            bh_reject(np.array([0.5]), 0.0)


class TestFarmTest:
    def test_result_fields_consistent(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((12, 100))
        res = farm_test(X, walsh_hadamard_weights(12, 1), q=0.1)
        assert res.p_values.shape == (12,)
        assert np.all((res.p_values >= 0) & (res.p_values <= 1))
        np.testing.assert_array_equal(res.rejected, bh_reject(res.p_values, 0.1))

    def test_global_null_false_discoveries_controlled(self):
        """Factor adjustment keeps BH in control under strong factors.

        Under the global null every rejection is false, so the empirical
        FDR equals the fraction of replications with any rejection.
        """
        cfg = SimConfig(n_series=200, n_periods=200, n_factors_true=1, alpha_strength=1.0, seed=13)
        any_rejection = 0
        n_reps = 200
        for rep in range(n_reps):
            sim = generate_panel(cfg, replication=rep)
            res = farm_test(sim.panel.X, sieve_weights(sim.z_chars, 2), q=0.1)
            any_rejection += int(res.rejected.size > 0)
        assert any_rejection / n_reps <= 0.15

    def test_signal_is_detected(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 300))
        X[:3] += 1.0  # three series with nonzero means
        res = farm_test(X, walsh_hadamard_weights(30, 1), q=0.1)
        assert {0, 1, 2} <= set(res.rejected.tolist())


# |z| up to 37, where 2 P(N(0,1) > |z|) is about 5.7e-300, still a normal double
Z_GRID = np.concatenate([np.linspace(-37.0, 37.0, 7401), np.geomspace(1e-300, 37.0, 1000)])


class TestTwoSidedP:
    """p = erfc(|z| / sqrt 2) against scipy's normal tail as an independent reference."""

    def test_matches_scipy_within_1e_12_relative(self):
        np.testing.assert_allclose(_two_sided_p(Z_GRID), 2.0 * norm.sf(np.abs(Z_GRID)), rtol=1e-12, atol=0.0)

    def test_zero_gives_one(self):
        assert _two_sided_p(0.0) == 1.0 and _two_sided_p(-0.0) == 1.0
        np.testing.assert_array_equal(_two_sided_p(np.zeros((2, 3))), np.ones((2, 3)))

    def test_farm_test_p_values(self, monkeypatch):
        monkeypatch.setattr(fdr, "farm_stats", lambda X, weights: (Z_GRID, Z_GRID))
        res = farm_test(None, None)
        expected = 2.0 * norm.sf(np.abs(Z_GRID))
        np.testing.assert_allclose(res.p_values, expected, rtol=1e-12, atol=0.0)
        assert res.p_values[np.flatnonzero(Z_GRID == 0.0)].tolist() == [1.0]

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_farm_test_rejects_what_scipy_p_values_reject(self, seed):
        cfg = SimConfig(n_series=200, n_periods=200, n_factors_true=2, alpha_strength=1.0, rho_T=0.0, seed=seed)
        sim = generate_panel(cfg)
        X = sim.panel.X.copy()
        X[:20] += 0.3
        for q in (0.01, 0.05, 0.1, 0.2):
            res = farm_test(X, sieve_weights(sim.z_chars, 3), q=q)
            np.testing.assert_array_equal(res.rejected, bh_reject(2.0 * norm.sf(np.abs(res.z_stats)), q))
