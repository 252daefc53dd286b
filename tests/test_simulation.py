import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import divproj
from divproj import experiments
from divproj.experiments import (
    _worker_count,
    experiment_cov,
    experiment_forecast,
    experiment_postsel,
    experiment_spectest,
)
from divproj.simulation import (
    SimConfig,
    cross_section_cov,
    draw_idiosyncratic,
    draw_loadings,
    generate_panel,
    loading_scale,
    rep_rng,
    true_idio_cov,
)


def small_config(**kw):
    base = dict(n_series=16, n_periods=30, n_factors_true=1, seed=0)
    base.update(kw)
    return SimConfig(**base)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(alpha_strength=0.0)
        with pytest.raises(ValueError):
            small_config(rho_T=1.0)
        with pytest.raises(ValueError):
            small_config(n_series=10)  # 3 blocks of 4 do not fit


class TestGeneratePanel:
    def test_panel_identity(self):
        sim = generate_panel(small_config(n_factors_true=2))
        np.testing.assert_array_equal(
            sim.panel.X, sim.B_true @ sim.F_true.T + sim.U_true
        )

    def test_full_strength_has_no_downscaling(self):
        assert loading_scale(250, 1.0) == 1.0
        assert loading_scale(100, 0.5) == pytest.approx(100 ** (-0.25))

    def test_block_covariance_layout(self):
        cfg = small_config(rho_N=0.7, n_blocks=3, block_size=4)
        sigma = cross_section_cov(cfg)
        idx = np.arange(4)
        expected = 0.7 ** np.abs(idx[:, None] - idx[None, :])
        np.testing.assert_allclose(sigma[:4, :4], expected)
        np.testing.assert_allclose(sigma[12:, 12:], np.eye(4))
        assert np.all(sigma[:4, 4:8] == 0)

    def test_zero_factors(self):
        sim = generate_panel(small_config(n_factors_true=0))
        assert sim.B_true.shape == (16, 0)
        np.testing.assert_array_equal(sim.panel.X, sim.U_true)

    def test_determinism(self):
        cfg = small_config(seed=123)
        a = generate_panel(cfg, replication=5)
        b = generate_panel(cfg, replication=5)
        np.testing.assert_array_equal(a.panel.X, b.panel.X)
        c = generate_panel(cfg, replication=6)
        assert not np.array_equal(a.panel.X, c.panel.X)

    @pytest.mark.parametrize("rho_T", [0.0, 0.7])
    def test_equals_the_out_of_place_draw(self, rho_T):
        """Bit for bit B F' + draw_idiosyncratic(ubar), from the same generator."""
        cfg = SimConfig(n_series=30, n_periods=40, n_factors_true=2, rho_T=rho_T, seed=4)
        sim = generate_panel(cfg, replication=3)
        rng = rep_rng(4, 3)
        z = np.sin(rng.standard_normal(30))
        B = draw_loadings(z, rng.standard_normal((30, 2)), cfg.alpha_strength)
        F = rng.standard_normal((40, 2))
        U = draw_idiosyncratic(cfg, rng.standard_normal((30, 40)))
        np.testing.assert_array_equal(sim.U_true, U)
        np.testing.assert_array_equal(sim.panel.X, B @ F.T + U)

    def test_peak_memory_is_two_and_a_half_panels(self, traced_peak):
        """The draw, the coloring and X = B F' + U share two N x T arrays."""
        n, t = 200, 201
        cfg = SimConfig(n_series=n, n_periods=t, n_factors_true=2, rho_T=0.7, seed=1)
        assert traced_peak(generate_panel, cfg) < 2.5 * n * t * 8

    def test_rep_rng_streams_are_independent(self):
        a = rep_rng(1, 0, 0).standard_normal(4)
        b = rep_rng(1, 0, 1).standard_normal(4)
        c = rep_rng(1, 1, 0).standard_normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestAR1Draw:
    # an identity `ubar` makes the draw the coloring operator M itself, so
    # M'M and MM' are the exact time and cross-section covariances
    @pytest.mark.parametrize("rho", [0.5, 0.9, -0.3])
    def test_serial_covariance_is_exact(self, rho):
        cfg = small_config(n_series=40, n_periods=40, rho_N=0.0, rho_T=rho)
        M = draw_idiosyncratic(cfg, np.eye(40))
        idx = np.arange(40)
        target = rho ** np.abs(idx[:, None] - idx[None, :]) / (1 - rho**2)
        np.testing.assert_allclose(M.T @ M, target, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rho", [0.5, 0.7, 0.9, -0.3])
    def test_cross_section_covariance_is_exact(self, rho):
        cfg = small_config(n_series=40, n_periods=40, rho_N=rho, rho_T=0.0)
        M = draw_idiosyncratic(cfg, np.eye(40))
        np.testing.assert_allclose(M @ M.T, cross_section_cov(cfg), rtol=0, atol=1e-12)

    def test_draw_leaves_its_argument_unchanged(self):
        cfg = small_config(rho_N=0.7, rho_T=0.5)
        ubar = rep_rng(0).standard_normal((16, 30))
        before = ubar.copy()
        out = draw_idiosyncratic(cfg, ubar)
        np.testing.assert_array_equal(ubar, before)
        assert not np.shares_memory(out, ubar)

    @pytest.mark.parametrize("n,t", [(4000, 50), (50, 4000)])
    def test_memory_is_linear_in_panel_size(self, n, t, traced_peak):
        # an N x N or T x T factor would be 80 times the panel here
        cfg = small_config(n_series=n, n_periods=t, rho_N=0.7, rho_T=0.5)
        ubar = rep_rng(0).standard_normal((n, t))
        assert traced_peak(draw_idiosyncratic, cfg, ubar) <= 4 * 8 * n * t

    def test_draw_does_not_depend_on_blas_threads(self):
        """Seeded panels hash the same with one and with two OpenBLAS threads.

        Each thread count runs in a fresh interpreter, because OpenBLAS reads
        the setting when numpy is imported.  On a one-core host both runs use
        a single thread, and the test cannot tell them apart.
        """
        script = (
            "import hashlib\n"
            "from divproj.simulation import SimConfig, generate_panel\n"
            "for n, t, rho in [(300, 300, 0.7), (200, 201, 0.0), (1000, 200, 0.5)]:\n"
            "    cfg = SimConfig(n_series=n, n_periods=t, n_factors_true=2, rho_T=rho, seed=3)\n"
            "    print(hashlib.sha256(generate_panel(cfg, replication=1).panel.X.tobytes()).hexdigest())\n"
        )
        src = str(Path(divproj.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, check=True)
            digests.append(run.stdout)
        assert len(digests[0].split()) == 3
        assert digests[0] == digests[1]


class TestMoments:
    def test_iid_case_has_identity_covariance(self):
        cfg = SimConfig(n_series=12, n_periods=5000, n_factors_true=0,
                        rho_T=0.0, rho_N=0.0, seed=21)
        sim = generate_panel(cfg)
        sample_cov = sim.U_true @ sim.U_true.T / 5000
        assert np.max(np.abs(sample_cov - np.eye(12))) < 0.05

    def test_serial_and_block_moments(self):
        # one long panel checks both the lag-1 autocorrelation and the
        # within-block cross correlations
        cfg = SimConfig(n_series=12, n_periods=5000, n_factors_true=0,
                        rho_T=0.5, rho_N=0.7, seed=22)
        sim = generate_panel(cfg)
        U = sim.U_true
        lag1 = [np.corrcoef(U[i, 1:], U[i, :-1])[0, 1] for i in range(12)]
        assert abs(np.mean(lag1) - 0.5) < 0.05
        corr = np.corrcoef(U)
        for i, j in [(0, 1), (0, 2), (0, 3), (4, 5)]:
            assert abs(corr[i, j] - 0.7 ** abs(i - j)) < 0.05
        # series in different blocks are uncorrelated
        assert abs(corr[0, 4]) < 0.05

    def test_true_idio_cov_scales_with_serial_correlation(self):
        cfg = small_config(rho_T=0.9)
        np.testing.assert_allclose(true_idio_cov(cfg), cross_section_cov(cfg) / (1 - 0.81))


class TestExperimentDrivers:
    def test_cov_experiment_rows(self):
        rows = experiment_cov(sizes=(40,), alphas=(1.0,), rho_Ts=(0.1,), n_reps=2,
                              seed=0, C_values=(2.0,), extra_factors=(0, 1))
        methods = {r["method"] for r in rows}
        assert methods == {"dp_R1", "dp_R2", "pc", "known_factor"}
        for r in rows:
            assert r["err_cov_mean"] > 0 and r["err_inv_mean"] > 0

    def test_known_factor_is_exact_without_noise(self):
        # direct check of the benchmark path: noiseless panel means the
        # thresholded residual covariance is identically zero
        from divproj.projection import estimate_loadings

        rng = np.random.default_rng(3)
        B = rng.standard_normal((10, 1))
        F = rng.standard_normal((20, 1))
        X = B @ F.T
        B_hat = estimate_loadings(X, F)
        assert np.max(np.abs(X - B_hat @ F.T)) < 1e-10

    def test_forecast_experiment_identical_methods_give_unit_ratio(self):
        from divproj.forecast import PCScheme, rolling_forecast

        rng = np.random.default_rng(4)
        y = rng.standard_normal(60)
        X = rng.standard_normal((8, 60))
        a = rolling_forecast(y, X, 20, 10, PCScheme(1))
        b = rolling_forecast(y, X, 20, 10, PCScheme(1))
        assert a.mse == b.mse

    def test_forecast_experiment_smoke(self):
        rows = experiment_forecast(window_sizes=(40,), rho_Ts=(0.0,), alphas=(1.0,),
                                   n_series=20, n_steps=5, n_reps=2, seed=0,
                                   extra_factors=(0,))
        assert {r["method"] for r in rows} == {"characteristic_R2", "rolling_R2"}

    def test_forecast_without_serial_correlation_matches_pc(self):
        # with iid noise the PC benchmark is hard to beat and the relative
        # MSE sits near one
        rows = experiment_forecast(window_sizes=(100,), rho_Ts=(0.0,), alphas=(1.0,),
                                   n_reps=8, seed=3, schemes=("characteristic",),
                                   extra_factors=(0,), threads=1)
        ratio = rows[0]["mse_ratio_mean"]
        assert 0.85 < ratio < 1.2

    def test_postsel_experiment_smoke(self):
        samples, rows = experiment_postsel(r_values=(0,), working_factors=(1,),
                                           n_series=40, n_periods=60, n_reps=3, seed=0)
        assert set(samples) == {"r0_dp_R1", "r0_plain"}
        assert all(len(v) == 3 for v in samples.values())

    def test_postsel_confounder_enters_only_with_true_factors(self):
        kw = dict(r_values=(0, 2), working_factors=(1,), n_series=40, n_periods=60,
                  n_reps=3, seed=0)
        base_samples, base_rows = experiment_postsel(**kw)
        samples, rows = experiment_postsel(factor_coef=0.7, **kw)
        assert rows[:2] == base_rows[:2]  # no true factor at r = 0
        assert not np.array_equal(samples["r2_plain"], base_samples["r2_plain"])

    def test_postsel_weight_schemes(self):
        kw = dict(r_values=(2,), working_factors=(1,), n_series=40, n_periods=60,
                  n_reps=3, seed=0)
        _, initial = experiment_postsel(**kw)
        _, characteristic = experiment_postsel(weights="characteristic", **kw)
        assert characteristic[0] != initial[0]
        assert characteristic[1] == initial[1]  # plain arm uses no weights
        with pytest.raises(ValueError, match="weight scheme"):
            experiment_postsel(weights="walsh", **kw)

    @pytest.mark.xfail(
        reason="initial-transform weights are weakly identified under the sin "
        "characteristic loadings: the transform matrix W'B/N loses a factor "
        "direction whenever the initial factor draw is small, which inflates "
        "the null rejection rate to ~0.26",
        strict=True,
    )
    def test_spectest_experiment_initial_weights_size(self):
        rows = experiment_spectest(gammas=(0.0,), T_values=(200,), schemes=("initial",),
                                   n_reps=400, seed=2024, threads=1)
        assert 0.04 <= rows[0]["rejection_rate"] <= 0.12

    @pytest.mark.xfail(
        reason="Hadamard-pattern weights do not hold the level at the default "
        "C = 1: the null rejection rate is 0.51 at T = 200 here (400 "
        "replications, seed 2024) and 0.482 at seed 0 with 1000 replications, "
        "where the power at gamma = 0.2, T = 100 (0.068) is below the size (0.081)",
        strict=True,
    )
    def test_spectest_experiment_hadamard_weights_size(self):
        rows = experiment_spectest(gammas=(0.0,), T_values=(200,), schemes=("hadamard",),
                                   n_reps=400, seed=2024, threads=1)
        assert 0.04 <= rows[0]["rejection_rate"] <= 0.12

    def test_threads_do_not_change_results(self):
        a = experiment_spectest(gammas=(0.0,), T_values=(60,), schemes=("characteristic",),
                                n_reps=6, seed=5, threads=1)
        b = experiment_spectest(gammas=(0.0,), T_values=(60,), schemes=("characteristic",),
                                n_reps=6, seed=5, threads=3)
        assert a == b

    @pytest.mark.parametrize("study", [experiment_cov, experiment_forecast, experiment_postsel,
                                       experiment_spectest])
    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_raise(self, study, threads):
        with pytest.raises(ValueError, match="threads"):
            study(**SMALL_STUDIES[study.__name__], threads=threads)

    @pytest.mark.parametrize("study", [experiment_cov, experiment_forecast, experiment_postsel,
                                       experiment_spectest])
    def test_no_replications_raise(self, study):
        with pytest.raises(ValueError, match="n_reps"):
            study(**{**SMALL_STUDIES[study.__name__], "n_reps": 0})

    @pytest.mark.parametrize("n_draws", [1, 0])
    def test_too_few_bootstrap_draws_raise_before_any_panel(self, monkeypatch, n_draws):
        def generate_panel(*args, **kwargs):
            raise AssertionError("a panel was drawn")

        monkeypatch.setattr(experiments, "generate_panel", generate_panel)
        with pytest.raises(ValueError, match="n_draws must be at least 2"):
            experiment_spectest(**{**SMALL_STUDIES["experiment_spectest"], "n_draws": n_draws}, threads=1)

    def test_worker_count_is_capped_by_jobs_and_cpus(self):
        """The cap is computed without starting a process."""
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert 1 <= _worker_count(10_000, 3) <= min(3, cpus)
        assert _worker_count(10_000, 10_000) == cpus
        assert _worker_count(2, 1) == 1
        assert _worker_count(2, 0) == 1


# Small calls of each study, without `threads`
SMALL_STUDIES = {
    "experiment_cov": dict(sizes=(60, 100), alphas=(1.0,), rho_Ts=(0.7,), n_reps=3, seed=1),
    "experiment_forecast": dict(window_sizes=(40,), rho_Ts=(0.5,), alphas=(1.0,), n_series=50,
                                n_steps=10, n_reps=2, seed=2),
    "experiment_postsel": dict(n_series=80, n_periods=80, n_reps=2, seed=3),
    "experiment_spectest": dict(gammas=(0.0, 0.2), T_values=(60,), schemes=("characteristic",),
                                n_series=60, n_reps=2, n_draws=200, seed=4),
}


def _bits(out):
    """A study's output with arrays as bytes and scalars as their type and repr, for exact comparison."""
    if isinstance(out, np.ndarray):
        return out.dtype.str, out.shape, out.tobytes()
    if isinstance(out, dict):
        return {key: _bits(value) for key, value in out.items()}
    if isinstance(out, (list, tuple)):
        return [_bits(value) for value in out]
    return type(out).__name__, repr(out)


@pytest.mark.parametrize("name", sorted(SMALL_STUDIES))
def test_worker_processes_give_the_one_blas_thread_digits(name):
    """threads=2 from this process equals threads=1 in an interpreter pinned to one BLAS thread.

    The workers pin their BLAS to one thread whatever this process runs
    with.  At these sizes on a two-core OpenBLAS host only the covariance
    study's digits move with the BLAS thread count; the other three check
    the worker path itself.  On a one-core host this process runs one BLAS
    thread too, and the test cannot tell the two apart.
    """
    kwargs = SMALL_STUDIES[name]
    script = (
        "import pickle, sys\n"
        "from divproj import experiments\n"
        f"sys.stdout.buffer.write(pickle.dumps(experiments.{name}(threads=1, **{kwargs!r})))\n"
    )
    src = str(Path(divproj.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    pinned = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, check=True)
    out = getattr(experiments, name)(threads=2, **kwargs)
    assert _bits(out) == _bits(pickle.loads(pinned.stdout))
