import math
import warnings

import numpy as np
import pytest

from divproj import experiments, inference, projection
from divproj.exceptions import InsufficientDataError, NumericalWarning, SingularGramError
from divproj.experiments import _scheme_weights, experiment_postsel
from divproj.inference import (
    confidence_interval,
    double_selection,
    tuning_tau,
    _cd_lasso,
    _homotopy_lasso,
    _iterate_sigma_core,
    _kkt_holds,
    _lasso,
)
from divproj.simulation import SimConfig, generate_panel, rep_rng
from divproj.weights import walsh_hadamard_weights
from lasso_path import objective_path, reference_homotopy


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


def dense_gram(G):
    """The dense D'D/T of a `_GramRows` G, built from its design."""
    return G._D.T @ G._D / G._D.shape[0]


def correlated_design(seed):
    """(G, c) of a 40 x 30 design whose neighbouring columns correlate (a random walk across columns)."""
    rng = np.random.default_rng(seed)
    walk = np.cumsum(0.4 * rng.standard_normal((40, 30)), axis=1)
    D = rng.standard_normal((40, 30)) + walk
    y = D[:, :5] @ rng.normal(0, 1, 5) + rng.standard_normal(40)
    return gram_form(D, y)


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


def lasso_objective(G, c, tau, gamma):
    """The gram-form lasso objective without its constant mean(y^2)."""
    return float(-2.0 * (c @ gamma) + gamma @ (G @ gamma) + tau * np.sum(np.abs(gamma)))


def support(gamma):
    return np.flatnonzero(np.abs(gamma) > 1e-10)


def purged_panel(seed, n, t, near_duplicate=False):
    """(y, g, X, W) of the post-selection design with initial-transform weights, R = 2.

    With `near_duplicate` series 1 repeats series 0 up to noise of size 1e-7,
    so an active set holding both has a numerically singular gram.
    """
    cfg = SimConfig(n_series=n, n_periods=t + 1, n_factors_true=2, rho_T=0.0, seed=seed)
    rng = rep_rng(seed, 0)
    sim = generate_panel(cfg, rng=rng)
    x0, X = sim.panel.X[:, 0], sim.panel.X[:, 1:].copy()
    if near_duplicate:
        X[1] = X[0] + 1e-7 * rng.standard_normal(t)
    theta = np.zeros(n)
    theta[[0, 2, 3]] = (1.0, -1.5, 0.5)
    g = theta @ X + rng.standard_normal(t)
    y = g + theta @ X + rng.standard_normal(t)
    return y, g, X, _scheme_weights("initial", sim, 2, x0)


def recorded_lasso_calls(run):
    """The (G, c, tau, gamma0) of every `_lasso` call made by `run()`."""
    calls = []

    def recording(G, c, tau, gamma0=None):
        calls.append((G, c, tau, None if gamma0 is None else gamma0.copy()))
        return _lasso(G, c, tau, gamma0=gamma0)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(inference, "_lasso", recording)
        run()
    return calls


def counting(monkeypatch, owner, name):
    """Replace `owner.name` by a wrapper; returns the list it appends to per call."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestHomotopyLasso:
    def test_meets_criterion_4_bound(self):
        """Criterion 4's 100 problems and KKT check, solved by the path alone."""
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            D = rng.standard_normal((40, 10))
            beta = np.zeros(10)
            beta[rng.choice(10, size=3, replace=False)] = rng.normal(0, 2, size=3)
            y = D @ beta + rng.standard_normal(40)
            tau = float(rng.uniform(0.05, 1.0))
            gamma = _homotopy_lasso(*gram_form(D, y), tau)
            worst = max(worst, kkt_violation(D, y, tau, gamma))
        assert worst < 1e-6

    def test_zero_penalty_on_full_rank_design_gives_ols(self):
        rng = np.random.default_rng(0)
        D = rng.standard_normal((8, 8)) + 3 * np.eye(8)
        y = rng.standard_normal(8)
        gamma = _homotopy_lasso(*gram_form(D, y), 0.0)
        np.testing.assert_allclose(gamma, np.linalg.solve(D, y), atol=1e-10)

    @pytest.mark.parametrize("factor", [1.0, 1.5])
    def test_penalty_at_or_above_twice_max_c_gives_zero(self, factor):
        rng = np.random.default_rng(1)
        D = rng.standard_normal((30, 6))
        y = rng.standard_normal(30)
        G, c = gram_form(D, y)
        gamma = _homotopy_lasso(G, c, factor * 2.0 * np.max(np.abs(c)))
        np.testing.assert_array_equal(gamma, np.zeros(6))

    @pytest.mark.parametrize("tau", [0.0, 0.05, 0.3])
    def test_zero_column_gets_zero_coefficient(self, tau):
        rng = np.random.default_rng(2)
        D = rng.standard_normal((30, 6))
        D[:, 3] = 0.0
        y = D @ np.array([1.0, -2.0, 0.0, 0.0, 0.5, 0.0]) + 0.3 * rng.standard_normal(30)
        G, c = gram_form(D, y)
        gamma = _homotopy_lasso(G, c, tau)
        assert gamma[3] == 0.0
        assert _kkt_holds(G, c, tau, gamma)
        assert _lasso(G, c, tau)[0][3] == 0.0

    def test_correlated_designs_need_no_fallback(self):
        """Many joins and drops along the path, and still an answer that passes the check."""
        for seed in range(100):
            G, c = correlated_design(seed)
            for frac in (0.3, 0.1, 0.03, 0.01, 0.0):
                tau = frac * 2.0 * np.max(np.abs(c))
                gamma = _homotopy_lasso(G, c, tau)
                assert gamma is not None and _kkt_holds(G, c, tau, gamma), (seed, frac)

    def test_kkt_check_compares_at_the_sign_of_gamma(self):
        """A coefficient whose residual sits at +tau/2 while it is negative fails the check."""
        G = np.array([[1.0, 0.9], [0.9, 1.0]])
        tau = 0.4
        wrong = np.array([-0.1, 0.5])
        c = G @ wrong + tau / 2.0  # c - G wrong = (tau/2, tau/2)
        assert not _kkt_holds(G, c, tau, wrong)
        gamma = _homotopy_lasso(G, c, tau)
        np.testing.assert_allclose(gamma, [0.0, 0.41], atol=1e-12)
        assert _kkt_holds(G, c, tau, gamma)
        np.testing.assert_array_equal(_lasso(G, c, tau)[0], gamma)

    # The near-duplicate series make some refit grams singular too, and the
    # refit's pseudo-inverse warns about them.
    @pytest.mark.filterwarnings("ignore::divproj.exceptions.NumericalWarning")
    def test_purged_grams_match_coordinate_descent(self, monkeypatch):
        """On rank-deficient purged grams `_lasso` keeps coordinate descent's support.

        The grams are those `double_selection` builds after its factor
        step, where W'U_hat = 0 makes them singular.  One series in each
        panel nearly repeats another, so some active sets are singular too
        and `_lasso` must fall back.  Where coordinate descent stops
        before converging, the path's answer must be the better one.
        """
        calls = []
        for seed in range(8):
            y, g, X, W = purged_panel(seed, 40, 80, near_duplicate=True)
            calls += recorded_lasso_calls(lambda: double_selection(y, g, X, W))
        fallbacks = counting(monkeypatch, inference, "_cd_lasso")
        unconverged = 0
        for G, c, tau, gamma0 in calls:
            assert np.linalg.eigvalsh(dense_gram(G))[0] <= 1e-5
            n_before = len(fallbacks)
            gamma, _ = _lasso(G, c, tau, gamma0=gamma0)
            reference, converged = _cd_lasso(G, c, tau, gamma0=gamma0)
            fell_back = len(fallbacks) > n_before
            if fell_back or converged:
                np.testing.assert_array_equal(support(gamma), support(reference))
            else:
                unconverged += 1
                assert _kkt_holds(G, c, tau, gamma)
                assert lasso_objective(G, c, tau, gamma) <= lasso_objective(G, c, tau, reference) + 1e-12
        assert len(calls) > 50
        assert len(fallbacks) >= 1
        assert unconverged < len(calls) // 2


    # Only the refit's pseudo-inverse warnings are ignored; the lasso's are checked.
    @pytest.mark.filterwarnings("ignore:.*gram matrix is singular:divproj.exceptions.NumericalWarning")
    def test_unconverged_fallback_warns(self, monkeypatch):
        """A fallback stopping at its sweep cap warns from the public call's line; no other call warns."""
        with pytest.warns(NumericalWarning, match="sweep cap") as record:
            for seed in range(8):
                double_selection(*purged_panel(seed, 40, 80, near_duplicate=True))
        capped = [w for w in record if "sweep cap" in str(w.message)]
        assert {w.filename for w in capped} == {__file__}
        calls = []
        with pytest.warns(NumericalWarning, match="sweep cap"):
            for seed in range(8):
                y, g, X, W = purged_panel(seed, 40, 80, near_duplicate=True)
                calls += recorded_lasso_calls(lambda: double_selection(y, g, X, W))
        fallbacks = counting(monkeypatch, inference, "_cd_lasso")
        unconverged = 0
        for G, c, tau, gamma0 in calls:
            n_before = len(fallbacks)
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                _, converged = _lasso(G, c, tau, gamma0=gamma0)
            capped_here = len(fallbacks) > n_before and not converged
            unconverged += capped_here
            assert len(seen) == capped_here
        assert unconverged == len(capped) >= 1, (unconverged, len(fallbacks))


class TestLassoAgreesWithCoordinateDescent:
    """The path changes no result that coordinate descent got right."""

    def test_postsel_study_is_bit_identical(self, monkeypatch):
        def study():
            return experiment_postsel(n_series=120, n_periods=120, n_reps=4, seed=5)

        samples, rows = study()
        monkeypatch.setattr(inference, "_lasso", _cd_lasso)
        cd_samples, cd_rows = study()
        assert samples.keys() == cd_samples.keys()
        for key in samples:
            np.testing.assert_array_equal(samples[key], cd_samples[key])
        assert rows == cd_rows

    @pytest.mark.parametrize("seed", [0, 1])
    def test_desk_sized_feasible_double_selection_is_bit_identical(self, monkeypatch, seed):
        y, g, X, W = purged_panel(seed, 1200, 240)
        for weights in (W, None):
            res = double_selection(y, g, X, weights)
            with monkeypatch.context() as m:
                m.setattr(inference, "_lasso", _cd_lasso)
                ref = double_selection(y, g, X, weights)
            for name, value in vars(res).items():
                np.testing.assert_array_equal(value, getattr(ref, name), err_msg=name)

    def test_well_conditioned_double_selection_never_falls_back(self, monkeypatch):
        calls = counting(monkeypatch, inference, "_cd_lasso")
        y, g, X = _simulate_system(seed=10, n=40, t=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            double_selection(y, g, X, None)
            double_selection(y, g, X, None, sigma2_y=2.0, sigma2_g=1.0)
        assert calls == []


def recorded_double_selections(monkeypatch, **study):
    """The (args, kwargs) of every `double_selection` call made by `experiment_postsel(**study)`."""
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return double_selection(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(experiments, "double_selection", recording)
        experiment_postsel(threads=1, **study)
    return calls


POSTSEL_DESIGNS = (
    # the benchmark's design, oracle tuning
    dict(r_values=(0, 2), working_factors=(1, 2, 3), include_plain=True, n_series=200,
         n_periods=200, n_reps=3, seed=70, support_offset=12, oracle_sigma=True),
    # criterion 7's confounded design, feasible tuning
    dict(r_values=(2,), working_factors=(2,), n_series=1000, factor_coef=0.7,
         alpha_strength=0.5, weights="characteristic", oracle_sigma=False, n_reps=2, seed=7),
)


def design_calls(monkeypatch):
    """The calls of both designs, plus a feasible-tuning N = 600, T = 240 call with and without weights."""
    calls = []
    for study in POSTSEL_DESIGNS:
        calls += recorded_double_selections(monkeypatch, **study)
    y, g, X, W = purged_panel(3, 600, 240)
    return calls + [((y, g, X, W), {}), ((y, g, X, None), {})]


class TestGramRowsOnDemand:
    """The lasso reads G = D'D/T row by row, and no path builds it whole."""

    def test_results_equal_the_dense_gram(self, monkeypatch):
        """Bitwise-equal results with the dense gram, and c - G gamma moved by rounding only."""
        moves = []

        def measuring(G, c, tau, gamma0=None):
            gamma, converged = _lasso(G, c, tau, gamma0=gamma0)
            dense = dense_gram(G)
            moves.append(np.max(np.abs((c - G @ gamma) - (c - dense @ gamma))) / max(np.max(np.abs(c)), 1.0))
            return gamma, converged

        calls = design_calls(monkeypatch)
        assert len(calls) == 3 * 8 + 2 * 2 + 2
        for args, kwargs in calls:
            with monkeypatch.context() as m:
                m.setattr(inference, "_lasso", measuring)
                res = double_selection(*args, **kwargs)
            with monkeypatch.context() as m:
                m.setattr(inference, "_GramRows", lambda D: D.T @ D / D.shape[0])
                ref = double_selection(*args, **kwargs)
            np.testing.assert_array_equal(res.selected, ref.selected)
            assert res.beta_hat == ref.beta_hat and res.se == ref.se
        assert len(moves) >= 2 * len(calls)
        assert max(moves) < 1e-13

    def test_forced_fallback_stays_below_the_dense_gram(self, monkeypatch, traced_peak):
        """Coordinate descent alone, at N = 1200 and T = 240, peaks below 8 N^2 bytes and keeps the path's answer."""
        y, g, X, W = purged_panel(0, 1200, 240)
        path = double_selection(y, g, X, W)
        monkeypatch.setattr(inference, "_homotopy_lasso", lambda G, c, tau: None)
        fallbacks = counting(monkeypatch, inference, "_cd_lasso")
        results = []
        peak = traced_peak(lambda: results.append(double_selection(y, g, X, W)))
        (res,) = results
        assert len(fallbacks) >= 2
        assert peak < 8 * 1200**2
        assert res.selected.size > 0
        np.testing.assert_array_equal(res.selected, path.selected)
        assert res.beta_hat == path.beta_hat

    def test_desk_sized_call_stays_below_the_dense_gram(self, traced_peak):
        """One call at N = 1200, T = 240 peaks below 8 N^2 bytes, the size of G alone."""
        y, g, X, W = purged_panel(0, 1200, 240)
        assert traced_peak(double_selection, y, g, X, W) < 8 * 1200**2

    def test_benchmark_sized_call_peaks_below_two_panels(self, traced_peak):
        """One call at N = T = 200 holds one N x T purged panel beside X at a time."""
        n = t = 200
        y, g, X, W = purged_panel(0, n, t)
        assert traced_peak(double_selection, y, g, X, W) < 2 * n * t * 8

    def test_rows_are_computed_once_and_match_the_gram(self):
        rng = np.random.default_rng(4)
        D = rng.standard_normal((50, 30))
        G = inference._GramRows(D)
        dense = D.T @ D / 50
        first = G[7]
        assert G[7] is first
        np.testing.assert_allclose(first, dense[7], rtol=1e-13, atol=1e-15)
        v = rng.standard_normal(30)
        np.testing.assert_allclose(G @ v, dense @ v, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(G.diagonal(), np.diag(dense), rtol=1e-13, atol=1e-15)


def recorded_paths(run):
    """The (G, c, tau) of every `_homotopy_lasso` call made by `run()`.

    G is the `_GramRows` object the solver was given, built on the
    original design, so a replay reads the same row bits.
    """
    calls = []
    path = inference._homotopy_lasso

    def recording(G, c, tau):
        calls.append((G, c, tau))
        return path(G, c, tau)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(inference, "_homotopy_lasso", recording)
        run()
    return calls


@pytest.fixture(scope="module")
def study_paths():
    """Path inputs from the post-selection studies the benchmark and the criteria run.

    The benchmark's design at four seeds (oracle tuning), a feasible-tuning
    study at N = T = 120, criterion 7's confounded design and a feasible
    N = 600, T = 240 call with and without weights.
    """
    mc = dict(r_values=(0, 2), working_factors=(1, 2, 3), include_plain=True, n_series=200,
              n_periods=200, n_reps=3, support_offset=12, oracle_sigma=True, threads=1)
    calls = []
    for seed in (70, 71, 72, 73):
        calls += recorded_paths(lambda: experiment_postsel(seed=seed, **mc))
    calls += recorded_paths(lambda: experiment_postsel(
        n_series=120, n_periods=120, n_reps=2, seed=5, oracle_sigma=False, threads=1))
    calls += recorded_paths(lambda: experiment_postsel(threads=1, **POSTSEL_DESIGNS[1]))
    y, g, X, W = purged_panel(3, 600, 240)
    calls += recorded_paths(lambda: (double_selection(y, g, X, W), double_selection(y, g, X, None)))
    return calls


class TestActiveSetInverse:
    """The path with a maintained G_AA^{-1} against `reference_homotopy`, which solves each kink afresh."""

    def test_study_paths_keep_the_reference_supports(self, study_paths):
        """The same supports, and coefficients within 1e-12 of the largest, on every recorded call."""
        assert len(study_paths) > 350
        for G, c, tau in study_paths:
            gamma, ref = _homotopy_lasso(G, c, tau), reference_homotopy(G, c, tau)
            np.testing.assert_array_equal(np.flatnonzero(gamma), np.flatnonzero(ref))
            assert np.max(np.abs(gamma - ref), initial=0.0) <= 1e-12 * np.max(np.abs(ref), initial=0.0)

    def test_no_kink_factors_the_active_gram(self, monkeypatch, study_paths):
        eigs = counting(monkeypatch, np.linalg, "eigvalsh")
        solves = counting(monkeypatch, np.linalg, "solve")
        grams = counting(monkeypatch, inference, "_solve_gram")
        for G, c, tau in study_paths:
            _homotopy_lasso(G, c, tau)
        assert eigs == solves == grams == []

    def test_maintained_inverse_matches_the_active_gram(self, monkeypatch):
        """On `test_correlated_designs_need_no_fallback`'s designs at tau -> 0, inv[:k, :k] is G_AA^{-1} to 1e-8 relative."""
        made = []

        class Recording(inference._ActiveSet):
            def __init__(self, n):
                super().__init__(n)
                made.append(self)

        monkeypatch.setattr(inference, "_ActiveSet", Recording)
        drops = counting(monkeypatch, Recording, "drop")
        worst = 0.0
        for seed in range(100):
            G, c = correlated_design(seed)
            for frac in (0.01, 0.0):
                assert _homotopy_lasso(G, c, frac * 2.0 * np.max(np.abs(c))) is not None
                active = made[-1]
                A = active.idx[: active.k]
                exact = np.linalg.inv(G[np.ix_(A, A)])
                worst = max(worst, np.max(np.abs(active.inv[: active.k, : active.k] - exact)) / np.max(np.abs(exact)))
        assert len(drops) > 100
        assert worst < 1e-8

    def test_duplicated_column_falls_back_to_coordinate_descent(self, monkeypatch):
        """A column that joins beside its exact copy raises SingularGramError; `_lasso` then runs coordinate descent."""
        raised = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            D = rng.standard_normal((30, 6))
            D[:, 5] = D[:, 0]
            y = D[:, :3] @ np.array([1.0, -0.5, 0.8]) + 0.3 * rng.standard_normal(30)
            G, c = gram_form(D, y)
            try:
                _homotopy_lasso(G, c, 0.0)
            except SingularGramError:
                raised += 1
                with monkeypatch.context() as m:
                    fallbacks = counting(m, inference, "_cd_lasso")
                    gamma, _ = _lasso(G, c, 0.0)
                assert len(fallbacks) == 1
                reference, _ = _cd_lasso(G, c, 0.0)
                np.testing.assert_array_equal(gamma, reference)
        assert raised >= 1


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
        DJ = D[:, J]
        gam_hat[J], th_hat[J] = projection._solve_gram(DJ.T @ DJ, DJ.T @ np.column_stack([y, g])).T
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


def test_normal_quantile_matches_scipy_within_4_ulp():
    """statistics.NormalDist's quantile against scipy's norm.ppf as an independent reference."""
    from scipy.stats import norm

    levels = np.concatenate([np.linspace(0.001, 0.999, 999), [1e-12, 1e-6, 0.9999, 1 - 1e-6, 1 - 1e-9]])
    got = np.array([inference._normal_quantile(float(level)) for level in levels])
    expected = norm.ppf(0.5 + levels / 2.0)
    assert np.all(np.abs(got - expected) <= 4 * np.spacing(expected))
    inference._normal_quantile(0.95)
    hits = inference._normal_quantile.cache_info().hits
    inference._normal_quantile(0.95)
    assert inference._normal_quantile.cache_info().hits == hits + 1  # one quantile per level
