import ast
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

import divproj
from divproj import covariance, experiments
from divproj.covariance import (
    KINDS,
    SparseCovariance,
    ThresholdRule,
    _blocks,
    _sym_opnorm,
    invert_sparse_cov,
    sparse_idio_cov,
    threshold_value,
)
from divproj.exceptions import DegenerateDataError, NumericalWarning
from divproj.experiments import experiment_cov
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


def _dense_threshold(s, tau, rule):
    """The thresholding formula applied to every entry: the reference for threshold_value's bits."""
    s, tau = np.asarray(s, dtype=float), np.asarray(tau, dtype=float)
    a_s = np.abs(s)
    if rule.kind == "hard":
        return np.where(a_s >= tau, s, 0.0)
    sign = np.sign(s)
    soft = sign * np.maximum(a_s - tau, 0.0)
    if rule.kind == "soft":
        return soft
    a = rule.scad_a
    mid = ((a - 1.0) * s - sign * a * tau) / (a - 2.0)
    return np.where(a_s <= 2.0 * tau, soft, np.where(a_s <= a * tau, mid, s))


class TestThresholdBits:
    """threshold_value evaluates soft and SCAD only where |s| > tau; every bit is the dense formula's."""

    TAU = 0.3

    def _edges(self):
        tau, a = self.TAU, SCAD.scad_a
        knots = [tau, 2.0 * tau, a * tau]
        near = [np.nextafter(k, k + d) for k in knots for d in (-1.0, 1.0)]
        base = np.array(knots + near + [0.0, 0.1, 1.5, 5.0, np.nan, np.inf])
        return np.concatenate([base, -base, [-0.0]])

    @pytest.mark.parametrize("rule", [HARD, SOFT, SCAD])
    def test_scalar_tau_and_scalar_s(self, rule):
        s = self._edges()
        for tau in (self.TAU, 0.0, np.nan):
            assert threshold_value(s, tau, rule).tobytes() == _dense_threshold(s, tau, rule).tobytes()
            for x in s:
                got = np.float64(threshold_value(x, tau, rule))
                assert got.tobytes() == _dense_threshold(x, tau, rule).tobytes()

    @pytest.mark.parametrize("rule", [HARD, SOFT, SCAD])
    def test_row_block_tau(self, rule):
        rng = np.random.default_rng(11)
        tau = rng.uniform(0.0, 0.5, (6, 40))
        s = rng.standard_normal((6, 40))
        k = SCAD.scad_a
        s[0, :4] = tau[0, :4] * np.array([1.0, -2.0, k, -k])  # |s| on tau, 2 tau and a tau
        s[1, :3] = [0.0, -0.0, np.nan]
        tau[2, :2] = np.nan
        tau[3] = 0.0  # C = 0
        assert threshold_value(s, tau, rule).tobytes() == _dense_threshold(s, tau, rule).tobytes()

    @pytest.mark.parametrize("n", [300, 1200])
    @pytest.mark.parametrize("rule", [HARD, SOFT, SCAD, ThresholdRule(kind="scad", constant_C=0.0)])
    def test_sparse_idio_cov_matches_dense_formula(self, rule, n):
        rng = np.random.default_rng(n)
        U = rng.standard_normal((n, 30))
        U[: n // 3] += 0.6 * U[n // 3 : 2 * (n // 3)]
        S = U @ U.T / 30
        d = np.diag(S).copy()
        omega = np.sqrt(np.log(n) / 30) + 1.0 / np.sqrt(n)
        ref = _dense_threshold(S, rule.constant_C * np.sqrt(np.outer(d, d)) * omega, rule)
        np.fill_diagonal(ref, d)
        ref = (ref + ref.T) / 2.0
        assert sparse_idio_cov(U, rule).sigma_u.tobytes() == ref.tobytes()


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

    @pytest.mark.parametrize("rule", [HARD, SOFT, SCAD])
    def test_row_blocks_match_whole_matrix_threshold(self, rule):
        # N = 700 spans eight row blocks; the arithmetic is the whole-matrix one, so the bits agree
        rng = np.random.default_rng(6)
        U = rng.standard_normal((700, 40))
        U[:350] += 0.5 * U[350:]
        S = U @ U.T / 40
        d = np.diag(S).copy()
        omega = np.sqrt(np.log(700) / 40) + 1.0 / np.sqrt(700)
        ref = threshold_value(S, rule.constant_C * np.sqrt(np.outer(d, d)) * omega, rule)
        np.fill_diagonal(ref, d)
        ref = (ref + ref.T) / 2.0
        cov = sparse_idio_cov(U, rule)
        np.testing.assert_array_equal(cov.sigma_u, ref)
        assert cov.nonzero_offdiag == np.sum(ref != 0) - 700

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("layout", ["C", "F", "column_strided"])
    def test_exactly_symmetric(self, layout, kind):
        """No (S + S')/2 is taken: the result is symmetric bit for bit, signed zeros included.

        F order is the CLI's layout (the transposed CSV body); a strided view
        is copied first, since numpy's gemm product of it is not symmetric.
        """
        rng = np.random.default_rng(13)
        wide = rng.standard_normal((300, 60))
        wide[:150] += 0.6 * wide[150:]
        U = {"C": np.ascontiguousarray(wide[:, :30]), "F": np.asfortranarray(wide[:, :30]),
             "column_strided": wide[:, ::2]}[layout]
        cov = sparse_idio_cov(U, ThresholdRule(kind=kind, constant_C=0.5))
        sigma = cov.sigma_u
        assert cov.nonzero_offdiag > 2000  # many entries survive the threshold
        assert sigma.tobytes() == sigma.T.copy().tobytes()
        assert ((sigma + sigma.T) / 2.0).tobytes() == sigma.tobytes()

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 2.0])
    def test_sparsity_m_row_blocks_match_whole_matrix(self, q):
        # N = 700 spans eight row blocks; each row's sum is the whole-matrix one
        rng = np.random.default_rng(14)
        U = rng.standard_normal((700, 40))
        U[:350] += 0.5 * U[350:]
        cov = sparse_idio_cov(U, SCAD)
        sigma = cov.sigma_u
        per_row = np.count_nonzero(sigma, axis=1) if q == 0 else np.sum(np.abs(sigma) ** q, axis=1)
        assert cov.sparsity_m(q) == float(np.max(per_row))

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

    def test_permuted_blocks_match_dense_inverse(self):
        a, blocks = _permuted_blocks(np.random.default_rng(7), spd=True)
        inv = invert_sparse_cov(a)
        np.testing.assert_allclose(inv, np.linalg.inv(a), rtol=0, atol=1e-12 * np.abs(inv).max())
        inside = np.zeros(a.shape, dtype=bool)
        for b in blocks:
            inside[np.ix_(b, b)] = True
        np.fill_diagonal(inside, True)
        assert np.all(inv[~inside] == 0.0)

    @pytest.mark.filterwarnings("error")
    def test_positive_definite_blocks_take_no_eigenvalues(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        a, blocks = _permuted_blocks(np.random.default_rng(7), spd=True)
        inv = invert_sparse_cov(a)
        assert calls == []
        for b in map(np.sort, blocks):
            assert inv[np.ix_(b, b)].tobytes() == np.linalg.inv(a[np.ix_(b, b)]).tobytes()
        a[np.ix_(blocks[1], blocks[1])] *= -1.0  # an indefinite block fails the gate
        with pytest.warns(NumericalWarning, match="shifting diagonal"):
            invert_sparse_cov(a)
        assert len(calls) == len([b for b in blocks if b.size > 1])

    def test_negative_eigenvalue_in_a_block_shifts_every_diagonal_entry(self):
        sigma = np.diag([1.0, 2.0, 1.0, 3.0])
        sigma[0, 2] = sigma[2, 0] = 2.0  # the block {0, 2} has eigenvalues 3 and -1
        floor = 1e-6 * 7.0 / 4.0
        with pytest.warns(NumericalWarning, match="shifting diagonal"):
            inv = invert_sparse_cov(sigma)
        shifted = sigma + (floor + 1.0) * np.eye(4)
        np.testing.assert_allclose(inv, np.linalg.inv(shifted), rtol=1e-9)
        assert inv[1, 1] == pytest.approx(1.0 / (3.0 + floor), rel=1e-12)
        assert inv[3, 3] == pytest.approx(1.0 / (4.0 + floor), rel=1e-12)

    def test_cholesky_gate_input_keeps_its_bits(self, monkeypatch):
        """The floor comes off one block copy's diagonal: the gate sees the bits of s - floor * I."""
        a, _ = _permuted_blocks(np.random.default_rng(7), spd=True)
        seen = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda s: seen.append(s.copy()) or cholesky(s))
        invert_sparse_cov(a)
        floor = 1e-6 * np.mean(np.diag(a))
        expected = [a[np.ix_(b, b)] - floor * np.eye(b.size) for b in _blocks(a)[0]]
        assert [s.tobytes() for s in seen] == [e.tobytes() for e in expected]


def _traced_peak(fn, *args):
    """The peak of the memory fn(*args) allocates, in bytes, under tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOneNByNArray:
    """At N = 1200, T = 240 the covariance path holds one N x N array (8 N^2 bytes) and row blocks.

    The former S + S' average and the |sigma|^q of `sparsity_m` each took
    another one or two (peaks of 2.02 and 2.00 x 8 N^2).
    """

    N, T = 1200, 240

    @pytest.fixture(scope="class")
    def residuals(self):
        rng = np.random.default_rng(15)
        U = rng.standard_normal((self.N, self.T))
        U[: self.N // 2] += 0.3 * U[self.N // 2 :]
        return U

    def test_sparse_idio_cov_peak(self, residuals):
        assert _traced_peak(sparse_idio_cov, residuals, SCAD) < 1.25 * 8 * self.N**2

    def test_sparsity_m_peak(self, residuals):
        cov = sparse_idio_cov(residuals, SCAD)
        for q in (0.0, 1.0):
            assert _traced_peak(cov.sparsity_m, q) < 0.25 * 8 * self.N**2


def _permuted_blocks(rng, spd: bool):
    """A random symmetric 40 x 40 matrix, block-diagonal over blocks of sizes 1-6 after a permutation."""
    n = 40
    perm = rng.permutation(n)
    a = np.zeros((n, n))
    blocks, start = [], 0
    for size in (1, 6, 2, 1, 5, 3, 1, 1, 4, 2, 6, 1, 3, 4):
        b = perm[start : start + size]
        m = rng.standard_normal((size, size))
        a[np.ix_(b, b)] = m @ m.T + size * np.eye(size) if spd else m + m.T
        blocks.append(b)
        start += size
    assert start == n
    return a, blocks


class TestSymOpnorm:
    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: _permuted_blocks(rng, spd=False)[0],
            lambda rng: (lambda m: m + m.T)(rng.standard_normal((30, 30))),
            lambda rng: np.diag([0.5, -3.0, 2.0, 0.0]),
            lambda rng: np.zeros((5, 5)),
        ],
        ids=["permuted_blocks", "dense", "diagonal_negative", "zero"],
    )
    def test_equals_dense_spectral_norm(self, make):
        e = make(np.random.default_rng(8))
        expected = np.linalg.norm(e, 2)
        assert _sym_opnorm(e) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_coarser_partition(self):
        e, blocks = _permuted_blocks(np.random.default_rng(9), spd=False)
        pattern = e != 0
        singles = [b[0] for b in blocks if b.size == 1]
        pattern[blocks[1][0], blocks[2][0]] = True  # merge two blocks
        pattern[blocks[4][0], singles[0]] = True  # and a block with a singleton
        partition = _blocks(pattern)
        assert len(partition[0]) < len(_blocks(e)[0])
        everything = ([np.arange(e.shape[0])], np.array([], dtype=int))
        for p in (partition, everything):
            assert _sym_opnorm(e, p) == pytest.approx(np.linalg.norm(e, 2), rel=1e-12, abs=0.0)


def _scipy_blocks(a):
    """`_blocks` from scipy's connected components: an independent reference."""
    n = a.shape[0]
    pattern = a != 0
    pattern |= pattern.T
    flat = np.flatnonzero(pattern)
    indptr = np.searchsorted(flat, np.arange(0, n * n + 1, n))
    graph = csr_array((np.ones(flat.size), flat % n, indptr), shape=(n, n))
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
    sizes = np.bincount(labels, minlength=n_comp)
    blocks = [np.flatnonzero(labels == k) for k in np.flatnonzero(sizes > 1)]
    return blocks, np.flatnonzero(sizes[labels] == 1)


def _assert_same_partition(a):
    blocks, singles = _blocks(a)
    ref_blocks, ref_singles = _scipy_blocks(a)
    assert len(blocks) == len(ref_blocks)
    for b, r in zip(blocks, ref_blocks):
        np.testing.assert_array_equal(b, r)
    np.testing.assert_array_equal(singles, ref_singles)
    assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)


def _random_order_path(rng, n):
    order = rng.permutation(n)
    a = np.eye(n)
    a[order[:-1], order[1:]] = 1.0
    return a


def _random_tree(rng, n):
    """A random recursive tree on randomly labelled nodes, each edge stored in one triangle only."""
    order = rng.permutation(n)
    parents = [rng.integers(k) for k in range(1, n)]
    a = np.eye(n)
    a[order[1:], order[parents]] = 1.0
    return a


class TestBlocks:
    """`_blocks` matches scipy's connected components, blocks and order alike."""

    @pytest.mark.parametrize("density", [0.0, 0.01, 0.03, 0.1, 0.3])
    def test_random_patterns(self, density):
        rng = np.random.default_rng(int(density * 100) + 11)
        for n in range(1, 81):
            m = rng.random((n, n)) < density
            _assert_same_partition(m | m.T)
            _assert_same_partition(m * rng.standard_normal((n, n)))  # one-sided entries

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: np.ones((50, 50)),
            lambda rng: np.diag(rng.standard_normal(50)),
            lambda rng: np.zeros((6, 6)),
            lambda rng: np.ones((1, 1)),
            lambda rng: np.zeros((1, 1)),
            lambda rng: _random_order_path(rng, 1200),
            lambda rng: _random_tree(rng, 1200),
        ],
        ids=["dense", "diagonal", "zero", "one", "one_zero", "path_1200", "tree_1200"],
    )
    def test_structured_patterns(self, make):
        a = make(np.random.default_rng(12))
        _assert_same_partition(a)

    def test_covariance_study_rows_equal_with_the_reference(self, monkeypatch):
        kwargs = dict(sizes=(40, 60), alphas=(1.0,), rho_Ts=(0.7,), n_reps=2, seed=5,
                      C_values=(1.0, 2.0), extra_factors=(0, 2))
        rows = experiment_cov(**kwargs)
        monkeypatch.setattr(covariance, "_blocks", _scipy_blocks)
        monkeypatch.setattr(experiments, "_blocks", _scipy_blocks)
        assert rows == experiment_cov(**kwargs)


def test_covariance_study_shares_one_partition_per_estimate(monkeypatch):
    """Each estimate's two errors share one `_blocks` call and equal the norms on their own patterns."""
    kwargs = dict(sizes=(40, 60), alphas=(1.0,), rho_Ts=(0.7,), n_reps=2, seed=5,
                  C_values=(1.0, 2.0), extra_factors=(0, 2))
    counted = []

    def counting_blocks(a):
        counted.append(a.shape)
        return _blocks(a)

    with monkeypatch.context() as m:
        m.setattr(covariance, "_blocks", counting_blocks)
        m.setattr(experiments, "_blocks", counting_blocks)
        rows = experiment_cov(**kwargs)
    n_cells, n_estimates = 2, 2 * 2 * 4 * 2  # sizes; sizes x reps x methods x C
    assert len(counted) == n_cells + 2 * n_estimates
    monkeypatch.setattr(experiments, "_sym_opnorm", lambda e, partition: _sym_opnorm(e))
    assert rows == experiment_cov(**kwargs)


def _imports(node, package: str) -> bool:
    """`import package[.x]`, `from package[.x] import y`, or `from a import b` for package a.b."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
        names = [f"{node.module}.{a.name}" for a in node.names]
    else:
        return False
    return any(f"{name}.".startswith(f"{package}.") for name in names)


def _offending_imports(package: str) -> list[str]:
    offenders = []
    for path in sorted(Path(divproj.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if _imports(n, package)]
    return offenders


def test_no_module_imports_scipy_linalg():
    """The package runs its linear algebra on numpy's BLAS alone.

    scipy bundles a second OpenBLAS, and under default threading calls that
    alternate between the two libraries' thread pools oversubscribe the
    cores.  On a 2-vCPU host (numpy 2.4.6, scipy 1.17.1, no BLAS thread
    setting), inverting the thresholded covariance with scipy.linalg's
    Cholesky made test_criterion_5_covariance_error_trend take 77-80 s and
    a small experiment_cov run 2.4-2.7 replications/s; with numpy.linalg
    they take 18 s and run 8.8-8.9/s.  The package now imports no scipy
    module at all (test_runtime_imports_no_scipy); this test keeps the
    second BLAS out should scipy come back.
    """
    assert _offending_imports("scipy.linalg") == []


def test_runtime_imports_no_scipy():
    """numpy is the only runtime dependency: scipy serves the tests and the benchmark.

    No module imports scipy, at top level or inside a function, and a fresh
    interpreter that imports the package, the CLI and the experiments and
    builds the CLI parser has no scipy module loaded.  scipy's import took
    about 0.8 s of each fresh process.
    """
    assert _offending_imports("scipy") == []
    script = (
        "import contextlib, io, sys\n"
        "import divproj, divproj.cli, divproj.experiments\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = divproj.cli.run([])\n"
        "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    src = str(Path(divproj.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    code, loaded = run.stdout.split(" ", 1)
    assert code != "0"  # no subcommand: the parser stops at the usage error
    assert loaded.strip() == "[]"


def _dense_spectral_calls(tree):
    """Lines calling np.linalg.svd, np.linalg.inv or np.linalg.norm(., 2) outside _inverse_blocks."""
    found = []

    def visit(node, in_inverse):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_inverse = in_inverse or node.name == "_inverse_blocks"
        if isinstance(node, ast.Call) and not in_inverse:
            f = node.func
            if (
                isinstance(f, ast.Attribute)
                and isinstance(f.value, ast.Attribute)
                and f.value.attr == "linalg"
                and isinstance(f.value.value, ast.Name)
                and f.value.value.id in ("np", "numpy")
            ):
                ords = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]
                two = any(isinstance(o, ast.Constant) and o.value == 2 for o in ords)
                if f.attr in ("svd", "inv") or (f.attr == "norm" and two):
                    found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, in_inverse)

    visit(tree, False)
    return found


def test_covariance_study_makes_no_dense_spectral_call():
    """The covariance study works on the connected blocks of its matrices.

    A symmetric matrix's spectral norm is its largest |eigenvalue|, and the
    eigenvalues and the inverse of a matrix that is block-diagonal after a
    permutation are those of its blocks.  In a traced `mc_cov` benchmark
    pass (2-vCPU host, one BLAS thread), dropping the SVDs of
    `np.linalg.norm(., 2)` took the study's own time from 1.39 to 0.68 s,
    and inverting block by block took `invert_sparse_cov` from 0.91 to
    0.64 s.  Only `_inverse_blocks`, which `invert_sparse_cov` and the
    CLI's row writer share, inverts, one block at a time.
    """
    offenders = []
    for name in ("experiments.py", "covariance.py"):
        path = Path(divproj.__file__).parent / name
        offenders += [f"{name}:{line}" for line in _dense_spectral_calls(ast.parse(path.read_text()))]
    assert offenders == []


def test_one_inverse_call_site():
    """The package calls np.linalg.inv in one place, `_inverse_blocks`."""
    sites = []
    for path in sorted(Path(divproj.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.linalg.inv", "numpy.linalg.inv"):
                sites.append(f"{path.name}:{node.lineno}")
    assert len(sites) == 1, sites
