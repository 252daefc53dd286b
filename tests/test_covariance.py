import ast
import inspect
import os
import re
import subprocess
import sys
import warnings
from functools import partial
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
    _as_blocks,
    _block_index,
    _Blocks,
    _blocks,
    _estimates,
    _join,
    _shrink,
    _sym_opnorm,
    _threshold,
    invert_sparse_cov,
    sparse_idio_cov,
    threshold_value,
)
from divproj.exceptions import DegenerateDataError, DimensionError, NumericalWarning
from divproj.experiments import experiment_cov
from divproj.projection import estimate_loadings, fit, pc_factors
from divproj.spectest import spec_test
from divproj.simulation import SimConfig, cross_section_cov, generate_panel, true_idio_cov
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

    @pytest.mark.parametrize("rule", [HARD, SOFT, SCAD])
    def test_nan_threshold_rejected(self, rule):
        """np.any(tau < 0) is False for a NaN tau; the check must not let it through."""
        with pytest.raises(ValueError, match="not NaN"):
            threshold_value(1.0, np.nan, rule)
        tau = np.full((2, 3), 0.5)
        tau[1, 2] = np.nan
        with pytest.raises(ValueError, match="not NaN"):
            threshold_value(np.ones((2, 3)), tau, rule)


def _plus_zeros(x):
    """x with every zero +0.0: the thresholded estimate's one zero."""
    return np.where(x == 0, 0.0, x)


def _dense_threshold(s, tau, rule):
    """The thresholding formula applied to every entry, its zeros +0.0: the reference for threshold_value's bits."""
    s, tau = np.asarray(s, dtype=float), np.asarray(tau, dtype=float)
    a_s = np.abs(s)
    if rule.kind == "hard":
        return _plus_zeros(np.where(a_s >= tau, s, 0.0))
    sign = np.sign(s)
    soft = sign * np.maximum(a_s - tau, 0.0)
    if rule.kind == "soft":
        return _plus_zeros(soft)
    a = rule.scad_a
    mid = ((a - 1.0) * s - sign * a * tau) / (a - 2.0)
    return _plus_zeros(np.where(a_s <= 2.0 * tau, soft, np.where(a_s <= a * tau, mid, s)))


def _row_block_sample(U):
    """(S, d, omega) of N x T residuals as the thresholding pass forms them.

    S's entries above the diagonal are the row-block products
    U[rows] @ U[i:].T / T, mirrored below it; its diagonal d is U's squared
    row norms over T.  So S is exactly symmetric.
    """
    n, t = U.shape
    S = np.empty((n, n))
    step = max(1, covariance._BLOCK_ENTRIES // n)
    for i in range(0, n, step):
        S[i : i + step, i:] = U[i : i + step] @ U[i:].T / t
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    S.T[upper] = S[upper]
    d = np.einsum("it,it->i", U, U) / t
    np.fill_diagonal(S, d)
    return S, d, float(np.sqrt(np.log(n) / t) + 1.0 / np.sqrt(n))


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
        for tau in (self.TAU, 0.0):
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
        tau[2, :2] = np.inf
        tau[3] = 0.0  # C = 0
        assert threshold_value(s, tau, rule).tobytes() == _dense_threshold(s, tau, rule).tobytes()

    @pytest.mark.parametrize("n", [300, 1200])
    @pytest.mark.parametrize("rule", [HARD, SOFT, SCAD, ThresholdRule(kind="scad", constant_C=0.0)])
    def test_sparse_idio_cov_matches_dense_formula(self, rule, n):
        rng = np.random.default_rng(n)
        U = rng.standard_normal((n, 30))
        U[: n // 3] += 0.6 * U[n // 3 : 2 * (n // 3)]
        S, d, omega = _row_block_sample(U)
        ref = _dense_threshold(S, rule.constant_C * np.sqrt(np.outer(d, d)) * omega, rule)
        np.fill_diagonal(ref, d)
        ref = (ref + ref.T) / 2.0
        assert sparse_idio_cov(U, rule).sigma_u.tobytes() == ref.tobytes()


def _threshold_value_before(s, tau, rule):
    """`threshold_value` as it was before the row-block kernel, frozen, its zeros then made +0.0: the reference for the kernel's bits."""
    scalar = np.isscalar(s) or np.ndim(s) == 0
    s = np.asarray(s, dtype=float)
    tau = np.asarray(tau, dtype=float)
    a_s = np.abs(s)
    if rule.kind == "hard":
        out = np.where(a_s >= tau, s, 0.0)
    else:
        keep = ~(a_s <= tau)
        out = np.sign(s, out=np.empty(keep.shape))
        out *= 0.0
        if keep.ndim:
            s, tau = (x[keep] for x in np.broadcast_arrays(s, tau))
        a_s = np.abs(s)
        sign = np.sign(s)
        soft = sign * np.maximum(a_s - tau, 0.0)
        if rule.kind == "soft":
            out[keep] = soft
        else:
            a = rule.scad_a
            mid = ((a - 1.0) * s - sign * a * tau) / (a - 2.0)
            out[keep] = np.where(a_s <= 2.0 * tau, soft, np.where(a_s <= a * tau, mid, s))
    out = _plus_zeros(out)
    return float(out) if scalar else out


def _kernel_reference(S, d, omega, rule):
    """The thresholded S by the frozen formula on each upper row block S[rows, i:], mirrored below the diagonal; then d.

    The row blocks matter for NaN entries alone: numpy's vector loops and
    their scalar tails may give a NaN different signs, and where an entry
    falls depends on the array the formula runs on.  The pass reads only
    the entries above the diagonal and mirrors them, so the reference does.
    """
    n = S.shape[0]
    ref = np.zeros_like(S)
    step = max(1, covariance._BLOCK_ENTRIES // n)
    for i in range(0, n, step):
        rows = slice(i, i + step)
        tau = rule.constant_C * np.sqrt(np.outer(d[rows], d[i:])) * omega
        ref[rows, i:] = _threshold_value_before(S[rows, i:], tau, rule)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    ref.T[upper] = ref[upper]
    np.fill_diagonal(ref, d)
    return ref


def _run_kernel(S, d, omega, rule, in_place):
    """(the pass's estimate as a dense matrix, its partition) from S's upper row blocks, and S keeps its bits.

    The row blocks are views of S (`in_place`), which the pass must not
    write to, or copies of them.
    """
    before = S.tobytes()
    step = max(1, covariance._BLOCK_ENTRIES // S.shape[0])
    row_blocks = ((i, S[i : i + step, i:] if in_place else S[i : i + step, i:].copy())
                  for i in range(0, S.shape[0], step))
    (est,) = _threshold(row_blocks, d, omega, [rule])
    assert S.tobytes() == before
    return est.dense(), (est.blocks, est.singles)


def _assert_partition(partition, reference):
    blocks, singles = partition
    assert [b.tolist() for b in blocks] == [b.tolist() for b in reference[0]]
    np.testing.assert_array_equal(singles, reference[1])


SPECIAL = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf and inf * 0 in the formulas
class TestThresholdKernel:
    """The thresholding pass (`_threshold`) writes the frozen formulas' bits and labels components across row blocks.

    N = 700 spans eight row blocks of 93 rows.
    """

    N = 700

    def _special_input(self, rule):
        """A symmetric S whose off-diagonal entries sit on tau, 2 tau and a tau exactly, or are NaN, infinite or zero."""
        n = self.N
        rng = np.random.default_rng(30)
        U = rng.standard_normal((n, 40))
        U[: n // 2] += 0.4 * U[n // 2 :]
        S = U @ U.T / 40
        d = np.diag(S).copy()
        omega = float(np.sqrt(np.log(n) / 40) + 1.0 / np.sqrt(n))
        tau = rule.constant_C * np.sqrt(np.outer(d, d)) * omega
        a = rule.scad_a
        i, j = np.triu_indices(n, 1)
        pick = rng.choice(i.size, 12 * 60, replace=False).reshape(12, 60)
        for k, sel in enumerate(pick):
            r, c = i[sel], j[sel]
            sign = 1.0 if k % 2 == 0 else -1.0
            if k < 6:  # |s| = tau, 2 tau and a tau, both signs
                values = sign * [tau[r, c], 2.0 * tau[r, c], a * tau[r, c]][k // 2]
            else:
                values = SPECIAL[k - 6]
            S[r, c] = S[c, r] = values
        assert S.tobytes() == S.T.copy().tobytes()
        return S, d, omega

    @pytest.mark.parametrize("in_place", [False, True], ids=["buffer", "in_place"])
    @pytest.mark.parametrize("rule", [HARD, SOFT, SCAD, ThresholdRule(kind="hard", constant_C=0.0),
                                      ThresholdRule(kind="scad", constant_C=0.0),
                                      ThresholdRule(kind="soft", constant_C=np.inf)],
                             ids=["hard", "soft", "scad", "hard_C0", "scad_C0", "soft_Cinf"])
    def test_bits_equal_the_formulas_before(self, rule, in_place):
        S, d, omega = self._special_input(rule)
        out, partition = _run_kernel(S, d, omega, rule, in_place)
        ref = _kernel_reference(S, d, omega, rule)
        assert out.tobytes() == ref.tobytes()  # the signs of zeros and of NaNs included
        _assert_partition(partition, _blocks(ref))

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_entries_link_nothing(self, kind):
        """At C = 0 hard thresholding keeps every entry and writes S's exact zeros (+0.0 and -0.0) as +0.0; no zero is an edge."""
        n = self.N
        rng = np.random.default_rng(34)
        pattern = _random_sparse(1.0)(n, rng)
        S, d, omega = _pattern_input(pattern, rng)
        zero = ~(pattern | pattern.T | np.eye(n, dtype=bool))
        negative = np.triu(rng.random((n, n)) < 0.5, 1)
        S[zero] = 0.0
        S[zero & (negative | negative.T)] = -0.0
        rule = ThresholdRule(kind=kind, constant_C=0.0)
        for in_place in (False, True):
            out, partition = _run_kernel(S, d, omega, rule, in_place)
            assert out.tobytes() == _kernel_reference(S, d, omega, rule).tobytes()
            _assert_partition(partition, _scipy_blocks(pattern))

    @pytest.mark.parametrize("rule", [HARD, SOFT, SCAD])
    def test_bits_of_sample_covariances(self, rule):
        """From U, the kept entries are `_shrink`'s on the same row-block products; the estimates are those of S's."""
        n = self.N
        rng = np.random.default_rng(31)
        U = rng.standard_normal((n, 40))
        U[: n // 2] += 0.5 * U[n // 2 :]
        S, d, omega = _row_block_sample(U)
        rules = [ThresholdRule(kind=rule.kind, constant_C=C) for C in (0.5, 1.0, 2.0)]
        estimates, got_omega = _estimates(U, rules)
        assert got_omega == omega
        for r, est in zip(rules, estimates):
            out, partition = _run_kernel(S, d, omega, r, in_place=False)
            ref = _kernel_reference(S, d, omega, r)
            assert out.tobytes() == ref.tobytes()
            _assert_partition(partition, _blocks(ref))
            assert est.dense().tobytes() == out.tobytes()
            _assert_partition((est.blocks, est.singles), partition)
            # every kept entry above the diagonal has the bits of `_shrink` on its row block
            step = max(1, covariance._BLOCK_ENTRIES // n)
            for i in range(0, n, step):
                s = U[i : i + step] @ U[i:].T / 40
                kept, values = _shrink(s, r.constant_C * np.sqrt(np.outer(d[i : i + step], d[i:])) * omega, r)
                lo, hi = np.divmod(kept, s.shape[1])
                upper = lo < hi
                assert out[lo[upper] + i, hi[upper] + i].tobytes() == values[upper].tobytes()

    @pytest.mark.parametrize("rule", [HARD, SOFT, SCAD])
    def test_threshold_value_equals_the_formula_before(self, rule):
        """The public wrapper keeps every bit, the 0-d path's NaN signs among them."""
        tau0, a = 0.3, rule.scad_a
        edges = np.array([tau0, 2.0 * tau0, a * tau0, 0.1, 5.0] + SPECIAL)
        edges = np.concatenate([edges, -edges])
        for tau in (tau0, 0.0, np.inf):
            got = threshold_value(edges, tau, rule)
            assert got.tobytes() == _threshold_value_before(edges, tau, rule).tobytes()
            for x in edges:
                got = np.float64(threshold_value(np.float64(x), tau, rule))
                assert got.tobytes() == np.float64(_threshold_value_before(np.float64(x), tau, rule)).tobytes()
        s = np.random.default_rng(32).standard_normal((5, 7))
        taus = np.random.default_rng(33).uniform(0.0, 1.0, (5, 1))  # broadcast against s
        assert threshold_value(s, taus, rule).tobytes() == _threshold_value_before(s, taus, rule).tobytes()


def _minus_zeros(x) -> int:
    return int(np.count_nonzero((x == 0) & np.signbit(x)))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf and inf * 0 in the formulas
@pytest.mark.parametrize("kind", KINDS)
def test_every_zero_is_plus_zero(kind):
    """No zero of an estimate or of threshold_value has its sign bit set, hard's kept exact zeros at C = 0 included."""
    rng = np.random.default_rng(35)
    U = rng.standard_normal((300, 30))
    U[:100] += 0.6 * U[100:200]
    for C in (0.0, 0.5, 1.0, 2.0):
        sigma = sparse_idio_cov(U, ThresholdRule(kind=kind, constant_C=C)).sigma_u
        assert _minus_zeros(sigma) == 0
        if C > 0:
            assert np.count_nonzero(sigma == 0) > 0
    rule = ThresholdRule(kind=kind)
    s = np.array([-0.0, 0.0, -0.1, 0.1, -1.0, 1.0, -np.inf, np.nan, -np.nan] * 3)
    for tau in (0.0, 0.3, np.inf):
        out = threshold_value(s, tau, rule)
        assert _minus_zeros(out) == 0
        assert np.count_nonzero(out == 0) > 0
        assert _minus_zeros(np.array([threshold_value(np.float64(x), tau, rule) for x in s])) == 0  # the 0-d path
    # an S holding an exact -0.0 (and a -0.0 that hard keeps at C = 0), through the thresholding pass
    S, d, omega = _row_block_sample(U)
    S[3, 5] = S[5, 3] = -0.0
    for C in (0.0, 2.0):
        out, _ = _run_kernel(S, d, omega, ThresholdRule(kind=kind, constant_C=C), in_place=False)
        assert _minus_zeros(out) == 0 and out[3, 5] == 0


def _pattern_input(pattern, rng):
    """(S, d, omega): S exactly symmetric, with entries of +-sqrt(d_i d_j) on `pattern` and noise below every threshold elsewhere.

    With omega = 0.1 and C = 2, tau_ij = 0.2 sqrt(d_i d_j): every rule keeps
    the pattern's entries (|s| > a tau for SCAD) and zeroes the noise.
    """
    n = pattern.shape[0]
    d = rng.uniform(0.5, 2.0, n)
    scale = np.sqrt(np.outer(d, d))
    S = np.triu(np.where(pattern | pattern.T, rng.choice([-1.0, 1.0], (n, n)), rng.uniform(-0.15, 0.15, (n, n))), 1)
    S = (S + S.T) * scale
    np.fill_diagonal(S, d)
    return S, d, 0.1


def _chain(n, rng):
    a = np.zeros((n, n), dtype=bool)
    a[np.arange(n - 1), np.arange(1, n)] = True
    return a


def _first_and_last(n, rng):
    a = np.zeros((n, n), dtype=bool)
    a[0, n - 1] = True
    return a


def _late_roots(n, rng):
    """Components whose members meet in later row blocks than the ones that link them to their smallest member.

    Row blocks hold 93 rows.  Block 0 links 5 to 690 and block 1 links 100
    to 650, so when block 6 links 650 to 690, the roots it joins (100 and 5)
    are in the opposite order to the edge's ends.  The others spread such
    links over every block.
    """
    a = np.zeros((n, n), dtype=bool)
    for lo, hi in [(5, 690), (100, 650), (650, 690), (200, 400), (300, 400), (90, 300), (620, 699), (2, 699)]:
        a[lo, hi] = True
    for start in range(10, 90, 8):  # chains that reach forward across several blocks
        nodes = np.sort(rng.choice(np.arange(start, n), 6, replace=False))[::-1]
        a[np.minimum(nodes[:-1], nodes[1:]), np.maximum(nodes[:-1], nodes[1:])] = True
    return a


def _random_sparse(density):
    return lambda n, rng: rng.random((n, n)) < density / n


LABEL_PATTERNS = [_chain, _first_and_last, _late_roots, _random_sparse(0.5), _random_sparse(1.0),
                  _random_sparse(3.0), lambda n, rng: np.zeros((n, n), dtype=bool),
                  lambda n, rng: np.ones((n, n), dtype=bool)]
LABEL_IDS = ["chain", "first_and_last", "late_roots", "random_0.5", "random_1", "random_3", "singletons", "dense"]


@pytest.mark.parametrize("rule", [HARD, SOFT, SCAD])
@pytest.mark.parametrize("make", LABEL_PATTERNS, ids=LABEL_IDS)
def test_kernel_labels_across_row_blocks(make, rule):
    """The kernel's partition is `_blocks` of its output and scipy's partition of the pattern it was given."""
    n = 700
    assert max(1, covariance._BLOCK_ENTRIES // n) == 93  # eight row blocks
    rng = np.random.default_rng(len(LABEL_IDS) * 7 + 3)
    pattern = make(n, rng)
    S, d, omega = _pattern_input(pattern, rng)
    for in_place in (False, True):
        out, partition = _run_kernel(S, d, omega, rule, in_place)
        assert np.array_equal(out != 0, pattern | pattern.T | np.eye(n, dtype=bool))
        _assert_partition(partition, _blocks(out))
        _assert_partition(partition, _scipy_blocks(pattern))


class TestThresholdRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdRule(kind="banded")
        with pytest.raises(ValueError):
            ThresholdRule(scad_a=2.0)
        with pytest.raises(ValueError):
            ThresholdRule(constant_C=-1.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_nan_constant_rejected(self, kind):
        """`constant_C < 0` is False for NaN, which thresholded nothing: every entry stayed."""
        with pytest.raises(ValueError, match="constant_C"):
            ThresholdRule(kind=kind, constant_C=np.nan)

    @pytest.mark.parametrize("scad_a", [np.nan, np.inf, -np.inf, 2.0])
    def test_scad_a_must_be_finite_and_above_two(self, scad_a):
        """An infinite a gave NaN for every |s| in (2 tau, inf), where SCAD interpolates."""
        with pytest.raises(ValueError, match="scad_a"):
            ThresholdRule(scad_a=scad_a)

    def test_limits_that_stay_valid(self):
        assert ThresholdRule(constant_C=0.0).constant_C == 0.0
        assert ThresholdRule(constant_C=np.inf).constant_C == np.inf  # thresholds every off-diagonal entry
        assert ThresholdRule(scad_a=np.nextafter(2.0, 3.0)).scad_a > 2.0

    def test_nan_residual_variance_rejected(self):
        U = np.random.default_rng(3).standard_normal((4, 20))
        U[2, 5] = np.nan
        with pytest.raises(DegenerateDataError, match="series 2"):
            sparse_idio_cov(U, SCAD)


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
        # N = 700 spans eight row blocks; the arithmetic on S's row blocks is the whole-matrix one, so the bits agree
        rng = np.random.default_rng(6)
        U = rng.standard_normal((700, 40))
        U[:350] += 0.5 * U[350:]
        S, d, omega = _row_block_sample(U)
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
        """Each row's sum is that of the dense row over its component's columns, in ascending order.

        The components are scipy's; the sum over the whole dense row adds
        zeros in other places, which may move its last bit.
        """
        rng = np.random.default_rng(14)
        U = rng.standard_normal((700, 40))
        U[:350] += 0.5 * U[350:]
        cov = sparse_idio_cov(U, ThresholdRule(kind="scad", constant_C=1.0))
        sigma = cov.sigma_u
        blocks, singles = _scipy_blocks(sigma)
        assert max(b.size for b in blocks) > 600 and singles.size > 0
        power = (lambda x: x != 0) if q == 0 else (lambda x: np.abs(x) ** q)
        per_row = power(np.diagonal(sigma)).astype(float)
        for b in blocks:
            per_row[b] = [np.sum(power(sigma[i, b])) for i in b]
        assert cov.sparsity_m(q) == float(np.max(per_row))
        whole = np.count_nonzero(sigma, axis=1) if q == 0 else np.sum(np.abs(sigma) ** q, axis=1)
        assert cov.sparsity_m(q) == pytest.approx(float(np.max(whole)), rel=1e-15, abs=0.0)

    def test_sparsity_diagnostic(self):
        cov = SparseCovariance(_as_blocks(np.array([[1.0, 0.5], [0.5, 2.0]])), omega=0.1, nonzero_offdiag=2)
        assert cov.sparsity_m(0) == 2.0
        assert cov.sparsity_m(1) == 2.5
        singletons = SparseCovariance(_as_blocks(np.diag([1.0, 3.0, 0.0])), omega=0.1, nonzero_offdiag=0)
        assert (singletons.sparsity_m(0), singletons.sparsity_m(1), singletons.sparsity_m(2)) == (1.0, 3.0, 9.0)

    @pytest.mark.parametrize("q", [-1.0, -np.inf, np.nan])
    def test_sparsity_m_rejects_a_negative_or_nan_exponent(self, q):
        cov = SparseCovariance(_as_blocks(np.array([[1.0, 0.5], [0.5, 2.0]])), omega=0.1, nonzero_offdiag=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no divide-by-zero warning on the way
            with pytest.raises(ValueError, match="non-negative"):
                cov.sparsity_m(q)


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
        with pytest.warns(NumericalWarning, match="shifting diagonal") as record:
            inv = invert_sparse_cov(sigma)
        assert record[0].filename == __file__  # the warning names the caller
        # the diagonal is shifted by 1e-6 - (-1) before inversion
        np.testing.assert_allclose(inv, np.diag(1.0 / np.array([3.0 + 1e-6, 3.0 + 1e-6, 1e-6])), rtol=1e-9)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (4,), (), (2, 2, 2)])
    def test_non_square_input_rejected(self, shape):
        with pytest.raises(DimensionError, match=re.escape(f"shape {shape}")):
            invert_sparse_cov(np.ones(shape))

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


def _indefinite_run_block():
    """A hard-thresholded sample covariance (N = 40 > T = 20): one block of all 40 indices, indefinite."""
    rng = np.random.default_rng(0)
    U = rng.standard_normal((40, 20))
    U[:20] += 0.8 * U[20:]
    sigma = sparse_idio_cov(U, ThresholdRule(kind="hard", constant_C=0.5)).sigma_u
    blocks, singles = _blocks(sigma)
    assert [b.size for b in blocks] == [40] and singles.size == 0
    assert np.linalg.eigvalsh(sigma)[0] < 0
    return sigma


def _gathered_inverses(sigma):
    """The blocks' inverses of `_Blocks.inverse`, each from an `np.ix_` gather: the reference for the views' bits."""
    blocks, singles = _blocks(sigma)
    floor = 1e-6 * np.mean(np.diagonal(sigma))
    lam_min = min([np.diagonal(sigma)[singles].min(initial=np.inf)]
                  + [np.linalg.eigvalsh(sigma[np.ix_(b, b)])[0] for b in blocks])
    shift = floor - lam_min if lam_min <= floor else 0.0
    inverses = []
    for b in blocks:
        s = sigma[np.ix_(b, b)]
        s[np.diag_indices_from(s)] += shift
        inverses.append(np.linalg.inv(s))
    return blocks, inverses


class TestBlockViews:
    """A block of consecutive indices is read through a slice view: the gathered block's bits, and sigma's stay."""

    def test_block_index(self):
        a = np.arange(36.0).reshape(6, 6)
        run = np.array([2, 3, 4])
        assert _block_index(run) == (slice(2, 5), slice(2, 5))
        assert np.shares_memory(a[_block_index(run)], a)
        scattered = np.array([0, 3, 4])
        assert a[_block_index(scattered)].tobytes() == a[np.ix_(scattered, scattered)].tobytes()

    @pytest.mark.filterwarnings("ignore::divproj.exceptions.NumericalWarning")
    @pytest.mark.parametrize("case", ["run", "run_shifted", "permuted", "permuted_shifted"])
    def test_inverses_equal_the_gathered_computation(self, case):
        if case.startswith("run"):
            sigma = _indefinite_run_block()
            if case == "run":
                sigma += 2.0 * np.eye(40)
        else:
            sigma, blocks = _permuted_blocks(np.random.default_rng(7), spd=True)
            assert sum(not _is_run(b) for b in _blocks(sigma)[0]) >= 5
            if case == "permuted_shifted":
                sigma[np.ix_(blocks[1], blocks[1])] *= -1.0
        blocks, inverses = _gathered_inverses(sigma)
        got = _as_blocks(sigma).inverse()
        assert [b.tolist() for b in got.blocks] == [b.tolist() for b in blocks]
        assert [x.tobytes() for x in got.values] == [x.tobytes() for x in inverses]
        dense = invert_sparse_cov(sigma)
        for b, inverse in zip(blocks, inverses):
            assert dense[np.ix_(b, b)].tobytes() == inverse.tobytes()

    def test_shift_on_a_run_leaves_sigma_unchanged(self):
        sigma = _indefinite_run_block()
        before = sigma.tobytes()
        with pytest.warns(NumericalWarning, match="shifting diagonal"):
            inverse = invert_sparse_cov(sigma)
        assert sigma.tobytes() == before
        m = _as_blocks(sigma)
        assert np.shares_memory(m.values[0], sigma)  # the run is a view of sigma
        with pytest.warns(NumericalWarning, match="shifting diagonal"):
            parts = m.inverse().rows()
        assert sigma.tobytes() == before
        rows = np.zeros_like(sigma)
        for row, (columns, values) in zip(rows, parts):
            row[columns] = values
        assert rows.tobytes() == inverse.tobytes()

    def test_gate_on_a_run_leaves_sigma_unchanged(self, monkeypatch):
        """The gate takes the floor off a copy of the block, which is a view of sigma, and passes: no eigenvalues."""
        sigma = _indefinite_run_block() + 2.0 * np.eye(40)  # positive definite: the gate passes
        before = sigma.tobytes()
        factored = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda s: factored.append(np.shares_memory(s, sigma)) or cholesky(s))
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        m = _as_blocks(sigma)
        assert np.shares_memory(m.values[0], sigma)
        m.inverse()
        assert factored == [False]
        assert sigma.tobytes() == before

    def test_opnorm_of_a_run_equals_the_gathered_one(self, monkeypatch):
        """Below the Lanczos cut and above it, a run read as a view gives the bits of its gathered copy.

        Above the cut the run is the whole matrix (a contiguous view) or sits
        inside a larger one (a strided view), and its norm is certified.
        """
        e = _indefinite_run_block()
        gathered = e[np.ix_(np.arange(40), np.arange(40))]
        w = np.linalg.eigvalsh(gathered)
        assert _sym_opnorm(e, _blocks(e)) == max(-w[0], w[-1])
        monkeypatch.setattr(covariance, "_LANCZOS_MIN", 2)
        monkeypatch.setattr(np.linalg, "eigvalsh", None)  # every norm is certified
        inside = np.diag(np.full(50, 0.5))
        inside[5:45, 5:45] = e
        norm = covariance._lanczos_norm(gathered)
        assert norm == pytest.approx(max(-w[0], w[-1]), rel=1e-12, abs=0.0)
        assert _sym_opnorm(e, _blocks(e)) == norm
        assert _sym_opnorm(inside, _blocks(inside)) == norm


class TestOneNByNArray:
    """At N = 1200, T = 240 the covariance path holds no N x N array (8 N^2 bytes) for a sparse estimate.

    The pass holds row blocks of S and the kept entries; the estimate is its
    blocks.  Forming S as one N x N product and thresholding it in place
    peaked at 1.10 x 8 N^2 on these residuals, whose estimate has 20 blocks
    of two; the former S + S' average and the |sigma|^q of `sparsity_m`
    each took another one or two (peaks of 2.02 and 2.00 x 8 N^2).
    """

    N, T = 1200, 240

    @pytest.fixture(scope="class")
    def residuals(self):
        rng = np.random.default_rng(15)
        U = rng.standard_normal((self.N, self.T))
        U[: self.N // 2] += 0.3 * U[self.N // 2 :]
        return U

    def test_sparse_idio_cov_peak(self, residuals, traced_peak):
        assert traced_peak(sparse_idio_cov, residuals, SCAD) < 0.25 * 8 * self.N**2

    def test_sparsity_m_peak(self, residuals, traced_peak):
        cov = sparse_idio_cov(residuals, SCAD)
        for q in (0.0, 1.0):
            assert traced_peak(cov.sparsity_m, q) < 0.25 * 8 * self.N**2

    def test_spec_test_peak(self, traced_peak):
        """The spec test's V is W' Sigma_u W, block by block: 0.60 x 8 N^2 with the N x T panel, against 1.31 before.

        Sieve weights of a characteristic, R = 2, C = 2: a sparse estimate.
        """
        rng = np.random.default_rng(3)
        z = np.sin(rng.standard_normal(self.N))
        F = rng.standard_normal((self.T, 2))
        X = (np.column_stack([z, z**2]) + 0.5 * rng.standard_normal((self.N, 2))) @ F.T
        X += rng.standard_normal((self.N, self.T))
        W = sieve_weights(z, 2)
        assert traced_peak(spec_test, X, F, W, SCAD, 200) < 0.7 * 8 * self.N**2

    def test_one_block_estimate_peak(self, traced_peak):
        """One block of every series: the block, and the kept entries that wait for the partition with their places.

        A kept entry waits as its value and its 2-byte place in its row
        block.  A weak common component keeps 14% of the entries (1.13 x
        8 N^2); a strong one keeps all of them (1.66, against 1.46-1.64 when
        S was formed whole and thresholded in place).
        """
        rng = np.random.default_rng(16)
        for strength, bound in ((0.4, 1.35), (2.0, 1.75)):
            U = rng.standard_normal((self.N, self.T)) + strength * rng.standard_normal(self.T)
            cov = sparse_idio_cov(U, ThresholdRule(kind="scad", constant_C=1.0))
            assert [b.size for b in cov.estimate.blocks] == [self.N]
            assert traced_peak(sparse_idio_cov, U, ThresholdRule(kind="scad", constant_C=1.0)) < bound * 8 * self.N**2


class TestInverseOfAnEstimate:
    """`invert_sparse_cov` of an estimate inverts over the thresholding pass's blocks, with no scan.

    N = 1200, T = 240: the many-block residuals give 20 blocks of two and
    1160 singletons; a strong common component makes every estimate one
    dense block (hard's is singular and takes a shift).
    """

    N, T = 1200, 240

    @pytest.fixture(scope="class")
    def residuals(self):
        rng = np.random.default_rng(15)
        many = rng.standard_normal((self.N, self.T))
        many[: self.N // 2] += 0.3 * many[self.N // 2 :]
        one = rng.standard_normal((self.N, self.T)) + 2.0 * rng.standard_normal(self.T)
        return {"many_blocks": many, "one_block": one}

    @pytest.mark.filterwarnings("ignore::divproj.exceptions.NumericalWarning")
    @pytest.mark.parametrize("rule", [HARD, SOFT, SCAD], ids=KINDS)
    @pytest.mark.parametrize("design", ["many_blocks", "one_block"])
    def test_no_second_scan_and_the_bits_of_a_fresh_partition(self, residuals, design, rule, monkeypatch):
        cov = sparse_idio_cov(residuals[design], rule)
        partition = (cov.estimate.blocks, cov.estimate.singles)
        assert [b.size for b in partition[0]] == ([self.N] if design == "one_block" else [2] * 20)
        _assert_partition(partition, _blocks(cov.sigma_u))
        counted = []
        with monkeypatch.context() as m:
            m.setattr(covariance, "_blocks", lambda a: counted.append(a.shape) or _blocks(a))
            inverse = invert_sparse_cov(cov)
        assert counted == []
        assert inverse.tobytes() == invert_sparse_cov(cov.sigma_u).tobytes()

    @pytest.mark.filterwarnings("ignore::divproj.exceptions.NumericalWarning")
    @pytest.mark.parametrize("rule", [HARD, SOFT, SCAD], ids=KINDS)
    def test_one_block_peak(self, residuals, rule, traced_peak):
        """2.00 x 8 N^2: the block's inverse and the result.  Scanning the estimate for its pattern peaked at 3.25."""
        cov = sparse_idio_cov(residuals["one_block"], rule)
        assert traced_peak(invert_sparse_cov, cov) < 2.2 * 8 * self.N**2


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
        assert _sym_opnorm(e, _blocks(e)) == pytest.approx(expected, rel=1e-12, abs=0.0)

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


def _with_spectrum(rng, eigenvalues):
    """Q diag(eigenvalues) Q' for a seeded random orthogonal Q, made exactly symmetric."""
    q = np.linalg.qr(rng.standard_normal((len(eigenvalues),) * 2))[0]
    a = (q * eigenvalues) @ q.T
    return (a + a.T) / 2


def _persymmetric(rng, n=60):
    """A Toeplitz block plus 1.5 v v' for a skew-symmetric unit v (v reversed is -v).

    The extreme eigenvector is skew-symmetric, with eigenvalue 2.36 at
    rng = default_rng(11); the largest with a symmetric eigenvector is 1.98.
    """
    lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    v = rng.standard_normal(n)
    v -= v[::-1]
    return 0.5 * 0.6**lag + 1.5 * np.outer(v, v) / (v @ v)


def _rank_one(rng, n=60):
    u = rng.standard_normal(n)
    return 2.5 * np.outer(u, u) / (u @ u)


def _whole(n):
    """The partition of an n x n matrix into one block."""
    return [np.arange(n)], np.array([], dtype=np.intp)


class TestLanczosNorm:
    """`_sym_opnorm` with the Lanczos cut forced low: certified norms within 1e-12 of `eigvalsh`'s, or its very bits.

    Each case records whether Lanczos certifies its norm.  A rank-one or a
    zero block has an invariant Krylov space: Lanczos breaks down and the
    norm is `eigvalsh`'s.
    """

    CASES = {
        "clustered_extremes": (lambda rng: _with_spectrum(rng, np.r_[4.0 - 1e-9 * np.arange(5), -4.0 + 1e-9 * np.arange(5),
                                                                    rng.uniform(-2, 2, 50)]), True),
        "negative_dominant": (lambda rng: _with_spectrum(rng, np.r_[-7.0, rng.uniform(-3, 3, 59)]), True),
        "rank_one": (_rank_one, False),
        "diagonal": (lambda rng: np.diag(rng.uniform(-2, 3, 60)), True),
        "zero": (lambda rng: np.zeros((60, 60)), False),
        "persymmetric": (_persymmetric, True),
    }

    @pytest.fixture(autouse=True)
    def low_cut(self, monkeypatch):
        monkeypatch.setattr(covariance, "_LANCZOS_MIN", 2)

    @staticmethod
    def _opnorm(a, monkeypatch):
        """(`_sym_opnorm` of a as one block, the shapes it gave `eigvalsh`)."""
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: calls.append(x.shape) or eigvalsh(x))
        return _sym_opnorm(a, _whole(a.shape[0])), calls

    @pytest.mark.parametrize("case", list(CASES))
    def test_equals_eigvalsh(self, case, monkeypatch):
        make, certified = self.CASES[case]
        a = make(np.random.default_rng(11))
        w = np.linalg.eigvalsh(a)
        got, calls = self._opnorm(a, monkeypatch)
        assert got == pytest.approx(max(-w[0], w[-1]), rel=1e-12, abs=0.0)
        assert calls == ([] if certified else [a.shape])

    def test_persymmetric_extreme_eigenvector_is_skew(self):
        """A symmetric start (such as ones) is orthogonal to it; the fixed start is not."""
        a = _persymmetric(np.random.default_rng(11))
        w, vectors = np.linalg.eigh(a)
        top = vectors[:, np.argmax(np.abs(w))]
        assert np.abs(top + top[::-1]).max() < 1e-12
        start = np.random.default_rng(covariance._LANCZOS_SEED).standard_normal(60)
        assert abs(start @ top) > 0.1 * np.linalg.norm(start)

    def test_a_symmetric_start_certifies_another_eigenvalue(self, monkeypatch):
        """Why the start has no symmetry, and the docstring's caveat: theta is near some eigenvalue, not the extreme one.

        From ones, the Krylov space of the persymmetric block holds only its
        symmetric eigenvectors (up to rounding), and Lanczos certifies 1.98.
        """
        a = _persymmetric(np.random.default_rng(11))

        class Ones:
            def __init__(self, seed):
                pass

            def standard_normal(self, n):
                return np.ones(n)

        monkeypatch.setattr(np.random, "default_rng", Ones)
        assert covariance._lanczos_norm(a) < 0.9 * np.abs(np.linalg.eigvalsh(a)).max()

    def _assert_falls_back(self, a, monkeypatch):
        """No certificate: `_sym_opnorm` returns the bits of `eigvalsh`'s norm, from one call."""
        assert covariance._lanczos_norm(a) is None
        w = np.linalg.eigvalsh(a)
        got, calls = self._opnorm(a, monkeypatch)
        assert np.float64(got).tobytes() == max(-w[0], w[-1]).tobytes()
        assert calls == [a.shape]

    def test_iteration_cap_falls_back(self, monkeypatch):
        a = np.random.default_rng(8).standard_normal((40, 40))
        a += a.T
        monkeypatch.setattr(covariance, "_LANCZOS_STEPS", 2)
        self._assert_falls_back(a, monkeypatch)

    def test_breakdown_falls_back(self, monkeypatch):
        """The start spans an invariant space with eigenvalue 2; the norm, 9, lies outside it.

        Its residual is zero, so without the breakdown test Lanczos would certify 2.
        """
        n = 50
        start = np.random.default_rng(covariance._LANCZOS_SEED).standard_normal(n)
        x = np.random.default_rng(3).standard_normal(n)
        x -= (x @ start) / (start @ start) * start
        a = 2.0 * np.eye(n) + 7.0 * np.outer(x, x) / (x @ x)
        assert np.abs(np.linalg.eigvalsh(a)).max() == pytest.approx(9.0, rel=1e-14)
        self._assert_falls_back(a, monkeypatch)

    def test_same_bits_on_every_call_and_layout(self):
        a = _with_spectrum(np.random.default_rng(4), np.random.default_rng(5).uniform(-3, 3, 80))
        norm = covariance._lanczos_norm(a)
        assert norm is not None
        shifted = np.empty(80 * 80 + 1)[1:].reshape(80, 80)  # another alignment in memory
        shifted[...] = a
        assert [covariance._lanczos_norm(x) for x in (a, a.copy(), shifted, np.asfortranarray(a).T)] == [norm] * 4


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


STRUCTURED = [
    lambda rng: np.ones((50, 50)),
    lambda rng: np.diag(rng.standard_normal(50)),
    lambda rng: np.zeros((6, 6)),
    lambda rng: np.ones((1, 1)),
    lambda rng: np.zeros((1, 1)),
    lambda rng: _random_order_path(rng, 1200),
    lambda rng: _random_tree(rng, 1200),
]
STRUCTURED_IDS = ["dense", "diagonal", "zero", "one", "one_zero", "path_1200", "tree_1200"]


def _is_run(b) -> bool:
    return b[-1] - b[0] + 1 == b.size


def _runs_pattern(rng, n):
    """A pattern whose blocks are unions of runs of consecutive indices, each run of length 1-8."""
    cuts = np.cumsum(rng.integers(1, 9, n))
    starts = np.concatenate([[0], cuts[cuts < n]])
    groups = rng.integers(0, max(1, starts.size // 3), starts.size)
    a = np.zeros((n, n))
    for g in np.unique(groups):
        members = np.concatenate([np.arange(lo, hi) for lo, hi in
                                  zip(starts[groups == g], np.append(starts[1:], n)[groups == g])])
        a[np.ix_(members, members)] = 1.0
    return a


def _assert_join(a, b):
    """The join of a's and b's partitions is `_blocks` of their union, and scipy's partition of it."""
    joined = _join(_blocks(a), _blocks(b), a.shape[0])
    union = (a != 0) | (b != 0)
    for blocks, singles in (_blocks(union), _scipy_blocks(union)):
        assert len(joined[0]) == len(blocks)
        for x, y in zip(joined[0], blocks):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(joined[1], singles)
    return joined


class TestBlocks:
    """`_blocks` matches scipy's connected components, blocks and order alike."""

    @pytest.mark.parametrize("density", [0.0, 0.01, 0.03, 0.1, 0.3])
    def test_random_patterns(self, density):
        rng = np.random.default_rng(int(density * 100) + 11)
        for n in range(1, 81):
            m = rng.random((n, n)) < density
            _assert_same_partition(m | m.T)
            _assert_same_partition(m * rng.standard_normal((n, n)))  # one-sided entries

    @pytest.mark.parametrize("make", STRUCTURED, ids=STRUCTURED_IDS)
    def test_structured_patterns(self, make):
        a = make(np.random.default_rng(12))
        _assert_same_partition(a)

    @pytest.mark.parametrize("make", STRUCTURED, ids=STRUCTURED_IDS)
    def test_join_of_structured_patterns(self, make):
        a = make(np.random.default_rng(12))
        n = a.shape[0]
        rng = np.random.default_rng(n)
        perm = rng.permutation(n)
        _assert_join(a, a[np.ix_(perm, perm)])
        _assert_join(a, rng.random((n, n)) < 1.0 / n)  # one-sided entries
        _assert_join(a, np.eye(n))

    def test_join_of_permuted_blocks(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a, b = (_permuted_blocks(rng, spd=False)[0] for _ in range(2))
            _assert_join(a, b)
            _assert_join(a, a)

    @pytest.mark.parametrize("n", [30, 60, 400])
    def test_join_of_blocks_that_span_several_runs(self, n):
        rng = np.random.default_rng(n + 1)
        spanning = 0
        for _ in range(10):
            a, b = _runs_pattern(rng, n), _runs_pattern(rng, n)
            spanning += any(not _is_run(x) for x in _blocks(a)[0])
            _assert_join(a, b)
        assert spanning >= 5

    def test_join_of_partitions_without_blocks(self):
        n = 9
        pairs = [(np.eye(n), np.zeros((n, n))), (np.zeros((n, n)), np.diag(np.arange(n))),
                 (np.ones((1, 1)), np.zeros((1, 1)))]
        for a, b in pairs:
            joined = _assert_join(a, b)
            assert joined[0] == []
            np.testing.assert_array_equal(joined[1], np.arange(a.shape[0]))
        joined = _assert_join(np.eye(n), _random_order_path(np.random.default_rng(1), n))
        assert len(joined[0]) == 1 and joined[1].size == 0

    def test_components_from_given_labels(self):
        """Hooking edges into given labels gives the components of all the edges, whichever root is smaller."""
        n = 3
        labels = covariance._components(np.arange(n), np.array([1]), np.array([2]))  # 2's root is 1
        np.testing.assert_array_equal(covariance._components(labels, np.array([0]), np.array([2])), [0, 0, 0])
        rng = np.random.default_rng(40)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            first, second = (np.triu(rng.random((n, n)) < rng.uniform(0.2, 2.0) / n, 1) for _ in range(2))
            labels = covariance._components(np.arange(n), *np.nonzero(first))
            labels = covariance._components(labels, *np.nonzero(second))
            _assert_partition(covariance._partition(labels), _scipy_blocks(first | second))

    def test_dense_pattern_peak(self, traced_peak):
        """A dense 1200 x 1200 pattern peaks at 3.25 x 8 N^2: the edge lists' split, before the hooking.

        Keeping the full edge lists alive while the hooking ran on their
        upper halves peaked at 4.25.
        """
        n = 1200
        a = np.ones((n, n))
        assert traced_peak(_blocks, a) < 3.3 * 8 * n**2

    def test_covariance_study_rows_equal_with_the_reference(self, monkeypatch):
        """The study's rows, every bit, with scipy's partitions of the dense truth and of each joint pattern."""
        kwargs = dict(sizes=(40, 60), alphas=(1.0,), rho_Ts=(0.7,), n_reps=2, seed=5,
                      C_values=(1.0, 2.0), extra_factors=(0, 2))
        rows = experiment_cov(**kwargs)
        monkeypatch.setattr(covariance, "_blocks", _scipy_blocks)
        monkeypatch.setattr(experiments, "_cov_cell", _scanned_cell)
        monkeypatch.setattr(experiments, "_join", lambda first, second, n: _scipy_blocks(
            _Blocks(first[0], [np.ones((b.size,) * 2) for b in first[0]], first[1], np.ones(n)).dense()
            + _Blocks(second[0], [np.ones((b.size,) * 2) for b in second[0]], second[1], np.ones(n)).dense()))
        assert rows == experiment_cov(**kwargs)


def _scanned_cell(cfg):
    """`experiments._cov_cell` from the dense truth, scanned by `_blocks`: the reference for the cell built from cfg."""
    truth = _as_blocks(true_idio_cov(cfg))
    return cfg, truth, truth.inverse()


def test_covariance_study_shares_one_partition_per_estimate(monkeypatch):
    """The study makes no `_blocks` call, and its errors equal the norms on their own patterns.

    A cell's truth is built as its blocks from its configuration, and its
    inverse is block-diagonal over the same blocks.  An estimate's blocks
    come from its thresholding pass; its inverse has the same blocks, and
    both errors share their join with the truth's.
    """
    kwargs = dict(sizes=(40, 60), alphas=(1.0,), rho_Ts=(0.7,), n_reps=2, seed=5,
                  C_values=(1.0, 2.0), extra_factors=(0, 2))
    counted = []

    def counting_blocks(a):
        counted.append(a.shape)
        return _blocks(a)

    with monkeypatch.context() as m:
        m.setattr(covariance, "_blocks", counting_blocks)
        rows = experiment_cov(**kwargs)
    assert counted == []
    monkeypatch.setattr(experiments, "_sym_opnorm", lambda e, partition: _sym_opnorm(e, _blocks(e)))
    assert rows == experiment_cov(**kwargs)


def _assert_same_blocks(got, ref):
    """Two `_Blocks` with the same partition and the same bits in every block and on the diagonal."""
    _assert_partition((got.blocks, got.singles), (ref.blocks, ref.singles))
    assert [v.tobytes() for v in got.values] == [v.tobytes() for v in ref.values]
    assert got.diagonal.tobytes() == ref.diagonal.tobytes()


def test_covariance_cell_partition_is_that_of_the_joint_pattern():
    """On `experiment_cov`'s default grid the cell built from its configuration is that of a scan of the truth.

    The truth's blocks, their bits and its diagonal are those of
    `_as_blocks(true_idio_cov(cfg))`, and its partition is that of
    (Sigma != 0) | (Sigma^{-1} != 0): Sigma^{-1} is block-diagonal over
    Sigma's blocks.  The inverse has the bits of `invert_sparse_cov(Sigma)`.
    """
    defaults = {k: v.default for k, v in inspect.signature(experiment_cov).parameters.items()}
    for alpha in defaults["alphas"]:
        for rho in defaults["rho_Ts"]:
            for size in defaults["sizes"]:
                cfg = SimConfig(n_series=size, n_periods=size, n_factors_true=defaults["n_factors_true"],
                                alpha_strength=alpha, rho_T=rho, seed=defaults["seed"])
                _, truth, truth_inv = experiments._cov_cell(cfg)
                _, scanned, scanned_inv = _scanned_cell(cfg)
                _assert_same_blocks(truth, scanned)
                _assert_same_blocks(truth_inv, scanned_inv)
                sigma, sigma_inv = truth.dense(), truth_inv.dense()
                assert truth.blocks  # blocks to join
                _assert_partition((truth.blocks, truth.singles), _blocks((sigma != 0) | (sigma_inv != 0)))
                assert sigma.tobytes() == true_idio_cov(cfg).tobytes()
                assert sigma_inv.tobytes() == invert_sparse_cov(true_idio_cov(cfg)).tobytes()


@pytest.mark.parametrize("settings",
                         [dict(block_size=1), dict(rho_N=0.0), dict(n_blocks=0), dict(n_blocks=5, block_size=6)],
                         ids=["runs_of_one", "rho_N_zero", "no_runs", "five_runs_of_six"])
def test_covariance_cell_of_other_configurations(settings):
    """A run of one series is a singleton; at rho_N = 0 each run is a diagonal block, which holds whole components.

    The dense matrices have the bits of the truth and of its inverse, and
    every norm over the cell's partition equals the one over a scan of it.
    """
    cfg = SimConfig(n_series=40, n_periods=40, n_factors_true=1, rho_T=0.5, **settings)
    _, truth, truth_inv = experiments._cov_cell(cfg)
    assert [b.size for b in truth.blocks] == ([] if cfg.block_size == 1 else [cfg.block_size] * cfg.n_blocks)
    assert truth.dense().tobytes() == true_idio_cov(cfg).tobytes()
    np.testing.assert_allclose(truth_inv.dense(), np.linalg.inv(true_idio_cov(cfg)), rtol=1e-13, atol=1e-15)
    e = _permuted_blocks(np.random.default_rng(2), spd=False)[0] * (truth.dense() != 0)
    assert _sym_opnorm(e, (truth.blocks, truth.singles)) == _sym_opnorm(e, _blocks(e))


def _whole_matrix_errors(cfg, rep, rule_kind, C_values, extra_factors):
    """{(method, C): (covariance error, inverse error)} of one replication, from fresh whole N x N matrices."""
    sigma_true = true_idio_cov(cfg)
    sigma_true_inv = invert_sparse_cov(sigma_true)
    truth_pattern = (sigma_true != 0) | (sigma_true_inv != 0)
    sim = generate_panel(cfg, replication=rep)
    X, F, r = sim.panel.X, sim.F_true, cfg.n_factors_true
    residual_sets = {f"dp_R{r + e}": fit(X, sieve_weights(sim.z_chars, r + e)).residuals for e in extra_factors}
    residual_sets["pc"] = pc_factors(X, r).residuals
    residual_sets["known_factor"] = X - estimate_loadings(X, F) @ F.T
    out = {}
    for method, U in residual_sets.items():
        for C in C_values:
            cov = sparse_idio_cov(U, ThresholdRule(kind=rule_kind, constant_C=C))
            partition = _blocks((cov.sigma_u != 0) | truth_pattern)
            out[method, C] = (_sym_opnorm(cov.sigma_u - sigma_true, partition),
                              _sym_opnorm(invert_sparse_cov(cov) - sigma_true_inv, partition))
    return out


def _whole_matrix_rows(sizes, alphas, n_reps, rule_kind, C_values, extra_factors):
    """`experiment_cov`'s rows at rho_T 0.7 and seed 5, from `_whole_matrix_errors`."""
    rows = []
    for alpha in alphas:
        for size in sizes:
            cfg = SimConfig(n_series=size, n_periods=size, n_factors_true=1, alpha_strength=alpha, rho_T=0.7, seed=5)
            per_rep = [_whole_matrix_errors(cfg, rep, rule_kind, C_values, extra_factors) for rep in range(n_reps)]
            for method, C in per_rep[0]:
                err_mean, err_se = experiments._mean_se([res[method, C][0] for res in per_rep])
                inv_mean, inv_se = experiments._mean_se([res[method, C][1] for res in per_rep])
                rows.append({"alpha": alpha, "rho_T": 0.7, "N": size, "method": method, "C": C,
                             "err_cov_mean": err_mean, "err_cov_se": err_se,
                             "err_inv_mean": inv_mean, "err_inv_se": inv_se})
    return rows


@pytest.mark.filterwarnings("ignore::divproj.exceptions.NumericalWarning")  # the oracle's own shifts
@pytest.mark.parametrize("rule_kind", KINDS)
def test_covariance_study_errors_equal_the_whole_matrix_formulas(rule_kind):
    """Every bit of the study's err_* equals that of the errors of fresh whole matrices.

    The study forms each residual set's S once in a reused buffer,
    thresholds it at every C into a second one and writes both error
    matrices there; the oracle makes each set and matrix anew.  One, two
    and three C values each threshold one S.
    Hard thresholding at C = 1 leaves indefinite estimates here, whose
    inverses take an eigenvalue shift.
    """
    sizes, alphas, n_reps, extra = (40, 60), (0.5, 1.0), 2, (0, 2)
    for C_values in ((1.0, 2.0), (1.0,), (1.0, 1.5, 2.0)):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            rows = experiment_cov(sizes=sizes, alphas=alphas, rho_Ts=(0.7,), n_reps=n_reps, seed=5,
                                  C_values=C_values, rule_kind=rule_kind, extra_factors=extra)
        shifted = {w.filename for w in record if issubclass(w.category, NumericalWarning)}
        assert shifted == ({__file__} if rule_kind == "hard" else set())  # the warnings name the caller
        expected = _whole_matrix_rows(sizes, alphas, n_reps, rule_kind, C_values, extra)
        assert len(rows) == 2 * 2 * 4 * len(C_values)  # alphas x sizes x methods x C
        assert rows == expected


def test_covariance_study_on_the_lanczos_path(monkeypatch):
    """With the Lanczos cut at 2, every block norm of the study is certified by Lanczos.

    The rows equal those of the whole-matrix oracle bit for bit, and lie
    within 1e-12 of the rows that `eigvalsh` gives below the default cut
    (each `_se` within 1e-12 of its mean).
    """
    sizes, alphas, n_reps, C_values, extra = (40, 60), (0.5, 1.0), 2, (1.0, 2.0), (0, 2)
    kwargs = dict(sizes=sizes, alphas=alphas, rho_Ts=(0.7,), n_reps=n_reps, seed=5, C_values=C_values,
                  rule_kind="scad", extra_factors=extra)
    assert max(sizes) < covariance._LANCZOS_MIN
    by_eigvalsh = experiment_cov(**kwargs)
    monkeypatch.setattr(covariance, "_LANCZOS_MIN", 2)
    norms = []
    lanczos = covariance._lanczos_norm

    def recording(a):
        norms.append(lanczos(a))
        return norms[-1]

    monkeypatch.setattr(covariance, "_lanczos_norm", recording)
    rows = experiment_cov(**kwargs)
    assert len(norms) > len(rows) and None not in norms
    assert rows == _whole_matrix_rows(sizes, alphas, n_reps, "scad", C_values, extra)
    for got, ref in zip(rows, by_eigvalsh, strict=True):
        for what in ("cov", "inv"):
            mean = ref[f"err_{what}_mean"]
            assert got[f"err_{what}_mean"] == pytest.approx(mean, rel=1e-12, abs=0.0)
            assert got[f"err_{what}_se"] == pytest.approx(ref[f"err_{what}_se"], rel=0.0, abs=1e-12 * mean)


def test_covariance_replication_holds_one_residual_set_and_two_buffers(traced_peak):
    """One replication of the benchmark's shape at N = T = 300 peaks below 8 x 8 N^2 bytes, and below 6.5 x 8 N^2.

    tracemalloc peaks: 12.4 x 8 N^2 with all six residual sets alive and
    fresh N x N arrays for each estimate's S, inverse and two errors, 6.4 x
    8 N^2 with one set at a time and two reused buffers, 5.1 x 8 N^2 with
    S formed once per set and thresholded into those two buffers.  Now the
    estimates are their blocks and both errors share one buffer: 6.4 x
    8 N^2, because the N x T residuals stay alive through the thresholding
    pass (T = N here), and at N = 300 each row block of the pass is 0.73
    x 8 N^2.  An estimate kept alive into the next set's pass would add one
    8 N^2 (7.4).
    """
    n = 300
    cell = experiments._cov_cell(SimConfig(n_series=n, n_periods=n, n_factors_true=1, rho_T=0.7, seed=3))
    rep = partial(experiments._cov_rep, C_values=(1.0, 2.0), rule_kind="scad", extra_factors=(0, 1, 2, 3),
                  include_pc=True, include_known=True)
    rep(cell, 0)  # numpy's one-time allocations
    peak = traced_peak(rep, cell, 1)
    assert peak < 8 * 8 * n**2
    assert peak < 6.5 * 8 * n**2


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
    about 0.8 s of each fresh process.  Nor is `statistics` loaded: the
    normal quantile imports it on its first call.
    """
    assert _offending_imports("scipy") == []
    script = (
        "import contextlib, io, sys\n"
        "import divproj, divproj.cli, divproj.experiments\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = divproj.cli.run([])\n"
        "print(code, sorted(m for m in sys.modules if m.partition('.')[0] in ('scipy', 'statistics')))\n"
    )
    src = str(Path(divproj.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    code, loaded = run.stdout.split(" ", 1)
    assert code != "0"  # no subcommand: the parser stops at the usage error
    assert loaded.strip() == "[]"


def _dense_spectral_calls(tree):
    """Lines calling np.linalg.svd, np.linalg.inv or np.linalg.norm(., 2) outside `_Blocks.inverse`."""
    found = []

    def visit(node, in_inverse):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_inverse = in_inverse or node.name == "inverse"
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
    0.64 s.  Only `_Blocks.inverse`, which `invert_sparse_cov`, the CLI's
    row writer and the study share, inverts, one block at a time.  The
    norms need no full spectrum either: a block of `_LANCZOS_MIN` or more
    members takes a certified Lanczos iteration, which at 300 members
    cost 1.0 ms against `eigvalsh`'s 3.0 ms (one BLAS thread), and a
    smaller or uncertified block takes `eigvalsh`.
    """
    offenders = []
    for name in ("experiments.py", "covariance.py"):
        path = Path(divproj.__file__).parent / name
        offenders += [f"{name}:{line}" for line in _dense_spectral_calls(ast.parse(path.read_text()))]
    assert offenders == []


def test_one_inverse_call_site():
    """The package calls np.linalg.inv in one place, `_Blocks.inverse`."""
    sites = []
    for path in sorted(Path(divproj.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.linalg.inv", "numpy.linalg.inv"):
                sites.append(f"{path.name}:{node.lineno}")
    assert len(sites) == 1, sites


def test_one_warning_call_site():
    """The package calls warnings.warn in one place, `exceptions._warn`, and passes no stacklevel elsewhere.

    `_warn` names the first frame outside the package, so no warning site
    counts its own depth below the public call.
    """
    warns, stacklevels = [], []
    for path in sorted(Path(divproj.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(n): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) for n in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                site = f"{path.name}:{owner.get(id(node))}"
                if ast.unparse(node.func) == "warnings.warn":
                    warns.append(site)
                stacklevels += [site for k in node.keywords if k.arg == "stacklevel"]
    assert warns == ["exceptions.py:_warn"]
    assert set(stacklevels) <= {"exceptions.py:_warn"}, stacklevels
