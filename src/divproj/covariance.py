"""Sparse idiosyncratic covariance estimation by generalized thresholding.

Off-diagonal entries of the sample residual covariance are shrunk by a
hard, soft or SCAD rule at the entry-adaptive level

    tau_ij = C * sqrt(s_ii * s_jj) * omega,   omega = sqrt(log N / T) + 1/sqrt(N),

which amounts to a constant threshold on correlations.  Diagonal entries
are never touched.

The thresholded matrix is sparse, and after a permutation it is
block-diagonal over the connected components of its nonzero pattern.  Its
eigenvalues and its inverse are computed one block at a time, which is
exact (Mazumder & Hastie 2012); a dense, connected matrix is one block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from .exceptions import DegenerateDataError, NumericalWarning

KINDS = ("hard", "soft", "scad")
_BLOCK_ENTRIES = 1 << 16  # entries per row block of the thresholding loop


@dataclass(frozen=True)
class ThresholdRule:
    """Thresholding family with its constants.

    kind : 'hard', 'soft' or 'scad'
    constant_C : scale of the correlation threshold (C in tau_ij)
    scad_a : SCAD shape, must exceed 2; 3.7 is the canonical value
    """

    kind: str = "scad"
    constant_C: float = 2.0
    scad_a: float = 3.7

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown thresholding kind {self.kind!r}")
        if self.constant_C < 0:
            raise ValueError("constant_C must be non-negative")
        if self.scad_a <= 2:
            raise ValueError("scad_a must exceed 2")


@dataclass(frozen=True)
class SparseCovariance:
    """Thresholded residual covariance with its construction metadata."""

    sigma_u: np.ndarray        # N x N symmetric
    omega: float               # omega_NT used in the thresholds
    nonzero_offdiag: int

    @property
    def n_series(self) -> int:
        return self.sigma_u.shape[0]

    def sparsity_m(self, q: float) -> float:
        """Row-wise sparsity diagnostic max_i sum_j |sigma_ij|^q (0^0 := 0)."""
        a = np.abs(self.sigma_u)
        if q == 0:
            per_row = np.sum(a > 0, axis=1)
        else:
            per_row = np.sum(a**q, axis=1)
        return float(np.max(per_row))


def threshold_value(s, tau, rule: ThresholdRule):
    """Apply the generalized thresholding function h(s, tau) element-wise.

    hard:  s * 1{|s| >= tau}
    soft:  sign(s) * max(|s| - tau, 0)
    scad:  soft for |s| <= 2 tau, a linear interpolation on (2 tau, a tau],
           and the identity beyond a*tau (no shrinkage of large entries)
    """
    scalar = np.isscalar(s) or np.ndim(s) == 0
    s = np.asarray(s, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("threshold must be non-negative")
    a_s = np.abs(s)
    if rule.kind == "hard":
        out = np.where(a_s >= tau, s, 0.0)
    else:
        sign = np.sign(s)
        soft = sign * np.maximum(a_s - tau, 0.0)
        if rule.kind == "soft":
            out = soft
        else:
            a = rule.scad_a
            mid = ((a - 1.0) * s - sign * a * tau) / (a - 2.0)
            out = np.where(a_s <= 2.0 * tau, soft, np.where(a_s <= a * tau, mid, s))
    return float(out) if scalar else out


def sparse_idio_cov(residuals_hat: np.ndarray, rule: ThresholdRule) -> SparseCovariance:
    """Thresholded covariance of estimated residuals (N x T input)."""
    U = np.atleast_2d(np.asarray(residuals_hat, dtype=float))
    n, t = U.shape
    if t < 2:
        raise DegenerateDataError("need at least two time periods")
    S = U @ U.T
    S /= t
    d = np.diag(S).copy()
    if np.any(d <= 0):
        bad = int(np.argmin(d))
        raise DegenerateDataError(
            f"residual variance of series {bad} is not positive ({d[bad]:.3g})"
        )
    omega = float(np.sqrt(np.log(n) / t) + 1.0 / np.sqrt(n))
    # Threshold S in place, a row block at a time, so that tau and the rule's
    # temporaries are row blocks rather than N x N arrays.
    step = max(1, _BLOCK_ENTRIES // n)
    for i in range(0, n, step):
        rows = slice(i, i + step)
        tau = rule.constant_C * np.sqrt(np.outer(d[rows], d)) * omega
        S[rows] = threshold_value(S[rows], tau, rule)
    np.fill_diagonal(S, d)
    sigma = S + S.T  # tau_ij = tau_ji, so averaging only removes rounding noise
    sigma /= 2.0
    nonzero = int(np.count_nonzero(sigma)) - n
    return SparseCovariance(sigma_u=sigma, omega=omega, nonzero_offdiag=nonzero)


def _blocks(a: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Connected components of the nonzero pattern of the square matrix `a`.

    Returns the index arrays of the components with more than one member
    and the indices of the singletons.  After a symmetric permutation `a` is
    block-diagonal over the former and diagonal on the latter.
    """
    n = a.shape[0]
    pattern = a != 0
    pattern |= pattern.T  # symmetric, so strong components are the connected ones
    # np.flatnonzero of a boolean array is about 10x faster than a 2-D np.nonzero
    flat = np.flatnonzero(pattern)
    indptr = np.searchsorted(flat, np.arange(0, n * n + 1, n))
    graph = csr_array((np.ones(flat.size), flat % n, indptr), shape=(n, n))
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
    sizes = np.bincount(labels, minlength=n_comp)
    blocks = [np.flatnonzero(labels == k) for k in np.flatnonzero(sizes > 1)]
    return blocks, np.flatnonzero(sizes[labels] == 1)


def _sym_opnorm(e: np.ndarray) -> float:
    """Spectral norm of a symmetric matrix: its largest |eigenvalue|, block by block."""
    blocks, singles = _blocks(e)
    norm = np.abs(np.diagonal(e)[singles]).max(initial=0.0)
    for b in blocks:
        w = np.linalg.eigvalsh(e[np.ix_(b, b)])
        norm = max(norm, -w[0], w[-1])
    return float(norm)


def invert_sparse_cov(cov: SparseCovariance | np.ndarray) -> np.ndarray:
    """Inverse of a thresholded covariance, repaired to be positive definite.

    Thresholding does not guarantee positive definiteness; if the smallest
    eigenvalue is at or below a floor of 1e-6 times the mean diagonal, the
    diagonal is shifted up by (floor - lambda_min) before inverting, with a
    warning.  A mean diagonal at or below zero leaves no positive floor and
    raises DegenerateDataError.  The reported covariance itself is never
    modified.  The eigenvalues and the inverse are computed on the connected
    blocks of the nonzero pattern, so entries outside the blocks are exact
    zeros.
    """
    sigma = cov.sigma_u if isinstance(cov, SparseCovariance) else np.asarray(cov, dtype=float)
    d = np.diag(sigma)
    mean_diag = float(np.mean(d))
    eig_floor = 1e-6 * mean_diag
    if not eig_floor > 0:
        raise DegenerateDataError(
            f"covariance mean diagonal {mean_diag:.3g} <= 0: no diagonal shift makes it positive definite"
        )
    blocks, singles = _blocks(sigma)
    subs = [sigma[np.ix_(b, b)] for b in blocks]
    lam_min = float(min([d[singles].min(initial=np.inf)] + [np.linalg.eigvalsh(s)[0] for s in subs]))
    shift = 0.0
    if lam_min <= eig_floor:
        shift = eig_floor - lam_min
        warnings.warn(
            f"covariance smallest eigenvalue {lam_min:.3g} <= floor {eig_floor:.3g}; "
            f"shifting diagonal by {shift:.3g} before inversion",
            NumericalWarning,
            stacklevel=2,
        )
    out = np.zeros_like(sigma)
    out[singles, singles] = 1.0 / (d[singles] + shift)
    for b, s in zip(blocks, subs):
        s[np.diag_indices_from(s)] += shift
        out[np.ix_(b, b)] = np.linalg.inv(s)  # numpy, not scipy.linalg: one BLAS (see tests/test_covariance.py)
    return out
