"""Sparse idiosyncratic covariance estimation by generalized thresholding.

Off-diagonal entries of the sample residual covariance are shrunk by a
hard, soft or SCAD rule at the entry-adaptive level

    tau_ij = C * sqrt(s_ii * s_jj) * omega,   omega = sqrt(log N / T) + 1/sqrt(N),

which amounts to a constant threshold on correlations.  Diagonal entries
are never touched.

The soft and SCAD formulas run only on the entries with |s| > tau (NaNs
included); the others are set to sign(s) * 0.0, the signed zero that the
formula gives them.

The thresholded matrix is sparse, and after a permutation it is
block-diagonal over the connected components of its nonzero pattern.  Its
eigenvalues and its inverse are computed one block at a time, which is
exact (Mazumder & Hastie 2012); a dense, connected matrix is one block.
The inverse computes eigenvalues only when a Cholesky test finds that some
block's smallest one may be at or below its eigenvalue floor.  An
operator norm may be taken over a coarser partition, one whose blocks
hold whole components, so one partition can serve several matrices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

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
        if q == 0:
            per_row = np.count_nonzero(self.sigma_u, axis=1)
        else:
            per_row = np.sum(np.abs(self.sigma_u) ** q, axis=1)
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
        # Both rules give sign(s) * 0.0 wherever |s| <= tau.  The rule runs
        # only on the other entries (NaNs among them), with the operations it
        # would apply to the whole array, so every bit is the whole-array one.
        keep = ~(a_s <= tau)
        out = np.sign(s, out=np.empty(keep.shape))
        out *= 0.0
        if keep.ndim:  # numpy's 0-d arithmetic may give a NaN another sign than its array loops
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

    Returns the index arrays of the components with more than one member,
    ordered by their smallest member, and the indices of the singletons.
    After a symmetric permutation `a` is block-diagonal over the former and
    diagonal on the latter.

    Each round hooks every root to the smallest root it shares an edge with
    and then compresses the pointers until each node points at its root, so
    a root is always the smallest member of its tree.  Edges inside one tree
    are dropped, and the rounds end when no edge is left.
    """
    n = a.shape[0]
    pattern = a != 0
    pattern |= pattern.T  # an entry in either triangle links its row and column
    # np.flatnonzero of a boolean array is about 10x faster than a 2-D np.nonzero
    lo, hi = np.divmod(np.flatnonzero(pattern), n)
    upper = lo < hi  # one direction per edge
    lo, hi = lo[upper], hi[upper]
    labels = np.arange(n)
    while lo.size:
        np.minimum.at(labels, hi, lo)
        while True:
            up = labels[labels]
            if np.array_equal(up, labels):
                break
            labels = up
        lo, hi = labels[lo], labels[hi]
        keep = lo != hi
        lo, hi = np.minimum(lo[keep], hi[keep]), np.maximum(lo[keep], hi[keep])
    sizes = np.bincount(labels, minlength=n)
    blocks = [np.flatnonzero(labels == k) for k in np.flatnonzero(sizes > 1)]
    return blocks, np.flatnonzero(sizes[labels] == 1)


def _sym_opnorm(e: np.ndarray, partition=None) -> float:
    """Spectral norm of a symmetric matrix: its largest |eigenvalue|, block by block.

    `partition` is a `_blocks` result to use in place of `_blocks(e)`.  It
    is exact for any partition whose blocks each hold whole components of
    e's pattern, such as that of a pattern containing e's.
    """
    blocks, singles = _blocks(e) if partition is None else partition
    norm = np.abs(np.diagonal(e)[singles]).max(initial=0.0)
    for b in blocks:
        w = np.linalg.eigvalsh(e[np.ix_(b, b)])
        norm = max(norm, -w[0], w[-1])
    return float(norm)


def _above_floor(singles: np.ndarray, subs: list[np.ndarray], floor: float) -> bool:
    """True when every singleton exceeds `floor` and every block minus floor*I has a Cholesky factor."""
    if not np.all(singles > floor):
        return False
    try:
        for s in subs:
            np.linalg.cholesky(s - floor * np.eye(len(s)))
    except np.linalg.LinAlgError:
        return False
    return True


def invert_sparse_cov(cov: SparseCovariance | np.ndarray) -> np.ndarray:
    """Inverse of a thresholded covariance, repaired to be positive definite.

    Thresholding does not guarantee positive definiteness; if the smallest
    eigenvalue is at or below a floor of 1e-6 times the mean diagonal, the
    diagonal is shifted up by (floor - lambda_min) before inverting, with a
    warning.  A mean diagonal at or below zero leaves no positive floor and
    raises DegenerateDataError.  The reported covariance itself is never
    modified.  The inverse is computed on the connected blocks of the
    nonzero pattern, so entries outside the blocks are exact zeros.

    The eigenvalues are computed only when the matrix fails a Cholesky
    gate: every singleton above the floor, and a Cholesky factor of every
    block minus floor*I.  When the gate passes, lambda_min is above the
    floor up to rounding, and no shift is made.  When it fails, lambda_min
    is computed and tested as described above.  So the result can differ
    from that of the eigenvalue test alone only when some block's
    lambda_min lies within rounding of the floor: the gate may then pass
    where the computed lambda_min would have asked for a shift no larger
    than that rounding.
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
    shift = 0.0
    if not _above_floor(d[singles], subs, eig_floor):
        lam_min = float(min([d[singles].min(initial=np.inf)] + [np.linalg.eigvalsh(s)[0] for s in subs]))
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
