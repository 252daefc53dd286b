"""Sparse idiosyncratic covariance estimation by generalized thresholding.

Off-diagonal entries of the sample residual covariance are shrunk by a
hard, soft or SCAD rule at the entry-adaptive level

    tau_ij = C * sqrt(s_ii * s_jj) * omega,   omega = sqrt(log N / T) + 1/sqrt(N),

which amounts to a constant threshold on correlations.  Diagonal entries
are never touched.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateDataError, NumericalWarning

KINDS = ("hard", "soft", "scad")


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
        soft = np.sign(s) * np.maximum(a_s - tau, 0.0)
        if rule.kind == "soft":
            out = soft
        else:
            a = rule.scad_a
            mid = ((a - 1.0) * s - np.sign(s) * a * tau) / (a - 2.0)
            out = np.where(a_s <= 2.0 * tau, soft, np.where(a_s <= a * tau, mid, s))
    return float(out) if scalar else out


def sparse_idio_cov(residuals_hat: np.ndarray, rule: ThresholdRule) -> SparseCovariance:
    """Thresholded covariance of estimated residuals (N x T input)."""
    U = np.atleast_2d(np.asarray(residuals_hat, dtype=float))
    n, t = U.shape
    if t < 2:
        raise DegenerateDataError("need at least two time periods")
    S = U @ U.T / t
    d = np.diag(S).copy()
    if np.any(d <= 0):
        bad = int(np.argmin(d))
        raise DegenerateDataError(
            f"residual variance of series {bad} is not positive ({d[bad]:.3g})"
        )
    omega = float(np.sqrt(np.log(n) / t) + 1.0 / np.sqrt(n))
    tau = rule.constant_C * np.sqrt(np.outer(d, d)) * omega
    sigma = threshold_value(S, tau, rule)
    np.fill_diagonal(sigma, d)
    sigma = (sigma + sigma.T) / 2.0  # tau_ij = tau_ji, so this only removes rounding noise
    nonzero = int(np.sum(sigma != 0.0) - n)
    return SparseCovariance(sigma_u=sigma, omega=omega, nonzero_offdiag=nonzero)


def invert_sparse_cov(cov: SparseCovariance | np.ndarray) -> np.ndarray:
    """Inverse of a thresholded covariance, repaired to be positive definite.

    Thresholding does not guarantee positive definiteness; if the smallest
    eigenvalue is at or below a floor of 1e-6 times the mean diagonal, the
    diagonal is shifted up by (floor - lambda_min) before inverting, with a
    warning.  A mean diagonal at or below zero leaves no positive floor and
    raises DegenerateDataError.  The reported covariance itself is never
    modified.
    """
    sigma = cov.sigma_u if isinstance(cov, SparseCovariance) else np.asarray(cov, dtype=float)
    n = sigma.shape[0]
    mean_diag = float(np.mean(np.diag(sigma)))
    eig_floor = 1e-6 * mean_diag
    if not eig_floor > 0:
        raise DegenerateDataError(
            f"covariance mean diagonal {mean_diag:.3g} <= 0: no diagonal shift makes it positive definite"
        )
    lam_min = float(np.linalg.eigvalsh(sigma)[0])
    if lam_min <= eig_floor:
        shift = eig_floor - lam_min
        warnings.warn(
            f"covariance smallest eigenvalue {lam_min:.3g} <= floor {eig_floor:.3g}; "
            f"shifting diagonal by {shift:.3g} before inversion",
            NumericalWarning,
            stacklevel=2,
        )
        sigma = sigma + shift * np.eye(n)
    return np.linalg.inv(sigma)  # numpy, not scipy.linalg: one BLAS (see tests/test_covariance.py)
