"""Factor-adjusted statistics for many simultaneous mean tests.

Removing estimated common factors from each series' mean makes the
per-series statistics weakly dependent, so standard false-discovery-rate
procedures apply to them.  Benjamini-Hochberg is wired in as the default
rejection rule.  The regression of the panel on the factors and an
intercept is taken centred, the centred series on the centred factors:
one solve with the centred factors' gram (`projection._solve_gram`) gives
every series' slopes and the weights of the standard errors, and a
singular gram (collinear weights) warns once and takes the pseudo-inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InsufficientDataError
from .projection import _solve_gram, as_matrix, estimate_factors
from .weights import WeightMatrix


@dataclass(frozen=True, eq=False)  # holds arrays: == is identity, and hash() works
class FarmTestResult:
    alpha_hat: np.ndarray
    z_stats: np.ndarray
    p_values: np.ndarray
    rejected: np.ndarray
    q_level: float


def farm_stats(X, weights: WeightMatrix | np.ndarray):
    """Factor-adjusted mean estimates and their standardized statistics.

    Per series i, x_it is regressed on the diversified factor estimates
    with an intercept, that is, the centred series on the centred factors
    f_hat_t - fbar.  One solve with their gram S_f = Fc'Fc/T gives the
    slopes b_hat_i and S_f^{-1} fbar; the intercept
    alpha_hat_i = xbar_i - b_hat_i'fbar is the adjusted mean.  Its
    standard error comes from the expansion of alpha_hat_i as an average
    of g_t * u_it with g_t = 1 - fbar' S_f^{-1} (f_hat_t - fbar), giving
    se_i^2 = sum_t g_t^2 * sigma_uii / T^2.

    Returns (alpha_hat, z_stats).
    """
    Xm = as_matrix(X)
    n, t = Xm.shape
    W = weights if isinstance(weights, WeightMatrix) else WeightMatrix(np.asarray(weights, dtype=float))
    F = estimate_factors(Xm, W)
    r = F.shape[1]
    if t < r + 2:
        raise InsufficientDataError(f"need T >= R + 2, got T={t}, R={r}")
    fbar = F.mean(axis=0)
    Fc = F - fbar
    # Fc'X' = Fc'Xc' (the columns of Fc sum to zero), so the panel is not centred for the slopes.
    coef = _solve_gram(Fc.T @ Fc / t, np.column_stack([Fc.T @ Xm.T / t, fbar]))
    b, h = coef[:, :-1], coef[:, -1]
    xbar = Xm.mean(axis=1)
    alpha_hat = xbar - fbar @ b
    resid = Xm - xbar[:, None] - b.T @ Fc.T
    sigma_uii = np.mean(resid**2, axis=1)

    g = 1.0 - Fc @ h
    se = np.sqrt(np.sum(g**2) * sigma_uii) / t
    se = np.maximum(se, 1e-300)
    return alpha_hat, alpha_hat / se


def _two_sided_p(z) -> np.ndarray:
    """Two-sided standard normal p-values 2 P(N(0,1) > |z|), taken as erfc(|z| / sqrt 2)."""
    x = np.abs(np.asarray(z, dtype=float)) * math.sqrt(0.5)
    return np.array([math.erfc(v) for v in x.ravel().tolist()]).reshape(x.shape)


def bh_reject(p_values, q: float) -> np.ndarray:
    """Benjamini-Hochberg step-up rule; returns the rejected indices, sorted."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    p = np.asarray(p_values, dtype=float).ravel()
    n = p.size
    order = np.argsort(p, kind="stable")
    sorted_p = p[order]
    thresholds = q * np.arange(1, n + 1) / n
    passing = np.flatnonzero(sorted_p <= thresholds)
    if passing.size == 0:
        return np.zeros(0, dtype=int)
    k = passing[-1] + 1
    return np.sort(order[:k])


def farm_test(X, weights: WeightMatrix | np.ndarray, q: float = 0.1) -> FarmTestResult:
    """Run the factor-adjusted multiple test with BH control at level q."""
    alpha_hat, z = farm_stats(X, weights)
    p = _two_sided_p(z)
    rejected = bh_reject(p, q)
    return FarmTestResult(alpha_hat=alpha_hat, z_stats=z, p_values=p, rejected=rejected, q_level=q)
