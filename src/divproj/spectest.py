"""Specification test: do observed factors span the latent factor space?

The statistic is the squared Frobenius distance between the projection
matrices of the observed factors and of the diversified factor estimates.
Its null distribution is normal after a plug-in bias correction (built
from the thresholded idiosyncratic covariance) and a parametric-bootstrap
standard deviation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .covariance import ThresholdRule, sparse_idio_cov
from .exceptions import DimensionError, NumericalWarning
from .fdr import _two_sided_p
from .projection import _orthobasis, _solve_gram
from .projection import fit as projection_fit
from .simulation import rep_rng
from .weights import WeightMatrix

_SIGMA_FLOOR = 1e-12
# The covariance plug-in's rule when none is given: SCAD with C = 1 keeps the
# bias and variance plug-ins nearly unbiased, which the test's size hinges on.
DEFAULT_RULE = ThresholdRule(kind="scad", constant_C=1.0)


@dataclass(frozen=True)
class SpecTestResult:
    statistic: float      # ||P_G - P_Fhat||_F^2
    mean_hat: float
    sigma_hat: float
    z: float              # N sqrt(T) (statistic - mean_hat) / sigma_hat
    p_value: float
    n_bootstrap: int
    seed: int


def spec_statistic(factors_est: np.ndarray, observed: np.ndarray) -> float:
    """||P_G - P_Fhat||_F^2, computed through orthonormal column bases.

    Both arguments must have the same number of columns (the working number
    of factors is pinned to the dimension of the observed factors).
    """
    F = np.atleast_2d(np.asarray(factors_est, dtype=float))
    G = np.atleast_2d(np.asarray(observed, dtype=float))
    if F.shape[1] != G.shape[1]:
        raise DimensionError(
            f"estimated factors have {F.shape[1]} columns, observed factors {G.shape[1]}"
        )
    if F.shape[0] != G.shape[0]:
        raise DimensionError("factor matrices disagree on the number of periods")
    qf = _orthobasis(F)
    qg = _orthobasis(G)
    cross = qg.T @ qf
    # ||P_G - P_F||_F^2 = rank(G) + rank(F) - 2 ||Q_G' Q_F||_F^2
    val = qg.shape[1] + qf.shape[1] - 2.0 * float(np.sum(cross**2))
    return max(val, 0.0)


def _plug_ins(F: np.ndarray, v: np.ndarray, n: int):
    """A_hat = 2 (F'F/T)^{-1} and the bias tr(A_hat V) / N^2, for V = W' Sigma_u_hat W.

    A singular factor gram raises SingularGramError.
    """
    gram = F.T @ F / F.shape[0]
    a_hat = 2.0 * _solve_gram(gram, np.eye(gram.shape[0]), strict=True)
    return a_hat, float(np.trace(a_hat @ v)) / n**2


def mean_hat(factors_est: np.ndarray, weights: WeightMatrix | np.ndarray, sigma_u: np.ndarray) -> float:
    """Plug-in bias tr(A_hat W' Sigma_u_hat W) / N^2 with A_hat = 2 (F'F/T)^{-1}."""
    F = np.atleast_2d(np.asarray(factors_est, dtype=float))
    W = weights.values if isinstance(weights, WeightMatrix) else np.asarray(weights, dtype=float)
    return _plug_ins(F, W.T @ np.asarray(sigma_u, dtype=float) @ W, W.shape[0])[1]


def _check_draws(n_draws: int) -> None:
    if n_draws < 2:
        raise ValueError(f"n_draws must be at least 2 for a standard deviation, got {n_draws}")


def sigma_bootstrap(
    a_hat: np.ndarray,
    v_hat: np.ndarray,
    n_draws: int = 2000,
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> float:
    """Parametric-bootstrap standard deviation of the test statistic.

    Draws Z_b ~ N(0, V_hat) and returns the sample standard deviation of
    tr(A_hat Z_b Z_b').  V_hat is the R x R matrix W' Sigma_u_hat W / N, so
    the draws already carry the W'/sqrt(N) scaling of the projected noise.
    Small negative eigenvalues of V_hat are clipped at zero with a warning;
    negativity beyond rounding noise is an error.
    """
    _check_draws(n_draws)
    A = np.atleast_2d(np.asarray(a_hat, dtype=float))
    V = np.atleast_2d(np.asarray(v_hat, dtype=float))
    V = (V + V.T) / 2.0
    eigval, eigvec = np.linalg.eigh(V)
    scale = max(float(eigval[-1]), 0.0)
    if eigval[0] < -1e-8 * max(scale, 1e-300):
        raise ValueError(
            f"bootstrap covariance is not positive semidefinite (min eig {eigval[0]:.3g})"
        )
    if eigval[0] < 0:
        warnings.warn(
            "clipping small negative eigenvalues of the bootstrap covariance at zero",
            NumericalWarning,
            stacklevel=2,
        )
    root = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
    if rng is None:
        rng = rep_rng(seed, 0, 0)
    draws = rng.standard_normal((n_draws, V.shape[0])) @ root.T
    stats = np.einsum("bi,ij,bj->b", draws, A, draws)
    return float(np.std(stats, ddof=1))


def spec_test(
    X,
    observed,
    weights: WeightMatrix | np.ndarray,
    rule: ThresholdRule | None = None,
    n_draws: int = 2000,
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> SpecTestResult:
    """Full specification-test pipeline on an observed panel.

    The working number of factors equals the number of observed factor
    columns.  SCAD thresholding with C = 1 (`DEFAULT_RULE`) is the default
    for the covariance plug-in (soft thresholding's first-order bias
    distorts the test's size).  The plug-in covariance is rescaled by
    T/(T - R) to undo the downward bias of residual variances after
    fitting R factor loadings; without it the test over-rejects in small
    samples.  V = W' Sigma_u W is formed from the estimate's blocks
    (`_Blocks.sandwich`), so no N x N array is built, and the rescale is
    made on V.  A noiseless panel has V = 0 and makes no estimate.
    n_draws < 2 raises `sigma_bootstrap`'s ValueError before any of the
    work.
    """
    _check_draws(n_draws)
    G = np.atleast_2d(np.asarray(observed, dtype=float))
    W = weights if isinstance(weights, WeightMatrix) else WeightMatrix(np.asarray(weights, dtype=float))
    if W.n_working_factors != G.shape[1]:
        raise DimensionError(
            f"weights provide {W.n_working_factors} working factors but the observed "
            f"factors have dimension {G.shape[1]}"
        )
    if rule is None:
        rule = DEFAULT_RULE
    fit_res = projection_fit(X, W)
    F = fit_res.factors
    n, t = fit_res.residuals.shape
    resid_scale = float(np.max(np.abs(fit_res.residuals)))
    panel_scale = float(np.max(np.abs(np.asarray(fit_res.loadings @ F.T))))
    if resid_scale <= 1e-12 * max(panel_scale, 1.0):
        # noiseless panel: zero residual covariance, statistic compared at the
        # sigma floor, reported as a non-rejection
        v = np.zeros((W.n_working_factors,) * 2)
    else:
        v = sparse_idio_cov(fit_res.residuals, rule).estimate.sandwich(W.values)
        if t > F.shape[1]:
            v *= t / (t - F.shape[1])
    stat = spec_statistic(F, G)
    a_hat, m_hat = _plug_ins(F, v, n)
    sd = sigma_bootstrap(a_hat, v / n, n_draws=n_draws, seed=seed, rng=rng)
    sd = max(sd, _SIGMA_FLOOR)
    z = n * np.sqrt(t) * (stat - m_hat) / sd
    p = float(_two_sided_p(z))
    return SpecTestResult(
        statistic=stat,
        mean_hat=m_hat,
        sigma_hat=sd,
        z=float(z),
        p_value=p,
        n_bootstrap=n_draws,
        seed=seed,
    )
