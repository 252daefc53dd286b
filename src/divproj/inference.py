"""Factor-augmented post-selection inference for a scalar treatment effect.

The pipeline purges estimated factors from the outcome and treatment,
lasso-selects among the estimated idiosyncratic components in both
equations, refits unpenalized on the union of the selected supports, and
estimates the treatment effect by residual-on-residual regression.  The
lasso solver is cyclic coordinate descent on the precomputed gram matrix,
with active-set cycling between full sweeps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .exceptions import DimensionError, InsufficientDataError
from .projection import _orthobasis, _solve_gram, estimate_factors
from .weights import WeightMatrix

_SIGMA2_FLOOR = 1e-12
_SUPPORT_TOL = 1e-10


@dataclass(frozen=True)
class LassoProblem:
    """An l1-penalized least-squares problem (1/T)||y - D g||^2 + tau ||g||_1."""

    design: np.ndarray       # T x N
    response: np.ndarray     # length T
    tau: float
    max_iter: int = 1000
    tol: float = 1e-10

    def __post_init__(self):
        D = np.atleast_2d(np.asarray(self.design, dtype=float))
        y = np.asarray(self.response, dtype=float).ravel()
        object.__setattr__(self, "design", D)
        object.__setattr__(self, "response", y)
        if not (np.all(np.isfinite(D)) and np.all(np.isfinite(y))):
            raise ValueError("design and response must be finite")
        if D.shape[0] != y.size:
            raise DimensionError("design and response disagree on the sample size")
        if self.tau < 0:
            raise ValueError("tau must be non-negative")


@dataclass(frozen=True)
class DoubleSelectionResult:
    """Output of the double-selection pipeline."""

    beta_hat: float
    se: float
    selected: np.ndarray          # sorted indices of the union support
    alpha_y: np.ndarray           # length R
    alpha_g: np.ndarray
    gamma_hat: np.ndarray         # length N, supported on `selected`
    theta_hat: np.ndarray
    sigma_g2: float
    sigma_eta_g2: float
    eps_y_hat: np.ndarray         # length T
    eps_g_hat: np.ndarray

    @property
    def z(self) -> float:
        """Standardized estimate relative to beta = 0."""
        return self.beta_hat / self.se


def _sweep(G, Gdiag, c, q, gamma, halftau, order) -> float:
    """One pass of coordinate updates over `order`; returns max coefficient change."""
    max_change = 0.0
    for j in order:
        gjj = Gdiag[j]
        if gjj <= 0.0:
            continue
        rho = c[j] - q[j] + gjj * gamma[j]
        new = math.copysign(max(abs(rho) - halftau, 0.0), rho) / gjj
        delta = new - gamma[j]
        if delta != 0.0:
            q += G[j] * delta
            gamma[j] = new
            max_change = max(max_change, abs(delta))
    return max_change


def _cd_lasso(G, c, y2_mean, tau, gamma0=None, max_iter=1000, tol=1e-10):
    """Coordinate descent on the gram form of the lasso objective.

    G = D'D/T, c = D'y/T and y2_mean = mean(y^2), so the objective is
    g'Gg - 2 c'g + y2_mean + tau ||g||_1.  Returns (gamma, objectives,
    converged) where `objectives` holds the value after every sweep.
    """
    n = c.size
    gamma = np.zeros(n) if gamma0 is None else np.array(gamma0, dtype=float)
    q = G @ gamma if gamma0 is not None else np.zeros(n)
    Gdiag = np.ascontiguousarray(np.diag(G))
    halftau = tau / 2.0
    all_idx = np.arange(n)

    def objective():
        return float(y2_mean - 2.0 * (c @ gamma) + gamma @ q + tau * np.sum(np.abs(gamma)))

    objectives = []
    sweeps = 0
    converged = False
    while sweeps < max_iter:
        change = _sweep(G, Gdiag, c, q, gamma, halftau, all_idx)
        sweeps += 1
        objectives.append(objective())
        if change < tol:
            converged = True
            break
        active = np.flatnonzero(gamma)
        while sweeps < max_iter and active.size:
            change = _sweep(G, Gdiag, c, q, gamma, halftau, active)
            sweeps += 1
            objectives.append(objective())
            if change < tol:
                break
    return gamma, objectives, converged


def lasso(problem: LassoProblem) -> np.ndarray:
    """Solve the lasso by cyclic coordinate descent.

    Emits a warning and returns the last iterate if the coefficient-change
    criterion is not met within `max_iter` sweeps.
    """
    D, y = problem.design, problem.response
    t = D.shape[0]
    G = D.T @ D / t
    c = D.T @ y / t
    gamma, _, converged = _cd_lasso(
        G, c, float(np.mean(y**2)), problem.tau, max_iter=problem.max_iter, tol=problem.tol
    )
    if not converged:
        warnings.warn(
            f"lasso did not converge in {problem.max_iter} sweeps; returning last iterate",
            stacklevel=2,
        )
    return gamma


def tuning_tau(sigma2: float, n: int, t: int, C: float = 4.1) -> float:
    """Penalty level tau = C sqrt(sigma2 * log(n) / t)."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be non-negative")
    return C * math.sqrt(sigma2 * math.log(n) / t)


def _post_lasso_rms(G, c, y2_mean, support, t):
    """Residual variance of the OLS refit on `support`, in gram form.

    Degrees-of-freedom adjusted by T/(T - |support|); without the
    adjustment the variance update feeds back on itself (a larger support
    shrinks the residuals, which shrinks the penalty, which grows the
    support).
    """
    if support.size == 0:
        return y2_mean
    if support.size >= t:
        return _SIGMA2_FLOOR
    c_s = c[support]
    b = _solve_gram(G[np.ix_(support, support)], c_s)
    rms = max(y2_mean - float(c_s @ b), 0.0)
    return rms * t / (t - support.size)


def _iterate_sigma_core(G, c, y_var, y2_mean, n, t, C, n_rounds=5):
    """Gram-form iterative tuning; returns (tau, sigma2, warm coefficients).

    The variance update uses post-lasso residuals (OLS refit on the current
    support) rather than the shrunken lasso residuals; with correlated
    designs the raw lasso residual variance can stall near Var(y) and leave
    the penalty too large to select anything.
    """
    sigma2 = max(float(y_var), _SIGMA2_FLOOR)
    gamma = None
    for _ in range(n_rounds):
        tau = tuning_tau(sigma2, n, t, C)
        gamma, _, _ = _cd_lasso(G, c, y2_mean, tau, gamma0=gamma)
        support = np.flatnonzero(np.abs(gamma) > _SUPPORT_TOL)
        new_sigma2 = max(_post_lasso_rms(G, c, y2_mean, support, t), _SIGMA2_FLOOR)
        done = abs(new_sigma2 - sigma2) / max(sigma2, _SIGMA2_FLOOR) < 1e-3
        sigma2 = new_sigma2
        if done:
            break
    return tuning_tau(sigma2, n, t, C), sigma2, gamma


def iterate_sigma(design, response, C: float = 4.1, n_rounds: int = 5):
    """Iterative feasible tuning of the lasso penalty.

    Starts from sigma2 = Var(response) (about the raw second moment when
    the response is centered upstream; here the plain variance is used),
    alternates a lasso fit at tau = C sqrt(sigma2 log N / T) with a
    residual-mean-square update of sigma2, and stops when the relative
    change drops below 1e-3 or after `n_rounds` rounds.  sigma2 is floored
    at 1e-12 so a degenerate response yields tau ~ 0 instead of zero.

    Returns (tau, sigma2) evaluated at the final variance estimate.
    """
    D = np.atleast_2d(np.asarray(design, dtype=float))
    y = np.asarray(response, dtype=float).ravel()
    t, n = D.shape
    G = D.T @ D / t
    c = D.T @ y / t
    tau, sigma2, _ = _iterate_sigma_core(
        G, c, float(np.var(y)), float(np.mean(y**2)), n, t, C, n_rounds
    )
    return tau, sigma2


def _ols_coefs(Z: np.ndarray, y: np.ndarray) -> np.ndarray:
    if Z.shape[1] == 0:
        return np.zeros(0)
    return np.linalg.lstsq(Z, y, rcond=None)[0]


def _penalized_equation(G, c_resp, y_purged, n, t, C, sigma2=None):
    """Lasso for one equation; iteratively tuned unless sigma2 is supplied."""
    y2_mean = float(np.mean(y_purged**2))
    if sigma2 is None:
        tau, _, gamma = _iterate_sigma_core(G, c_resp, float(np.var(y_purged)), y2_mean, n, t, C)
    else:
        tau, gamma = tuning_tau(sigma2, n, t, C), None
    gamma, _, _ = _cd_lasso(G, c_resp, y2_mean, tau, gamma0=gamma)
    return gamma


def double_selection(
    y,
    g,
    X,
    weights: WeightMatrix | np.ndarray | None = None,
    C: float = 4.1,
    refit: bool = True,
    joint_step2: bool = False,
    hac_lags: int = 0,
    sigma2_y: float | None = None,
    sigma2_g: float | None = None,
    standardize: bool = False,
    support_tol: float = _SUPPORT_TOL,
) -> DoubleSelectionResult:
    """Factor-augmented double selection for a scalar treatment effect.

    Parameters
    ----------
    y, g : length-T outcome and treatment series.
    X : N x T panel of high-dimensional controls.
    weights : diversified weights used to extract working factors; pass
        ``None`` to skip the factor step entirely (plain double selection
        directly on the controls).
    C : penalty constant in tau = C sqrt(sigma2 log N / T); must exceed 4
        for the theory, 4.1 by default.
    refit : refit unpenalized on the union support before the residual
        regression (the default pipeline); ``False`` uses the penalized
        coefficients directly.
    joint_step2 : estimate the factor coefficients jointly with the lasso
        (equivalent to partialling the factors out of both the response
        and the design) instead of the default two-stage form.
    hac_lags : if positive, a Bartlett-kernel HAC estimator with this many
        lags replaces the plug-in variance of the score.
    sigma2_y, sigma2_g : residual variances entering the penalty levels of
        the outcome and treatment equations.  Left unset they are estimated
        by the feasible iteration; simulations that know the true values
        can pin them (the penalty is defined through the true variances).
    standardize : scale the design columns to unit second moment inside the
        penalized step (the theory is stated for the raw design, so this is
        off by default).
    """
    y = np.asarray(y, dtype=float).ravel()
    g = np.asarray(g, dtype=float).ravel()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    t = y.size
    if g.size != t or X.shape[1] != t:
        raise DimensionError("y, g and X disagree on the number of periods")

    if weights is None:
        R = 0
        F = np.zeros((t, 0))
        U = X
        alpha_y = np.zeros(0)
        alpha_g = np.zeros(0)
        y_p, g_p = y, g
    else:
        W = weights if isinstance(weights, WeightMatrix) else WeightMatrix(np.asarray(weights, dtype=float))
        F = estimate_factors(X, W)
        R = F.shape[1]
        if t <= R + 2:
            raise InsufficientDataError(f"need T > R + 2, got T={t}, R={R}")
        # One least-squares solve on the factors gives the loadings of the
        # controls and the factor coefficients of y and g.
        coef = _solve_gram(F.T @ F, F.T @ np.column_stack([X.T, y, g]))
        U = X - coef[:, :-2].T @ F.T
        alpha_y, alpha_g = coef[:, -2], coef[:, -1]
        y_p = y - F @ alpha_y
        g_p = g - F @ alpha_g

    D = U.T  # T x N design of estimated idiosyncratic components
    n = D.shape[1]
    if joint_step2 and R > 0:
        # Partialling the factors out of the design as well makes the
        # two-equation lasso equal to the joint minimization over
        # (alpha, gamma) with the factor block unpenalized.
        Q = _orthobasis(F)
        D = D - Q @ (Q.T @ D)
    if standardize:
        col_scale = np.sqrt(np.mean(D**2, axis=0))
        col_scale[col_scale == 0] = 1.0
    else:
        col_scale = np.ones(n)
    D_pen = D / col_scale
    G = D_pen.T @ D_pen / t

    gamma_t = _penalized_equation(G, D_pen.T @ y_p / t, y_p, n, t, C, sigma2_y) / col_scale
    theta_t = _penalized_equation(G, D_pen.T @ g_p / t, g_p, n, t, C, sigma2_g) / col_scale

    selected = np.flatnonzero((np.abs(gamma_t) > support_tol) | (np.abs(theta_t) > support_tol))

    if refit:
        if selected.size + R + 1 >= t:
            raise InsufficientDataError(
                f"refit infeasible: |J| + R + 1 = {selected.size + R + 1} >= T = {t}; "
                "increase the penalty constant C"
            )
        gamma_hat = np.zeros(n)
        theta_hat = np.zeros(n)
        D_sel = D[:, selected]
        gamma_hat[selected] = _ols_coefs(D_sel, y_p)
        theta_hat[selected] = _ols_coefs(D_sel, g_p)
    else:
        gamma_hat = gamma_t
        theta_hat = theta_t

    eps_y = y_p - D @ gamma_hat
    eps_g = g_p - D @ theta_hat
    denom = float(eps_g @ eps_g)
    if denom <= 0:
        raise InsufficientDataError("treatment residuals are identically zero")
    beta_hat = float(eps_g @ eps_y) / denom

    sigma_g2 = denom / t
    eta = eps_y - beta_hat * eps_g
    score = eta * eps_g
    if hac_lags > 0:
        sigma_eta_g2 = float(score @ score) / t
        for lag in range(1, hac_lags + 1):
            w = 1.0 - lag / (hac_lags + 1.0)
            sigma_eta_g2 += 2.0 * w * float(score[lag:] @ score[:-lag]) / t
        sigma_eta_g2 = max(sigma_eta_g2, _SIGMA2_FLOOR)
    else:
        sigma_eta_g2 = float(np.mean(score**2))
    se = math.sqrt(sigma_eta_g2) / (math.sqrt(t) * sigma_g2)

    return DoubleSelectionResult(
        beta_hat=beta_hat,
        se=se,
        selected=selected,
        alpha_y=alpha_y,
        alpha_g=alpha_g,
        gamma_hat=gamma_hat,
        theta_hat=theta_hat,
        sigma_g2=sigma_g2,
        sigma_eta_g2=sigma_eta_g2,
        eps_y_hat=eps_y,
        eps_g_hat=eps_g,
    )


def confidence_interval(result: DoubleSelectionResult, level: float = 0.95):
    """Two-sided normal confidence interval for the treatment effect."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    zq = float(norm.ppf(0.5 + level / 2.0))
    return result.beta_hat - zq * result.se, result.beta_hat + zq * result.se
