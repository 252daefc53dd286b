"""Factor-augmented post-selection inference for a scalar treatment effect.

The pipeline purges estimated factors from the outcome and treatment,
lasso-selects among the estimated idiosyncratic components in both
equations, refits unpenalized on the union of the selected supports, and
estimates the treatment effect by residual-on-residual regression.  The
refit is one gram solve for both equations (`projection._solve_gram`): a
singular refit gram, such as that of a selected control duplicating
another, takes the pseudo-inverse, the minimum-norm least-squares answer,
with one NumericalWarning.

Every lasso is solved in gram form, G = D'D/T and c = D'y/T, but the
N x N gram is not built: G's rows are computed from the T x N design D
the first time a solver asks for them (the "covariance updating" of
Friedman, Hastie & Tibshirani 2010), so memory grows with N·T plus the
rows the path visits.  The solver follows the exact piecewise-linear
solution path from tau = 2 max|c| down to the requested tau (the
homotopy, or LARS-lasso, path of Osborne, Presnell & Turlach 2000 and
Efron et al. 2004).  It fetches row j of G when variable j joins the
active set and keeps the inverse of the k x k active-set gram across
kinks, bordered on each join and downdated on each drop, so a kink costs
O(k^2 + kN) and factors nothing.  It checks the answer against the
lasso's optimality (KKT) conditions with G gamma taken as D'(D gamma)/T.
When an active-set gram is singular (a joining variable's Schur
complement is at most _RANK_TOL times its diagonal entry), the check
fails or the path takes more than 4N kinks, cyclic coordinate descent with
active-set cycling solves the problem instead, from the caller's warm
start; it reads only G's diagonal and the rows of the coefficients it moves,
so no path builds the dense G.  The purged grams of the factor step are
singular themselves (W'U_hat = 0); the path needs only its active-set
grams to be regular.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateDataError, DimensionError, InsufficientDataError, NumericalWarning, SingularGramError
from .projection import _solve_gram, estimate_factors
from .weights import _RANK_TOL, WeightMatrix

_SIGMA2_FLOOR = 1e-12
_SUPPORT_TOL = 1e-10
_KKT_TOL = 1e-9


@dataclass(frozen=True, eq=False)  # holds arrays: == is identity, and hash() works
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
        """Standardized estimate relative to beta = 0; a standard error not above 0 raises DegenerateDataError."""
        if not self.se > 0:
            raise DegenerateDataError(f"standard error of the treatment effect is {self.se:.3g}: no z-statistic")
        return self.beta_hat / self.se


class _GramRows:
    """The gram G = D'D/T of a T x N design D, one row at a time.

    ``G[j]`` is row j, computed as D'D[:, j]/T on first use and kept.
    ``G @ v`` is D'(D v)/T and ``G.diagonal()`` the column sums of D*D over
    T, so no method builds the N x N gram.  A dense ndarray serves every
    solver here in place of this object.
    """

    def __init__(self, D):
        self._D = D
        self._rows = {}

    def __getitem__(self, j):
        row = self._rows.get(j)
        if row is None:
            row = self._rows[j] = self._D.T @ self._D[:, j] / self._D.shape[0]
        return row

    def __matmul__(self, v):
        return self._D.T @ (self._D @ v) / self._D.shape[0]

    def diagonal(self):
        return np.einsum("ij,ij->j", self._D, self._D) / self._D.shape[0]


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


def _cd_lasso(G, c, tau, gamma0=None, max_iter=1000, tol=1e-10):
    """Coordinate descent on the gram form of the lasso objective.

    G = D'D/T and c = D'y/T, so the objective is
    mean(y^2) - 2 c'g + g'Gg + tau ||g||_1.  Returns (gamma, converged),
    where `converged` is False if the largest coefficient change of a full
    sweep still exceeds `tol` after `max_iter` sweeps.  G (a `_GramRows` or
    an ndarray) is read through G.diagonal(), G @ gamma0 and moved rows G[j].
    """
    n = c.size
    gamma = np.zeros(n) if gamma0 is None else np.array(gamma0, dtype=float)
    q = G @ gamma if gamma0 is not None else np.zeros(n)
    Gdiag = G.diagonal()
    halftau = tau / 2.0
    all_idx = np.arange(n)

    sweeps = 0
    converged = False
    while sweeps < max_iter:
        change = _sweep(G, Gdiag, c, q, gamma, halftau, all_idx)
        sweeps += 1
        if change < tol:
            converged = True
            break
        active = np.flatnonzero(gamma)
        while sweeps < max_iter and active.size:
            change = _sweep(G, Gdiag, c, q, gamma, halftau, active)
            sweeps += 1
            if change < tol:
                break
    return gamma, converged


class _ActiveSet:
    """The active set A of the homotopy path, with G[A], (c_A, s_A) and G_AA^{-1}.

    ``idx[:k]`` is A in joining order, ``rows[:k]`` the rows G[A],
    ``rhs[:k]`` the right-hand sides (c_A, s_A) and ``inv[:k, :k]`` the
    inverse of G_AA.  The blocks are preallocated and double when full.  A
    join borders the inverse: with g = G_Aj, w = G_AA^{-1} g and the Schur
    complement s = g_jj - g'w, the new inverse is
    [[G_AA^{-1} + w w'/s, -w/s], [-w'/s, 1/s]].  A drop at position p
    downdates it by the rank-one formula E - f f'/f_p, where f is column p
    of the inverse and E the inverse without row and column p.  Either
    costs O(k^2) plus the O(N) row copy; no kink factors G_AA afresh.
    A join with s <= _RANK_TOL g_jj raises SingularGramError: s is at
    least the smallest eigenvalue of the bordered gram, so every set this
    rejects is singular to the tolerance `_solve_gram` applies.
    """

    def __init__(self, n):
        cap = min(n, 16)
        self.k = 0
        self.idx = np.empty(cap, dtype=np.intp)
        self.rows = np.empty((cap, n))
        self.rhs = np.empty((cap, 2))
        self.inv = np.empty((cap, cap))

    def join(self, j, row, c_j, sign):
        """Append variable j with gram row `row`, c_j and sign s_j."""
        k = self.k
        if k == self.idx.size:
            inv = np.empty((2 * k, 2 * k))
            inv[:k, :k] = self.inv
            self.inv = inv
            self.idx, self.rows, self.rhs = (
                np.concatenate([x, np.empty_like(x)]) for x in (self.idx, self.rows, self.rhs)
            )
        inv = self.inv
        g = self.rows[:k, j]
        w = inv[:k, :k] @ g
        gjj = row[j]
        schur = gjj - g @ w
        if not schur > _RANK_TOL * gjj:
            raise SingularGramError(f"{k + 1} x {k + 1} active-set gram matrix is singular to tolerance")
        w /= -schur
        inv[:k, :k] += schur * w[:, None] * w
        inv[k, :k] = inv[:k, k] = w
        inv[k, k] = 1.0 / schur
        self.idx[k], self.rows[k], self.rhs[k] = j, row, (c_j, sign)
        self.k = k + 1

    def drop(self, p):
        """Remove the variable at position p of A."""
        k = self.k - 1
        inv = self.inv
        f = inv[: k + 1, p]
        inv[: k + 1, : k + 1] -= f[:, None] * (f / f[p])
        for x in (self.idx, self.rows, self.rhs, inv):
            x[p:k] = x[p + 1 : k + 1]
        inv[:k, p:k] = inv[:k, p + 1 : k + 1]
        self.k = k


def _homotopy_lasso(G, c, tau):
    """The lasso solution in gram form, by following its path in lambda = tau/2.

    The solution is piecewise linear in lambda.  On a stretch with active
    set A and signs s_A it is g_A = G_AA^{-1} (c_A - lambda s_A), so one
    small product of the inverse with the two right-hand sides c_A and s_A
    gives the whole stretch, its end point included.  From lambda = max|c|
    and g = 0 the path moves down to the next kink: an inactive j joins A
    when |c_j - G_jA g_A| reaches lambda, and an active coefficient leaves
    A when it reaches zero.  `_ActiveSet` keeps A, the rows G[A] and
    G_AA^{-1} across kinks: a joining variable's row is read from G once
    and borders the inverse, and a leaving one's row is dropped and the
    inverse downdated.  Returns g at lambda = tau/2, or None after 4N
    kinks.  A join whose Schur complement is at most _RANK_TOL times its
    diagonal entry raises SingularGramError.  The answer is not checked
    here; `_lasso` checks it.
    """
    n = c.size
    gamma = np.zeros(n)
    lam_end = tau / 2.0
    lam = float(np.max(np.abs(c), initial=0.0))
    if lam <= lam_end:
        return gamma
    active = _ActiveSet(n)
    joined = int(np.argmax(np.abs(c)))
    active.join(joined, G[joined], c[joined], np.sign(c[joined]))
    left = left_sign = -1
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(4 * n):
            k = active.k
            A, GA = active.idx[:k], active.rows[:k]
            u, d = (active.inv[:k, :k] @ active.rhs[:k]).T
            # On this stretch g_A = u - lambda d and c - G g = b + lambda a.
            a = d @ GA
            b = c - u @ GA
            up = b / (1.0 - a)  # c_j - G_j g reaches +lambda
            down = -b / (1.0 + a)  # ... or -lambda
            drops = u / d
            for x in (up, down, drops):  # only events below lambda count (NaN never)
                x[~(x < lam)] = -np.inf
            up[A] = down[A] = -np.inf
            # The event of the last kink sits at the current lambda: skip it.
            if left >= 0:
                (up if left_sign > 0 else down)[left] = -np.inf
            if joined >= 0:
                drops[k - 1] = -np.inf  # the last to join sits last in A
            hits = np.maximum(up, down)
            j_in, k_out = int(np.argmax(hits)), int(np.argmax(drops))
            lam_next = max(hits[j_in], drops[k_out])
            if lam_next <= lam_end:
                gamma[A] = u - lam_end * d
                return gamma
            lam = lam_next
            if drops[k_out] >= hits[j_in]:
                left, left_sign, joined = int(A[k_out]), active.rhs[k_out, 1], -1
                if k == 1:  # only rounding can empty A below max|c|
                    return None
                active.drop(k_out)
            else:
                joined, left = j_in, -1
                active.join(j_in, G[j_in], c[j_in], np.sign(b[j_in] + lam * a[j_in]))
    return None


def _kkt_holds(G, c, tau, gamma) -> bool:
    """Whether gamma meets the lasso's optimality conditions to _KKT_TOL.

    |c - G gamma|_j <= tau/2 for every j, with equality at the sign of
    gamma_j itself wherever gamma_j != 0.
    """
    r = c - G @ gamma
    half = tau / 2.0
    nz = gamma != 0.0
    return bool(
        np.all(np.abs(r) <= half + _KKT_TOL)
        and np.all(np.abs(r[nz] - half * np.sign(gamma[nz])) <= _KKT_TOL)
    )


def _lasso(G, c, tau, gamma0=None):
    """The lasso in gram form; returns (gamma, converged) as `_cd_lasso` does.

    The homotopy path's answer is returned when it passes the KKT check.
    Otherwise (a singular active-set gram, a failed check or more than 4N
    kinks) the answer is `_cd_lasso` started from `gamma0`; if that stops
    at its sweep cap unconverged, a NumericalWarning names `_lasso`'s caller.
    """
    try:
        gamma = _homotopy_lasso(G, c, tau)
    except SingularGramError:
        gamma = None
    if gamma is not None and _kkt_holds(G, c, tau, gamma):
        return gamma, True
    gamma, converged = _cd_lasso(G, c, tau, gamma0=gamma0)
    if not converged:
        warnings.warn(
            f"lasso coordinate descent on {c.size} coefficients stopped at its sweep cap "
            "before converging; the coefficients may be inexact",
            NumericalWarning,
            stacklevel=2,
        )
    return gamma, converged


def tuning_tau(sigma2: float, n: int, t: int, C: float = 4.1) -> float:
    """Penalty level tau = C sqrt(sigma2 * log(n) / t); C >= 0 (NaN raises ValueError)."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be non-negative")
    if not C >= 0:  # NaN fails too
        raise ValueError(f"penalty constant C must be non-negative, got {C}")
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
    b = _solve_gram(np.array([G[j] for j in support])[:, support], c_s)
    rms = max(y2_mean - float(c_s @ b), 0.0)
    return rms * t / (t - support.size)


def _iterate_sigma_core(G, c, y_var, y2_mean, n, t, C, n_rounds=5):
    """Gram-form iterative tuning; returns (tau, sigma2, last coefficients).

    Each round passes the previous round's coefficients to `_lasso` as a
    warm start.  Only its coordinate-descent fallback uses them; the
    homotopy path always starts from zero.  The variance update uses
    post-lasso residuals (OLS refit on the current support) rather than the
    shrunken lasso residuals; with correlated designs the raw lasso
    residual variance can stall near Var(y) and leave the penalty too large
    to select anything.
    """
    sigma2 = max(float(y_var), _SIGMA2_FLOOR)
    gamma = None
    for _ in range(n_rounds):
        tau = tuning_tau(sigma2, n, t, C)
        gamma, _ = _lasso(G, c, tau, gamma0=gamma)
        support = np.flatnonzero(np.abs(gamma) > _SUPPORT_TOL)
        new_sigma2 = max(_post_lasso_rms(G, c, y2_mean, support, t), _SIGMA2_FLOOR)
        done = abs(new_sigma2 - sigma2) / max(sigma2, _SIGMA2_FLOOR) < 1e-3
        sigma2 = new_sigma2
        if done:
            break
    return tuning_tau(sigma2, n, t, C), sigma2, gamma


def _penalized_equation(G, c_resp, y_purged, n, t, C, sigma2=None):
    """Lasso for one equation; iteratively tuned unless sigma2 is supplied."""
    if sigma2 is None:
        y_var, y2_mean = float(np.var(y_purged)), float(np.mean(y_purged**2))
        tau, _, gamma = _iterate_sigma_core(G, c_resp, y_var, y2_mean, n, t, C)
    else:
        tau, gamma = tuning_tau(sigma2, n, t, C), None
    gamma, _ = _lasso(G, c_resp, tau, gamma0=gamma)
    return gamma


def double_selection(
    y,
    g,
    X,
    weights: WeightMatrix | np.ndarray | None = None,
    C: float = 4.1,
    refit: bool = True,
    sigma2_y: float | None = None,
    sigma2_g: float | None = None,
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
        for the theory, 4.1 by default.  A negative or NaN C raises
        ValueError (`tuning_tau`).
    refit : refit unpenalized on the union support before the residual
        regression (the default pipeline); ``False`` uses the penalized
        coefficients directly.
    sigma2_y, sigma2_g : residual variances entering the penalty levels of
        the outcome and treatment equations.  Left unset they are estimated
        by the feasible iteration; simulations that know the true values
        can pin them (the penalty is defined through the true variances).

    The standard error is 0 when the outcome's residuals are exactly
    proportional to the treatment's (an outcome that is the treatment
    itself); the result's `z` then raises DegenerateDataError.
    """
    y = np.asarray(y, dtype=float).ravel()
    g = np.asarray(g, dtype=float).ravel()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    t = y.size
    if g.size != t or X.shape[1] != t:
        raise DimensionError("y, g and X disagree on the number of periods")

    if weights is None:
        R = 0
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
        # controls and the factor coefficients of y and g.  F'X' is formed
        # apart from F'(y, g), so the controls are not copied.
        coef = _solve_gram(F.T @ F, np.hstack([F.T @ X.T, F.T @ np.column_stack([y, g])]))
        U = coef[:, :-2].T @ F.T
        np.subtract(X, U, out=U)
        alpha_y, alpha_g = coef[:, -2], coef[:, -1]
        y_p = y - F @ alpha_y
        g_p = g - F @ alpha_g

    D = U.T  # T x N design of estimated idiosyncratic components
    n = D.shape[1]
    G = _GramRows(D)
    gamma_t = _penalized_equation(G, D.T @ y_p / t, y_p, n, t, C, sigma2_y)
    theta_t = _penalized_equation(G, D.T @ g_p / t, g_p, n, t, C, sigma2_g)

    selected = np.flatnonzero((np.abs(gamma_t) > _SUPPORT_TOL) | (np.abs(theta_t) > _SUPPORT_TOL))

    if refit:
        if selected.size + R + 1 >= t:
            raise InsufficientDataError(
                f"refit infeasible: |J| + R + 1 = {selected.size + R + 1} >= T = {t}; "
                "increase the penalty constant C"
            )
        gamma_hat = np.zeros(n)
        theta_hat = np.zeros(n)
        D_sel = D[:, selected]
        coef = _solve_gram(D_sel.T @ D_sel, D_sel.T @ np.column_stack([y_p, g_p]))
        gamma_hat[selected], theta_hat[selected] = coef.T
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
    sigma_eta_g2 = float(np.mean((eta * eps_g) ** 2))
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


@functools.lru_cache(maxsize=None)
def _normal_quantile(level: float) -> float:
    """The standard normal quantile at 0.5 + level/2."""
    import statistics  # here, not at the top: with fractions and decimal it would slow every import of divproj

    return statistics.NormalDist().inv_cdf(0.5 + level / 2.0)


def confidence_interval(result: DoubleSelectionResult, level: float = 0.95):
    """Two-sided normal confidence interval for the treatment effect."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    zq = _normal_quantile(level)
    return result.beta_hat - zq * result.se, result.beta_hat + zq * result.se
