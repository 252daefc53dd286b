"""Core diversified-projection estimator and a PC benchmark.

Factors are estimated cross-sectionally, f_hat_t = W'x_t / N, so the whole
factor matrix is F_hat = X'W / N.  Loadings follow by time-series least
squares and residuals by subtraction.  Two algebraic identities hold for
every fit regardless of model correctness: W'U_hat = 0 and U_hat F_hat = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, NumericalWarning, SingularGramError, _warn
from .weights import _RANK_TOL, WeightMatrix


@dataclass(frozen=True, eq=False)  # holds arrays: == is identity, and hash() works
class PanelData:
    """Observed N x T panel: rows are series, columns are time points."""

    X: np.ndarray
    series_ids: list[str] | None = None
    time_ids: list[str] | None = None

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        object.__setattr__(self, "X", X)
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise DimensionError("panel must have at least one series and one time point")
        if not np.all(np.isfinite(X)):
            raise ValueError("panel contains non-finite entries")

    @property
    def n_series(self) -> int:
        return self.X.shape[0]

    @property
    def n_periods(self) -> int:
        return self.X.shape[1]


def as_matrix(panel) -> np.ndarray:
    """Accept either a PanelData or a bare N x T array."""
    if isinstance(panel, PanelData):
        return panel.X
    return np.atleast_2d(np.asarray(panel, dtype=float))


@dataclass(frozen=True, eq=False)  # holds arrays: == is identity, and hash() works
class FactorFit:
    """Estimated factors, loadings and residuals of one projection fit."""

    factors: np.ndarray           # T x R, row t = f_hat_t'
    loadings: np.ndarray          # N x R
    residuals: np.ndarray         # N x T
    gram: np.ndarray              # R x R, F'F/T
    weights: WeightMatrix | None = None

    @property
    def n_factors(self) -> int:
        return self.factors.shape[1]

    def common_component(self) -> np.ndarray:
        return self.loadings @ self.factors.T


@dataclass(frozen=True)
class SpaceDistance:
    """Operator-norm distances between estimated and true factor spaces."""

    proj_overlap: float        # ||P_Fhat P_F - P_F||
    adjusted_distance: float   # ||P_{Fhat M} - P_F|| with M = (HH')^+ H


def pseudo_inverse(a: np.ndarray) -> np.ndarray:
    """SVD pseudo-inverse zeroing singular values below _RANK_TOL * sigma_max."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return a.T.copy()
    return np.linalg.pinv(a, rcond=_RANK_TOL)


def _solve_gram(gram: np.ndarray, rhs: np.ndarray, strict: bool = False) -> np.ndarray:
    """Solve gram @ x = rhs for a symmetric positive semidefinite gram.

    `gram` may also be a stack (..., k, k) with `rhs` a stack (..., k, m),
    solved member by member.  A gram whose smallest eigenvalue is at most
    _RANK_TOL times its largest is singular: it is solved by the
    pseudo-inverse with a NumericalWarning (one per singular member) or,
    with `strict`, rejected with SingularGramError.
    """
    eigs = np.linalg.eigvalsh(gram).T  # row 0: the smallest eigenvalue of each member
    if eigs.shape[0] == 0:
        return np.linalg.solve(gram, rhs)
    regular = eigs[0] > _RANK_TOL * eigs[-1]  # a numpy bool for a single gram
    if regular.all() if regular.ndim else regular:
        return np.linalg.solve(gram, rhs)
    what = f"{gram.shape[-1]} x {gram.shape[-1]} gram matrix is singular to tolerance"
    if strict:
        raise SingularGramError(what)
    x = np.empty(np.shape(rhs))
    if regular.any():
        x[regular] = np.linalg.solve(gram[regular], rhs[regular])
    for i in np.ndindex(regular.shape):
        if not regular[i]:
            _warn(f"{what}; using a pseudo-inverse", NumericalWarning)
            x[i] = pseudo_inverse(gram[i]) @ rhs[i]
    return x


def _orthobasis(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (T x rank) of the column space of `a`; a vector is one column."""
    a = np.asarray(a, dtype=float)
    u, s, _ = np.linalg.svd(a[:, None] if a.ndim == 1 else a, full_matrices=False)
    keep = s > (_RANK_TOL * s[0] if s.size and s[0] > 0 else 0)
    return u[:, keep]


def estimate_factors(panel, weights: WeightMatrix | np.ndarray) -> np.ndarray:
    """Diversified projection F_hat = X'W / N (T x R).

    Stacks (..., N, T) of panels, with one N x R W or a stack of them, give stacks (..., T, R).
    """
    X = as_matrix(panel)
    W = weights.values if isinstance(weights, WeightMatrix) else np.asarray(weights, dtype=float)
    if W.shape[-2] != X.shape[-2]:
        raise DimensionError(f"weights have {W.shape[-2]} rows but panel has {X.shape[-2]} series")
    return X.mT @ W / X.shape[-2]


def estimate_loadings(panel, factors: np.ndarray) -> np.ndarray:
    """Least-squares loadings B_hat = (sum_t x_t f_t')(sum_t f_t f_t')^{-1}.

    Falls back to the pseudo-inverse with a warning when the factor gram is
    singular (this is routine when the working number of factors exceeds
    the true rank in noiseless data).
    """
    X = as_matrix(panel)
    F = np.asarray(factors, dtype=float)
    if F.shape[0] != X.shape[1]:
        raise DimensionError("factors and panel disagree on the number of periods")
    return _solve_gram(F.T @ F, F.T @ X.T).T


def residuals(panel, loadings: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """U_hat = X - B_hat F_hat' (N x T)."""
    X = as_matrix(panel)
    B = np.asarray(loadings, dtype=float)
    F = np.asarray(factors, dtype=float)
    if B.shape[0] != X.shape[0] or F.shape[0] != X.shape[1] or B.shape[1] != F.shape[1]:
        raise DimensionError("inconsistent shapes for residual computation")
    return X - B @ F.T


def common_component(loadings: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Estimated common component B_hat F_hat' (N x T)."""
    return np.asarray(loadings, dtype=float) @ np.asarray(factors, dtype=float).T


def fit(panel, weights: WeightMatrix | np.ndarray) -> FactorFit:
    """Full diversified-projection fit: factors, loadings, residuals, gram."""
    X = as_matrix(panel)
    F = estimate_factors(X, weights)
    B = estimate_loadings(X, F)
    U = X - B @ F.T
    W = weights if isinstance(weights, WeightMatrix) else WeightMatrix(np.asarray(weights, dtype=float))
    return FactorFit(factors=F, loadings=B, residuals=U, gram=F.T @ F / F.shape[0], weights=W)


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs so the entry of largest magnitude is positive; stacks flip per member."""
    idx = np.argmax(np.abs(vectors), axis=-2)[..., None, :]
    signs = np.sign(np.take_along_axis(vectors, idx, axis=-2))
    signs[signs == 0] = 1.0
    return vectors * signs


def pc_factors(panel, n_factors: int) -> FactorFit:
    """Benchmark principal-components estimator.

    F_hat is sqrt(T) times the top eigenvectors of X'X, normalized so that
    F'F/T = I.  They come from an eigendecomposition of X'X itself when
    T <= N, and from the thin SVD of X when T > N, where that gram would be
    the larger one: the whole panel is one window of `_window_vts`.
    Loadings follow by least squares and residuals by subtraction.  The
    W'U_hat = 0 identity of the projection fit does not apply here;
    U_hat F_hat = 0 does.
    """
    X = as_matrix(panel)
    _check_pc_rank(X, n_factors)
    t = X.shape[1]
    F, B = _pc_from_vt(X, _window_vts(X, t, n_factors, [0])[0])
    return FactorFit(factors=F, loadings=B, residuals=X - B @ F.T, gram=F.T @ F / t, weights=None)


def _check_pc_rank(X: np.ndarray, n_factors: int) -> None:
    n, t = X.shape
    if n_factors < 0:
        raise DimensionError(f"R must be non-negative, got R={n_factors}")
    if n_factors > min(n, t):
        raise DimensionError(
            f"R={n_factors} exceeds min(N, T)={min(n, t)}"
        )


def _gram_vt(gram: np.ndarray, n_rows: int) -> np.ndarray:
    """Eigenvectors of a symmetric gram for its n_rows largest eigenvalues, as rows, largest first."""
    _, vecs = np.linalg.eigh(gram)
    return vecs[:, ::-1][:, :n_rows].T


def _window_vts(X: np.ndarray, window: int, n_rows: int, starts) -> np.ndarray:
    """Leading n_rows rows of V' (thin SVD U S V') of each window X[:, j : j + window], as a stack.

    Every principal-components factor in the package comes from here; a
    whole panel is the one window starting at 0.  Returns (len(starts),
    n_rows, window) for the ascending `starts`, each row of arbitrary sign.
    With no more window columns than rows (every forecast, rolling-weight
    and covariance-study window) the rows are the eigenvectors of the
    window gram for its n_rows largest eigenvalues, largest first, which
    costs a fraction of a full SVD.  The window grams are principal
    submatrices of band products X_c'X_c, each over the columns of the
    windows starting within `window` columns of its first: one product of
    at most (2 window - 1)^2 entries replaces an N x window x window gram
    per window.  A band entry equals the window gram's up to its last bits
    (the product is blocked differently); a lone window's band is its gram.
    Longer windows take the thin SVD: recovering V from the N x N gram XX'
    divides by singular values that can be zero, and the window gram would
    cost O(window^3).
    """
    starts = list(starts)
    vts = np.empty((len(starts), n_rows, window))
    if window > X.shape[0]:
        for i, j in enumerate(starts):
            vts[i] = np.linalg.svd(X[:, j : j + window], full_matrices=False)[2][:n_rows]
        return vts
    lo = -window
    for i, j in enumerate(starts):
        if j >= lo + window:  # window j opens a band; its last window starts before j + window
            lo = j
            cols = X[:, lo : min(lo + window - 1, starts[-1]) + window]
            band = cols.T @ cols
        o = j - lo
        vts[i] = _gram_vt(band[o : o + window, o : o + window], n_rows)
    return vts


def _pc_scores(vt_rows: np.ndarray) -> np.ndarray:
    """PC factors F (T x k, F'F/T = I) from k leading rows of V', or a stack (..., T, k) from (..., k, T)."""
    return np.sqrt(vt_rows.shape[-1]) * _canonical_signs(vt_rows.mT)


def _pc_from_vt(X: np.ndarray, vt_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PC factors F (T x k) and loadings X F / T from k leading rows of V'.

    Stacks of panels (..., N, T) and rows (..., k, T) give stacks of both.
    The loadings are computed from the k factors at hand, never sliced from
    a wider product: (X F)[:, :k] and X F[:, :k] can differ in the last bit.
    """
    F = _pc_scores(vt_rows)
    return F, X @ F / X.shape[-1]  # (F'F)^{-1} = I/T by normalization


def transform_matrix(weights: WeightMatrix | np.ndarray, loadings_true: np.ndarray):
    """Simulation diagnostic H = W'B / N with its singular values.

    Returns (H, singular_values, rank).  A rank below the number of true
    factors means the weights diversified away part of the factor space.
    """
    W = weights.values if isinstance(weights, WeightMatrix) else np.asarray(weights, dtype=float)
    B = np.asarray(loadings_true, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    if W.shape[0] != B.shape[0]:
        raise DimensionError("weights and loadings disagree on the number of series")
    H = W.T @ B / W.shape[0]
    svals = np.linalg.svd(H, compute_uv=False) if min(H.shape) > 0 else np.zeros(0)
    rank = int(np.sum(svals > _RANK_TOL * svals[0])) if svals.size and svals[0] > 0 else 0
    return H, svals, rank


def space_distance(factors_est: np.ndarray, factors_true: np.ndarray, transform: np.ndarray) -> SpaceDistance:
    """Operator-norm distances between span(F_hat) and span(F).

    `transform` is the R x r matrix H = W'B/N; the adjusted distance rotates
    F_hat by M = (HH')^+ H before comparing projectors.  Both come from
    T x rank orthonormal bases, never from T x T projectors:
    ||P_A P_B - P_B|| = ||(I - P_A) Q_B|| and
    ||P_A - P_B|| = max(||(I - P_A) Q_B||, ||(I - P_B) Q_A||).
    """
    F_est = np.asarray(factors_est, dtype=float)
    F_true = np.asarray(factors_true, dtype=float)
    if F_est.shape[0] != F_true.shape[0]:
        raise DimensionError("factor matrices disagree on the number of periods")
    H = np.asarray(transform, dtype=float)
    q_est = _orthobasis(F_est)
    q_true = _orthobasis(F_true)
    q_adj = _orthobasis(F_est @ (pseudo_inverse(H @ H.T) @ H))

    def outside(q_a, q_b):  # ||(I - P_A) Q_B||_2
        return float(np.linalg.norm(q_b - q_a @ (q_a.T @ q_b), 2)) if q_b.size else 0.0

    return SpaceDistance(
        proj_overlap=outside(q_est, q_true),
        adjusted_distance=max(outside(q_adj, q_true), outside(q_true, q_adj)),
    )
