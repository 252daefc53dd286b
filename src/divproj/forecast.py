"""Factor-augmented forecasting and rolling out-of-sample evaluation.

The augmented regression projects a lead of the target series on estimated
factors plus observed predictors; the rolling evaluator re-estimates the
factors inside every moving window so competing factor estimators can be
compared on identical data.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import projection
from .exceptions import DimensionError, InsufficientDataError
from .projection import _check_pc_rank, _pc_from_vt, _solve_gram, estimate_factors
from .weights import WeightMatrix, _rolling_history, _trimmed_weights


@dataclass(frozen=True)
class AugmentedRegression:
    """OLS fit of y_{t+h} on z_t = (factors_t, observables_t)."""

    delta_hat: np.ndarray     # length R + p, factor block first
    lead: int
    design_gram: np.ndarray   # (R+p) x (R+p)
    n_factors: int


@dataclass(frozen=True)
class RollingForecastReport:
    """Out-of-sample forecasts over a moving window."""

    forecasts: np.ndarray
    realized: np.ndarray
    mse: float


def fit_augmented(y, observables, factors, lead: int = 1) -> AugmentedRegression:
    """Regress y_{t+h} on z_t = (f_hat_t', g_t')' over t = 1..T-h.

    `observables` may be None (factors only).  A near-singular design gram
    is resolved by a pseudo-inverse with a warning; duplicated factor
    columns therefore leave fitted values unchanged.
    """
    y = np.asarray(y, dtype=float).ravel()
    F = np.atleast_2d(np.asarray(factors, dtype=float))
    if F.shape[0] != y.size:
        raise DimensionError("factors and target series disagree on the number of periods")
    if observables is None:
        Z = F
    else:
        G = np.asarray(observables, dtype=float)
        if G.ndim == 1:
            G = G[:, None]
        if G.shape[0] != y.size:
            raise DimensionError("observables and target series disagree on the number of periods")
        Z = np.hstack([F, G])
    t, k = Z.shape
    if lead < 0:
        raise ValueError("lead must be non-negative")
    if t - lead < k + 1:
        raise InsufficientDataError(
            f"need T - h >= R + p + 1, got T={t}, h={lead}, R+p={k}"
        )
    Z_in = Z[: t - lead]
    y_lead = y[lead:]
    gram = Z_in.T @ Z_in
    delta = _solve_gram(gram, Z_in.T @ y_lead)
    return AugmentedRegression(delta_hat=delta, lead=lead, design_gram=gram, n_factors=F.shape[1])


def predict(model: AugmentedRegression, factors_T, observables_T=None) -> float:
    """Point forecast delta_hat'(f_T', g_T')'."""
    f = np.asarray(factors_T, dtype=float).ravel()
    z = f if observables_T is None else np.concatenate([f, np.asarray(observables_T, dtype=float).ravel()])
    if z.size != model.delta_hat.size:
        raise DimensionError(
            f"predictor vector has length {z.size}, model expects {model.delta_hat.size}"
        )
    return float(model.delta_hat @ z)


class FixedWeightScheme:
    """Window factor estimates from one fixed diversified weight matrix."""

    def __init__(self, weights: WeightMatrix):
        self.weights = weights

    @property
    def n_factors(self) -> int:
        return self.weights.n_working_factors

    def factors(self, X, start: int, window: int) -> np.ndarray:
        return estimate_factors(X[:, start : start + window], self.weights)


class PCScheme:
    """Window factor estimates from principal components (benchmark)."""

    def __init__(self, n_factors: int):
        self.n_factors = n_factors

    def factors(self, X, start: int, window: int) -> np.ndarray:
        win = X[:, start : start + window]
        _check_pc_rank(win, self.n_factors)
        # the factors alone: pc_factors would also build loadings, residuals and a gram
        return _pc_from_vt(win, projection._leading_vt(win, self.n_factors))[0]


class RollingWeightScheme:
    """Trimmed-PCA weights re-learned from the observations preceding each window.

    `history` is the pre-sample panel sitting immediately before column 0
    of the forecast panel; for the window starting at column t the weights
    are learned from the `window` observations ending at column t - 1 of
    the combined (history, panel) series.  The weights equal
    ``rolling_window_weights(history_window, n_factors, epsilon)``.

    The scheme keeps the leading `n_factors` principal-component vectors of
    each history window it has seen (n_factors x window floats per window
    start).  They come from one eigendecomposition of the window's gram
    (one SVD if the window is longer than the panel has series), and
    :meth:`with_factors` siblings with fewer factors reuse it instead of
    repeating it.  An entry is recomputed when the scheme is called with a
    different panel object; a panel changed in place between calls is not
    detected.
    """

    def __init__(self, history: np.ndarray, n_factors: int, epsilon: float = 1.0):
        self.history = np.atleast_2d(np.asarray(history, dtype=float))
        self.n_factors = n_factors
        self.epsilon = epsilon
        self._pc_rows = n_factors
        self._vt_memo = {}  # (start, window) -> (panel, leading rows of V')

    def with_factors(self, n_factors: int) -> "RollingWeightScheme":
        """A scheme for fewer working factors that reuses this one's window eigenvectors.

        `n_factors` may be at most the count the first scheme was built with.
        """
        if not 1 <= n_factors <= self._pc_rows:
            raise ValueError(
                f"a sibling scheme needs 1 <= R <= {self._pc_rows}, got R={n_factors}"
            )
        sibling = copy.copy(self)
        sibling.n_factors = n_factors
        return sibling

    def factors(self, X, start: int, window: int) -> np.ndarray:
        t_pre = self.history.shape[1]
        lo = t_pre + start - window
        if lo < 0:
            raise InsufficientDataError(
                f"weight history needs {window - start} pre-sample columns, have {t_pre}"
            )
        hist_win = self.history[:, lo:]
        if start > 0:
            hist_win = np.hstack([hist_win, X[:, max(lo - t_pre, 0) : start]])
        hist_win = _rolling_history(hist_win, self.n_factors, self.epsilon)
        _check_pc_rank(hist_win, self.n_factors)
        entry = self._vt_memo.get((start, window))
        if entry is None or entry[0] is not X:
            # looked up on the module so that the window kernels can be counted from outside
            entry = self._vt_memo[(start, window)] = (X, projection._leading_vt(hist_win, self._pc_rows))
        _, loadings = _pc_from_vt(hist_win, entry[1][: self.n_factors])
        return estimate_factors(X[:, start : start + window], _trimmed_weights(loadings, self.epsilon))


def rolling_forecast(y, X, window: int, steps: int, scheme, h: int = 1) -> RollingForecastReport:
    """One-step-ahead (or h-step) forecasts over `steps` moving windows.

    For each t = 0..steps-1 the factors are re-estimated on columns
    t..t+window-1 of X, the augmented regression of y_{s+h} on
    (f_hat_s, 1, y_s) is refit inside the window, and y at position
    t+window-1+h is forecast from the window's last observation.

    `scheme` is an object with a ``factors(X, start, window)`` method:
    :class:`FixedWeightScheme`, :class:`PCScheme` or
    :class:`RollingWeightScheme`.
    """
    y = np.asarray(y, dtype=float).ravel()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if h < 1:
        raise ValueError("h must be at least 1")
    needed = window + steps - 1 + h
    if y.size < needed or X.shape[1] < window + steps - 1:
        raise InsufficientDataError(
            f"need {needed} observations of y and {window + steps - 1} columns of X, "
            f"got {y.size} and {X.shape[1]}"
        )

    forecasts = np.empty(steps)
    realized = np.empty(steps)
    for t in range(steps):
        y_win = y[t : t + window]
        F = scheme.factors(X, t, window)
        obs = np.column_stack([np.ones(window), y_win])
        model = fit_augmented(y_win, obs, F, lead=h)
        forecasts[t] = predict(model, F[-1], obs[-1])
        realized[t] = y[t + window - 1 + h]
    err = forecasts - realized
    return RollingForecastReport(forecasts=forecasts, realized=realized, mse=float(np.mean(err**2)))
