"""Factor-augmented forecasting and rolling out-of-sample evaluation.

The augmented regression projects a lead of the target series on estimated
factors plus observed predictors.  The rolling evaluator re-estimates the
factors inside every moving window, so competing factor estimators are
compared on identical data.  It works a block of windows at a time: each
scheme returns the block's factors as one (windows, T, R) stack, and the
block's designs, grams, coefficient solves and forecasts are stacked the
same way.  Fixed-weight factors are cross-sectional, so a block's come
from one product over the columns its windows span.  The
principal-components schemes take each window's gram as a principal
submatrix of one band product over up to `window` windows.  Only the
principal-components eigendecompositions still run one window at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import DimensionError, InsufficientDataError
from .projection import _check_pc_rank, _pc_from_vt, _pc_scores, _solve_gram, _window_vts, estimate_factors
from .weights import WeightMatrix, _rolling_history, _trimmed_weights

# The rolling evaluator takes as many windows per block as keep the block's
# stacked designs near _BLOCK_ENTRIES floats, and the rolling-weight scheme
# stacks about that many floats of loadings, weights and factors at a time.
_BLOCK_ENTRIES = 1 << 14


@dataclass(frozen=True, eq=False)  # holds arrays: == is identity, and hash() works
class AugmentedRegression:
    """OLS fit of y_{t+h} on z_t = (factors_t, observables_t)."""

    delta_hat: np.ndarray     # length R + p, factor block first
    lead: int
    design_gram: np.ndarray   # (R+p) x (R+p)
    n_factors: int


@dataclass(frozen=True, eq=False)  # holds arrays: == is identity, and hash() works
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
    _check_design_length(t, lead, k)
    gram, rhs = _normal_equations(Z[: t - lead], y[lead:])
    delta = _solve_gram(gram, rhs)[:, 0]
    return AugmentedRegression(delta_hat=delta, lead=lead, design_gram=gram, n_factors=F.shape[1])


def _check_design_length(t: int, lead: int, k: int) -> None:
    if t - lead < k + 1:
        raise InsufficientDataError(
            f"need T - h >= R + p + 1, got T={t}, h={lead}, R+p={k}"
        )


def _normal_equations(Z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram Z'Z and right-hand side Z'y (k x 1) of a T x k design, or stacks of both."""
    return Z.mT @ Z, Z.mT @ y[..., None]


def predict(model: AugmentedRegression, factors_T, observables_T=None) -> float:
    """Point forecast delta_hat'(f_T', g_T')'."""
    f = np.asarray(factors_T, dtype=float).ravel()
    z = f if observables_T is None else np.concatenate([f, np.asarray(observables_T, dtype=float).ravel()])
    if z.size != model.delta_hat.size:
        raise DimensionError(
            f"predictor vector has length {z.size}, model expects {model.delta_hat.size}"
        )
    return float(model.delta_hat @ z)


def _windows(X: np.ndarray, start: int, window: int, count: int) -> np.ndarray:
    """Columns start+j .. start+j+window-1 of X for j < count, as a (count, N, window) view."""
    return sliding_window_view(X[:, start : start + window + count - 1], window, axis=1).transpose(1, 0, 2)


class FixedWeightScheme:
    """Window factor estimates from one fixed weight matrix.

    f_hat_t = W'x_t / N does not depend on the window holding period t, so
    a block's factors are one (window + count - 1) x R product X'W/N over
    the columns its windows span, returned as sliding row views.
    """

    def __init__(self, weights: WeightMatrix):
        self.weights = weights

    @property
    def n_factors(self) -> int:
        return self.weights.n_working_factors

    def window_factors(self, X, start: int, window: int, count: int) -> np.ndarray:
        F = estimate_factors(X[:, start : start + window + count - 1], self.weights)
        return sliding_window_view(F, window, axis=0).transpose(0, 2, 1)


class PCScheme:
    """Window factor estimates from principal components (benchmark).

    The windows' leading eigenvectors come from `projection._window_vts`,
    which takes a block's window grams from shared band products.
    """

    def __init__(self, n_factors: int):
        self.n_factors = n_factors

    def window_factors(self, X, start: int, window: int, count: int) -> np.ndarray:
        _check_pc_rank(X[:, start : start + window], self.n_factors)
        return _pc_scores(_window_vts(X, window, self.n_factors, range(start, start + count)))


class RollingWeightScheme:
    """Trimmed-PCA weights re-learned from the observations preceding each window.

    `history` is the pre-sample panel sitting immediately before column 0
    of the forecast panel; for the window starting at column t the weights
    are learned from the `window` observations ending at column t - 1 of
    the combined (history, panel) series.  The weights equal
    ``rolling_window_weights(history_window, n_factors, epsilon)``.

    A block of windows copies its history columns once.  The leading
    principal-component vectors of its history windows come from one
    `projection._window_vts` call: one eigendecomposition per window, of a
    principal submatrix of a band product shared by up to `window` windows
    (one SVD per window if the window is longer than the panel has series).
    The loadings, trimming and collinearity checks of its windows are
    stacked, as many windows at a time as hold about `_BLOCK_ENTRIES`
    floats of loadings, weights and factors.
    """

    def __init__(self, history: np.ndarray, n_factors: int, epsilon: float = 1.0):
        self.history = np.atleast_2d(np.asarray(history, dtype=float))
        self.n_factors = n_factors
        self.epsilon = epsilon

    def window_factors(self, X, start: int, window: int, count: int) -> np.ndarray:
        t_pre = self.history.shape[1]
        lo = t_pre + start - window
        if lo < 0:
            raise InsufficientDataError(
                f"weight history needs {window - start} pre-sample columns, have {t_pre}"
            )
        # one copy of the block's history: columns lo .. t_pre + start + count - 2
        # of the combined (history, panel) series
        end = start + count - 1
        hist = np.hstack([self.history[:, lo : t_pre + end], X[:, max(lo - t_pre, 0) : end]])
        hist_wins = _windows(hist, 0, window, count)
        _check_pc_rank(_rolling_history(hist_wins[0], self.n_factors, self.epsilon), self.n_factors)
        vts = _window_vts(hist, window, self.n_factors, range(count))
        wins = _windows(X, start, window, count)
        F = np.empty((count, window, self.n_factors))
        # the loadings and weights (N x R each) and factors (window x R) of `step` windows: _BLOCK_ENTRIES floats
        step = max(1, _BLOCK_ENTRIES // ((2 * X.shape[0] + window) * self.n_factors))
        for b in range(0, count, step):
            _, loadings = _pc_from_vt(hist_wins[b : b + step], vts[b : b + step])
            F[b : b + step] = estimate_factors(wins[b : b + step], _trimmed_weights(loadings, self.epsilon))
        return F


def rolling_forecast(y, X, window: int, steps: int, scheme, h: int = 1) -> RollingForecastReport:
    """One-step-ahead (or h-step) forecasts over `steps` moving windows.

    For each t = 0..steps-1 the factors are re-estimated on columns
    t..t+window-1 of X, the augmented regression of y_{s+h} on
    (f_hat_s, 1, y_s) is refit inside the window, and y at position
    t+window-1+h is forecast from the window's last observation.

    `scheme` is an object with an ``n_factors`` attribute and a
    ``window_factors(X, start, window, count)`` method that returns the
    factors of the `count` windows starting at columns start..start+count-1
    as a (count, window, n_factors) array: :class:`FixedWeightScheme`,
    :class:`PCScheme` or :class:`RollingWeightScheme`.  The windows are
    evaluated in blocks whose stacked designs hold about `_BLOCK_ENTRIES`
    floats.  With window <= N a scheme is asked for the factors of runs of
    at least `window` windows (of whole blocks when those are longer),
    which share one band gram in the principal-components schemes and
    whose factors hold O(window^2) floats.  So memory does not grow with
    `steps`.  The window length is checked against the design's R + 2
    columns before any factor is estimated.
    """
    y = np.asarray(y, dtype=float).ravel()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if h < 1:
        raise ValueError("h must be at least 1")
    if steps < 1 or window < 1:
        raise ValueError(f"window and steps must be at least 1, got window={window}, steps={steps}")
    needed = window + steps - 1 + h
    if y.size < needed or X.shape[1] < window + steps - 1:
        raise InsufficientDataError(
            f"need {needed} observations of y and {window + steps - 1} columns of X, "
            f"got {y.size} and {X.shape[1]}"
        )
    k = scheme.n_factors + 2  # factors, intercept, lagged target
    _check_design_length(window, h, k)

    y_wins = sliding_window_view(y, window)
    forecasts = np.empty(steps)
    n = X.shape[0]
    block = max(1, _BLOCK_ENTRIES // ((n + window) * k))
    # with window <= N the factors of at least `window` windows are asked for at once,
    # so that one band gram serves them all
    run = max(block, window) if window <= n else block
    for first in range(0, steps, run):
        F = scheme.window_factors(X, first, window, min(run, steps - first))
        for start in range(first, first + len(F), block):
            count = min(block, first + len(F) - start)
            Z = np.empty((count, window, k))
            Z[..., :-2] = F[start - first : start - first + count]
            Z[..., -2] = 1.0
            Z[..., -1] = y_wins[start : start + count]
            # y_{s+h} for s = t..t+window-1-h is the start of the window h columns on
            gram, rhs = _normal_equations(Z[:, : window - h], y_wins[start + h : start + h + count, : window - h])
            forecasts[start : start + count] = (Z[:, -1:] @ _solve_gram(gram, rhs))[:, 0, 0]
        del F, Z  # the next run's factors are estimated without this run's stacks
    realized = y[window - 1 + h : window - 1 + h + steps].copy()
    err = forecasts - realized
    return RollingForecastReport(forecasts=forecasts, realized=realized, mse=float(np.mean(err**2)))
