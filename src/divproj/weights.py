"""Construction and validation of diversified weight matrices.

A weight matrix is an N x R array whose columns spread their mass across
most of the N series, so that cross-sectional averages of idiosyncratic
noise are diversified away.  Several constructions are provided: a
repeated-sign-block pattern, the upper-left corner of a Sylvester-Hadamard
matrix, polynomial transforms of observed characteristics, trimmed PCA
loadings from a historical window, and polynomial transforms of an initial
observation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateWeightsWarning,
    DimensionError,
    InsufficientDataError,
)

# Relative eigenvalue (singular value) cut-off below which a gram matrix
# (a column basis) is treated as rank deficient; `projection` shares it.
_RANK_TOL = 1e-10

SCHEMES = (
    "hadamard_pattern",
    "walsh_hadamard",
    "sieve",
    "rolling_window",
    "initial_transform",
    "custom",
)


@dataclass(frozen=True, eq=False)  # holds arrays: == is identity, and hash() works
class WeightMatrix:
    """N x R diversified weight matrix together with its provenance.

    Attributes
    ----------
    values : ndarray, shape (N, R)
    scheme : str
        One of :data:`SCHEMES`.
    """

    values: np.ndarray
    scheme: str = "custom"

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", values)
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown weight scheme {self.scheme!r}")
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise DimensionError("weight matrix must be two-dimensional and non-empty")
        if not np.all(np.isfinite(values)):
            raise ValueError("weight matrix contains non-finite entries")
        if self.n_working_factors > self.n_series:
            # More columns than series cannot satisfy lambda_min(W'W/N) > 0;
            # downstream pseudo-inverses still run, so warn instead of raising.
            warnings.warn(
                f"weight matrix has R={self.n_working_factors} columns for only "
                f"N={self.n_series} series; the gram matrix is rank deficient",
                DegenerateWeightsWarning,
                stacklevel=3,
            )

    @property
    def n_series(self) -> int:
        return self.values.shape[0]

    @property
    def n_working_factors(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class WeightDiagnostics:
    """Sample diagnostics for the diversified-weights conditions."""

    max_abs_entry: float
    min_eig_gram: float
    gram_condition: float


def _warn_if_degenerate(values: np.ndarray, scheme: str, stacklevel: int = 3) -> None:
    """Warn if N x R weights have an all-zero column or collinear columns.

    A stack (..., N, R) is checked member by member, with one warning for
    each degenerate member.
    """
    col_max = np.max(np.abs(values), axis=-2, keepdims=True)
    zero = np.any(col_max == 0.0, axis=(-2, -1))
    rank = np.full(zero.shape, min(values.shape[-2:]))
    if values.shape[-1] > 1:
        # The rank from the R x R gram of the columns scaled to unit maximum
        # (which cannot overflow), at the gram solves' tolerance.
        unit = values / np.where(col_max == 0.0, 1.0, col_max)
        eigs = np.linalg.eigvalsh(unit.mT @ unit)
        rank = np.sum(eigs > _RANK_TOL * eigs[..., -1:], axis=-1)
    for i in np.ndindex(zero.shape):
        if zero[i]:
            message = f"{scheme} weights contain an all-zero column"
        elif rank[i] < min(values.shape[-2:]):
            message = f"{scheme} weights have collinear columns (rank {rank[i]} < {values.shape[-1]})"
        else:
            continue
        warnings.warn(message, DegenerateWeightsWarning, stacklevel=stacklevel)


def hadamard_pattern_weights(n_series: int, n_factors: int) -> WeightMatrix:
    """Repeated-sign-block weights: column 1 is all ones, column k >= 2
    repeats the block (+1 x (k-1), -1 x (k-1)) truncated to length N.

    All entries are +-1.
    """
    if not 1 <= n_factors <= n_series:
        raise DimensionError(
            f"need 1 <= R <= N, got R={n_factors}, N={n_series}"
        )
    cols = [np.ones(n_series)]
    for k in range(2, n_factors + 1):
        block = np.concatenate([np.ones(k - 1), -np.ones(k - 1)])
        reps = -(-n_series // block.size)  # ceil division
        cols.append(np.tile(block, reps)[:n_series])
    return WeightMatrix(np.column_stack(cols), scheme="hadamard_pattern")


def walsh_hadamard_weights(n_series: int, n_factors: int) -> WeightMatrix:
    """Upper-left N x R block of the Sylvester Hadamard matrix of dimension
    2^K with K = ceil(log2 N).  Columns are exactly orthogonal when N = 2^K.

    The block is built entry by entry, H[i, j] = (-1)^popcount(i & j), in
    O(N R) memory; the full 2^K x 2^K matrix is never formed.
    """
    if not 1 <= n_factors <= n_series:
        raise DimensionError(
            f"need 1 <= R <= N, got R={n_factors}, N={n_series}"
        )
    parity = np.bitwise_count(np.arange(n_series)[:, None] & np.arange(n_factors)) & 1
    return WeightMatrix(1.0 - 2.0 * parity, scheme="walsh_hadamard")


def sieve_weights(characteristics: np.ndarray, n_factors: int) -> WeightMatrix:
    """Characteristic-based weights w[i, k] = z_i^k (the polynomial sieve)."""
    return _power_weights(characteristics, n_factors, "characteristics", "sieve")


def rolling_window_weights(
    panel_history: np.ndarray, n_factors: int, epsilon: float = 1.0
) -> WeightMatrix:
    """Trimmed PCA loadings learned on a historical window.

    PCA loadings B1 (N x R) are extracted from the history, then trimmed
    column-wise:

        w[i, k] = b1[i, k] / max(1, epsilon * max_i |b1[i, k]|)

    The default epsilon = 1 caps every weight at +-1 in absolute value.
    """
    from .projection import pc_factors  # local import to avoid a cycle

    hist = _rolling_history(panel_history, n_factors, epsilon)
    values = _trimmed_weights(pc_factors(hist, n_factors).loadings, epsilon)
    return WeightMatrix(values, scheme="rolling_window")


def _rolling_history(panel_history: np.ndarray, n_factors: int, epsilon: float) -> np.ndarray:
    """The validated N x T0 history of rolling-window weights."""
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if n_factors < 1:
        raise DimensionError(f"rolling-window weights need R >= 1, got R={n_factors}")
    hist = np.asarray(panel_history, dtype=float)
    if hist.ndim != 2:
        raise DimensionError("historical panel must be N x T0")
    t0 = hist.shape[1]
    if t0 < n_factors:
        raise InsufficientDataError(
            f"historical window has T0={t0} < R={n_factors} observations"
        )
    return hist


def _trimmed_weights(loadings: np.ndarray, epsilon: float) -> np.ndarray:
    """Rolling-window weight values from PCA loadings: each column trimmed to +-1/epsilon.

    `loadings` is N x R or a stack (..., N, R); each member is trimmed and
    checked on its own.
    """
    col_max = np.max(np.abs(loadings), axis=-2, keepdims=True)
    values = loadings / np.maximum(1.0, epsilon * col_max)
    _warn_if_degenerate(values, "rolling_window", stacklevel=4)
    return values


def initial_transform_weights(x0: np.ndarray, n_factors: int) -> WeightMatrix:
    """Polynomial transforms of the initial observation: w[i, k] = x0[i]^k."""
    return _power_weights(x0, n_factors, "initial observation", "initial_transform")


def _power_weights(v: np.ndarray, n_factors: int, what: str, scheme: str) -> WeightMatrix:
    """Weights w[i, k] = v_i^k for k = 1..R; a warning names the caller's caller."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size == 0 or not np.all(np.isfinite(v)):
        raise ValueError(f"{what} must be a non-empty finite vector")
    if n_factors < 1:
        raise DimensionError("need R >= 1")
    values = v[:, None] ** np.arange(1, n_factors + 1)[None, :]
    _warn_if_degenerate(values, scheme, stacklevel=4)
    return WeightMatrix(values, scheme=scheme)


def check_diversified(weights: WeightMatrix | np.ndarray) -> WeightDiagnostics:
    """Sample analogues of the diversified-weights conditions.

    Returns the largest absolute entry, the smallest eigenvalue of W'W/N
    and the condition number of W'W/N.  These are diagnostics, not gates:
    degenerate weights yield min_eig_gram ~ 0 rather than an error.
    """
    values = weights.values if isinstance(weights, WeightMatrix) else np.asarray(weights, dtype=float)
    n = values.shape[0]
    gram = values.T @ values / n
    eigs = np.linalg.eigvalsh(gram)
    lo, hi = float(eigs[0]), float(eigs[-1])
    cond = np.inf if lo <= 0 else hi / lo
    return WeightDiagnostics(
        max_abs_entry=float(np.max(np.abs(values))),
        min_eig_gram=lo,
        gram_condition=cond,
    )


def build_weights(
    scheme: str,
    n_series: int,
    n_factors: int,
    characteristics: np.ndarray | None = None,
    panel_history: np.ndarray | None = None,
    x0: np.ndarray | None = None,
    epsilon: float = 1.0,
) -> WeightMatrix:
    """Dispatch a scheme name to the matching constructor.

    Accepts the short names used by the command line (``hadamard``,
    ``walsh``, ``sieve``, ``rolling``, ``initial``) as well as the full
    scheme identifiers.
    """
    aliases = {
        "hadamard": "hadamard_pattern",
        "walsh": "walsh_hadamard",
        "rolling": "rolling_window",
        "initial": "initial_transform",
        "characteristic": "sieve",
    }
    scheme = aliases.get(scheme, scheme)
    if scheme == "hadamard_pattern":
        return hadamard_pattern_weights(n_series, n_factors)
    if scheme == "walsh_hadamard":
        return walsh_hadamard_weights(n_series, n_factors)
    if scheme == "sieve":
        if characteristics is None:
            raise ValueError("sieve weights need a characteristics vector")
        return sieve_weights(characteristics, n_factors)
    if scheme == "rolling_window":
        if panel_history is None:
            raise ValueError("rolling-window weights need a historical panel")
        return rolling_window_weights(panel_history, n_factors, epsilon)
    if scheme == "initial_transform":
        if x0 is None:
            raise ValueError("initial-transform weights need the initial observation")
        return initial_transform_weights(x0, n_factors)
    raise ValueError(f"unknown weight scheme {scheme!r}")
