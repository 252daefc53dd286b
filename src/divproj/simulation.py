"""Seeded data-generating processes for the Monte Carlo studies.

The panel is X = B F' + U with loadings driven by characteristics
z_i = sin(h_i) plus noise, scaled by N^{-(1-alpha)/2} so `alpha` controls
factor strength.  U is iid N(0, 1) noise passed through two stationary
AR(1) recursions: one across the series inside each correlated block, which
gives the block-Toeplitz correlation rho_N^|i-j|, and one along time with
unit innovation variance.  Both run in O(NT) time and memory and make no
BLAS call, so the seeded noise does not depend on the BLAS thread count.

RNG streams are counter-based (Philox) and keyed by (seed, replication,
stream), so parallel and serial runs of the same experiment draw identical
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .projection import PanelData


def rep_rng(seed: int, replication: int = 0, stream: int = 0) -> np.random.Generator:
    """A counter-based generator for one (seed, replication, stream) cell."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(replication), int(stream)))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class SimConfig:
    """Parameters of the simulated factor panel."""

    n_series: int
    n_periods: int
    n_factors_true: int
    alpha_strength: float = 1.0
    rho_T: float = 0.0
    rho_N: float = 0.7
    n_blocks: int = 3
    block_size: int = 4
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.alpha_strength <= 1.0):
            raise ValueError("alpha_strength must lie in (0, 1]")
        if abs(self.rho_T) >= 1 or abs(self.rho_N) >= 1:
            raise ValueError("serial and block correlations must lie in (-1, 1)")
        if self.block_size * self.n_blocks > self.n_series:
            raise ValueError("correlated blocks do not fit into N series")
        if self.n_factors_true < 0:
            raise ValueError("the factor count must be non-negative")


@dataclass(frozen=True)
class SimOutput:
    """One simulated panel plus the true quantities used in diagnostics."""

    panel: PanelData
    F_true: np.ndarray       # T x r
    B_true: np.ndarray       # N x r
    U_true: np.ndarray       # N x T
    z_chars: np.ndarray      # length N


def cross_section_cov(config: SimConfig) -> np.ndarray:
    """The true idiosyncratic covariance: block-diagonal (A, ..., A, I)."""
    n = config.n_series
    sigma = np.eye(n)
    b = config.block_size
    idx = np.arange(b)
    block = config.rho_N ** np.abs(idx[:, None] - idx[None, :])
    for k in range(config.n_blocks):
        sigma[k * b : (k + 1) * b, k * b : (k + 1) * b] = block
    return sigma


def true_idio_cov(config: SimConfig) -> np.ndarray:
    """Covariance of u_t: the block matrix times the AR(1) stationary variance."""
    return cross_section_cov(config) / (1.0 - config.rho_T**2)


def loading_scale(n_series: int, alpha_strength: float) -> float:
    """Factor-strength multiplier N^{-(1-alpha)/2}."""
    return float(n_series ** (-(1.0 - alpha_strength) / 2.0))


def draw_loadings(z: np.ndarray, noise: np.ndarray, alpha_strength: float) -> np.ndarray:
    """Loadings b[i, k] = (z_i^k + 0.5 * noise[i, k]) * N^{-(1-alpha)/2}."""
    n, r = noise.shape
    if r == 0:
        return np.zeros((n, 0))
    powers = np.arange(1, r + 1)
    raw = z[:, None] ** powers[None, :] + 0.5 * noise
    return raw * loading_scale(n, alpha_strength)


def _ar1(x: np.ndarray, rho: float, axis: int) -> np.ndarray:
    """Unit-variance stationary AR(1) along `axis`, in place on the float array `x`.

    The iid N(0, 1) values e that `x` holds become x_0 = e_0 and
    x_s = rho x_{s-1} + sqrt(1 - rho^2) e_s, so that
    corr(x_s, x_{s+k}) = rho^|k|.  Returns `x`.
    """
    if rho != 0.0:
        v = np.moveaxis(x, axis, 0)
        scale = np.sqrt(1.0 - rho**2)
        for s in range(1, v.shape[0]):
            v[s] = rho * v[s - 1] + scale * v[s]
    return x


def _color(config: SimConfig, u: np.ndarray) -> np.ndarray:
    """`draw_idiosyncratic` in place on a C-contiguous float N x T array `u`; returns `u`."""
    t = u.shape[1]
    m = config.n_blocks * config.block_size
    _ar1(u, config.rho_T, axis=1)
    _ar1(u[:m].reshape(config.n_blocks, config.block_size, t), config.rho_N, axis=1)
    if config.rho_T != 0.0:
        u /= np.sqrt(1.0 - config.rho_T**2)
    return u


def draw_idiosyncratic(config: SimConfig, ubar: np.ndarray) -> np.ndarray:
    """Color iid N(0, 1) noise `ubar` (N x T) with two AR(1) recursions.

    Along time, every row runs `_ar1` with rho_T and is divided by
    sqrt(1 - rho_T^2): u_0 = e_0 / sqrt(1 - rho_T^2) and
    u_t = rho_T u_{t-1} + e_t, a stationary AR(1) with unit innovation
    variance.  Across series, each of the `n_blocks` leading blocks of
    `block_size` rows runs `_ar1` with rho_N, which gives exactly the block
    correlation rho_N^|i-j| of `cross_section_cov`; the remaining rows stay
    independent.  The covariance of u_t is therefore `true_idio_cov`.
    Serial correlation raises the noise level, which is what degrades
    eigenvector-based factor estimates in the forecasting study while
    leaving the cross-sectional projections unaffected.  Returns a new
    array; `ubar` is left unchanged.
    """
    return _color(config, np.array(ubar, dtype=float, order="C"))


def generate_panel(config: SimConfig, replication: int = 0, rng: np.random.Generator | None = None) -> SimOutput:
    """Simulate one replication of the factor panel.

    The draw order is fixed (characteristics, loading noise, factors,
    idiosyncratic noise) so a shared `rng` can be used to append further
    model-specific draws deterministically.
    """
    if rng is None:
        rng = rep_rng(config.seed, replication)
    n, t, r = config.n_series, config.n_periods, config.n_factors_true
    h = rng.standard_normal(n)
    z = np.sin(h)
    gamma = rng.standard_normal((n, r))
    F = rng.standard_normal((t, r))
    ubar = rng.standard_normal((n, t))
    B = draw_loadings(z, gamma, config.alpha_strength)
    U = _color(config, ubar)  # the draw is ours: color it in place
    X = B @ F.T
    X += U
    return SimOutput(panel=PanelData(X), F_true=F, B_true=B, U_true=U, z_chars=z)
