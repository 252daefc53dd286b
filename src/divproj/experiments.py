"""Monte Carlo experiment drivers.

Four studies are implemented: covariance estimation error against the
dimension, out-of-sample forecast comparisons against the PC benchmark,
post-selection inference z-statistics, and size/power of the factor
specification test.  Each study is one module-level replication function,
`(cell, rep) -> result`, and a grid of cells; `_replicate` runs every
replication of every cell, in replication order.  Each replication owns a
counter-based RNG substream keyed by (seed, replication, stream).

`threads` counts processes.  At `threads=1` the replications run in the
calling process, whose BLAS thread count can move the last digits
(`experiment_cov`'s `err_*` differ at 1 and 2 OpenBLAS threads).  At
`threads > 1` they run in `spawn`ed workers whose OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS are 1 before numpy loads, so the output
is that of `threads=1` at one BLAS thread, on any host and for any worker
count.  A spawned worker imports the calling script again, so a script that
calls a study with `threads > 1` needs an `if __name__ == "__main__":` guard.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np

from .covariance import ThresholdRule, _Blocks, _estimates, _join, _sym_opnorm
from .forecast import FixedWeightScheme, PCScheme, RollingWeightScheme, rolling_forecast
from .inference import confidence_interval, double_selection
from .projection import estimate_loadings, fit as projection_fit, pc_factors
from .simulation import SimConfig, generate_panel, loading_scale, rep_rng
from .spectest import DEFAULT_RULE as SPEC_TEST_RULE
from .spectest import _check_draws, spec_test
from .weights import build_weights, sieve_weights

# the environment of a process whose BLAS runs one thread; the BLAS reads it when numpy loads
_ONE_BLAS_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def _worker_count(threads: int, n_jobs: int) -> int:
    """Worker processes for `threads`: no more than the jobs or the CPUs this process may use."""
    import os

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(threads, n_jobs, cpus or 1))


def _replicate(rep_fn, cells, n_reps: int, threads: int) -> list[list]:
    """rep_fn(cell, rep) for each cell and rep in 0..n_reps-1: one list per cell, in replication order.

    At `threads == 1` the calls run in this process.  Above it they run in
    `spawn`ed workers started with the BLAS pinned to one thread, so
    `rep_fn` and every cell must pickle (see the module docstring).
    """
    if threads < 1 or n_reps < 1:
        raise ValueError(f"threads and n_reps must be at least 1, got {threads} and {n_reps}")
    jobs = ([cell for cell in cells for _ in range(n_reps)], list(range(n_reps)) * len(cells))
    if threads == 1:
        results = list(map(rep_fn, *jobs))
    else:
        import multiprocessing
        import os
        from concurrent.futures import ProcessPoolExecutor

        saved = {name: os.environ.get(name) for name in _ONE_BLAS_THREAD}
        os.environ.update(_ONE_BLAS_THREAD)  # the spawned workers inherit it
        try:
            spawn = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(_worker_count(threads, len(jobs[1])), mp_context=spawn) as pool:
                results = list(pool.map(rep_fn, *jobs))
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
    return [results[i * n_reps : (i + 1) * n_reps] for i in range(len(cells))]


def _spread(values: np.ndarray) -> float:
    """The sample standard deviation (ddof 1) of a study's values; 0.0 at one replication, where it is undefined."""
    return float(np.std(values, ddof=1)) if values.size > 1 else 0.0


def _mean_se(values: np.ndarray):
    """(mean, standard error `_spread` / sqrt(n)) of a study's values over its replications: 0.0 at one."""
    values = np.asarray(values, dtype=float)
    return float(np.mean(values)), float(_spread(values) / np.sqrt(values.size))


# ---------------------------------------------------------------------------
# Covariance estimation study (operator-norm errors against the dimension)
# ---------------------------------------------------------------------------

def _cov_residuals(X, z, F, r, extra_factors, include_pc, include_known):
    """(method, N x T residuals) of each factor estimate of the covariance study, one set at a time."""
    for extra in extra_factors:
        yield f"dp_R{r + extra}", projection_fit(X, sieve_weights(z, r + extra)).residuals
    if include_pc:
        yield "pc", pc_factors(X, r).residuals
    if include_known:
        yield "known_factor", X - estimate_loadings(X, F) @ F.T


def _cov_cell(cfg: SimConfig):
    """(cfg, Sigma, Sigma^{-1}) of one covariance study cell, as `_Blocks` built from `cfg` (`true_idio_cov`).

    Sigma holds `n_blocks` runs of `block_size` consecutive series at
    rho_N^|i-j| / (1 - rho_T^2), and every other series alone at
    1 / (1 - rho_T^2); a run of one series is a singleton.
    """
    m, var = cfg.block_size, 1.0 - cfg.rho_T**2
    k = cfg.n_blocks if m > 1 else 0
    lag = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    truth = _Blocks([np.arange(j * m, j * m + m) for j in range(k)], [cfg.rho_N**lag / var] * k,
                    np.arange(k * m, cfg.n_series), np.ones(cfg.n_series) / var)
    return cfg, truth, truth.inverse()


def _cov_errors(est, cell, E):
    """(covariance error, inverse error) of the thresholded estimate `est`, each taken in the N x N buffer E.

    E takes the estimate, then its inverse, and the truth's matrix is
    subtracted in place, so each error has the bits of the whole-matrix
    difference `a - b`.
    """
    _, truth, truth_inv = cell
    # Both errors vanish outside the blocks of the estimate's and the truth's
    # joint pattern: the inverses are block-diagonal over their own matrices' blocks.
    partition = _join((est.blocks, est.singles), (truth.blocks, truth.singles), E.shape[0])
    inverse = est.inverse()
    err = _sym_opnorm(truth.dense(est.dense(E), subtract=True), partition)
    return err, _sym_opnorm(truth_inv.dense(inverse.dense(E), subtract=True), partition)


def _cov_rep(cell, rep, *, C_values, rule_kind, extra_factors, include_pc, include_known):
    """{(method, C): (covariance error, inverse error)} of one replication.

    One residual set is alive at a time.  One thresholding pass gives its
    estimate at every C (`_estimates`), and both errors of each are taken
    in one N x N buffer (`_cov_errors`).
    """
    cfg = cell[0]
    sim = generate_panel(cfg, replication=rep)
    X, z, F = sim.panel.X, sim.z_chars, sim.F_true
    del sim  # and with it the simulated noise
    E = np.empty((cfg.n_series, cfg.n_series))
    rules = [ThresholdRule(kind=rule_kind, constant_C=C) for C in C_values]
    out = {}
    for method, U_hat in _cov_residuals(X, z, F, cfg.n_factors_true, extra_factors, include_pc, include_known):
        estimates = _estimates(U_hat, rules)[0]
        del U_hat  # before the next set is made
        for C in C_values:
            out[(method, C)] = _cov_errors(estimates.pop(0), cell, E)  # each estimate freed after its errors
    return out


def experiment_cov(
    sizes=(100, 200, 300),
    alphas=(0.5, 1.0),
    rho_Ts=(0.1, 0.7),
    n_reps: int = 30,
    seed: int = 0,
    C_values=(1.0, 2.0),
    rule_kind: str = "scad",
    n_factors_true: int = 1,
    extra_factors=(0, 1, 2, 3),
    include_pc: bool = True,
    include_known: bool = True,
    threads: int = 1,
):
    """Operator-norm errors of the thresholded idiosyncratic covariance.

    Compares the diversified projection with characteristic weights and
    working factor counts r + extra, the PC estimator with the true r, and
    the known-factor benchmark, all thresholded with the same rule.  N = T
    along `sizes`.  Returns a list of result rows.

    A replication makes its residual sets one at a time, thresholds each
    set at every C in one pass, and writes both error matrices of each
    estimate into one N x N buffer; the errors keep the bits of the
    whole-matrix differences (`_cov_rep`, `_cov_errors`).  The truth and
    its inverse are built as blocks once per cell from its configuration
    (`_cov_cell`); an estimate's blocks come from its thresholding pass.
    Each norm is taken block by block over the join of the two partitions
    (`_sym_opnorm`): a block of 150 or more members, such as the whole
    matrix at C = 1 and N = 300, by a certified Lanczos iteration, which
    moves the last bits of `err_*` against `eigvalsh` (within 1e-12
    relative), and a smaller one, or one Lanczos does not certify, by
    `eigvalsh`.

    At `threads=1` the replications run in this process, at its BLAS's
    digits; above 1, in up to `threads` spawned one-BLAS-thread workers,
    whose digits do not depend on the host (a calling script needs an
    `if __name__ == "__main__":` guard).  n_reps or threads < 1: ValueError.
    The `_se` columns are standard errors over the replications, 0.0 at
    n_reps = 1 (`_mean_se`), as in every study.
    """
    grid = [(alpha, rho, size) for alpha in alphas for rho in rho_Ts for size in sizes]
    cells = [_cov_cell(SimConfig(n_series=size, n_periods=size, n_factors_true=n_factors_true,
                                 alpha_strength=alpha, rho_T=rho, seed=seed))
             for alpha, rho, size in grid]
    rep_fn = partial(_cov_rep, C_values=C_values, rule_kind=rule_kind, extra_factors=extra_factors,
                     include_pc=include_pc, include_known=include_known)
    rows = []
    for (alpha, rho, size), per_rep in zip(grid, _replicate(rep_fn, cells, n_reps, threads)):
        for method, C in per_rep[0]:
            err_mean, err_se = _mean_se([res[method, C][0] for res in per_rep])
            inv_mean, inv_se = _mean_se([res[method, C][1] for res in per_rep])
            rows.append({"alpha": alpha, "rho_T": rho, "N": size, "method": method, "C": C,
                         "err_cov_mean": err_mean, "err_cov_se": err_se,
                         "err_inv_mean": inv_mean, "err_inv_se": inv_se})
    return rows


# ---------------------------------------------------------------------------
# Out-of-sample forecast study (relative MSE against the PC benchmark)
# ---------------------------------------------------------------------------

def _forecast_path(cfg: SimConfig, rep: int, n_steps: int, coef_factors, beta0: float, beta_lag: float):
    """Simulate the joint (X, y) path with a pre-sample block for weight learning.

    Returns (y_main, X_main, X_pre, z) where X_pre holds the window + 1
    pre-sample columns generated from correlated loadings B1 = 0.8 B + 0.5 Z
    (Z scaled by the same factor-strength multiplier as B).  The factor,
    noise and target processes are each one stationary path over the
    pre-sample and main periods; the pre-sample doubles as burn-in for the
    autoregressive target.
    """
    window = cfg.n_periods
    n, r = cfg.n_series, cfg.n_factors_true
    span = (window + 1) + n_steps + window  # pre-sample, then main period
    rng = rep_rng(cfg.seed, rep)
    sim = generate_panel(replace(cfg, n_periods=span), rng=rng)
    Z1 = rng.standard_normal((n, r))
    eps = rng.standard_normal(span)

    F_all = sim.F_true
    B1 = 0.8 * sim.B_true + 0.5 * loading_scale(n, cfg.alpha_strength) * Z1
    pre = window + 1
    X_pre = B1 @ F_all[:pre].T + sim.U_true[:, :pre]
    X_main = sim.panel.X[:, pre:]

    y = np.empty(span)
    y[0] = beta0 / (1.0 - beta_lag)  # unconditional mean; pre-sample acts as burn-in
    for j in range(1, span):
        y[j] = beta0 + beta_lag * y[j - 1] + coef_factors @ F_all[j - 1] + eps[j]
    y_main = y[pre:]
    return y_main, X_main, X_pre, sim.z_chars


class _LeadingColumns:
    """A forecast scheme serving the leading `n_factors` columns of precomputed window factors."""

    def __init__(self, factors: np.ndarray, n_factors: int):
        self.factors, self.n_factors = factors, n_factors

    def window_factors(self, X, start: int, window: int, count: int) -> np.ndarray:
        return self.factors[start : start + count, :, : self.n_factors]


def _forecast_rep(cfg, rep, *, n_steps, schemes, extra_factors, epsilon):
    """{method: rolling forecast MSE} of one replication, PC with the true r as "pc".

    "rolling" gives rolling weights, and any other name of `schemes` the
    fixed weights `build_weights` makes of it from the characteristics (a
    name it cannot build raises its ValueError).  Every such scheme is
    nested in the working count: rolling weights are PC loadings trimmed
    column by column, and each fixed scheme built without an initial
    observation or a history has columns that do not depend on R (the sieve
    powers z^1..z^R, the Hadamard pattern, the Walsh-Hadamard block).  So
    each scheme estimates the factors of every window once, at the largest
    count, and each count is evaluated exactly on their leading columns
    (`_LeadingColumns`).
    """
    coef_factors = np.ones(cfg.n_factors_true)
    y, X, X_pre, z = _forecast_path(cfg, rep, n_steps, coef_factors, 1.5, 0.5)
    window = cfg.n_periods
    out = {"pc": rolling_forecast(y, X, window, n_steps, PCScheme(cfg.n_factors_true)).mse}
    counts = [cfg.n_factors_true + extra for extra in extra_factors]
    mses = {}
    for name in schemes if counts else ():
        r_max = max(counts)
        scheme = (RollingWeightScheme(X_pre, r_max, epsilon) if name == "rolling"
                  else FixedWeightScheme(build_weights(name, cfg.n_series, r_max, characteristics=z)))
        F = scheme.window_factors(X, 0, window, n_steps)
        mses[name] = [rolling_forecast(y, X, window, n_steps, _LeadingColumns(F, r)).mse for r in counts]
        del F  # one scheme's factors at a time
    for i, r in enumerate(counts):
        for name, mse in mses.items():
            out[f"{name}_R{r}"] = mse[i]
    return out


def experiment_forecast(
    window_sizes=(50, 100),
    rho_Ts=(0.0, 0.5, 0.9),
    alphas=(1.0, 0.2),
    n_series: int = 100,
    n_steps: int = 50,
    n_reps: int = 20,
    seed: int = 0,
    schemes=("characteristic", "rolling"),
    extra_factors=(0, 1, 3),
    epsilon: float = 1.0,
    threads: int = 1,
):
    """Rolling one-step-ahead forecast MSE relative to the PC benchmark.

    The target follows y_{t+1} = 1.5 + 0.5 y_t + (1, 1)'f_t + eps with two
    true factors; each method is evaluated on identical windows and the
    per-replication MSE ratio to PC (true r) is averaged over replications;
    its standard error is 0.0 at n_reps = 1 (`_mean_se`).  Each name of
    `schemes` is "rolling" (weights learned on a pre-sample) or a
    `build_weights` name that the loading characteristics can feed; any
    other raises ValueError.  `threads` counts worker processes, with the
    digits and the `__main__` guard of `experiment_cov`.
    """
    grid = [(alpha, rho, window) for alpha in alphas for rho in rho_Ts for window in window_sizes]
    cells = [SimConfig(n_series=n_series, n_periods=window, n_factors_true=2, alpha_strength=alpha,
                       rho_T=rho, seed=seed) for alpha, rho, window in grid]
    rep_fn = partial(_forecast_rep, n_steps=n_steps, schemes=schemes, extra_factors=extra_factors, epsilon=epsilon)
    rows = []
    for (alpha, rho, window), per_rep in zip(grid, _replicate(rep_fn, cells, n_reps, threads)):
        for method in per_rep[0]:
            if method == "pc":
                continue
            ratio_mean, ratio_se = _mean_se([res[method] / res["pc"] for res in per_rep])
            rows.append({"alpha": alpha, "rho_T": rho, "N": n_series, "T": window, "method": method,
                         "mse_ratio_mean": ratio_mean, "mse_ratio_se": ratio_se})
    return rows


# ---------------------------------------------------------------------------
# Post-selection inference study (z-statistics and coverage)
# ---------------------------------------------------------------------------

def _postsel_rep(cfg, rep, *, theta, beta, factor_coef, working_factors, include_plain, weights, C,
                 s2_y, s2_g, level):
    """{method: (standardized estimate, covered)} of one replication."""
    rng = rep_rng(cfg.seed, rep)
    sim = generate_panel(cfg, rng=rng)
    x0 = sim.panel.X[:, 0]
    X = sim.panel.X[:, 1:]
    t = X.shape[1]
    eps_g = rng.standard_normal(t)
    eta = rng.standard_normal(t)
    confounder = factor_coef * sim.F_true[1:, 0] if factor_coef and cfg.n_factors_true > 0 else 0.0
    g = theta @ X + confounder + eps_g
    y = beta * g + theta @ X + confounder + eta
    designs = {f"dp_R{k}": build_weights(weights, cfg.n_series, k, characteristics=sim.z_chars, x0=x0)
               for k in working_factors}
    if include_plain:
        designs["plain"] = None
    out = {}
    for method, W in designs.items():
        res = double_selection(y, g, X, W, C=C, sigma2_y=s2_y, sigma2_g=s2_g)
        lo, hi = confidence_interval(res, level)
        out[method] = ((res.beta_hat - beta) / res.se, lo <= beta <= hi)
    return out


def experiment_postsel(
    r_values=(0, 2),
    working_factors=(1, 2, 3),
    include_plain: bool = True,
    n_series: int = 200,
    n_periods: int = 200,
    n_reps: int = 200,
    seed: int = 0,
    beta: float = 1.0,
    sparse_coefs=(1.0, -1.5, 0.5),
    support_offset: int | None = None,
    factor_coef: float = 0.0,
    alpha_strength: float = 1.0,
    weights: str = "initial",
    C: float = 4.1,
    oracle_sigma: bool = True,
    level: float = 0.95,
    threads: int = 1,
):
    """Standardized post-selection estimates over many replications.

    For each true factor count the pipeline runs with diversified weights
    (`weights`: a `build_weights` name that the initial observation or the
    loading characteristics can feed, such as "initial" or "sieve") at several
    working factor counts plus, optionally, plain double selection directly
    on the controls.  Returns (samples, rows): a dict of z-statistic arrays
    per method and per-method summary rows.

    The sparse coefficients sit on series just past the cross-sectionally
    correlated blocks (`support_offset`, default 12 = blocks * size).
    Placing them inside a correlated block instead makes the relevant
    controls undetectable at theory-level penalties: the alternating signs
    cancel in the marginal covariances, every selection rule misses part of
    the support, and the estimates are biased no matter the tuning.

    In the default design both reduced forms, g = theta'X + eps_g and
    y = beta g + theta'X + eta, are exactly sparse in the controls, so the
    `plain` arm is a consistent benchmark at every r (Belloni, Chernozhukov
    & Hansen 2014).  `factor_coef` adds kappa f_1t, the first true factor,
    to both g and y: a confounder that is dense in the controls, which
    plain double selection can only approximate through proxy series.  With
    weak factors (`alpha_strength` < 1, loadings scaled by N^{-(1-alpha)/2})
    no single series is a good proxy, while the diversified projection
    still averages over all N.

    With `oracle_sigma` the penalty levels use the design's true residual
    variances (the penalty is defined through them; the feasible iteration
    is a stand-in for real data where they are unknown).

    `std_z` is the z-statistics' sample standard deviation, 0.0 at
    n_reps = 1 (`_spread`, the rule of every study's spread).  `threads`
    counts worker processes, with the digits and the `__main__` guard of
    `experiment_cov`.
    """
    if support_offset is None:
        support_offset = SimConfig.n_blocks * SimConfig.block_size
    if support_offset + len(sparse_coefs) > n_series:
        raise ValueError("sparse support does not fit into N series")
    theta = np.zeros(n_series)
    theta[support_offset : support_offset + len(sparse_coefs)] = sparse_coefs
    # one extra column, the initial observation; serially independent errors in this design
    cells = [SimConfig(n_series=n_series, n_periods=n_periods + 1, n_factors_true=r,
                       alpha_strength=alpha_strength, rho_T=0.0, seed=seed) for r in r_values]
    rep_fn = partial(
        _postsel_rep, theta=theta, beta=beta, factor_coef=factor_coef, working_factors=working_factors,
        include_plain=include_plain, weights=weights, C=C,
        s2_y=(beta**2 + 1.0) if oracle_sigma else None,  # Var(beta eps_g + eta)
        s2_g=1.0 if oracle_sigma else None, level=level,
    )
    samples: dict[str, np.ndarray] = {}
    rows = []
    for r, per_rep in zip(r_values, _replicate(rep_fn, cells, n_reps, threads)):
        for method in per_rep[0]:
            z = np.array([res[method][0] for res in per_rep])
            cover = np.array([res[method][1] for res in per_rep])
            samples[f"r{r}_{method}"] = z
            rows.append({"r": r, "method": method, "mean_z": float(np.mean(z)),
                         "std_z": _spread(z), "coverage": float(np.mean(cover)), "level": level})
    return samples, rows


# ---------------------------------------------------------------------------
# Specification test study (size and power)
# ---------------------------------------------------------------------------

def _spectest_rep(cell, rep, *, rule, n_draws, level):
    """Whether the specification test rejects at `level` in one replication."""
    cfg, gamma, scheme = cell
    rng = rep_rng(cfg.seed, rep)
    sim = generate_panel(cfg, rng=rng)
    x0 = sim.panel.X[:, 0]
    X = sim.panel.X[:, 1:]
    F = sim.F_true[1:]
    h = rng.standard_normal(F.shape)
    G = F + gamma * h
    W = build_weights(scheme, cfg.n_series, cfg.n_factors_true, characteristics=sim.z_chars, x0=x0)
    boot_rng = rep_rng(cfg.seed, rep, stream=1)
    res = spec_test(X, G, W, rule=rule, n_draws=n_draws, seed=cfg.seed, rng=boot_rng)
    return res.p_value < level


def experiment_spectest(
    gammas=(0.0, 0.2),
    T_values=(100, 200),
    schemes=("characteristic", "hadamard", "initial"),
    n_series: int = 200,
    n_factors_true: int = 2,
    n_reps: int = 1000,
    seed: int = 0,
    n_draws: int = 2000,
    level: float = 0.05,
    C: float = SPEC_TEST_RULE.constant_C,
    threads: int = 1,
):
    """Rejection rate of the factor specification test at a fixed level.

    Observed factors are g_t = f_t + gamma * h_t with independent standard
    normal h_t, so gamma = 0 gives the size of the test and gamma > 0 its
    power.  SCAD thresholding feeds the bias and variance plug-ins; the
    default C = 1 keeps those plug-ins nearly unbiased, which is what the
    test's size hinges on (larger constants over-shrink the block
    covariances and inflate the statistic).  `threads` counts worker
    processes, with the digits and the `__main__` guard of `experiment_cov`.
    `schemes` takes the `build_weights` names of `experiment_postsel`'s
    `weights`.  `mc_se` is 0.0 at n_reps = 1 (`_mean_se`).  n_draws < 2 raises
    `spec_test`'s ValueError before any panel is drawn.
    """
    _check_draws(n_draws)
    grid = [(scheme, gamma, t_len) for scheme in schemes for gamma in gammas for t_len in T_values]
    # an extra initial observation for initial weights
    cells = [(SimConfig(n_series=n_series, n_periods=t_len + 1, n_factors_true=n_factors_true,
                        alpha_strength=1.0, rho_T=0.0, seed=seed), gamma, scheme)
             for scheme, gamma, t_len in grid]
    rep_fn = partial(_spectest_rep, rule=replace(SPEC_TEST_RULE, constant_C=C), n_draws=n_draws, level=level)
    rows = []
    for (scheme, gamma, t_len), rejects in zip(grid, _replicate(rep_fn, cells, n_reps, threads)):
        rate, se = _mean_se(rejects)
        rows.append({"scheme": scheme, "gamma": gamma, "T": t_len, "N": n_series,
                     "rejection_rate": rate, "mc_se": se, "level": level})
    return rows
