"""Monte Carlo experiment drivers.

Four studies are implemented: covariance estimation error against the
dimension, out-of-sample forecast comparisons against the PC benchmark,
post-selection inference z-statistics, and size/power of the factor
specification test.  Replications are the unit of parallelism; every
replication owns a counter-based RNG substream keyed by (seed,
replication, stream) and results are aggregated in replication order, so
output is identical for any `threads` value at a fixed BLAS thread count.
The BLAS thread count itself can move the last digits: `experiment_cov`'s
N x N products give different `err_*` digits at 1 and 2 OpenBLAS threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from .covariance import ThresholdRule, _blocks, _sym_opnorm, invert_sparse_cov, sparse_idio_cov
from .forecast import FixedWeightScheme, PCScheme, RollingWeightScheme, rolling_forecast
from .inference import confidence_interval, double_selection
from .projection import estimate_loadings, fit as projection_fit, pc_factors
from .simulation import SimConfig, generate_panel, loading_scale, rep_rng, true_idio_cov
from .spectest import DEFAULT_RULE as SPEC_TEST_RULE
from .spectest import spec_test
from .weights import WeightMatrix, build_weights, sieve_weights


def _map_replications(fn, n_reps: int, threads: int = 1) -> list:
    """Apply fn to 0..n_reps-1, preserving replication order."""
    if threads <= 1:
        return [fn(i) for i in range(n_reps)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n_reps)))


def _mean_se(values: np.ndarray):
    values = np.asarray(values, dtype=float)
    m = float(np.mean(values))
    se = float(np.std(values, ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return m, se


def _scheme_weights(scheme: str, sim, r_work: int, x0: np.ndarray) -> WeightMatrix:
    """Diversified weights of a simulated panel by scheme name (see `build_weights`).

    The studies compare the characteristic, Hadamard-pattern and
    initial-transform schemes only.
    """
    if scheme not in ("characteristic", "sieve", "hadamard", "hadamard_pattern", "initial", "initial_transform"):
        raise ValueError(f"unsupported weight scheme: {scheme!r}")
    return build_weights(scheme, sim.panel.n_series, r_work, characteristics=sim.z_chars, x0=x0)


# ---------------------------------------------------------------------------
# Covariance estimation study (operator-norm errors against the dimension)
# ---------------------------------------------------------------------------

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
    """
    rows = []
    for alpha in alphas:
        for rho in rho_Ts:
            for size in sizes:
                cfg = SimConfig(
                    n_series=size,
                    n_periods=size,
                    n_factors_true=n_factors_true,
                    alpha_strength=alpha,
                    rho_T=rho,
                    seed=seed,
                )
                sigma_true = true_idio_cov(cfg)
                sigma_true_inv = invert_sparse_cov(sigma_true)
                truth_pattern = (sigma_true != 0) | (sigma_true_inv != 0)

                def one_rep(rep, cfg=cfg, sigma_true=sigma_true, sigma_true_inv=sigma_true_inv,
                            truth_pattern=truth_pattern):
                    sim = generate_panel(cfg, replication=rep)
                    X = sim.panel.X
                    residual_sets = {}
                    for extra in extra_factors:
                        r_work = cfg.n_factors_true + extra
                        W = sieve_weights(sim.z_chars, r_work)
                        residual_sets[f"dp_R{r_work}"] = projection_fit(X, W).residuals
                    if include_pc:
                        residual_sets["pc"] = pc_factors(X, cfg.n_factors_true).residuals
                    if include_known:
                        B_hat = estimate_loadings(X, sim.F_true)
                        residual_sets["known_factor"] = X - B_hat @ sim.F_true.T
                    out = {}
                    for method, U_hat in residual_sets.items():
                        for C in C_values:
                            rule = ThresholdRule(kind=rule_kind, constant_C=C)
                            cov = sparse_idio_cov(U_hat, rule)
                            # Both errors vanish outside the blocks of this union: the
                            # inverses are block-diagonal over their own matrices' blocks.
                            partition = _blocks((cov.sigma_u != 0) | truth_pattern)
                            err = _sym_opnorm(cov.sigma_u - sigma_true, partition)
                            inv_err = _sym_opnorm(invert_sparse_cov(cov) - sigma_true_inv, partition)
                            out[(method, C)] = (err, inv_err)
                    return out

                per_rep = _map_replications(one_rep, n_reps, threads)
                for key in per_rep[0]:
                    method, C = key
                    errs = np.array([res[key][0] for res in per_rep])
                    inv_errs = np.array([res[key][1] for res in per_rep])
                    err_mean, err_se = _mean_se(errs)
                    inv_mean, inv_se = _mean_se(inv_errs)
                    rows.append(
                        {
                            "alpha": alpha,
                            "rho_T": rho,
                            "N": size,
                            "method": method,
                            "C": C,
                            "err_cov_mean": err_mean,
                            "err_cov_se": err_se,
                            "err_inv_mean": inv_mean,
                            "err_inv_se": inv_se,
                        }
                    )
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
    per-replication MSE ratio to PC (true r) is averaged over replications.
    """
    r = 2
    coef_factors = np.ones(r)
    rows = []
    for alpha in alphas:
        for rho in rho_Ts:
            for window in window_sizes:
                cfg = SimConfig(
                    n_series=n_series,
                    n_periods=window,
                    n_factors_true=r,
                    alpha_strength=alpha,
                    rho_T=rho,
                    seed=seed,
                )

                def one_rep(rep, cfg=cfg):
                    y, X, X_pre, z = _forecast_path(cfg, rep, n_steps, coef_factors, 1.5, 0.5)
                    window = cfg.n_periods
                    mse_pc = rolling_forecast(
                        y, X, window, n_steps, PCScheme(cfg.n_factors_true)
                    ).mse
                    out = {"pc": mse_pc}
                    # one scheme at the largest count; its siblings share each window's SVD
                    r_max = cfg.n_factors_true + max(extra_factors, default=0)
                    rolling = RollingWeightScheme(X_pre, r_max, epsilon)
                    for extra in extra_factors:
                        r_work = cfg.n_factors_true + extra
                        if "characteristic" in schemes:
                            sch = FixedWeightScheme(sieve_weights(z, r_work))
                            out[f"characteristic_R{r_work}"] = rolling_forecast(
                                y, X, window, n_steps, sch
                            ).mse
                        if "rolling" in schemes:
                            out[f"rolling_R{r_work}"] = rolling_forecast(
                                y, X, window, n_steps, rolling.with_factors(r_work)
                            ).mse
                    return out

                per_rep = _map_replications(one_rep, n_reps, threads)
                for method in per_rep[0]:
                    if method == "pc":
                        continue
                    ratios = np.array([res[method] / res["pc"] for res in per_rep])
                    ratio_mean, ratio_se = _mean_se(ratios)
                    rows.append(
                        {
                            "alpha": alpha,
                            "rho_T": rho,
                            "N": n_series,
                            "T": window,
                            "method": method,
                            "mse_ratio_mean": ratio_mean,
                            "mse_ratio_se": ratio_se,
                        }
                    )
    return rows


# ---------------------------------------------------------------------------
# Post-selection inference study (z-statistics and coverage)
# ---------------------------------------------------------------------------

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
    (`weights`: "initial" transforms of the initial observation or
    "characteristic" polynomials of the loading characteristics) at several
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
    """
    if support_offset is None:
        support_offset = SimConfig.n_blocks * SimConfig.block_size
    if support_offset + len(sparse_coefs) > n_series:
        raise ValueError("sparse support does not fit into N series")
    theta = np.zeros(n_series)
    theta[support_offset : support_offset + len(sparse_coefs)] = sparse_coefs
    s2_y = (beta**2 + 1.0) if oracle_sigma else None  # Var(beta eps_g + eta)
    s2_g = 1.0 if oracle_sigma else None
    samples: dict[str, np.ndarray] = {}
    rows = []
    for r in r_values:
        cfg = SimConfig(
            n_series=n_series,
            n_periods=n_periods + 1,  # one extra column: the initial observation
            n_factors_true=r,
            alpha_strength=alpha_strength,
            rho_T=0.0,  # serially independent errors in this design
            seed=seed,
        )
        methods = [f"dp_R{k}" for k in working_factors] + (["plain"] if include_plain else [])

        def one_rep(rep, cfg=cfg, r=r):
            rng = rep_rng(cfg.seed, rep)
            sim = generate_panel(cfg, rng=rng)
            x0 = sim.panel.X[:, 0]
            X = sim.panel.X[:, 1:]
            t = X.shape[1]
            eps_g = rng.standard_normal(t)
            eta = rng.standard_normal(t)
            confounder = factor_coef * sim.F_true[1:, 0] if factor_coef and r > 0 else 0.0
            g = theta @ X + confounder + eps_g
            y = beta * g + theta @ X + confounder + eta
            out = {}
            for k in working_factors:
                W = _scheme_weights(weights, sim, k, x0)
                res = double_selection(y, g, X, W, C=C, sigma2_y=s2_y, sigma2_g=s2_g)
                lo, hi = confidence_interval(res, level)
                out[f"dp_R{k}"] = ((res.beta_hat - beta) / res.se, lo <= beta <= hi)
            if include_plain:
                res = double_selection(y, g, X, None, C=C, sigma2_y=s2_y, sigma2_g=s2_g)
                lo, hi = confidence_interval(res, level)
                out["plain"] = ((res.beta_hat - beta) / res.se, lo <= beta <= hi)
            return out

        per_rep = _map_replications(one_rep, n_reps, threads)
        for method in methods:
            z = np.array([res[method][0] for res in per_rep])
            cover = np.array([res[method][1] for res in per_rep])
            samples[f"r{r}_{method}"] = z
            rows.append(
                {
                    "r": r,
                    "method": method,
                    "mean_z": float(np.mean(z)),
                    "std_z": float(np.std(z, ddof=1)),
                    "coverage": float(np.mean(cover)),
                    "level": level,
                }
            )
    return samples, rows


# ---------------------------------------------------------------------------
# Specification test study (size and power)
# ---------------------------------------------------------------------------

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
    covariances and inflate the statistic).
    """
    rule = replace(SPEC_TEST_RULE, constant_C=C)
    rows = []
    for scheme in schemes:
        for gamma in gammas:
            for t_len in T_values:
                cfg = SimConfig(
                    n_series=n_series,
                    n_periods=t_len + 1,  # extra initial observation for initial weights
                    n_factors_true=n_factors_true,
                    alpha_strength=1.0,
                    rho_T=0.0,
                    seed=seed,
                )

                def one_rep(rep, cfg=cfg, gamma=gamma, scheme=scheme):
                    rng = rep_rng(cfg.seed, rep)
                    sim = generate_panel(cfg, rng=rng)
                    x0 = sim.panel.X[:, 0]
                    X = sim.panel.X[:, 1:]
                    F = sim.F_true[1:]
                    h = rng.standard_normal(F.shape)
                    G = F + gamma * h
                    W = _scheme_weights(scheme, sim, cfg.n_factors_true, x0)
                    boot_rng = rep_rng(cfg.seed, rep, stream=1)
                    res = spec_test(X, G, W, rule=rule, n_draws=n_draws, seed=cfg.seed, rng=boot_rng)
                    return res.p_value < level

                rejects = np.array(_map_replications(one_rep, n_reps, threads), dtype=float)
                rate, se = _mean_se(rejects)
                rows.append(
                    {
                        "scheme": scheme,
                        "gamma": gamma,
                        "T": t_len,
                        "N": n_series,
                        "rejection_rate": rate,
                        "mc_se": se,
                        "level": level,
                    }
                )
    return rows
