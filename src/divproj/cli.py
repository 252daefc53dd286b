"""Command-line entry point.

Subcommands: estimate, forecast, infer, cov, spectest, fdr, simulate.
Exit codes: 0 on success, 1 on usage errors, 2 on data errors.  Every run
writes a manifest.json with the resolved configuration so it can be
re-run exactly.  A JSON file passed through --config supplies defaults
that explicit flags override; its values are parsed as the flags they
name, so a bad value exits 1 and an unreadable file 2.  DIVPROJ_THREADS is
the fallback for --threads and is parsed as the flag would be.  --threads
counts the worker processes of `simulate`'s replications and must be at
least 1.  `simulate` runs at one BLAS thread: `main` runs the command line
again with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to
1 unless they are, so results.csv has the same bytes on any host.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .covariance import KINDS, ThresholdRule, _estimate_parts, _inverse_parts, sparse_idio_cov
from .exceptions import DivprojError
from .experiments import (
    _ONE_BLAS_THREAD,
    experiment_cov,
    experiment_forecast,
    experiment_postsel,
    experiment_spectest,
)
from .fdr import farm_test
from .forecast import FixedWeightScheme, PCScheme, RollingWeightScheme, rolling_forecast
from .inference import confidence_interval, double_selection
from .io import (
    _write_parts,
    _write_triplets,
    ensure_outdir,
    read_panel,
    read_series,
    write_json,
    write_matrix,
    write_panel,
    write_rows_csv,
)
from .projection import PanelData, fit as projection_fit
from .spectest import DEFAULT_RULE as SPEC_TEST_RULE
from .spectest import spec_test
from .weights import build_weights, check_diversified

SCHEME_CHOICES = ("hadamard", "walsh", "sieve", "rolling", "initial")
THRESHOLD_RULE = ThresholdRule()  # the library's default thresholding constants
# `simulate --experiment` name -> (experiment, columns of results.csv)
SIMULATIONS = {
    "fig1": (experiment_cov, ["alpha", "rho_T", "N", "method", "C",
                              "err_cov_mean", "err_cov_se", "err_inv_mean", "err_inv_se"]),
    "table2": (experiment_forecast, ["alpha", "rho_T", "N", "T", "method", "mse_ratio_mean", "mse_ratio_se"]),
    "postsel": (experiment_postsel, ["r", "method", "mean_z", "std_z", "coverage", "level"]),
    "table3": (experiment_spectest, ["scheme", "gamma", "T", "N", "rejection_rate", "mc_se", "level"]),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise UsageError(message)


def _default(func, name: str):
    """The library's default for parameter `name` of `func`; flags restate no library value."""
    return inspect.signature(func).parameters[name].default


def _build_parser() -> _Parser:
    parser = _Parser(prog="divproj", description=__doc__)
    parser.add_argument("--version", action="version", version=f"divproj {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.commands = sub.choices  # subcommand name -> its parser, for _parse

    def common(p):
        p.add_argument("--out", default="divproj_out", help="output directory")
        p.add_argument("--config", default=None, help="JSON file with default flag values")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--threads",
            type=int,
            # a string default goes through type=int, so a bad value is a usage error
            default=os.environ.get("DIVPROJ_THREADS", "1"),
            help="worker processes for simulate's replications (default: $DIVPROJ_THREADS or 1)",
        )

    def scheme_flags(p, need_R=True):
        p.add_argument("--scheme", choices=SCHEME_CHOICES, default="walsh")
        if need_R:
            p.add_argument("--R", type=int, default=1, help="working number of factors")
        p.add_argument("--chars", default=None, help="characteristics CSV (sieve weights)")
        p.add_argument("--history", default=None, help="historical panel CSV (rolling weights)")
        p.add_argument("--epsilon", type=float, default=_default(build_weights, "epsilon"),
                       help="rolling-weight trimming constant")

    p = sub.add_parser("estimate", help="estimate factors, loadings and residuals")
    p.add_argument("--panel", required=True)
    scheme_flags(p)
    common(p)

    p = sub.add_parser("forecast", help="rolling out-of-sample factor-augmented forecast")
    p.add_argument("--panel", required=True)
    p.add_argument("--outcome", required=True, help="target series CSV")
    scheme_flags(p)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--lead", type=int, default=_default(rolling_forecast, "h"))
    p.add_argument("--compare-pc", action="store_true", help="also run the PC benchmark")
    common(p)

    p = sub.add_parser("infer", help="post-selection inference for a treatment effect")
    p.add_argument("--panel", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--treatment", required=True)
    scheme_flags(p)
    p.add_argument("--C", type=float, default=_default(double_selection, "C"), help="lasso penalty constant")
    p.add_argument("--level", type=float, default=_default(confidence_interval, "level"))
    p.add_argument("--no-refit", action="store_true")
    common(p)

    p = sub.add_parser("cov", help="sparse idiosyncratic covariance")
    p.add_argument("--panel", required=True)
    scheme_flags(p)
    p.add_argument("--rule", choices=KINDS, default=THRESHOLD_RULE.kind)
    p.add_argument("--C", type=float, default=THRESHOLD_RULE.constant_C, help="threshold constant")
    p.add_argument("--scad-a", type=float, default=THRESHOLD_RULE.scad_a)
    p.add_argument("--sparse", action="store_true", help="write (i, j, value) triplets")
    common(p)

    p = sub.add_parser("spectest", help="factor specification test")
    p.add_argument("--panel", required=True)
    p.add_argument("--factors", required=True, help="observed factors CSV (panel layout)")
    scheme_flags(p, need_R=False)
    p.add_argument("--rule", choices=KINDS, default=SPEC_TEST_RULE.kind)
    p.add_argument("--C", type=float, default=None, help="threshold constant (spec_test's default if omitted)")
    p.add_argument("--draws", type=int, default=_default(spec_test, "n_draws"))
    common(p)

    p = sub.add_parser("fdr", help="factor-adjusted multiple testing")
    p.add_argument("--panel", required=True)
    scheme_flags(p)
    p.add_argument("--q", type=float, default=_default(farm_test, "q"), help="FDR level")
    common(p)

    p = sub.add_parser("simulate", help="reproduce a Monte Carlo study")
    p.add_argument("--experiment", choices=tuple(SIMULATIONS), required=True)
    p.add_argument("--reps", type=int, default=None, help="replications (experiment default if omitted)")
    p.add_argument("--C", type=float, default=None,
                   help="threshold (fig1, table3) or lasso penalty (postsel) constant; experiment default if omitted")
    common(p)

    return parser


def _parse(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """Parse argv; a --config file's settings go in as flags right after the subcommand.

    Later flags win, so the explicit ones override the file, and the file
    may supply required flags such as --panel.  A JSON `true` gives a bare
    switch such as --sparse, and `false` or `null` leaves the flag out.
    """
    config_flag = _Parser(add_help=False)
    config_flag.add_argument("--config")
    config = config_flag.parse_known_args(argv)[0].config
    at = next((i for i, token in enumerate(argv) if token in parser.commands), None)
    if not config or at is None:
        return parser.parse_args(argv)
    with open(config) as fh:
        settings = json.load(fh)
    if not isinstance(settings, dict):
        raise UsageError(f"--config {config}: expected a JSON object of flag values")
    command = parser.commands[argv[at]]
    tokens = []
    for key, value in settings.items():
        dest = key.replace("-", "_")
        if dest == "subcommand" or value is None:
            continue
        flag = "--" + dest.replace("_", "-")
        if isinstance(command.get_default(dest), bool):  # a switch
            if not isinstance(value, bool):
                raise UsageError(f"--config {config}: {key!r} must be true or false")
            tokens += [flag] if value else []
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            tokens += [flag, str(value)]
        else:
            raise UsageError(f"--config {config}: {key!r} must be a string or a number")
    return parser.parse_args(argv[: at + 1] + tokens + argv[at + 1 :])


def _panel_and_weights(args, panel: PanelData, *series):
    """Weights for a user panel, returned as (panel, W, *series).

    Initial weights consume the first time point: it is dropped from the
    panel and from the first axis of each companion series.
    """
    X = panel.X
    chars = read_series(args.chars)[1] if args.chars else None
    history = read_panel(args.history).X if args.history else None
    x0 = None
    if args.scheme == "initial":
        if X.shape[1] < 2:
            raise DivprojError("initial-transform weights need at least two time points")
        x0 = X[:, 0]
        panel = PanelData(X[:, 1:], series_ids=panel.series_ids, time_ids=panel.time_ids[1:])
        series = tuple(s[1:] for s in series)
    W = build_weights(
        args.scheme,
        panel.n_series,
        getattr(args, "R", 1),
        characteristics=chars,
        panel_history=history,
        x0=x0,
        epsilon=args.epsilon,
    )
    return panel, W, *series


def _write_manifest(outdir: Path, args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in vars(args).items() if k != "config"}
    write_json(outdir / "manifest.json", {"artifact": "divproj", "version": __version__, "config": resolved})


def _cmd_estimate(args) -> int:
    panel = read_panel(args.panel)
    panel, W = _panel_and_weights(args, panel)
    fit_res = projection_fit(panel, W)
    outdir = ensure_outdir(args.out)
    f_cols = [f"f{k + 1}" for k in range(fit_res.n_factors)]
    write_matrix(outdir / "factors.csv", fit_res.factors, panel.time_ids, f_cols, corner="time")
    write_matrix(outdir / "loadings.csv", fit_res.loadings, panel.series_ids, f_cols, corner="series")
    write_panel(outdir / "residuals.csv", PanelData(fit_res.residuals, panel.series_ids, panel.time_ids))
    diag = check_diversified(W)
    write_json(
        outdir / "diagnostics.json",
        {
            "scheme": W.scheme,
            "max_abs_entry": diag.max_abs_entry,
            "min_eig_gram": diag.min_eig_gram,
            "gram_condition": diag.gram_condition,
            "factor_gram": fit_res.gram,
        },
    )
    _write_manifest(outdir, args)
    return 0


def _forecast_scheme(args, panel: PanelData, y):
    """(scheme, panel, y), trimmed alike under initial weights."""
    if args.scheme == "rolling":
        if not args.history:
            raise DivprojError("rolling-window forecasts need --history")
        history = read_panel(args.history).X
        return RollingWeightScheme(history, args.R, args.epsilon), panel, y
    panel, W, y = _panel_and_weights(args, panel, y)
    return FixedWeightScheme(W), panel, y


def _cmd_forecast(args) -> int:
    panel = read_panel(args.panel)
    _, y = read_series(args.outcome)
    scheme, panel, y = _forecast_scheme(args, panel, y)
    report = rolling_forecast(y, panel.X, args.window, args.steps, scheme, h=args.lead)
    columns = {"forecast_" + args.scheme: report.forecasts}
    if args.compare_pc:
        pc_report = rolling_forecast(y, panel.X, args.window, args.steps, PCScheme(args.R), h=args.lead)
        columns["forecast_pc"] = pc_report.forecasts
    outdir = ensure_outdir(args.out)
    rows = []
    for step in range(args.steps):
        row = {"step": step + 1, "realized": report.realized[step]}
        row.update({name: vals[step] for name, vals in columns.items()})
        rows.append(row)
    write_rows_csv(outdir / "forecast.csv", ["step", "realized", *columns], rows)
    write_json(outdir / "mse.json", {"mse": {name: float(np.mean((vals - report.realized) ** 2)) for name, vals in columns.items()}})
    _write_manifest(outdir, args)
    return 0


def _cmd_infer(args) -> int:
    panel = read_panel(args.panel)
    _, y = read_series(args.outcome)
    _, g = read_series(args.treatment)
    if args.R == 0:
        weights = None
    else:
        panel, weights, y, g = _panel_and_weights(args, panel, y, g)
    res = double_selection(y, g, panel.X, weights, C=args.C, refit=not args.no_refit)
    lo, hi = confidence_interval(res, args.level)
    outdir = ensure_outdir(args.out)
    write_json(
        outdir / "inference.json",
        {
            "beta_hat": res.beta_hat,
            "se": res.se,
            "z": res.z,
            "ci": {"level": args.level, "lo": lo, "hi": hi},
            "selected": res.selected,
            "alpha_y": res.alpha_y,
            "alpha_g": res.alpha_g,
            "gamma_hat": {"indices": res.selected, "values": res.gamma_hat[res.selected]},
            "theta_hat": {"indices": res.selected, "values": res.theta_hat[res.selected]},
            "sigma_g2": res.sigma_g2,
            "sigma_eta_g2": res.sigma_eta_g2,
            "eps_y_hat": res.eps_y_hat,
            "eps_g_hat": res.eps_g_hat,
        },
    )
    _write_manifest(outdir, args)
    return 0


def _cmd_cov(args) -> int:
    panel = read_panel(args.panel)
    panel, W = _panel_and_weights(args, panel)
    fit_res = projection_fit(panel, W)
    rule = ThresholdRule(kind=args.rule, constant_C=args.C, scad_a=args.scad_a)
    cov = sparse_idio_cov(fit_res.residuals, rule)
    outdir = ensure_outdir(args.out)
    s_ids = panel.series_ids
    # Both matrices are +0.0 off the blocks and the diagonal of the partition the thresholding
    # pass found, so both files are written row by row from those blocks: no N-length row is
    # formed or scanned, and the inverse is never held as an N x N array.
    if args.sparse:
        _write_triplets(outdir / "sigma_u.csv", _estimate_parts(cov))
    else:
        _write_parts(outdir / "sigma_u.csv", ["series", *s_ids], s_ids, _estimate_parts(cov))
    _write_parts(outdir / "sigma_u_inv.csv", ["series", *s_ids], s_ids, _inverse_parts(cov.sigma_u, cov.partition))
    write_json(
        outdir / "summary.json",
        {
            "omega": cov.omega,
            "nonzero_offdiag": cov.nonzero_offdiag,
            "m_n_q0": cov.sparsity_m(0.0),
            "m_n_q1": cov.sparsity_m(1.0),
            "rule": {"kind": rule.kind, "constant_C": rule.constant_C, "scad_a": rule.scad_a},
        },
    )
    _write_manifest(outdir, args)
    return 0


def _cmd_spectest(args) -> int:
    panel = read_panel(args.panel)
    factors = read_panel(args.factors)
    G = factors.X.T  # panel layout stores series in rows; observed factors are columns
    args.R = G.shape[1]  # the working number of factors is pinned to dim(g_t)
    panel, W, G = _panel_and_weights(args, panel, G)
    C = SPEC_TEST_RULE.constant_C if args.C is None else args.C
    rule = ThresholdRule(kind=args.rule, constant_C=C)
    res = spec_test(panel.X, G, W, rule=rule, n_draws=args.draws, seed=args.seed)
    outdir = ensure_outdir(args.out)
    write_json(outdir / "spectest.json", asdict(res))
    _write_manifest(outdir, args)
    return 0


def _cmd_fdr(args) -> int:
    panel = read_panel(args.panel)
    panel, W = _panel_and_weights(args, panel)
    res = farm_test(panel.X, W, q=args.q)
    outdir = ensure_outdir(args.out)
    rejected = set(res.rejected.tolist())
    rows = [
        {
            "series": series_id,
            "alpha_hat": res.alpha_hat[i],
            "z": res.z_stats[i],
            "p": res.p_values[i],
            "rejected": i in rejected,
        }
        for i, series_id in enumerate(panel.series_ids)
    ]
    write_rows_csv(outdir / "fdr.csv", ["series", "alpha_hat", "z", "p", "rejected"], rows)
    _write_manifest(outdir, args)
    return 0


def _write_fig1_panels(outdir: Path, rows: list) -> None:
    """One CSV per (alpha, rho_T) panel of Figure 1 and per error kind."""
    for alpha in sorted({r["alpha"] for r in rows}):
        for rho in sorted({r["rho_T"] for r in rows}):
            panel_rows = [r for r in rows if r["alpha"] == alpha and r["rho_T"] == rho]
            for what in ("cov", "inv"):
                write_rows_csv(
                    outdir / f"fig1_{what}_alpha{alpha:g}_rho{rho:g}.csv",
                    ["N", "method", "C", "err_mean", "err_se"],
                    [
                        {
                            "N": r["N"], "method": r["method"], "C": r["C"],
                            "err_mean": r[f"err_{what}_mean"], "err_se": r[f"err_{what}_se"],
                        }
                        for r in panel_rows
                    ],
                )


def _experiment_arguments(experiment, args) -> dict:
    """Every argument the experiment runs with: its defaults plus the CLI overrides."""
    signature = inspect.signature(experiment)
    overrides = {"seed": args.seed, "threads": args.threads}
    if args.reps is not None:
        overrides["n_reps"] = args.reps
    if args.C is not None:
        if "C" in signature.parameters:
            overrides["C"] = args.C
        elif "C_values" in signature.parameters:
            overrides["C_values"] = (args.C,)
        else:
            raise UsageError(f"--C does not apply to --experiment {args.experiment}")
    bound = signature.bind(**overrides)
    bound.apply_defaults()
    return bound.arguments


def _cmd_simulate(args) -> int:
    experiment, fields = SIMULATIONS[args.experiment]
    arguments = _experiment_arguments(experiment, args)
    outdir = ensure_outdir(args.out)
    rows = experiment(**arguments)
    if args.experiment == "postsel":  # (z-statistic samples per setting, summary rows)
        samples, rows = rows
        sample_rows = [
            {"setting": name, "rep": i, "z": z}
            for name in sorted(samples)
            for i, z in enumerate(samples[name])
        ]
        write_rows_csv(outdir / "postsel_z_samples.csv", ["setting", "rep", "z"], sample_rows)
    write_rows_csv(outdir / "results.csv", fields, rows)
    if args.experiment == "fig1":
        _write_fig1_panels(outdir, rows)
    write_json(outdir / "config.json", {"experiment": args.experiment, **arguments})
    _write_manifest(outdir, args)
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "forecast": _cmd_forecast,
    "infer": _cmd_infer,
    "cov": _cmd_cov,
    "spectest": _cmd_spectest,
    "fdr": _cmd_fdr,
    "simulate": _cmd_simulate,
}


def run(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(_build_parser(), argv)
        if args.threads < 1:
            raise UsageError(f"--threads (or DIVPROJ_THREADS) must be at least 1, got {args.threads}")
        if args.seed < 0:
            raise UsageError(f"--seed must be at least 0, got {args.seed}")
        return _COMMANDS[args.subcommand](args)
    except UsageError as exc:
        print(f"divproj: {exc}", file=sys.stderr)
        return 1
    except (DivprojError, OSError, ValueError) as exc:
        print(f"divproj: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # the BLAS reads its thread count when numpy loads, so simulate pins it by starting again
    if sys.argv[1:2] == ["simulate"] and any(os.environ.get(k) != v for k, v in _ONE_BLAS_THREAD.items()):
        os.execve(sys.executable, sys.orig_argv, {**os.environ, **_ONE_BLAS_THREAD})
    sys.exit(run())


if __name__ == "__main__":
    main()
