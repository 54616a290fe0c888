"""Command-line harness emitting benchmark and verification data.

Subcommands: ``lasso`` and ``mpc`` run the two benchmark experiments as
step-size sweeps, ``worstcase-verify`` checks measured against exact rates
on the extremal instances, ``rates-table`` tabulates the competing
closed-form rate bounds, and ``metric-report`` emits the selected diagonal
metric with its condition numbers and recommended step size.

Exit codes: 0 success, 2 invalid arguments, 3 solver capability error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, TextIO

from . import bench, worstcase
from .admm import EqConstrainedProblem
from .errors import CapabilityError, ProxsplitError
from .prox import QuadraticAffine
from .rates import DualRegularity, competing_rates
from .splitting import write_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPABILITY = 3


def _sweep_flags(parser, alpha: float, points: int | None, metric: str,
                 full_help: str) -> None:
    """The eight flags of the ``lasso`` and ``mpc`` sweeps."""
    parser.add_argument("--tol", type=float, default=1e-5)
    parser.add_argument("--alpha", type=float, default=alpha)
    parser.add_argument("--gamma-min", type=float, default=None)
    parser.add_argument("--gamma-max", type=float, default=None)
    parser.add_argument("--gamma-points", type=int, default=points)
    parser.add_argument("--metric", choices=("identity", "auto"),
                        default=metric)
    parser.add_argument("--out", required=True)
    parser.add_argument("--full", action="store_true", help=full_help)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxsplit",
        description="operator-splitting benchmarks, rate certificates, and "
                    "worst-case verification")
    sub = parser.add_subparsers(dest="command", required=True)

    lasso = sub.add_parser("lasso", help="weighted sparse least squares sweep")
    lasso.add_argument("--seed", type=int, default=0)
    _sweep_flags(lasso, 1.0, 9, "identity",
                 "full-scale 300x200 instance instead of desk")

    mpc = sub.add_parser("mpc", help="aircraft control benchmark")
    _sweep_flags(mpc, 0.5, None, "auto",
                 "closed-loop 120-sample pitch maneuver")

    wc = sub.add_parser("worstcase-verify",
                        help="measured vs exact rates on extremal instances")
    wc.add_argument("--beta", type=float, default=None)
    wc.add_argument("--sigma", type=float, default=1.0)
    wc.add_argument("--out", required=True)

    rt = sub.add_parser("rates-table",
                        help="competing closed-form rate bound curves")
    rt.add_argument("--kappa-grid", default="1,10,100,1000",
                    help="comma-separated dual condition numbers")
    rt.add_argument("--out", required=True)

    mr = sub.add_parser("metric-report",
                        help="selected diagonal metric and its objective")
    mr.add_argument("--seed", type=int, default=None)
    mr.add_argument("--problem", default=None,
                    help="path to a problem JSON file (default: desk lasso)")
    mr.add_argument("--full", action="store_true")
    mr.add_argument("--out", required=True)
    return parser


def _json(payload) -> Callable[[TextIO], None]:
    """The writer of ``payload`` as sorted, indented JSON."""
    return lambda fh: fh.write(json.dumps(payload, sort_keys=True,
                                          indent=2) + "\n")


def _lasso_spec(args) -> bench.LassoSpec:
    desk = {} if args.full else {"n": 50, "m": 75, "nnz_per_row": 10}
    return bench.LassoSpec(**desk, seed=args.seed or 0)


def _cmd_lasso(args) -> Callable[[TextIO], None]:
    problem = bench.gen_lasso(_lasso_spec(args))
    metric = bench.lasso_metric(problem) if args.metric == "auto" else None
    gamma_star = bench.sweep_gamma_star(problem, metric)
    gmin = args.gamma_min if args.gamma_min is not None else 1e-2 * gamma_star
    gmax = args.gamma_max if args.gamma_max is not None else 1e2 * gamma_star
    grid = bench.log_gamma_grid(gmin, gmax, args.gamma_points)
    return bench.run_sweep(problem, args.alpha, grid, metric=metric,
                           tol=args.tol).to_csv


def _cmd_mpc(args) -> Callable[[TextIO], None]:
    spec = bench.MpcSpec()
    if args.full:
        if any(v is not None for v in (args.gamma_min, args.gamma_max,
                                       args.gamma_points)):
            raise ValueError("--full runs the closed loop at its own gamma; "
                             "drop --gamma-min/--gamma-max/--gamma-points")
        result = bench.mpc_closed_loop(spec, bench.pitch_reference(),
                                       alpha=args.alpha, tol=args.tol,
                                       metric=args.metric == "auto")
        comments = [{"kind": "mpc-closed-loop", "alpha": args.alpha,
                     "tol": args.tol, "metric": args.metric},
                    {k: result[k] for k in ("mean_iterations",
                                            "median_iterations")}]
        return lambda fh: write_csv(fh, comments, ("sample", "iterations"),
                                    enumerate(result["iterations"]))
    points = 1 if args.gamma_points is None else args.gamma_points
    problem = bench.gen_mpc(spec, [0.0] * bench.N_STATES,
                            [0.0, 0.0, 0.0, 10.0])
    _, sweep = bench.mpc_sweep(problem, args.alpha, args.tol,
                               args.metric == "auto", args.gamma_min,
                               args.gamma_max, points)
    return sweep.to_csv


def _cmd_worstcase(args) -> Callable[[TextIO], None]:
    betas = None if args.beta is None else (args.beta,)
    rows = worstcase.verify_grid(betas, sigma=args.sigma)
    cols = ("beta", "sigma", "gamma", "alpha", "variant", "bound",
            "exact_rate", "measured_rate", "max_abs_diff")
    return lambda fh: write_csv(fh, (), cols,
                                ([r[c] for c in cols] for r in rows))


def _cmd_rates_table(args) -> Callable[[TextIO], None]:
    try:
        kappas = [float(tok) for tok in args.kappa_grid.split(",") if tok]
    except ValueError:
        raise ValueError("invalid --kappa-grid") from None
    if not kappas or not all(1 <= k < float("inf") for k in kappas):
        raise ValueError("--kappa-grid needs finite values >= 1")
    curves: dict[str, list[float]] = {}
    for kappa in kappas:
        rates = competing_rates(DualRegularity(sigma_hat=1.0, beta_hat=kappa))
        for name, value in rates.items():
            curves.setdefault(name, []).append(value)
    return _json({"kappa_hat": kappas, "curves": curves})


def _cmd_metric_report(args) -> Callable[[TextIO], None]:
    if args.problem is not None:
        if args.full or args.seed is not None:
            raise ValueError("--problem takes neither --full nor --seed")
        with open(args.problem) as fh:
            problem = EqConstrainedProblem.from_json(json.load(fh))
    else:
        problem = bench.gen_lasso(_lasso_spec(args))
    if isinstance(problem.f, QuadraticAffine):
        obj = bench.mpc_metric_objective(problem)
    else:
        obj = bench.lasso_condition_report(problem,
                                           bench.lasso_metric(problem))
    return _json(obj.report())


_COMMANDS = {
    "lasso": _cmd_lasso,
    "mpc": _cmd_mpc,
    "worstcase-verify": _cmd_worstcase,
    "rates-table": _cmd_rates_table,
    "metric-report": _cmd_metric_report,
}


def cli_main(argv: list[str] | None = None) -> int:
    """Parse arguments, run one subcommand, then open ``--out`` and write
    the subcommand's output into it; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        write = _COMMANDS[args.command](args)
        with open(args.out, "w") as fh:
            write(fh)
        return EXIT_OK
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except (ProxsplitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyError as exc:
        print(f"error: missing key {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
