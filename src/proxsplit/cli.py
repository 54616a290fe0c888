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

import numpy as np

from . import bench, worstcase
from .admm import EqConstrainedProblem
from .errors import CapabilityError, ProxsplitError
from .metric import gamma_from_metric
from .prox import QuadraticAffine
from .rates import DualRegularity, competing_rates
from .splitting import CSV_SCHEMA_TAG

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPABILITY = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxsplit",
        description="operator-splitting benchmarks, rate certificates, and "
                    "worst-case verification")
    sub = parser.add_subparsers(dest="command", required=True)

    lasso = sub.add_parser("lasso", help="weighted sparse least squares sweep")
    lasso.add_argument("--seed", type=int, default=0)
    lasso.add_argument("--tol", type=float, default=1e-5)
    lasso.add_argument("--alpha", type=float, default=1.0)
    lasso.add_argument("--gamma-min", type=float, default=None)
    lasso.add_argument("--gamma-max", type=float, default=None)
    lasso.add_argument("--gamma-points", type=int, default=9)
    lasso.add_argument("--metric", choices=("identity", "auto"),
                       default="identity")
    lasso.add_argument("--out", required=True)
    lasso.add_argument("--full", action="store_true",
                       help="full-scale 300x200 instance instead of desk")

    mpc = sub.add_parser("mpc", help="aircraft control benchmark")
    mpc.add_argument("--tol", type=float, default=1e-5)
    mpc.add_argument("--alpha", type=float, default=0.5)
    mpc.add_argument("--gamma-min", type=float, default=None)
    mpc.add_argument("--gamma-max", type=float, default=None)
    mpc.add_argument("--gamma-points", type=int, default=None)
    mpc.add_argument("--metric", choices=("identity", "auto"),
                     default="auto")
    mpc.add_argument("--out", required=True)
    mpc.add_argument("--full", action="store_true",
                     help="closed-loop 120-sample pitch maneuver")

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


def _lasso_spec(args) -> bench.LassoSpec:
    if args.full:
        return bench.LassoSpec(seed=args.seed or 0)
    return bench.LassoSpec(n=50, m=75, nnz_per_row=10, seed=args.seed or 0)


def _cmd_lasso(args) -> int:
    problem = bench.gen_lasso(_lasso_spec(args))
    metric = bench.lasso_metric(problem) if args.metric == "auto" else None
    gamma_star = bench.sweep_gamma_star(problem, metric)
    gmin = args.gamma_min if args.gamma_min is not None else 1e-2 * gamma_star
    gmax = args.gamma_max if args.gamma_max is not None else 1e2 * gamma_star
    grid = bench.log_gamma_grid(gmin, gmax, args.gamma_points)
    sweep = bench.run_sweep(problem, args.alpha, grid, metric=metric,
                            tol=args.tol)
    with open(args.out, "w") as fh:
        sweep.to_csv(fh)
    return EXIT_OK


def _cmd_mpc(args) -> int:
    spec = bench.MpcSpec()
    x0 = np.zeros(bench.N_STATES)
    ref = np.array([0.0, 0.0, 0.0, 10.0])
    if args.full:
        if any(v is not None for v in (args.gamma_min, args.gamma_max,
                                       args.gamma_points)):
            raise ValueError("--full runs the closed loop at its own gamma; "
                             "drop --gamma-min/--gamma-max/--gamma-points")
        refs = bench.pitch_reference()
        result = bench.mpc_closed_loop(spec, refs, alpha=args.alpha,
                                       tol=args.tol,
                                       metric=args.metric == "auto")
        with open(args.out, "w") as fh:
            fh.write(CSV_SCHEMA_TAG + "\n")
            fh.write(f"# kind=mpc-closed-loop alpha={_fmt(args.alpha)} "
                     f"tol={_fmt(args.tol)} metric={args.metric}\n")
            fh.write(f"# mean_iterations={_fmt(result['mean_iterations'])} "
                     f"median_iterations="
                     f"{_fmt(result['median_iterations'])}\n")
            fh.write("sample,iterations\n")
            for t, count in enumerate(result["iterations"]):
                fh.write(f"{t},{count}\n")
        return EXIT_OK
    problem = bench.gen_mpc(spec, x0, ref)
    obj = bench.mpc_metric_objective(problem, identity=args.metric != "auto")
    metric = obj.metric if args.metric == "auto" else None
    gamma_star = gamma_from_metric(obj)
    gmin = args.gamma_min if args.gamma_min is not None else gamma_star
    gmax = args.gamma_max if args.gamma_max is not None else gamma_star
    points = 1 if args.gamma_points is None else args.gamma_points
    grid = bench.log_gamma_grid(gmin, gmax, points)
    sweep = bench.run_sweep(problem, args.alpha, grid, metric=metric,
                            tol=args.tol, max_iters=bench.MPC_MAX_ITERS)
    with open(args.out, "w") as fh:
        sweep.to_csv(fh)
    return EXIT_OK


def _cmd_worstcase(args) -> int:
    betas = None if args.beta is None else (args.beta,)
    rows = worstcase.verify_grid(betas, sigma=args.sigma)
    with open(args.out, "w") as fh:
        fh.write(CSV_SCHEMA_TAG + "\n")
        fh.write("beta,sigma,gamma,alpha,variant,bound,exact_rate,"
                 "measured_rate,max_abs_diff\n")
        for r in rows:
            fh.write(",".join([
                _fmt(r["beta"]), _fmt(r["sigma"]), _fmt(r["gamma"]),
                _fmt(r["alpha"]), r["variant"], _fmt(r["bound"]),
                _fmt(r["exact_rate"]), _fmt(r["measured_rate"]),
                _fmt(r["max_abs_diff"]),
            ]) + "\n")
    return EXIT_OK


def _cmd_rates_table(args) -> int:
    try:
        kappas = [float(tok) for tok in args.kappa_grid.split(",") if tok]
    except ValueError:
        print("invalid --kappa-grid", file=sys.stderr)
        return EXIT_USAGE
    if not kappas or not all(1 <= k < float("inf") for k in kappas):
        print("--kappa-grid needs finite values >= 1", file=sys.stderr)
        return EXIT_USAGE
    curves: dict[str, list[float]] = {}
    for kappa in kappas:
        rates = competing_rates(DualRegularity(sigma_hat=1.0, beta_hat=kappa))
        for name, value in rates.items():
            curves.setdefault(name, []).append(value)
    payload = {"kappa_hat": kappas, "curves": curves}
    with open(args.out, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return EXIT_OK


def _cmd_metric_report(args) -> int:
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
        metric = bench.lasso_metric(problem)
        obj = bench.lasso_condition_report(problem, metric)
    with open(args.out, "w") as fh:
        json.dump(obj.report(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return EXIT_OK


_COMMANDS = {
    "lasso": _cmd_lasso,
    "mpc": _cmd_mpc,
    "worstcase-verify": _cmd_worstcase,
    "rates-table": _cmd_rates_table,
    "metric-report": _cmd_metric_report,
}


def cli_main(argv: list[str] | None = None) -> int:
    """Parse arguments and run one subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
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


if __name__ == "__main__":
    main()
