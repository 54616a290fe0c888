"""Benchmark of the proxsplit package.

Run from the root of a checkout (it imports the package from ``src/``)::

    python3 perfbench/run.py --workload lasso_sweep --seed 0 --seconds 15 \\
        --trace 0

Workloads: ``lasso_sweep``, ``mpc_closed_loop``, ``worstcase_grid`` and
``certify`` (see ``workloads.py``).  A run draws the workload's inputs from
``--seed``, warms up imports and scipy's lazy initialisation on small
unrelated problems, measures the peak memory of one pass in a forked child,
then repeats whole passes, each building its problems afresh, for about
``--seconds`` (at least five passes) and checks every pass's outputs.
Times are reported with every short part of a pass at its fastest over the
run (see ``metrics.end_to_end``).

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics, and
writes the recorded spans to ``.perfbench/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` (checked
items over all passes) and ``metrics``.  A record of the run, with the
machine and library versions, goes to ``.perfbench/`` as well.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy is loaded: the reduction order,
# and with it the iteration counts, depends on the thread count.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

MIN_PASSES = 5
MIN_TRACED_PAIRS = 2

#: total solver iterations of one pass at --seed 0, one BLAS thread; a
#: change here means the algorithm's arithmetic changed
SEED0_ITERS = {
    "lasso_sweep": 3230,
    "mpc_closed_loop": 3119,
    "worstcase_grid": 23963,
    "certify": 240,
}


@dataclass
class PassRecord:
    wall: float
    setup: float
    solves: list
    outcome: object
    setup_parts: list = field(default_factory=list)
    gap_parts: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return sum(s.iterations for s in self.solves)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_sha": _git_sha(),
    }


def _warm_up() -> None:
    """Imports and scipy's lazy set-up, on small problems of its own."""
    import numpy as np
    from proxsplit import admm, bench, worstcase

    problem = bench.gen_lasso(bench.LassoSpec(n=8, m=12, nnz_per_row=3,
                                              seed=1))
    metric = bench.lasso_metric(problem)
    bench.lasso_condition_report(problem, metric)
    gamma = bench.sweep_gamma_star(problem, metric)
    bench.run_sweep(problem, 1.0, [gamma], metric=metric, max_iters=20)
    mpc = bench.gen_mpc(bench.MpcSpec(horizon=2), np.zeros(4), np.zeros(4))
    obj = bench.mpc_metric_objective(mpc)
    admm.admm_solve(mpc.scaled(obj.metric), 1.0, 0.5, max_iters=5)
    worstcase.verify_point(4.0, 1.0, 0.5, 1.0, iters=5)
    worstcase.dual_verify_point(4.0, 1.0, 1.0, 2.0, 0.5, 1.0, iters=5)


def _run_pass(workload, tracer) -> PassRecord:
    from workloads import Outcome

    tracer.install()
    try:
        tracer.begin_pass()
        try:
            outcome = workload.run_pass(tracer)
        except Exception as exc:  # every item of the pass counts as failed
            traceback.print_exc(file=sys.stderr)
            outcome = Outcome(workload.solves_per_pass)
            for item in range(outcome.checked):
                outcome.fail(item, f"{type(exc).__name__}: {exc}")
        wall = tracer.end_pass()
    finally:
        tracer.uninstall()
    record = PassRecord(wall, tracer.setup_s, list(tracer.solves), outcome,
                        list(tracer.setup_parts), list(tracer.gap_parts))
    if tracer.detail:
        from metrics import layer_values
        record.layers = layer_values(tracer, wall)
    return record


def _status_kb(field_name: str) -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field_name + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field_name} missing from /proc/self/status")


def _peak_rss_pass(workload) -> dict:
    """One pass in a forked child; its peak RSS growth in MB and outcome.

    ``ru_maxrss`` never falls within a process, so a child is forked after
    warm-up; its high-water mark starts at the resident size it inherits,
    and the growth above that is this workload's own peak.  Returns
    ``peak_mb``, ``iterations``, ``checked`` and the ``failures``.
    """
    from tracer import Tracer

    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            base = _status_kb("VmRSS")
            record = _run_pass(workload, Tracer(detail=False))
            peak = _status_kb("VmHWM")
            payload = {"peak_mb": (peak - base) / 1024.0,
                       "iterations": record.iterations,
                       "checked": record.outcome.checked,
                       "failures": list(record.outcome.failures.values())}
            with os.fdopen(write_fd, "w") as fh:
                json.dump(payload, fh)
            status = 0
        except BaseException:
            traceback.print_exc(file=sys.stderr)
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError("the memory pass failed")
    return json.loads(data)


def _measure(workload, seconds: float, traced: bool):
    """Whole passes for about ``seconds``, at least the minimum count.

    Traced runs alternate an untraced and a traced pass and stop after a
    whole pair.  Successive rounds are pinned to each of the process's
    CPUs in turn: on a shared host one core can be slowed for many seconds
    by work elsewhere while another runs at full speed, and a part of a
    pass is reported at its fastest (``metrics.end_to_end``).  Returns the
    pass records and the tracers used.
    """
    from tracer import Tracer

    tracers = ([Tracer(detail=False), Tracer(detail=True)] if traced
               else [Tracer(detail=False)])
    minimum = 2 * MIN_TRACED_PAIRS if traced else MIN_PASSES
    records: list[PassRecord] = []
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    start = time.perf_counter()
    try:
        for round_ in itertools.count():
            os.sched_setaffinity(0, {cpus[round_ % len(cpus)]})
            for tracer in tracers:
                records.append(_run_pass(workload, tracer))
            elapsed = time.perf_counter() - start
            per_round = elapsed / (round_ + 1)
            if len(records) >= minimum and elapsed + per_round > seconds:
                break
    finally:
        os.sched_setaffinity(0, allowed)
    return records, tracers


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "proxsplit" / "__init__.py").is_file():
        print(f"perfbench: no proxsplit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import metrics
    from workloads import WORKLOADS, Outcome

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    env = _environment()
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")

    _warm_up()
    memory = None if args.trace else _peak_rss_pass(workload)
    records, tracers = _measure(workload, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracers[1].write_spans(stem.with_suffix(".spans.jsonl"))
    timed = [r for r in records if not r.layers]
    traced = [r for r in records if r.layers]

    # the memory pass is checked like every other pass
    iterations = {r.iterations for r in records}
    outcomes = [r.outcome for r in records]
    if memory is not None:
        iterations.add(memory["iterations"])
        outcomes.append(Outcome(memory["checked"],
                                dict(enumerate(memory["failures"]))))
    attempted = sum(o.checked for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    failures = [m for o in outcomes for m in o.failures.values()]
    deterministic = len(iterations) == 1
    if not deterministic:
        failures.append(f"passes on the same inputs ran different iteration "
                        f"totals: {sorted(iterations)}")

    n_solves = workload.solves_per_pass * MIN_PASSES
    tail_pct = metrics.tail_percentile(n_solves)
    if args.trace:
        specs = metrics.PER_LAYER
        values = {name: statistics.median(r.layers[name] for r in traced)
                  for name, _, _ in specs if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            statistics.median(r.wall for r in traced)
            - statistics.median(r.wall for r in timed))
    else:
        specs = metrics.END_TO_END
        values = metrics.end_to_end(timed, tail_pct, memory["peak_mb"])

    for name, unit, _ in specs:
        note = ""
        if name == "solve_tail_ms":
            note = (f"  (p{tail_pct:g} of {workload.solves_per_pass} "
                    f"solves, parts at their fastest over {len(timed)} "
                    f"passes)")
        print(f"{name:34s} {values[name]:14.6g} {unit}{note}")
    print(f"{'fail_frac':34s} {failed / attempted:14.6g} "
          f"({failed} of {attempted} checked items)")
    print(f"# passes={len(timed)} traced_passes={len(traced)} "
          f"iterations_per_pass={sorted(iterations)}")
    expected = SEED0_ITERS[args.workload]
    if args.seed == 0:
        print(f"# iterations vs recorded seed-0 total {expected}: "
              f"{sorted(iterations)}")
    for message in failures[:20]:
        print(f"# FAIL {message}")

    result = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit, _ in specs},
    }
    stem.with_suffix(".json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "env": env, "result": result,
        "tail_percentile": tail_pct, "passes": len(timed),
        "traced_passes": len(traced),
        "timed_passes": [{"wall": r.wall, "setup": r.setup,
                          "solves": [[s.seconds, s.iterations]
                                     for s in r.solves]} for r in timed],
        "iterations_per_pass": sorted(iterations), "failures": failures,
    }, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
