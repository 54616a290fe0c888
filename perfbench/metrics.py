"""Names, units and computation of the benchmark's metrics.

End-to-end metrics come from the timed run, where only solver entry points
and set-up calls are wrapped.  Per-layer metrics come from the traced run
and are computed per traced pass from a :class:`tracer.Tracer`.  Which
end-to-end metric and workload each per-layer metric is expected to move
is tabled in ``perfbench/README.md``.
"""

from __future__ import annotations

import math
import statistics

#: (name, unit, better) of every end-to-end metric
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("iters", "count", "lower"),
    ("us_per_iter", "us", "lower"),
    ("solve_p50_ms", "ms", "lower"),
    ("solve_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

PROX_KINDS = ("pwl_penalty", "separable", "box", "weighted_l1", "quadratic",
              "zero", "indicator_zero")
ERROR_MODULES = ("prox", "admm", "splitting", "metric", "linmetric", "rates",
                 "bench", "worstcase")
CALLS_AND_TIME = ("metric.select", "metric.objective",
                  "linmetric.spectral_summary", "rates.dual_regularity",
                  "bench.gen", "worstcase.verify_point",
                  "worstcase.dual_verify_point")

#: (name, unit, better) of every per-layer metric
PER_LAYER = (
    [(f"prox.{k}.{m}", u, "lower") for k in PROX_KINDS
     for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("admm.step.calls", "count", "lower"),
       ("admm.step.self_s", "s", "lower"),
       ("admm.x_update.self_s", "s", "lower"),
       ("admm.y_update.self_s", "s", "lower"),
       ("admm.solve.self_s", "s", "lower"),
       ("splitting.dr_solve.self_s", "s", "lower"),
       ("splitting.dr_step.calls", "count", "lower"),
       ("splitting.dr_step.self_s", "s", "lower"),
       ("admm.history_mb", "MB", "lower"),
       ("splitting.history_mb", "MB", "lower"),
       ("bench.run_sweep.self_s", "s", "lower"),
       ("admm.engine_init.calls", "count", "lower"),
       ("admm.engine_init.s", "s", "lower"),
       ("admm.factorizations", "count", "lower"),
       ("admm.factor_distinct_ratio", "ratio", "higher")]
    + [(f"{n}.{m}", u, "lower") for n in CALLS_AND_TIME
       for m, u in (("calls", "count"), ("s", "s"))]
    + [("linmetric.kkt_p11.s", "s", "lower"),
       ("rng.draws", "count", "lower")]
    + [(f"{m}.errors", "count", "lower") for m in ERROR_MODULES]
    + [("admm.not_converged", "count", "lower"),
       ("splitting.not_converged", "count", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.coverage", "ratio", "higher")]
)

#: percentiles tried for the tail, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: no interpolation between two solves."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n_solves: int) -> float:
    """Highest ladder percentile with at least ten of ``n_solves`` beyond."""
    for pct in TAIL_LADDER:
        if n_solves * (100.0 - pct) / 100.0 >= 10:
            return pct
    raise ValueError(f"{n_solves} solves are too few for a tail")


def fastest_parts(parts_by_pass) -> list:
    """Each part's least time over the passes.

    ``parts_by_pass`` holds one list of part durations per pass, in pass
    order.  Passes on the same inputs run the same parts; if they do not,
    the whole pass at its fastest is the only part.
    """
    if len({len(parts) for parts in parts_by_pass}) != 1:
        return [min(sum(parts) for parts in parts_by_pass)]
    return [min(times) for times in zip(*parts_by_pass)]


def end_to_end(passes, tail_pct: float, peak_rss_mb: float) -> dict:
    """End-to-end values from the timed passes of one run.

    Every pass repeats the same work, but the speed of the shared machine
    switches between a fast and a slow phase (up to 2x apart) that last
    from well under a second to a minute or more.  A pass is therefore
    cut into short parts: each outermost set-up call, each solve's segments
    of ``tracer.BLOCK`` iterations, and the gaps between these calls.  A
    time is the sum of its parts, each at its fastest over the run's
    passes: the pass as it runs when the machine is in its fast phase.
    Latency percentiles are taken over the solves of a pass, each timed
    that way.
    """
    n_solves = {len(p.solves) for p in passes}
    if len(n_solves) == 1:
        solves = [sum(fastest_parts([p.solves[j].segments for p in passes]))
                  for j in range(n_solves.pop())]
    else:
        solves = [min(s.seconds for p in passes for s in p.solves)]
    setup = sum(fastest_parts([p.setup_parts for p in passes]))
    gaps = sum(fastest_parts([p.gap_parts for p in passes]))
    solve_s = sum(solves)
    iters = statistics.median(sum(s.iterations for s in p.solves)
                              for p in passes)
    return {
        "wall_s": setup + solve_s + gaps,
        "setup_s": setup,
        "solve_s": solve_s,
        "iters": iters,
        "us_per_iter": 1e6 * solve_s / iters,
        "solve_p50_ms": 1e3 * percentile(solves, 50.0),
        "solve_tail_ms": 1e3 * percentile(solves, tail_pct),
        "peak_rss_mb": peak_rss_mb,
    }


def layer_values(tracer, wall: float) -> dict:
    """Per-layer values of one traced pass (trace.overhead_s excepted)."""
    v = {}
    for kind in PROX_KINDS:
        v[f"prox.{kind}.calls"] = tracer.calls(f"prox.{kind}")
        v[f"prox.{kind}.self_s"] = tracer.self_s(f"prox.{kind}")
    v["admm.step.calls"] = tracer.calls("admm.step")
    for name in ("admm.step", "admm.x_update", "admm.y_update", "admm.solve",
                 "splitting.dr_solve", "splitting.dr_step",
                 "bench.run_sweep"):
        v[f"{name}.self_s"] = tracer.self_s(name)
    v["splitting.dr_step.calls"] = tracer.calls("splitting.dr_step")
    v["admm.history_mb"] = tracer.history_mb.get("admm", 0.0)
    v["splitting.history_mb"] = tracer.history_mb.get("splitting", 0.0)
    v["admm.engine_init.calls"] = tracer.calls("admm.engine_init")
    v["admm.engine_init.s"] = tracer.total_s("admm.engine_init")
    count, distinct = tracer.factorizations()
    v["admm.factorizations"] = count
    v["admm.factor_distinct_ratio"] = distinct / count if count else 0.0
    for name in CALLS_AND_TIME:
        v[f"{name}.calls"] = tracer.calls(name)
        v[f"{name}.s"] = tracer.total_s(name)
    v["linmetric.kkt_p11.s"] = tracer.total_s("linmetric.kkt_p11")
    v["rng.draws"] = tracer.rng_draws()
    for module in ERROR_MODULES:
        v[f"{module}.errors"] = tracer.errors.get(module, 0)
    v["admm.not_converged"] = tracer.not_converged.get("admm", 0)
    v["splitting.not_converged"] = tracer.not_converged.get("splitting", 0)
    v["trace.coverage"] = tracer.top_level_s / wall
    return v
