"""In-memory span recorder that instruments proxsplit from the outside.

The package itself carries no tracing.  :class:`Tracer` replaces public
entry points with thin wrappers at the names where callers look them up
(``proxsplit.bench.admm_solve`` is not ``proxsplit.admm.admm_solve`` once
imported by name), records one span per call, and restores everything on
:meth:`Tracer.uninstall`.

Two levels:

* ``detail=False`` (the timed, end-to-end run) wraps only the solver entry
  points and the set-up calls, a few calls per solve, so that per-solve
  latency, iteration counts and set-up time can be measured.  It also
  counts the calls of the per-iteration step functions and reads the clock
  every :data:`BLOCK` steps, which cuts each solve into segments of
  ``BLOCK`` iterations (see :class:`Solve`).
* ``detail=True`` (the traced run) adds every layer below: the prox of each
  catalog class, the ADMM engine and its x-/y-updates, the splitting step,
  metric selection, spectral work, the dual constants and the worst-case
  drivers, and counts factorizations and random draws.

Spans are ``(name, start, end, parent, run_id)`` tuples kept in memory.
Per-iteration spans (prox, steps, updates) are aggregated in place (calls,
total and self time) instead of being stored one by one, which keeps the
traced run's memory bounded.  Self time is a span's duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import json
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from proxsplit import admm, bench, linmetric, metric, rates, rng
from proxsplit import splitting, worstcase
from proxsplit.splitting import SolveTrace

# the package re-exports a function named ``prox`` over the submodule
prox = importlib.import_module("proxsplit.prox")

SETUP, SOLVE, LAYER, HOT = "setup", "solve", "layer", "hot"

#: (owner, attribute, span name, kind) wrapped at both levels
COARSE = [
    (bench, "gen_lasso", "bench.gen", SETUP),
    (bench, "gen_mpc", "bench.gen", SETUP),
    (bench, "lasso_metric", "bench.lasso_metric", SETUP),
    (bench, "mpc_metric_objective", "bench.mpc_metric_objective", SETUP),
    (bench, "lasso_condition_report", "bench.condition_report", SETUP),
    (bench, "sweep_gamma_star", "bench.gamma_star", SETUP),
    (bench, "problem_dual_regularity", "bench.dual_regularity", SETUP),
    (admm.EqConstrainedProblem, "scaled", "admm.scaled", SETUP),
    (rates, "certificate", "rates.certificate", SETUP),
    (worstcase, "build", "worstcase.build", SETUP),
    (bench, "admm_solve", "admm.solve", SOLVE),
    (admm, "admm_solve", "admm.solve", SOLVE),
    (worstcase, "admm_solve", "admm.solve", SOLVE),
    (worstcase, "dr_solve", "splitting.dr_solve", SOLVE),
]

#: wrapped only in the traced run
DETAIL = [
    (bench, "run_sweep", "bench.run_sweep", LAYER),
    (bench, "mpc_closed_loop", "bench.mpc_closed_loop", LAYER),
    (admm.AdmmEngine, "__init__", "admm.engine_init", LAYER),
    (admm.AdmmEngine, "step", "admm.step", HOT),
    (admm._XUpdate, "solve", "admm.x_update", HOT),
    (admm._YUpdate, "solve", "admm.y_update", HOT),
    (splitting, "dr_step", "splitting.dr_step", HOT),
    (bench, "select_diagonal_metric", "metric.select", LAYER),
    (metric, "select_diagonal_metric", "metric.select", LAYER),
    (metric, "_objective_value", "metric.objective", LAYER),
    (metric, "pseudo_condition_of", "metric.objective", LAYER),
    (metric, "dual_condition_number", "metric.objective", LAYER),
    (bench, "pseudo_condition_of", "metric.objective", LAYER),
    (bench, "dual_condition_number", "metric.objective", LAYER),
    (linmetric, "spectral_summary", "linmetric.spectral_summary", LAYER),
    (metric, "spectral_summary", "linmetric.spectral_summary", LAYER),
    (rates, "spectral_summary", "linmetric.spectral_summary", LAYER),
    (prox, "spectral_summary", "linmetric.spectral_summary", LAYER),
    (bench, "kkt_p11", "linmetric.kkt_p11", LAYER),
    (metric, "kkt_p11", "linmetric.kkt_p11", LAYER),
    (bench, "dual_regularity", "rates.dual_regularity", LAYER),
    (rates, "dual_regularity", "rates.dual_regularity", LAYER),
    (worstcase, "verify_point", "worstcase.verify_point", LAYER),
    (worstcase, "dual_verify_point", "worstcase.dual_verify_point", LAYER),
] + [
    (cls, "prox", f"prox.{cls.kind}", HOT)
    for cls in (prox.Quadratic, prox.QuadraticAffine, prox.Zero,
                prox.IndicatorZero, prox.IndicatorAffine, prox.Box,
                prox.WeightedL1, prox.PwlPenalty, prox.Separable,
                prox.ConjugateOf)
]

FACTORIZERS = ("cho_factor", "lu_factor")

#: per-iteration step functions, counted in the timed run
STEPS = [(admm.AdmmEngine, "step"), (splitting, "dr_step")]

#: iterations per timed segment of a solve
BLOCK = 8


@dataclass
class Solve:
    """One solver call as seen from outside: latency and what it returned.

    ``segments`` (timed run only) splits ``seconds`` at the start of every
    ``BLOCK``-th iteration: set-up and the first block, then one segment per
    further block, the last one running to the solver's return.
    """

    seconds: float
    iterations: int
    converged: bool
    segments: tuple = ()


def _solve_trace(out) -> SolveTrace | None:
    if isinstance(out, SolveTrace):
        return out
    if isinstance(out, tuple) and out and isinstance(out[-1], SolveTrace):
        return out[-1]
    return None


class Tracer:
    """Wraps proxsplit entry points and records spans until uninstalled."""

    def __init__(self, detail: bool):
        self.detail = detail
        self.clock = time.perf_counter
        self._undo: list[tuple[object, str, object]] = []
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.run_id = 0
        self._stack: list[list] = []
        self._setup_depth = 0
        self._streams: list[rng.RngStream] = []
        self.reset_pass()

    # ------------------------------------------------------------ installing

    def install(self) -> "Tracer":
        for owner, attr, name, kind in COARSE + (DETAIL if self.detail
                                                 else []):
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name,
                                                kind))
        if not self.detail:
            for owner, attr in STEPS:
                self._patch(owner, attr, self._wrap_step(getattr(owner,
                                                                 attr)))
        else:
            for attr in FACTORIZERS:
                self._patch(scipy.linalg, attr,
                            self._wrap_factor(getattr(scipy.linalg, attr)))
            self._patch(rng.RngStream, "__init__",
                        self._wrap_stream(rng.RngStream.__init__))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        # class attributes are restored from the class dict so that an
        # inherited method is not copied onto the subclass
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    # ---------------------------------------------------------------- spans

    def reset_pass(self) -> None:
        """Clear the per-pass accumulators (spans stay until written)."""
        self.agg: dict[str, list] = {}
        self.solves: list[Solve] = []
        self.setup_s = 0.0
        #: duration of each outermost set-up call, in pass order
        self.setup_parts: list[float] = []
        #: time between the top-level spans of the pass, in pass order
        self.gap_parts: list[float] = []
        self._steps = 0
        self._marks: list[float] = []
        self.errors: dict[str, int] = {}
        self.not_converged: dict[str, int] = {}
        self.history_mb: dict[str, float] = {}
        self.factor_keys: list[bytes] = []
        self.top_level_s = 0.0
        self._streams.clear()

    def rng_draws(self) -> int:
        return sum(stream._i for stream in self._streams)

    def begin_pass(self) -> None:
        """Open the root span of one pass; every other span nests in it."""
        self.reset_pass()
        self._pass = self._enter("pass", LAYER)
        self._top_end = self._pass[0]

    def end_pass(self) -> float:
        """Close the pass span; returns the pass's wall time."""
        wall = self._exit(self._pass)
        self.gap_parts.append(self._pass[0] + wall - self._top_end)
        self.run_id += 1
        return wall

    def _enter(self, name: str, kind: str) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        # the nearest stored ancestor; stored spans point to it as parent
        parent_index = parent[3] if parent else -1
        index = parent_index
        if self.detail and kind != HOT:
            index = len(self.spans)
            self.spans.append(None)
        if kind == SETUP:
            self._setup_depth += 1
        elif kind == SOLVE:
            self._steps = 0
            self._marks.clear()
        # start, time covered by children, name, stored index (own or the
        # nearest ancestor's), stored parent index, kind, parent frame
        frame = [0.0, 0.0, name, index, parent_index, kind, parent]
        stack.append(frame)
        frame[0] = self.clock()
        return frame

    def _exit(self, frame: list, out=None) -> float:
        end = self.clock()
        self._stack.pop()
        start, child, name, index, parent_index, kind, parent = frame
        dur = end - start
        if parent is not None:
            parent[1] += dur
            if parent[2] == "pass":
                self.top_level_s += dur
                self.gap_parts.append(start - self._top_end)
                self._top_end = end
        entry = self.agg.get(name)
        if entry is None:
            entry = self.agg[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child
        if self.detail and kind != HOT:
            self.spans[index] = (name, start, end, parent_index, self.run_id)
        if kind == SETUP:
            self._setup_depth -= 1
            if self._setup_depth == 0:
                self.setup_s += dur
                self.setup_parts.append(dur)
        elif kind == SOLVE:
            bounds = [start] + self._marks[1:] + [end]
            segments = tuple(b - a for a, b in zip(bounds, bounds[1:]))
            self._record_solve(name, dur, out, segments)
        return dur

    def _count_error(self, exc: BaseException, name: str) -> None:
        # an exception is counted once, in the module it first left
        if not getattr(exc, "_perfbench_counted", False):
            exc._perfbench_counted = True
            module = name.split(".", 1)[0]
            self.errors[module] = self.errors.get(module, 0) + 1

    @contextlib.contextmanager
    def span(self, name: str, kind: str = LAYER):
        """Span around work done in the benchmark's own code."""
        frame = self._enter(name, kind)
        try:
            yield
        except BaseException as exc:
            self._count_error(exc, name)
            raise
        finally:
            self._exit(frame)

    def _wrap(self, fn, name: str, kind: str):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            frame = tracer._enter(name, kind)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                tracer._count_error(exc, name)
                raise
            finally:
                tracer._exit(frame, out)

        return wrapped

    def _record_solve(self, name: str, seconds: float, out,
                      segments: tuple) -> None:
        trace = _solve_trace(out)
        if trace is None:
            return
        module = name.split(".", 1)[0]
        dim = 0 if trace.z_final is None else trace.z_final.size
        hist = len(trace.z_history) * dim * 8 / 1e6
        self.history_mb[module] = max(self.history_mb.get(module, 0.0), hist)
        if not trace.converged:
            self.not_converged[module] = self.not_converged.get(module, 0) + 1
        self.solves.append(Solve(seconds, trace.iterations, trace.converged,
                                 segments))

    def _wrap_step(self, fn):
        """Count steps; read the clock as every ``BLOCK``-th one starts."""
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if tracer._steps % BLOCK == 0:
                tracer._marks.append(tracer.clock())
            tracer._steps += 1
            return fn(*args, **kwargs)

        return wrapped

    def _wrap_factor(self, fn):
        """Count factorizations made while an ADMM engine is built."""
        tracer = self

        @functools.wraps(fn)
        def wrapped(a, *args, **kwargs):
            if any(f[2] == "admm.engine_init" for f in tracer._stack):
                tracer.factor_keys.append(hashlib.blake2b(
                    np.ascontiguousarray(a).tobytes(),
                    digest_size=16).digest())
            return fn(a, *args, **kwargs)

        return wrapped

    def _wrap_stream(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(stream, *args, **kwargs):
            fn(stream, *args, **kwargs)
            tracer._streams.append(stream)

        return wrapped

    # -------------------------------------------------------------- results

    def calls(self, name: str) -> int:
        return self.agg.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[2]

    def factorizations(self) -> tuple[int, int]:
        """ADMM factorizations and how many distinct matrices they had."""
        return len(self.factor_keys), len(set(self.factor_keys))

    def write_spans(self, path) -> None:
        """Write the stored spans, one JSON object per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run_id": run_id}) + "\n")
