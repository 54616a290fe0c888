"""Relaxed Douglas-Rachford fixed-point engine with iteration tracing.

One step from iterate z applies the prox of the first operator, reflects,
applies the prox of the second, and averages:

    x  = prox_f(z)
    y  = prox_g(2x - z)
    z+ = z + 2*alpha*(y - x)

which is algebraically ((1-alpha)*Id + alpha*R_g R_f) z.  Swap the arguments
to apply prox_g first.  The unaveraged case alpha = 1 is Peaceman-Rachford.
gamma and alpha are plain positive arguments, as for ADMM's ``admm_solve``.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError
from .linmetric import _count, _positive, _step
from .prox import ProxFn

#: scalars of full z-history kept before thinning to residuals only
HISTORY_SCALAR_BUDGET = 10**7

CSV_SCHEMA_TAG = "# proxsplit-csv v1"


@dataclass(eq=False)
class SolveTrace:
    """Per-iteration record of a fixed-point solve.

    ``dr_solve`` and ``admm_solve`` fill it through one shared driver.
    ``residuals[k]`` is ||z^{k+1} - z^k||.  ``distances[k]`` is
    ||z^k - ref|| for k = 0..K when a reference was supplied, else empty;
    ``contraction_ratios`` derives from it.  ``z_history`` holds
    [z^0, ..., z^K] unless thinned for memory, in which case it is empty.
    """

    residuals: list[float] = field(default_factory=list)
    distances: list[float] = field(default_factory=list)
    z_history: list[np.ndarray] = field(default_factory=list)
    converged: bool = False
    z_final: np.ndarray | None = None
    x_final: np.ndarray | None = None

    @property
    def iterations(self) -> int:
        return len(self.residuals)

    @property
    def contraction_ratios(self) -> list[float]:
        """||z^{k+1} - ref|| / ||z^k - ref||, NaN where the denominator
        underflows; empty without a reference."""
        d = self.distances
        return [num / den if den > 1e-300 else float("nan")
                for den, num in zip(d, d[1:])]


def _norm(v: np.ndarray) -> float:
    """||v|| of a 1-d float vector, with np.linalg.norm's arithmetic.

    The same dot product, so the same bits and the same overflow warning,
    without the general norm's dispatch.
    """
    return math.sqrt(v.dot(v))


def _cell(value) -> str:
    """One v1 CSV cell: a float as .17g, None empty, a bool (Python or
    numpy) as 0 or 1, anything else through ``str``."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def write_csv(fileobj: io.TextIOBase, comments, columns, rows) -> None:
    """Write one v1 CSV: the schema tag, a ``# k=v ...`` line per dict in
    ``comments``, the header of ``columns``, then one line per row."""
    fileobj.write(CSV_SCHEMA_TAG + "\n")
    for comment in comments:
        fileobj.write("# " + " ".join(f"{k}={_cell(v)}"
                                      for k, v in comment.items()) + "\n")
    for row in (columns, *rows):
        fileobj.write(",".join(map(_cell, row)) + "\n")


def write_trace_csv(trace: SolveTrace, fileobj: io.TextIOBase) -> None:
    """Emit iter,residual,contraction_ratio rows; ratio empty when unmeasured."""
    ratios = trace.contraction_ratios or [math.nan] * trace.iterations
    write_csv(fileobj, (), ("iter", "residual", "contraction_ratio"),
              ((k, res, None if math.isnan(r) else r)
               for k, (res, r) in enumerate(zip(trace.residuals, ratios))))


def dr_step(prox_f: Callable, prox_g: Callable, alpha: float,
            z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One relaxed step from a 1-d float z on two maps of one step size,
    ``f.prox_map(gamma)`` and ``g.prox_map(gamma)``; returns (z_next, x, y).

    ``x`` is the prox-of-f point and ``y`` the prox-of-g point.  At a fixed
    point of the composition both coincide with the solution.
    """
    x = prox_f(z)
    y = prox_g(x + x - z)  # x + x is 2.0 * x to the bit
    return z + 2.0 * alpha * (y - x), x, y


def _fixed_point(bind: Callable[[np.ndarray], Callable], z0: np.ndarray,
                 max_iters: int, tol: float,
                 reference: np.ndarray | None = None,
                 extra_check: Callable[[], bool] | None = None) -> SolveTrace:
    """Iterate z+ = step(z) from z0, with ``step = bind(z0)`` made once the
    arguments are checked; the one loop behind both solvers.

    Stops when ||z+ - z|| <= tol * max(1, ||z+||) and ``extra_check()``
    (evaluated only once the first test passes) holds, else after
    ``max_iters`` steps or at the first non-finite residual, both with
    ``converged`` False.  Records residuals, the distances to ``reference``
    when given, and the z-history within ``HISTORY_SCALAR_BUDGET``.  With
    ``reference`` at the origin, ||z+|| (the same bits) serves both.
    """
    _count(max_iters, "max_iters", 1)
    _positive(tol, "tol")
    z = np.asarray(z0, dtype=float)
    ref = None if reference is None else np.asarray(reference, dtype=float)
    if ref is not None and ref.shape != z.shape:
        raise DimensionMismatchError(
            f"reference has shape {ref.shape}, the iterate {z.shape}")
    step = bind(z)
    origin = ref is not None and not ref.any()
    keep_history = z.size * (max_iters + 1) <= HISTORY_SCALAR_BUDGET
    trace = SolveTrace()
    if keep_history:
        trace.z_history.append(z.copy())
    if ref is not None:
        trace.distances.append(_norm(z - ref))
    for _ in range(max_iters):
        z_next = step(z)
        res = _norm(z_next - z)
        trace.residuals.append(res)
        size = _norm(z_next) if origin else None
        if ref is not None:
            trace.distances.append(size if origin else _norm(z_next - ref))
        if keep_history:
            trace.z_history.append(z_next)  # a fresh array per step
        z = z_next
        if not math.isfinite(res):
            break
        if (res <= tol * max(1.0, _norm(z) if size is None else size)
                and (extra_check is None or extra_check())):
            trace.converged = True
            break
    trace.z_final = z
    return trace


def dr_solve(f: ProxFn, g: ProxFn, gamma: float, alpha: float,
             z0: np.ndarray, tol: float = 1e-10, max_iters: int = 10_000,
             reference: np.ndarray | None = None) -> SolveTrace:
    """Iterate the relaxed splitting map from z0 until the residual is small.

    Runs :func:`dr_step` under the shared fixed-point driver: stops when
    ||z^{k+1} - z^k|| <= tol * max(1, ||z^{k+1}||), else after
    ``max_iters`` steps or at a non-finite residual with ``converged`` False
    (no exception).  ``x_final`` is prox_f at the final iterate, or after a
    non-finite residual the last step's one.  Invalid parameters, and a z0
    that f or g refuses, raise ``ValueError`` before the first step.

    Parameters
    ----------
    f, g : ProxFn
        The two operators; prox_f runs first.  Swap the arguments to apply
        prox_g first.
    gamma, alpha : float
        Step size in [2^-1022, inf), relaxation in (0, inf); NaN is neither.
    z0 : array
        Starting iterate.
    tol, max_iters
        Stopping rule; needs 0 < tol < inf and an integer max_iters >= 1.
    reference : array, optional
        Known fixed point of z0's shape; ``trace.distances`` records
        ||z^k - ref|| and ``trace.contraction_ratios`` the per-step ratios.
    """
    _step(gamma)
    _positive(alpha, "alpha")
    x = prox_f = None

    def bind(z0):
        nonlocal prox_f
        g._check_point(f._check_point(z0))
        prox_f, prox_g = f.prox_map(gamma), g.prox_map(gamma)

        def step(z):  # the module's dr_step, which perfbench counts
            nonlocal x
            z_next, x, _ = dr_step(prox_f, prox_g, alpha, z)
            return z_next
        return step

    trace = _fixed_point(bind, z0, max_iters, tol, reference)
    trace.x_final = (prox_f(trace.z_final)
                     if math.isfinite(trace.residuals[-1]) else x)
    return trace
