"""Benchmark problem generators and the step-size sweep harness.

Two experiment families: a weighted sparse least-squares (Lasso) instance
in consensus form, and a condensed model predictive control problem for an
unstable aircraft model with soft output constraints.  The sweep harness
runs the ADMM solver over a step-size grid and reports, per grid point, the
measured iterations to a relative accuracy together with the certified
worst-case iteration bound whenever the problem admits a certificate.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .admm import AdmmEngine, EqConstrainedProblem, admm_solve
from .errors import CapabilityError, ProxsplitError, RankDeficiencyError
from .linmetric import (DEFAULT_ZERO_TOL, DiagonalMetric, MetricSpectra,
                        _count, kkt_p11)
from .metric import (
    MetricObjective,
    dual_condition_number,  # unused here; perfbench/tracer.py patches it
    gamma_from_metric,
    pseudo_condition_of,
    select_diagonal_metric,
)
from .prox import (Box, PwlPenalty, Quadratic, QuadraticAffine, Separable,
                   WeightedL1)
from .rates import (
    DualRegularity,
    contraction_factor,
    dual_of_spectrum,
    dual_regularity,  # unused here; perfbench/tracer.py patches it
    geometric_mean,
    iteration_bound,
    optimal_parameters,
    rate_bound,
)
from .rng import RngStream, normals, samples, uniforms
from .splitting import HISTORY_SCALAR_BUDGET, _norm, write_csv


# -------------------------------------------------------------------- lasso

@dataclass(frozen=True)
class LassoSpec:
    """Sparse weighted-l1 least squares generator parameters.

    The data matrix has exactly ``nnz_per_row`` nonzeros per row placed
    uniformly at random; nonzero entries and the target vector are standard
    normal; the l1 weights are uniform on [0, 1].  Everything is drawn from
    the documented counter-based stream, so instances are reproducible
    bit-for-bit from the seed.
    """

    n: int = 200
    m: int = 300
    nnz_per_row: int = 10
    seed: int = 0

    def __post_init__(self):
        for what in ("n", "m", "nnz_per_row"):
            _count(getattr(self, what), what, 1)
        if self.nnz_per_row > self.n:
            raise ValueError("need 0 < nnz_per_row <= n")
        RngStream(self.seed)  # refuses a seed outside the integers [0, 2**64)


def gen_lasso(spec: LassoSpec) -> EqConstrainedProblem:
    """Consensus-form instance: min 0.5||Ax-b||^2 + ||W y||_1 s.t. x = y.

    The smooth term is the quadratic with Hessian A^T A; the constraint
    block is (I, -I, 0).  Draw order: per row of A the column indices, then
    the values; then b; then the weights, normals in Box-Muller pairs (an
    odd count ends on a discarded spare).  So, with k = nnz_per_row, row i's
    index words start at i*k + 2*ceil(i*k/2), normal pair p (normals 2p and
    2p+1 over A's values, then b) at k*min(m, 2p//k + 1) + 2p, and the
    weights at m*k + 2*pairs, pairs = ceil((m*k + m)/2); one call draws all.
    """
    m, n, k = spec.m, spec.n, spec.nnz_per_row
    pairs = -(-(m * k + m) // 2)
    words = RngStream(spec.seed).words(m * k + 2 * pairs + n)
    ik, p2 = np.arange(m) * k, 2 * np.arange(pairs)
    cols = samples(words[(ik + 2 * (-(-ik // 2)))[:, None] + np.arange(k)], n)
    pair = words[(k * np.minimum(m, p2 // k + 1) + p2)[:, None] + [0, 1]]
    values = normals(pair.ravel())
    a = np.zeros((m, n))
    a[np.arange(m)[:, None], cols] = values[:m * k].reshape(m, k)
    f = Quadratic(a.T @ a, -(a.T @ values[m * k:m * k + m]))
    g = WeightedL1(uniforms(words[m * k + 2 * pairs:]))
    eye = np.eye(n)
    return EqConstrainedProblem(f=f, g=g, A=eye, B=-eye, c=np.zeros(n))


# ---------------------------------------------------------------------- mpc

#: zero-order-hold discretization (0.05 s, exact, via expm of the augmented
#: [[Ac, Bc], [0, 0]]) of the unstable AFTI-16 aircraft model, rounded to three
#: decimals; states (x1..x4), outputs are the attack angle x2 and pitch angle x4.
#: The unrounded A has spectral radius 1.31344 (the published 1.313); the
#: rounded constants below have 1.31391.
AIRCRAFT_A = np.array([
    [0.999, -3.008, -0.113, -1.608],
    [-0.000, 0.986, 0.048, 0.000],
    [0.000, 2.083, 1.009, -0.000],
    [0.000, 0.053, 0.050, 1.000],
])
AIRCRAFT_B = np.array([
    [-0.080, -0.635],
    [-0.029, -0.014],
    [-0.868, -0.092],
    [-0.022, -0.002],
])
AIRCRAFT_C = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
])

N_STATES = 4
N_INPUTS = 2
N_OUTPUTS = 2
#: iteration cap of every MPC solve, desk sweep and closed loop alike
MPC_MAX_ITERS = 300_000
#: tracking weights of the states (on attack and pitch angle) and the inputs
STATE_COST = np.diag([0.0, 100.0, 0.0, 100.0])
INPUT_COST = 0.01 * np.eye(N_INPUTS)


@dataclass(frozen=True)
class MpcSpec:
    """Horizon and constraint data of the aircraft control benchmark."""

    horizon: int = 10
    input_bound = 25.0
    soft_penalty = 1e6
    y1_band = (-0.5, 0.5)
    y2_band = (-100.0, 100.0)

    def __post_init__(self):
        _count(self.horizon, "horizon", 1)


def _mpc_vectors(spec: MpcSpec, x0: np.ndarray,
                 reference: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(q, b(x0)) of :func:`gen_mpc`, the only data that move per sample:
    the reference term of q and b(x0) = (A x0, 0)."""
    n_h, nx = spec.horizon, N_STATES
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.shape != (nx,):
        raise ValueError(f"x0 must have {nx} entries")
    ref = np.asarray(reference, dtype=float)
    if ref.ndim == 1:
        ref = np.tile(ref, (n_h, 1))
    if ref.shape != (n_h, nx):
        raise ValueError("reference must be one state or (horizon, 4)")
    q_vec = np.zeros(n_h * (nx + N_INPUTS))
    for k in range(1, n_h + 1):  # x_k sits at columns (k-1)*nx .. k*nx
        q_vec[(k - 1) * nx:k * nx] = -(STATE_COST @ ref[k - 1])
    b_vec = np.zeros(n_h * nx)
    b_vec[:nx] = AIRCRAFT_A @ x0
    return q_vec, b_vec


def gen_mpc(spec: MpcSpec, x0: np.ndarray,
            reference: np.ndarray) -> EqConstrainedProblem:
    """Condensed finite-horizon problem with soft outputs and hard inputs.

    Decision vector z = (x_1, ..., x_N, u_0, ..., u_{N-1}).  The dynamics
    enter as the indicator of the stacked equality L z = b(x0) inside the
    smooth term; the coupled variables z' = C z collect the predicted
    outputs (soft-banded with a piecewise-linear penalty) and the inputs
    (hard box).  ``reference`` is a single state target or an (N, 4) array
    of per-stage targets.
    """
    q_vec, b_vec = _mpc_vectors(spec, x0, reference)
    n_h, nx, nu = spec.horizon, N_STATES, N_INPUTS
    n_dec = n_h * (nx + nu)
    n_coupled = n_h * N_OUTPUTS + n_h * nu
    x_cols = lambda k: slice((k - 1) * nx, k * nx)          # x_k, k = 1..N
    u_cols = lambda k: slice(n_h * nx + k * nu,
                             n_h * nx + (k + 1) * nu)       # u_k, k = 0..N-1
    # per stage k: row block k of the stacked dynamics x_{k+1} - A x_k -
    # B u_k = 0 with x_0 fixed (L), the tracking cost, whose terminal weight
    # equals the stage weight (Q), and the coupled variables [y1 stack, y2
    # stack, input stack] (C)
    l_mat = np.zeros((n_h * nx, n_dec))
    q_big = np.zeros((n_dec, n_dec))
    c_sel = np.zeros((n_coupled, n_dec))
    for k in range(n_h):
        xk, uk = x_cols(k + 1), u_cols(k)
        l_mat[xk, xk] = np.eye(nx)
        l_mat[xk, uk] = -AIRCRAFT_B
        if k:
            l_mat[xk, x_cols(k)] = -AIRCRAFT_A
        q_big[xk, xk] = STATE_COST
        q_big[uk, uk] = INPUT_COST
        c_sel[k, xk] = AIRCRAFT_C[0]
        c_sel[n_h + k, xk] = AIRCRAFT_C[1]
        c_sel[2 * n_h + k * nu:2 * n_h + (k + 1) * nu, uk] = np.eye(nu)

    f = QuadraticAffine(q_big, q_vec, l_mat, b_vec)
    g = Separable([
        (0, n_h, PwlPenalty(*spec.y1_band, spec.soft_penalty, n_h)),
        (n_h, 2 * n_h, PwlPenalty(*spec.y2_band, spec.soft_penalty, n_h)),
        (2 * n_h, n_coupled,
         Box(-spec.input_bound * np.ones(n_h * nu),
             spec.input_bound * np.ones(n_h * nu))),
    ])
    return EqConstrainedProblem(f=f, g=g, A=c_sel, B=-np.eye(n_coupled),
                                c=np.zeros(n_coupled))


def mpc_metric_objective(problem: EqConstrainedProblem,
                         identity: bool = False) -> MetricObjective:
    """The KKT-block heuristic for a quadratic on an affine set L x = b.

    Pseudo condition objective of the dual Hessian A P11 A^T, P11 the
    top-left block of inv([[Q, L^T], [L, 0]]), at the equilibrated diagonal
    metric, or at E = I with ``identity``.
    """
    f = problem.f
    if not isinstance(f, QuadraticAffine):
        raise CapabilityError("expected a quadratic-on-affine smooth term")
    s = problem.A @ kkt_p11(f.Q, f.L) @ problem.A.T
    spectra = MetricSpectra(0.5 * (s + s.T))
    e = (DiagonalMetric.identity(problem.p) if identity
         else select_diagonal_metric(spectra, mode="heuristic_p11"))
    return pseudo_condition_of(e, spectra)


# -------------------------------------------------------------------- sweep

@dataclass(frozen=True)
class SweepEntry:
    gamma: float
    iterations_actual: int | None
    iterations_bound: int | None
    converged: bool
    note: str = ""


@dataclass
class SweepResult:
    alpha: float
    tol: float
    metric: DiagonalMetric | None
    entries: list[SweepEntry] = field(default_factory=list)

    def to_csv(self, fileobj: io.TextIOBase) -> None:
        metric_txt = ("identity" if self.metric is None
                      else f"diagonal[{self.metric.dim}]")
        write_csv(fileobj, [{"kind": "sweep", "alpha": self.alpha,
                             "tol": self.tol, "metric": metric_txt}],
                  ("gamma", "iterations_actual", "iterations_bound",
                   "converged"),
                  ((e.gamma, e.iterations_actual, e.iterations_bound,
                    e.converged) for e in self.entries))


def problem_dual_regularity(problem: EqConstrainedProblem,
                            metric: DiagonalMetric | None = None
                            ) -> DualRegularity:
    """Exact dual regularity of a problem with a strongly convex quadratic.

    Raises CapabilityError when the smooth term is not a positive definite
    quadratic, and RankDeficiencyError when the constraint operator is not
    surjective; in both cases no rate certificate exists.
    """
    e = metric if metric is not None else DiagonalMetric.identity(problem.p)
    return dual_of_spectrum(problem.dual_spectra.summary(e, DEFAULT_ZERO_TOL))


def sweep_gamma_star(problem: EqConstrainedProblem,
                     metric: DiagonalMetric | None = None) -> float:
    """Certified optimal step size of the (optionally scaled) problem."""
    dual = problem_dual_regularity(problem, metric)
    return optimal_parameters(dual.as_regularity())[0]


def log_gamma_grid(gamma_min: float, gamma_max: float,
                   points: int) -> np.ndarray:
    if not 0 < gamma_min <= gamma_max < math.inf:
        raise ValueError("need 0 < gamma_min <= gamma_max < inf")
    _count(points, "points", 1)
    if points == 1:
        return np.array([geometric_mean(gamma_min, gamma_max,
                                        "gamma_min*gamma_max")])
    return np.geomspace(gamma_min, gamma_max, points)


def run_sweep(problem: EqConstrainedProblem, alpha: float, gamma_grid,
              metric: DiagonalMetric | None = None, tol: float = 1e-5,
              max_iters: int = 150_000) -> SweepResult:
    """Measure iterations-to-accuracy over a step-size grid.

    Per grid point the solver runs once to tolerance 1e-12; the measured
    count is the first iteration whose dual-coordinate iterate z satisfies
    ||z^k - z_fix|| <= tol * ||z^0 - z_fix|| against the high-accuracy
    fixed point of the same run, which is the quantity the certified
    iteration bound speaks about.  The bound column is populated whenever
    the (scaled) problem admits a rate certificate and the bound rate is
    below one.  Capability errors are recorded per point, never raised.
    Each point's z-history is freed before the next point solves, so the
    sweep holds one history at a time, within one ``HISTORY_SCALAR_BUDGET``,
    and ``max_iters`` is lowered to ``HISTORY_SCALAR_BUDGET // p - 1``.  A
    point that did not converge says why in its ``note``: a non-finite
    residual, ``max_iters``, or that lower cap.  ``tol`` must lie in (0, 1).
    """
    if not 0 < tol < 1:
        raise ValueError("tol must lie in (0, 1)")
    scaled = problem.scaled(metric) if metric is not None else problem
    try:
        dual = problem_dual_regularity(problem, metric)
    except (CapabilityError, RankDeficiencyError):
        dual = None
    result = SweepResult(alpha=alpha, tol=tol, metric=metric)
    for gamma in np.asarray(gamma_grid, dtype=float):
        bound = None
        if dual is not None:
            rate = rate_bound(
                contraction_factor(dual.as_regularity(), gamma), alpha)
            if rate < 1.0:
                bound = iteration_bound(rate, tol)
        actual, ok, note = _sweep_point(scaled, gamma, alpha, tol, max_iters)
        result.entries.append(
            SweepEntry(float(gamma), actual, bound, ok, note))
    return result


def _sweep_point(scaled, gamma, alpha, tol, max_iters) -> tuple:
    """(iterations_actual, converged, note) of one :func:`run_sweep` point;
    the trace dies with this frame: a sweep holds one z-history at a time."""
    cap = min(max_iters, HISTORY_SCALAR_BUDGET // max(scaled.p, 1) - 1)
    try:
        _, _, _, trace = admm_solve(scaled, gamma, alpha, tol=1e-12,
                                    max_iters=cap, z0=np.zeros(scaled.p))
    except ProxsplitError as exc:
        return None, False, str(exc)
    note = ""
    if not math.isfinite(trace.residuals[-1]):
        note = f"non-finite residual at iteration {trace.iterations}"
    elif not trace.converged:
        note = (f"stopped at {cap} iterations, the z-history cap below "
                f"max_iters={max_iters}" if cap < max_iters else
                f"stopped at the max_iters={max_iters} cap")
    if not (trace.converged and trace.z_history):
        return None, trace.converged, note
    # the last z is z_final, so every run crosses; stop at the first
    bar = tol * _norm(trace.z_history[0] - trace.z_final)
    return next(k for k, z in enumerate(trace.z_history)
                if _norm(z - trace.z_final) <= bar), True, note


# ------------------------------------------------------------ mpc harnesses

def mpc_sweep(problem: EqConstrainedProblem, alpha: float, tol: float,
              metric: bool, gamma_min: float | None, gamma_max: float | None,
              points: int) -> tuple[MetricObjective, SweepResult]:
    """The desk MPC experiment: the KKT-block objective at the equilibrated
    metric (E = I unless ``metric``), then a sweep over ``log_gamma_grid(
    gamma_min, gamma_max, points)``, a missing bound taken as the objective's
    step size; :func:`run_sweep` caps it at ``HISTORY_SCALAR_BUDGET // p - 1``
    (249,999 at the desk p = 40), below ``MPC_MAX_ITERS``."""
    obj = mpc_metric_objective(problem, identity=not metric)
    g = gamma_from_metric(obj)
    grid = log_gamma_grid(g if gamma_min is None else gamma_min,
                          g if gamma_max is None else gamma_max, points)
    return obj, run_sweep(problem, alpha, grid,
                          metric=obj.metric if metric else None, tol=tol,
                          max_iters=MPC_MAX_ITERS)


def mpc_compare(spec: MpcSpec, x0, reference) -> dict:
    """Single-sample solve with and without the selected metric at gamma*,
    classical ADMM (alpha = 0.5) to tolerance 1e-5.

    Returns per-setting step sizes, measured iterations, and convergence
    flags; the step size in each setting is the one recommended by its own
    pseudo condition objective; the one-point grid sqrt(gamma* gamma*) of
    :func:`mpc_sweep` is gamma* in binary floating point.
    """
    problem = gen_mpc(spec, x0, reference)
    out = {}
    for name in ("identity", "metric"):
        obj, sweep = mpc_sweep(problem, 0.5, 1e-5, name == "metric",
                               None, None, 1)
        entry = sweep.entries[0]
        out[name] = {
            "gamma_star": entry.gamma,
            "condition_number": obj.value,
            "iterations": entry.iterations_actual,
            "converged": entry.converged,
        }
    return out


def pitch_reference(n_samples: int = 120, target_deg: float = 10.0,
                    up_at: int = 10, down_at: int = 70) -> np.ndarray:
    """Scripted pitch maneuver: step to the target at sample ``up_at`` and
    back to level at ``down_at``, which must come later.  Steps at or past
    ``n_samples`` are cut off (``pitch_reference(3)`` is level)."""
    _count(n_samples, "n_samples", 0)
    _count(up_at, "up_at", 0)
    _count(down_at, "down_at", 0)
    if down_at <= up_at:
        raise ValueError(f"down_at must exceed up_at, got up_at={up_at}, "
                         f"down_at={down_at}")
    refs = np.zeros((n_samples, N_STATES))
    refs[up_at:down_at, 3] = target_deg
    return refs


def mpc_closed_loop(spec: MpcSpec, references: np.ndarray,
                    alpha: float = 0.5, tol: float = 1e-5,
                    metric: bool = True) -> dict:
    """Closed-loop run applying the first input of each one-sample solve.

    The problem, its metric objective, gamma, the scaled problem and one
    ADMM engine with its KKT factor are built once per loop; per sample
    only q and b(x0) move, rewritten in place in the smooth term.  Each
    solve starts cold from z0 = 0 and is capped at ``MPC_MAX_ITERS``.
    Returns the per-sample iteration counts, their mean and median, and
    the state trajectory.  Needs ``tol`` in (0, 1) and a reference.
    """
    if not 0 < tol < 1:
        raise ValueError("tol must lie in (0, 1)")
    references = np.asarray(references, dtype=float)
    if not len(references):
        raise ValueError("references must hold at least one sample")
    x = np.zeros(N_STATES)
    problem = gen_mpc(spec, x, references[0])
    obj = mpc_metric_objective(problem, identity=not metric)
    gamma = gamma_from_metric(obj)
    scaled = problem.scaled(obj.metric)  # the identity without metric
    engine = AdmmEngine(scaled, gamma, alpha)
    counts: list[int] = []
    states = [x.copy()]
    for ref in references:
        problem.f.q[:], problem.f.b[:] = _mpc_vectors(spec, x, ref)
        _, _, _, trace = admm_solve(scaled, gamma, alpha, tol=tol,
                                    max_iters=MPC_MAX_ITERS,
                                    z0=np.zeros(scaled.p), engine=engine)
        counts.append(trace.iterations)
        u0 = trace.x_final[spec.horizon * N_STATES:
                           spec.horizon * N_STATES + N_INPUTS]
        x = AIRCRAFT_A @ x + AIRCRAFT_B @ u0
        states.append(x.copy())
    return {
        "iterations": counts,
        "mean_iterations": float(np.mean(counts)),
        "median_iterations": float(np.median(counts)),
        "states": np.array(states),
    }


# ----------------------------------------------------------- lasso harness

def lasso_metric(problem: EqConstrainedProblem) -> DiagonalMetric:
    """Equilibrated diagonal metric (exact mode, ``EQUILIBRATION_SWEEPS``
    sweeps) for a certifiable consensus problem."""
    return select_diagonal_metric(problem.dual_spectra, mode="exact")


def lasso_condition_report(problem: EqConstrainedProblem,
                           metric: DiagonalMetric | None = None
                           ) -> MetricObjective:
    """Exact dual condition objective of a consensus problem."""
    e = metric if metric is not None else DiagonalMetric.identity(problem.p)
    return MetricObjective.exact(e, problem_dual_regularity(problem, e))
