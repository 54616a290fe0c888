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

from .admm import EqConstrainedProblem, admm_solve
from .errors import CapabilityError, ProxsplitError, RankDeficiencyError
from .linmetric import DiagonalMetric, kkt_p11
from .metric import (
    MetricObjective,
    dual_condition_number,
    gamma_from_metric,
    pseudo_condition_of,
    select_diagonal_metric,
)
from .prox import (
    Box,
    PwlPenalty,
    Quadratic,
    QuadraticAffine,
    Separable,
    WeightedL1,
    strongly_convex,
)
from .rates import (
    DualRegularity,
    contraction_factor,
    dual_curvature,
    dual_regularity,
    iteration_bound,
    optimal_parameters,
    rate_bound,
)
from .rng import RngStream
from .splitting import CSV_SCHEMA_TAG, HISTORY_SCALAR_BUDGET


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
        if self.n <= 0 or self.m <= 0:
            raise ValueError("n and m must be positive")
        if not 0 < self.nnz_per_row <= self.n:
            raise ValueError("need 0 < nnz_per_row <= n")


def gen_lasso(spec: LassoSpec) -> EqConstrainedProblem:
    """Consensus-form instance: min 0.5||Ax-b||^2 + ||W y||_1 s.t. x = y.

    The smooth term is the quadratic with Hessian A^T A; the constraint
    block is (I, -I, 0).  Draw order: per row of A the column indices, then
    the values; then b; then the weights.
    """
    rng = RngStream(spec.seed)
    a = np.zeros((spec.m, spec.n))
    for i in range(spec.m):
        cols = rng.sample(spec.n, spec.nnz_per_row)
        for j in cols:
            a[i, j] = rng.normal()
    b = np.array([rng.normal() for _ in range(spec.m)])
    w = np.array([rng.uniform() for _ in range(spec.n)])
    f = Quadratic(a.T @ a, -(a.T @ b))
    g = WeightedL1(w)
    eye = np.eye(spec.n)
    return EqConstrainedProblem(f=f, g=g, A=eye, B=-eye, c=np.zeros(spec.n))


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


@dataclass(frozen=True)
class MpcSpec:
    """Horizon and constraint data of the aircraft control benchmark."""

    horizon: int = 10
    input_bound: float = 25.0
    soft_penalty: float = 1e6
    y1_band: tuple[float, float] = (-0.5, 0.5)
    y2_band: tuple[float, float] = (-100.0, 100.0)

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    @property
    def state_cost(self) -> np.ndarray:
        return np.diag([0.0, 100.0, 0.0, 100.0])

    @property
    def input_cost(self) -> np.ndarray:
        return 0.01 * np.eye(N_INPUTS)


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
    n_h = spec.horizon
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.shape != (N_STATES,):
        raise ValueError(f"x0 must have {N_STATES} entries")
    ref = np.asarray(reference, dtype=float)
    if ref.ndim == 1:
        ref = np.tile(ref, (n_h, 1))
    if ref.shape != (n_h, N_STATES):
        raise ValueError("reference must be one state or (horizon, 4)")

    nx, nu = N_STATES, N_INPUTS
    n_dec = n_h * (nx + nu)
    x_cols = lambda k: slice((k - 1) * nx, k * nx)          # x_k, k = 1..N
    u_cols = lambda k: slice(n_h * nx + k * nu,
                             n_h * nx + (k + 1) * nu)       # u_k, k = 0..N-1

    # stacked dynamics: x_{k+1} - A x_k - B u_k = 0 with x_0 fixed
    l_mat = np.zeros((n_h * nx, n_dec))
    b_vec = np.zeros(n_h * nx)
    for k in range(n_h):
        rows = slice(k * nx, (k + 1) * nx)
        l_mat[rows, x_cols(k + 1)] = np.eye(nx)
        l_mat[rows, u_cols(k)] = -AIRCRAFT_B
        if k == 0:
            b_vec[rows] = AIRCRAFT_A @ x0
        else:
            l_mat[rows, x_cols(k)] = -AIRCRAFT_A

    # quadratic tracking cost; terminal weight equals the stage weight
    q_big = np.zeros((n_dec, n_dec))
    q_vec = np.zeros(n_dec)
    for k in range(1, n_h + 1):
        q_big[x_cols(k), x_cols(k)] = spec.state_cost
        q_vec[x_cols(k)] = -(spec.state_cost @ ref[k - 1])
    for k in range(n_h):
        q_big[u_cols(k), u_cols(k)] = spec.input_cost

    # coupled variables: [y1 stack, y2 stack, input stack]
    n_coupled = n_h * N_OUTPUTS + n_h * nu
    c_sel = np.zeros((n_coupled, n_dec))
    for k in range(1, n_h + 1):
        c_sel[k - 1, x_cols(k)] = AIRCRAFT_C[0]
        c_sel[n_h + k - 1, x_cols(k)] = AIRCRAFT_C[1]
    for k in range(n_h):
        c_sel[2 * n_h + k * nu:2 * n_h + (k + 1) * nu, u_cols(k)] = np.eye(nu)

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
    s = 0.5 * (s + s.T)
    e = (DiagonalMetric.identity(problem.p) if identity
         else select_diagonal_metric(s, mode="heuristic"))
    return pseudo_condition_of(e, s, mode="heuristic_p11")


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
        fileobj.write(CSV_SCHEMA_TAG + "\n")
        metric_txt = ("identity" if self.metric is None
                      else f"diagonal[{self.metric.dim}]")
        fileobj.write(f"# kind=sweep alpha={self.alpha:.17g} "
                      f"tol={self.tol:.17g} metric={metric_txt}\n")
        fileobj.write("gamma,iterations_actual,iterations_bound,converged\n")
        for e in self.entries:
            actual = "" if e.iterations_actual is None else e.iterations_actual
            bound = "" if e.iterations_bound is None else e.iterations_bound
            fileobj.write(f"{e.gamma:.17g},{actual},{bound},"
                          f"{int(e.converged)}\n")


def problem_dual_regularity(problem: EqConstrainedProblem,
                            metric: DiagonalMetric | None = None
                            ) -> DualRegularity:
    """Exact dual regularity of a problem with a strongly convex quadratic.

    Raises CapabilityError when the smooth term is not a positive definite
    quadratic, and RankDeficiencyError when the constraint operator is not
    surjective; in both cases no rate certificate exists.
    """
    q = strongly_convex(problem.f).Q
    e = metric if metric is not None else DiagonalMetric.identity(problem.p)
    return dual_regularity(None, problem.A, metric=e, h=q)


def sweep_gamma_star(problem: EqConstrainedProblem,
                     metric: DiagonalMetric | None = None) -> float:
    """Certified optimal step size of the (optionally scaled) problem."""
    dual = problem_dual_regularity(problem, metric)
    return optimal_parameters(dual.as_regularity())[0]


def log_gamma_grid(gamma_min: float, gamma_max: float,
                   points: int) -> np.ndarray:
    if not 0 < gamma_min <= gamma_max:
        raise ValueError("need 0 < gamma_min <= gamma_max")
    if points < 1:
        raise ValueError("points must be >= 1")
    if points == 1:
        return np.array([math.sqrt(gamma_min * gamma_max)])
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
    The run keeps its z-history, so ``max_iters`` is lowered to
    ``HISTORY_SCALAR_BUDGET // p - 1``.  A point that did not converge says
    why in its ``note``: a non-finite residual, ``max_iters``, or that lower
    cap.  ``tol`` must lie in (0, 1).
    """
    if not 0 < tol < 1:
        raise ValueError("tol must lie in (0, 1)")
    scaled = problem.scaled(metric) if metric is not None else problem
    try:
        dual = problem_dual_regularity(problem, metric)
    except (CapabilityError, RankDeficiencyError):
        dual = None
    hist_cap = HISTORY_SCALAR_BUDGET // max(scaled.p, 1) - 1
    max_iters_eff = min(max_iters, hist_cap)
    result = SweepResult(alpha=alpha, tol=tol, metric=metric)
    z_start = np.zeros(scaled.p)
    for gamma in np.asarray(gamma_grid, dtype=float):
        bound = None
        if dual is not None:
            rate = rate_bound(
                contraction_factor(dual.as_regularity(), gamma), alpha)
            if rate < 1.0:
                bound = iteration_bound(rate, tol)
        try:
            _, _, _, trace = admm_solve(scaled, gamma, alpha,
                                        tol=1e-12,
                                        max_iters=max_iters_eff, z0=z_start)
        except ProxsplitError as exc:
            result.entries.append(SweepEntry(
                gamma=float(gamma), iterations_actual=None,
                iterations_bound=bound, converged=False, note=str(exc)))
            continue
        actual = None
        note = ""
        if not math.isfinite(trace.residuals[-1]):
            note = f"non-finite residual at iteration {trace.iterations}"
        elif not trace.converged:
            note = (f"stopped at {max_iters_eff} iterations, the z-history "
                    f"cap below max_iters={max_iters}"
                    if max_iters_eff < max_iters else
                    f"stopped at the max_iters={max_iters} cap")
        if trace.converged and trace.z_history:
            distances = trace.distances_to(trace.z_final)
            d0 = distances[0]
            if d0 == 0.0:
                actual = 0
            else:
                crossed = np.nonzero(distances <= tol * d0)[0]
                actual = int(crossed[0]) if crossed.size else None
        result.entries.append(SweepEntry(
            gamma=float(gamma), iterations_actual=actual,
            iterations_bound=bound, converged=trace.converged, note=note))
    return result


# ------------------------------------------------------------ mpc harnesses

def mpc_compare(spec: MpcSpec, x0, reference, alpha: float = 0.5,
                tol: float = 1e-5) -> dict:
    """Single-sample solve with and without the selected metric at gamma*.

    Returns per-setting step sizes, measured iterations, and convergence
    flags; the step size in each setting is the one recommended by its own
    pseudo condition objective.  Each solve is capped at ``MPC_MAX_ITERS``.
    """
    problem = gen_mpc(spec, x0, reference)
    obj_id = mpc_metric_objective(problem, identity=True)
    obj_eq = mpc_metric_objective(problem)
    out = {}
    for name, obj, metric in (
            ("identity", obj_id, None),
            ("metric", obj_eq, obj_eq.metric)):
        gamma = gamma_from_metric(obj)
        sweep = run_sweep(problem, alpha, [gamma], metric=metric, tol=tol,
                          max_iters=MPC_MAX_ITERS)
        entry = sweep.entries[0]
        out[name] = {
            "gamma_star": gamma,
            "condition_number": obj.value,
            "iterations": entry.iterations_actual,
            "converged": entry.converged,
        }
    return out


def pitch_reference(n_samples: int = 120, target_deg: float = 10.0,
                    up_at: int = 10, down_at: int = 70) -> np.ndarray:
    """Scripted pitch maneuver: step to the target and back to level."""
    refs = np.zeros((n_samples, N_STATES))
    refs[up_at:down_at, 3] = target_deg
    return refs


def mpc_closed_loop(spec: MpcSpec, references: np.ndarray,
                    alpha: float = 0.5, tol: float = 1e-5,
                    metric: bool = True) -> dict:
    """Closed-loop run applying the first input of each one-sample solve.

    Each solve is capped at ``MPC_MAX_ITERS``.  Returns the per-sample
    iteration counts and their mean and median, plus the state trajectory.
    ``tol`` must lie in (0, 1).
    """
    if not 0 < tol < 1:
        raise ValueError("tol must lie in (0, 1)")
    references = np.asarray(references, dtype=float)
    n_samples = references.shape[0]
    x = np.zeros(N_STATES)
    counts: list[int] = []
    states = [x.copy()]
    obj = None
    for t in range(n_samples):
        problem = gen_mpc(spec, x, references[t])
        if obj is None:
            # Q, L and A are the same for every sample: only b and q move
            obj = mpc_metric_objective(problem, identity=not metric)
        used = obj.metric if metric else None
        gamma = gamma_from_metric(obj)
        scaled = problem.scaled(used) if used is not None else problem
        _, _, _, trace = admm_solve(scaled, gamma, alpha, tol=tol,
                                    max_iters=MPC_MAX_ITERS,
                                    z0=np.zeros(scaled.p))
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
    q = strongly_convex(problem.f).Q
    return select_diagonal_metric(dual_curvature(problem.A, q), mode="exact")


def lasso_condition_report(problem: EqConstrainedProblem,
                           metric: DiagonalMetric | None = None
                           ) -> MetricObjective:
    """Exact dual condition objective of a consensus problem."""
    q = strongly_convex(problem.f).Q
    e = metric if metric is not None else DiagonalMetric.identity(problem.p)
    return dual_condition_number(e, problem.A, q)
