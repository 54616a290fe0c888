"""Relaxed ADMM with scaled dual variables for equality-constrained problems.

Solves  minimize f(x) + g(y)  subject to  A x + B y = c  by iterating

    x+  = argmin_x f(x) + (gamma/2) ||A x + B y - c + u||^2
    xA+ = 2*alpha*A x+ - (1 - 2*alpha)(B y - c)
    y+  = argmin_y g(y) + (gamma/2) ||xA+ + B y - c + u||^2
    u+  = u + xA+ + B y+ - c

alpha = 1/2 is classical ADMM; alpha below/above 1/2 under/over-relaxes.
The iterate z = gamma*(u - B y) follows the relaxed Douglas-Rachford
recursion on the negative Fenchel dual exactly (for any initialization the
correspondence holds from the first full iteration onward; a consistent
initialization makes it hold from iteration zero), so convergence rates are
measured on z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DimensionMismatchError
from .linmetric import (
    DiagonalMetric,
    _as_dense,
    _json_object,
    _json_vector,
    _positive,
    matrix_from_json,
    matrix_to_json,
)
from .prox import (
    ConjugateOf,
    ProxFn,
    Quadratic,
    QuadraticAffine,
    _cho_solver,
    _lu_solver,
    diag_scale,
    dual_quadratic,
    proxfn_from_json,
)
from .splitting import SolveTrace, _fixed_point, _norm, dr_step


@dataclass(eq=False)
class EqConstrainedProblem:
    """min f(x) + g(y) s.t. A x + B y = c.  Treat instances as immutable."""

    f: ProxFn
    g: ProxFn
    A: np.ndarray
    B: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.A = _as_dense(self.A)
        self.B = _as_dense(self.B)
        self.c = np.asarray(self.c, dtype=float).ravel()
        if self.A.ndim != 2 or self.B.ndim != 2:
            raise DimensionMismatchError("A and B must be 2-d")
        if self.A.shape[0] != self.B.shape[0]:
            raise DimensionMismatchError("A and B must have equal row count")
        if self.c.shape[0] != self.A.shape[0]:
            raise DimensionMismatchError("c must match the constraint rows")
        if self.f.dim is not None and self.f.dim != self.A.shape[1]:
            raise DimensionMismatchError("f dimension does not match A")
        if self.g.dim is not None and self.g.dim != self.B.shape[1]:
            raise DimensionMismatchError("g dimension does not match B")

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.A.shape[0]

    def scaled(self, metric: DiagonalMetric) -> "EqConstrainedProblem":
        """The equivalent problem with rows of the constraint scaled by E."""
        if metric.dim != self.p:
            raise DimensionMismatchError("metric must match constraint rows")
        e = metric.diag
        return EqConstrainedProblem(self.f, self.g, e[:, None] * self.A,
                                    e[:, None] * self.B, e * self.c)

    def to_json(self) -> dict:
        return {"f": self.f.to_json(), "g": self.g.to_json(),
                "A": matrix_to_json(self.A), "B": matrix_to_json(self.B),
                "c": self.c.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "EqConstrainedProblem":
        obj = _json_object(obj, "a problem")
        return cls(proxfn_from_json(obj["f"]), proxfn_from_json(obj["g"]),
                   matrix_from_json(obj["A"]), matrix_from_json(obj["B"]),
                   _json_vector(obj["c"], "c"))


def _diagonal_signature(m: np.ndarray) -> np.ndarray | None:
    """diag(m) if m is diagonal with nonzero entries of one sign, else None."""
    if m.shape[0] != m.shape[1]:
        return None
    s = np.diag(m).copy()
    if np.count_nonzero(m - np.diag(s)):
        return None
    return s if np.all(s > 0) or np.all(s < 0) else None


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v, where a 1-d m stands for diag(m)."""
    return m * v if m.ndim == 1 else m @ v


class _XUpdate:
    """Closed-form solver for argmin_x f(x) + (gamma/2)||A x - v||^2."""

    def __init__(self, problem: EqConstrainedProblem, gamma: float, sig):
        f, a = problem.f, problem.A
        self.gamma = gamma
        self.at = a.T if sig is None else sig  # A^T, or diag(A)
        if isinstance(f, Quadratic):
            self.mode = "quadratic"
            self.fac, self._solve = _cho_solver(f.Q + gamma * (a.T @ a))
            self.q = f.q
        elif isinstance(f, QuadraticAffine):
            self.mode = "quadratic_affine"
            n, p = f.dim, f.L.shape[0]
            self.fac, self._solve = _lu_solver(np.block([
                [f.Q + gamma * (a.T @ a), f.L.T],
                [f.L, np.zeros((p, p))],
            ]))
            self.q, self.b, self.n = f.q, f.b, n
        elif sig is not None:
            # A = diag(s): substitute t = A x and prox the rescaled f.
            self.mode = "prox"
            self.scaled_f = diag_scale(f, sig)
        else:
            raise CapabilityError(
                "x-update has no closed form: f must be quadratic (optionally "
                "on an affine set) for general A, or A must be +/- a positive "
                f"diagonal for catalog proxes (got f kind {f.kind!r})")

    def solve(self, v: np.ndarray) -> np.ndarray:
        if self.mode == "quadratic":
            return self._solve(self.gamma * _apply(self.at, v) - self.q)
        if self.mode == "quadratic_affine":
            return self._solve(np.concatenate([
                self.gamma * _apply(self.at, v) - self.q, self.b]))[:self.n]
        return self.scaled_f.prox(1.0 / self.gamma, v) / self.at


class _YUpdate:
    """Closed-form solver for argmin_y g(y) + (gamma/2)||B y - v||^2."""

    def __init__(self, problem: EqConstrainedProblem, gamma: float, sig):
        self.gamma = gamma
        if sig is None:
            raise CapabilityError(
                "y-update has no closed form: B must be +/- identity or "
                "+/- a positive diagonal so the update reduces to a prox")
        self.scaled_g = diag_scale(problem.g, sig)
        self.s = sig

    def solve(self, v: np.ndarray) -> np.ndarray:
        return self.scaled_g.prox(1.0 / self.gamma, v) / self.s


class AdmmEngine:
    """Reusable per-(problem, gamma, alpha) iteration with cached factorizations.

    A diagonal A or B is kept as its diagonal (``a``, ``b``) and multiplies
    elementwise, with the same bits as the matvec, which only adds zeros.
    """

    def __init__(self, problem: EqConstrainedProblem, gamma: float,
                 alpha: float):
        _positive(gamma, "gamma")
        _positive(alpha, "alpha")
        self.problem = problem
        self.gamma = gamma
        self.alpha = alpha
        sig_a, sig_b = map(_diagonal_signature, (problem.A, problem.B))
        self.x_update = _XUpdate(problem, gamma, sig_a)
        self.y_update = _YUpdate(problem, gamma, sig_b)
        self.a = problem.A if sig_a is None else self.x_update.at
        self.b = self.y_update.s

    def step(self, y: np.ndarray, u: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One full iteration; returns (x+, y+, u+)."""
        c, alpha = self.problem.c, self.alpha
        by = self.b * y
        x_new = self.x_update.solve(c - by - u)
        xa = 2.0 * alpha * _apply(self.a, x_new) - (1.0 - 2.0 * alpha) * (
            by - c)
        y_new = self.y_update.solve(c - xa - u)
        u_new = u + xa + self.b * y_new - c
        return x_new, y_new, u_new

    def z_equiv(self, y: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.gamma * (u - self.b * y)

    def consistent_init(self, z0: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """(y0, u0) whose dual splitting iterate equals z0 from step one.

        y0 minimizes g(y) + (gamma/2)||B y + z0/gamma||^2 and
        u0 = z0/gamma + B y0, which makes gamma*(u0 - B y0) = z0 and keeps
        the primal iteration aligned with the dual splitting map from the
        very first step.
        """
        z0 = np.asarray(z0, dtype=float)
        y0 = self.y_update.solve(-z0 / self.gamma)
        u0 = z0 / self.gamma + self.b * y0
        return y0, u0


def admm_solve(problem: EqConstrainedProblem, gamma: float, alpha: float,
               tol: float = 1e-8, max_iters: int = 10_000, *,
               y0: np.ndarray | None = None, u0: np.ndarray | None = None,
               z0: np.ndarray | None = None,
               reference: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, SolveTrace]:
    """Run relaxed ADMM; the trace lives in the dual splitting coordinate.

    Runs :meth:`AdmmEngine.step` under the fixed-point driver shared with
    :func:`~proxsplit.splitting.dr_solve`, on z = gamma*(u - B y).  Stops
    when ||z+ - z|| <= tol * max(1, ||z+||) and then the primal residual
    ||A x + B y - c|| <= tol.  Non-convergence, including a non-finite
    change in z, shows up as ``converged=False`` on the trace, never as an
    exception; a ``gamma`` or ``alpha`` that is not > 0 (NaN included),
    ``max_iters < 1``, ``tol <= 0`` or a misshapen start raise ValueError.

    Parameters
    ----------
    y0, u0 : arrays, optional
        Explicit start (defaults to zeros).
    z0 : array, optional
        Start specified in the dual coordinate; overrides y0/u0 with the
        consistent initialization.
    reference : array, optional
        Known dual fixed point; when given, ``trace.distances`` records
        ||z^k - ref|| and ``trace.contraction_ratios`` the per-step ratios.
    """
    engine = AdmmEngine(problem, gamma, alpha)
    if z0 is not None:
        y, u = engine.consistent_init(z0)
    else:
        y = np.zeros(problem.m) if y0 is None else np.asarray(y0, dtype=float)
        u = np.zeros(problem.p) if u0 is None else np.asarray(u0, dtype=float)
    if y.shape != (problem.m,) or u.shape != (problem.p,):
        raise DimensionMismatchError("the start must match B's columns/rows")
    x = np.zeros(problem.n)

    def step(_z):
        nonlocal x, y, u
        x, y, u = engine.step(y, u)
        return engine.z_equiv(y, u)

    def primal_small():
        return _norm(_apply(engine.a, x) + engine.b * y - problem.c) <= tol

    trace = _fixed_point(step, engine.z_equiv(y, u), max_iters, tol,
                         reference, primal_small)
    trace.x_final = x
    return x, y, u, trace


def dual_problem_operators(problem: EqConstrainedProblem
                           ) -> tuple[ProxFn, ProxFn]:
    """(d1, d2) prox-capable operators of the negative Fenchel dual.

    d1(mu) = f^*(-A^T mu) + <c, mu> needs a strictly convex quadratic f;
    d2(mu) = g^*(-B^T mu) is available for B = -I, where it is g^* and its
    prox follows from Moreau's identity.
    """
    b = problem.B
    if b.shape[0] != b.shape[1] or not np.array_equal(b, -np.eye(b.shape[0])):
        raise CapabilityError("dual operators are implemented for B = -I")
    d1 = dual_quadratic(problem.f, problem.A, problem.c)
    d2 = ConjugateOf(problem.g)
    return d1, d2


def verify_dual_equivalence(problem: EqConstrainedProblem, gamma: float,
                            alpha: float, iters: int,
                            z0: np.ndarray) -> float:
    """Max deviation between ADMM's z = gamma(u - By) and dual splitting.

    Runs the primal ADMM iteration and the relaxed splitting on the dual
    pair (d1, d2) from matched (consistent) initializations and returns
    max_k ||z_dual^k - gamma*(u^k - B y^k)|| over k = 0..iters.
    """
    z0 = np.asarray(z0, dtype=float)
    d1, d2 = dual_problem_operators(problem)
    engine = AdmmEngine(problem, gamma, alpha)
    y, u = engine.consistent_init(z0)

    # Dual splitting applies the d2 prox first, so d2 is the first argument.
    z_dr = z0.copy()
    max_dev = float(np.linalg.norm(z_dr - engine.z_equiv(y, u)))
    for _ in range(iters):
        z_dr, _, _ = dr_step(d2, d1, gamma, alpha, z_dr)
        _, y, u = engine.step(y, u)
        dev = float(np.linalg.norm(z_dr - engine.z_equiv(y, u)))
        max_dev = max(max_dev, dev)
    return max_dev
