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
from functools import cached_property

import numpy as np

from .errors import CapabilityError, DimensionMismatchError
from .linmetric import (
    DiagonalMetric,
    MetricSpectra,
    _as_dense,
    _count,
    _finite,
    _json_object,
    _json_vector,
    _positive,
    _step,
    matrix_from_json,
    matrix_to_json,
)
from .prox import (
    ConjugateOf,
    ProxFn,
    Quadratic,
    QuadraticAffine,
    _smooth_solver,
    diag_scale,
    dual_quadratic,
    proxfn_from_json,
    strongly_convex,
)
from .rates import dual_curvature
from .splitting import SolveTrace, _fixed_point, _norm, dr_step


@dataclass(eq=False)
class EqConstrainedProblem:
    """min f(x) + g(y) s.t. A x + B y = c.  Treat instances as immutable,
    but for f.q and f.b, which engines read at every solve (never cached).
    NaN/inf in A, B or c raise ValueError at construction."""

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
        for v in (self.A, self.B, self.c):
            _finite(v)

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.A.shape[0]

    @cached_property
    def dual_spectra(self) -> MetricSpectra:
        """S = A Q^-1 A^T, formed on first use behind prox.strongly_convex."""
        return MetricSpectra(dual_curvature(self.A, strongly_convex(self.f).Q))

    def scaled(self, metric: DiagonalMetric) -> "EqConstrainedProblem":
        """The equivalent problem with rows of the constraint scaled by E."""
        if metric.dim != self.p:
            raise DimensionMismatchError("metric must match constraint rows")
        e = metric.diag[:, None]
        try:  # A, B, c and E are finite: only a product can leave the doubles
            with np.errstate(over="ignore"):
                return EqConstrainedProblem(self.f, self.g, e * self.A,
                                            e * self.B, metric.diag * self.c)
        except ValueError:
            raise ValueError("E A, E B or E c overflows") from None

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
    """diag(m) if m is diagonal with finite nonzero entries of one sign."""
    if m.shape[0] != m.shape[1]:
        return None
    s = np.diag(m).copy()
    if np.count_nonzero(m) != np.count_nonzero(s) or not np.isfinite(s).all():
        return None
    return s if (s > 0).all() or (s < 0).all() else None


def _gram(a: np.ndarray, sig, gamma: float) -> np.ndarray:
    """gamma A^T A, as diag(gamma sig^2) for A = diag(sig) (same bits)."""
    return gamma * (a.T @ a) if sig is None else np.diag(gamma * (sig * sig))


class _XUpdate:
    """Closed-form solver for argmin_x f(x) + (gamma/2)||A x - v||^2."""

    def __init__(self, problem: EqConstrainedProblem, gamma: float, sig):
        f, a = problem.f, problem.A
        self.gamma = np.asarray(gamma, dtype=float)
        self.at = a.T if sig is None else sig  # A^T, or diag(A)
        self.times_at = self.at.__matmul__ if sig is None else sig.__mul__
        if isinstance(f, (Quadratic, QuadraticAffine)):
            self._solve = _smooth_solver(f, lambda: f.Q + _gram(a, sig, gamma),
                                         "Q + gamma*A^T A", gamma, ValueError)
            self.q = f.q
        elif sig is not None:
            # A = diag(s): substitute t = A x and prox the rescaled f.
            self._solve, self.scaled_f = None, diag_scale(f, sig)
            self.prox = self.scaled_f.prox_map(1.0 / gamma)
        else:
            raise CapabilityError(
                "x-update has no closed form: f must be quadratic (optionally "
                "on an affine set) for general A, or A must be +/- a positive "
                f"diagonal for catalog proxes (got f kind {f.kind!r})")

    def solve(self, v: np.ndarray) -> np.ndarray:
        if self._solve is not None:
            return self._solve(self.gamma * self.times_at(v) - self.q)
        return self.prox(v) / self.at


class _YUpdate:
    """Closed-form solver for argmin_y g(y) + (gamma/2)||B y - v||^2: the
    prox of g scaled by B's diagonal, divided by it."""

    def __init__(self, problem: EqConstrainedProblem, gamma: float, sig):
        if sig is None:
            raise CapabilityError(
                "y-update has no closed form: B must be +/- identity or "
                "+/- a positive diagonal so the update reduces to a prox")
        self.s, self.scaled_g = sig, diag_scale(problem.g, sig)
        self.prox = self.scaled_g.prox_map(1.0 / gamma)

    def solve(self, v: np.ndarray) -> np.ndarray:
        return self.prox(v) / self.s


class AdmmEngine:
    """Reusable per-(problem, gamma, alpha) iteration with one factorization.

    A diagonal A or B is kept as its diagonal (``a``, ``b``) and multiplies
    elementwise, with the same bits as the matvec, which only adds zeros.
    An overflowing factor matrix raises a plain ValueError naming it and
    gamma, on which ``run_sweep`` stops rather than noting it per point.

    The per-step constants are bound once, at build: gamma, 2*alpha and
    1 - 2*alpha as 0-d float64 arrays (an array times one has the bits of
    the product with the float, at less dispatch), the A and A^T products
    as the array's ``__mul__`` (diagonal) or ``__matmul__``, and the prox
    maps of the y-update and of a diagonal A's x-update.  When
    every entry of c is +0.0 (``zero_c``), ``v - c`` is v to the bit and
    the step skips both such subtractions; ``c - v`` stays, as 0.0 - v is
    not -v for v = +0.0.
    """

    def __init__(self, problem: EqConstrainedProblem, gamma: float,
                 alpha: float):
        _step(gamma)
        _positive(alpha, "alpha")
        self.problem, self.gamma, self.alpha = problem, gamma, alpha
        sig_a, sig_b = map(_diagonal_signature, (problem.A, problem.B))
        self.x_update = _XUpdate(problem, gamma, sig_a)
        self.y_update = _YUpdate(problem, gamma, sig_b)
        self.a = problem.A if sig_a is None else self.x_update.at
        self.b = self.y_update.s
        self.times_a = self.a.__matmul__ if sig_a is None else self.a.__mul__
        self.gamma_0d, self.two_alpha, self.one_minus_two_alpha = (
            np.asarray(v, dtype=float)
            for v in (gamma, 2.0 * alpha, 1.0 - 2.0 * alpha))
        c = problem.c
        self.zero_c = not (c.any() or np.signbit(c).any())

    def step(self, y: np.ndarray, u: np.ndarray, by: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One full iteration from (y, u), given by = B y as ``self.b * y``;
        returns (x+, y+, u+, B y+), so each iteration forms B y once."""
        c = self.problem.c
        x_new = self.x_update.solve(c - by - u)
        xa = (self.two_alpha * self.times_a(x_new)
              - self.one_minus_two_alpha * (by if self.zero_c else by - c))
        y_new = self.y_update.solve(c - xa - u)
        by_new = self.b * y_new
        u_new = u + xa + by_new
        return x_new, y_new, u_new if self.zero_c else u_new - c, by_new

    def z_equiv(self, y: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.gamma_0d * (u - self.b * y)

    def consistent_init(self, z0: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """(y0, u0) whose dual splitting iterate equals z0 from step one.

        y0 minimizes g(y) + (gamma/2)||B y + z0/gamma||^2 and
        u0 = z0/gamma + B y0, which makes gamma*(u0 - B y0) = z0 and keeps
        the primal iteration aligned with the dual splitting map from the
        very first step.
        """
        z0 = np.asarray(z0, dtype=float)
        v = self.y_update.scaled_g._check_point(-z0 / self.gamma)
        y0 = self.y_update.solve(v)
        u0 = z0 / self.gamma + self.b * y0
        return y0, u0


def admm_solve(problem: EqConstrainedProblem, gamma: float, alpha: float,
               tol: float = 1e-8, max_iters: int = 10_000, *,
               z0: np.ndarray | None = None,
               reference: np.ndarray | None = None,
               engine: AdmmEngine | None = None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, SolveTrace]:
    """Run relaxed ADMM; the trace lives in the dual splitting coordinate.

    Runs :meth:`AdmmEngine.step` under the fixed-point driver shared with
    :func:`~proxsplit.splitting.dr_solve`, on z = gamma*(u - B y).  Stops
    when ||z+ - z|| <= tol * max(1, ||z+||) and then the primal residual
    ||A x + B y - c|| <= tol.  Non-convergence, a non-finite change in z
    too, shows as ``converged=False``, never as an exception; a ``gamma``
    outside [2^-1022, inf), an ``alpha`` or ``tol`` outside (0, inf), NaN
    too, ``max_iters < 1`` or a misshapen start or reference raise ValueError.

    Parameters
    ----------
    z0 : array, optional
        Start in the dual coordinate, taken through the consistent
        initialization; without it y and u start at zero.
    reference : array, optional
        Known dual fixed point; when given, ``trace.distances`` records
        ||z^k - ref|| and ``trace.contraction_ratios`` the per-step ratios.
    engine : AdmmEngine, optional
        One built for this very problem, gamma and alpha (else ValueError),
        solved with instead of building and factoring a new one.
    """
    engine = engine or AdmmEngine(problem, gamma, alpha)
    if (engine.problem, engine.gamma, engine.alpha) != (problem, gamma, alpha):
        raise ValueError("engine built for another problem, gamma or alpha")
    if z0 is None:
        y, u = np.zeros(problem.m), np.zeros(problem.p)
    elif np.shape(z0) != (problem.p,):
        raise DimensionMismatchError("the start must match B's columns/rows")
    else:
        y, u = engine.consistent_init(z0)
    x, by = np.zeros(problem.n), engine.b * y

    def step(_z):
        nonlocal x, y, u, by
        x, y, u, by = engine.step(y, u, by)
        return engine.gamma_0d * (u - by)  # z_equiv(y, u), B y formed once

    def primal_small():
        return _norm(engine.times_a(x) + by - problem.c) <= tol

    trace = _fixed_point(lambda _z0: step, engine.z_equiv(y, u), max_iters,
                         tol, reference, primal_small)
    trace.x_final = x
    return x, y, u, trace


def verify_dual_equivalence(problem: EqConstrainedProblem, gamma: float,
                            alpha: float, iters: int,
                            z0: np.ndarray) -> float:
    """Max deviation between ADMM's z = gamma(u - By) and dual splitting.

    Runs the primal ADMM iteration and the relaxed splitting on the pair
    (d1, d2) of the negative Fenchel dual from matched (consistent)
    initializations and returns max_k ||z_dual^k - gamma*(u^k - B y^k)||
    over k = 0..iters.  d1(mu) = f^*(-A^T mu) + <c, mu> needs a strictly
    convex quadratic f; d2(mu) = g^*(-B^T mu) is g^* for B = -I, the only
    B implemented.
    """
    _count(iters, "iters", 0)
    z0 = np.asarray(z0, dtype=float)
    b = problem.B
    if b.shape[0] != b.shape[1] or not np.array_equal(b, -np.eye(b.shape[0])):
        raise CapabilityError("dual operators are implemented for B = -I")
    d1 = dual_quadratic(problem.f, problem.A, problem.c)
    d2 = ConjugateOf(problem.g)
    engine = AdmmEngine(problem, gamma, alpha)
    y, u = engine.consistent_init(z0)

    # Dual splitting applies the d2 prox first, so d2 is the first argument.
    z_dr, by = z0.copy(), engine.b * y
    prox_d2, prox_d1 = d2.prox_map(gamma), d1.prox_map(gamma)
    devs = [_norm(z_dr - engine.z_equiv(y, u))]
    for _ in range(iters):
        z_dr, _, _ = dr_step(prox_d2, prox_d1, alpha, z_dr)
        _, y, u, by = engine.step(y, u, by)
        devs.append(_norm(z_dr - engine.z_equiv(y, u)))
    return max(devs)
