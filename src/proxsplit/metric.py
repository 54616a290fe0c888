"""Diagonal metric (preconditioner) selection for the dual splitting.

The step-size theory says the dual condition number
lambda_max(E A H^-1 A^T E^T) / lambda_min(E A L^-1 A^T E^T) governs the
certified rate, so a diagonal E is chosen to shrink it.  When the
regularity assumptions fail, the same recipe runs on a pseudo condition
number (smallest nonzero eigenvalue in the denominator) of A Q^+ A^T or of
A P11 A^T with P11 the top-left block of the inverse KKT matrix.

The minimizer used here is iterated symmetric row-norm equilibration with a
guaranteed fallback to the identity, so the selected metric never makes the
objective worse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import RankDeficiencyError
from .linmetric import (
    DiagonalMetric,
    _as_dense,
    apply_pseudo_inverse,
    kkt_p11,
    spectral_summary,
)
from .rates import dual_regularity

PSEUDO_ZERO_TOL = 1e-9

Mode = Literal["exact", "heuristic_pinv", "heuristic_p11"]


@dataclass(frozen=True)
class MetricObjective:
    """The condition-number objective of one metric choice.

    ``numerator`` is the largest eigenvalue of the scaled smoothness
    operator, ``denominator`` the smallest (or smallest nonzero, in the
    heuristic modes) eigenvalue of the scaled curvature operator, ``value``
    their ratio, and ``metric`` the diagonal scaling it was evaluated at.
    """

    mode: Mode
    numerator: float
    denominator: float
    value: float
    metric: DiagonalMetric

    def report(self) -> dict:
        return {
            "mode": self.mode,
            "E": self.metric.diag.tolist(),
            "lambda_max": self.numerator,
            "lambda_min": self.denominator,
            "condition_number": self.value,
            "gamma": gamma_from_metric(self),
        }


def gamma_from_metric(obj: MetricObjective) -> float:
    """Step size 1/sqrt(numerator * denominator) recommended by the metric."""
    return 1.0 / math.sqrt(obj.numerator * obj.denominator)


def dual_condition_number(metric: DiagonalMetric, a, h, l) -> MetricObjective:
    """Exact objective lambda_max(EAH^-1A^TE^T)/lambda_min(EAL^-1A^TE^T).

    The two eigenvalues are the metric-form dual constants of
    :func:`~proxsplit.rates.dual_regularity`.
    """
    dual = dual_regularity(None, a, metric=metric, h=h, l=l)
    return MetricObjective(mode="exact", numerator=dual.beta_hat,
                           denominator=dual.sigma_hat,
                           value=dual.beta_hat / dual.sigma_hat,
                           metric=metric)


def pseudo_condition_number(metric: DiagonalMetric, a,
                            qdag_apply: Callable[[np.ndarray], np.ndarray],
                            zero_tol: float = PSEUDO_ZERO_TOL,
                            mode: Mode = "heuristic_pinv") -> MetricObjective:
    """Pseudo condition number lambda_max / lambda_min>0 of E A Q^+ A^T E^T.

    ``qdag_apply`` applies the pseudo-inverse of the curvature matrix to a
    vector (or to the columns of a matrix one at a time).
    """
    a = _as_dense(a)
    cols = np.column_stack([qdag_apply(a.T[:, j])
                            for j in range(a.shape[0])])
    s = a @ cols
    return pseudo_condition_of(metric, 0.5 * (s + s.T), zero_tol, mode)


def pseudo_condition_of(metric: DiagonalMetric, s,
                        zero_tol: float = PSEUDO_ZERO_TOL,
                        mode: Mode = "heuristic_pinv") -> MetricObjective:
    """Pseudo condition number of an already-formed symmetric psd S."""
    scaled = metric.scale_spectrum_matrix(_as_dense(s))
    summary = spectral_summary(scaled, zero_tol=zero_tol)
    if summary.lambda_max <= 0:
        raise RankDeficiencyError("matrix has no nonzero eigenvalues")
    return MetricObjective(mode=mode, numerator=summary.lambda_max,
                           denominator=summary.lambda_min_pos,
                           value=summary.lambda_max / summary.lambda_min_pos,
                           metric=metric)


def _objective_value(metric: DiagonalMetric, s: np.ndarray, mode: str,
                     zero_tol: float) -> float:
    summary = spectral_summary(metric.scale_spectrum_matrix(s),
                               zero_tol=zero_tol)
    if mode == "exact":
        if summary.lambda_min <= 0:
            return math.inf
        return summary.lambda_max / summary.lambda_min
    if summary.lambda_min_pos <= 0:
        return math.inf
    return summary.lambda_max / summary.lambda_min_pos


def select_diagonal_metric(s, mode: Literal["exact", "heuristic"] = "exact",
                           sweeps: int = 10,
                           zero_tol: float = PSEUDO_ZERO_TOL
                           ) -> DiagonalMetric:
    """Diagonal E from iterated row-norm equilibration of symmetric psd S.

    Each sweep divides E_ii by the square root of the max-norm of row i of
    the current scaled matrix; rows with zero norm are skipped.  In exact
    mode an all-zero row is an error (the exact objective would be
    infinite); heuristic mode tolerates it.  The returned metric never has
    a worse objective than the identity: if the sweeps degrade it, the
    identity is returned instead.
    """
    s = _as_dense(s)
    s = 0.5 * (s + s.T)
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    n = s.shape[0]
    row_norms = np.abs(s).max(axis=1)
    if mode == "exact" and np.any(row_norms == 0):
        raise RankDeficiencyError(
            "S has an all-zero row; exact metric selection needs a "
            "nonsingular objective matrix")
    e = np.ones(n)
    for _ in range(sweeps):
        scaled = s * np.outer(e, e)
        norms = np.abs(scaled).max(axis=1)
        nonzero = norms > 0
        e[nonzero] /= np.sqrt(norms[nonzero])
    candidate = DiagonalMetric(e)
    identity = DiagonalMetric.identity(n)
    obj_mode = "exact" if mode == "exact" else "heuristic"
    if (_objective_value(candidate, s, obj_mode, zero_tol)
            <= _objective_value(identity, s, obj_mode, zero_tol)):
        return candidate
    return identity


def heuristic_affine_case(q, lc, a, sweeps: int = 10,
                          zero_tol: float = PSEUDO_ZERO_TOL
                          ) -> MetricObjective:
    """Metric for a quadratic restricted to an affine set, via the KKT block.

    The dual smooth term of 0.5 x^T Q x + q^T x + indicator(Lc x = b) has
    Hessian A P11 A^T with P11 the top-left block of the inverse of
    [[Q, Lc^T], [Lc, 0]].  Selects a diagonal E minimizing the pseudo
    condition number of E A P11 A^T E^T and returns that objective (the
    recommended step size follows from :func:`gamma_from_metric`).
    """
    a = _as_dense(a)
    p11 = kkt_p11(q, lc)
    s = a @ p11 @ a.T
    s = 0.5 * (s + s.T)
    metric = select_diagonal_metric(s, mode="heuristic", sweeps=sweeps,
                                    zero_tol=zero_tol)
    return pseudo_condition_of(metric, s, zero_tol, mode="heuristic_p11")


def pinv_applier(q, zero_tol: float = PSEUDO_ZERO_TOL):
    """Convenience: a Q^+ applier for :func:`pseudo_condition_number`."""
    q = _as_dense(q)
    return lambda v: apply_pseudo_inverse(q, v, zero_tol)
