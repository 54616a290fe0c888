"""Diagonal metric (preconditioner) selection for the dual splitting.

The step-size theory says the dual condition number, the ratio of the
extreme eigenvalues of E S E^T for the dual curvature S = A H^-1 A^T,
governs the certified rate, so a diagonal E is chosen to shrink it.  When
the regularity assumptions fail, the same recipe runs on a pseudo condition
number (smallest nonzero eigenvalue in the denominator) with A Q^+ A^T or
A P11 A^T in place of S, P11 the top-left block of the inverse KKT matrix;
the KKT-block heuristic is :func:`proxsplit.bench.mpc_metric_objective`.
Every objective is one eigendecomposition of one scaled matrix.

The minimizer used here is iterated symmetric row-norm equilibration with a
guaranteed fallback to the identity, so the selected metric never makes the
objective worse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import RankDeficiencyError
from .linmetric import (
    DiagonalMetric,
    _as_dense,
    kkt_p11,  # unused here, but perfbench/tracer.py patches metric.kkt_p11
    pseudo_inverse,
    spectral_summary,
)
from .rates import dual_regularity

PSEUDO_ZERO_TOL = 1e-9
#: row-norm equilibration sweeps of :func:`select_diagonal_metric`
EQUILIBRATION_SWEEPS = 10

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


def dual_condition_number(metric: DiagonalMetric, a, h) -> MetricObjective:
    """Exact objective lambda_max / lambda_min of E S E^T, S = A H^-1 A^T.

    The two eigenvalues are the metric-form dual constants of
    :func:`~proxsplit.rates.dual_regularity`.
    """
    dual = dual_regularity(None, a, metric=metric, h=h)
    return MetricObjective(mode="exact", numerator=dual.beta_hat,
                           denominator=dual.sigma_hat,
                           value=dual.beta_hat / dual.sigma_hat,
                           metric=metric)


def pseudo_condition_number(metric: DiagonalMetric, a, q) -> MetricObjective:
    """Pseudo condition number lambda_max / lambda_min>0 of E A Q^+ A^T E^T.

    ``q`` is the symmetric psd curvature matrix; its pseudo-inverse is
    formed once, treating eigenvalues below ``PSEUDO_ZERO_TOL * lambda_max``
    as zero.
    """
    a = _as_dense(a)
    s = a @ pseudo_inverse(q, PSEUDO_ZERO_TOL) @ a.T
    return pseudo_condition_of(metric, 0.5 * (s + s.T))


def pseudo_condition_of(metric: DiagonalMetric, s,
                        mode: Mode = "heuristic_pinv") -> MetricObjective:
    """Pseudo condition number of an already-formed symmetric psd S, with
    eigenvalues below ``PSEUDO_ZERO_TOL * lambda_max`` counted as zero."""
    obj = _objective_value(metric, s, mode)
    if obj.numerator <= 0:
        raise RankDeficiencyError("matrix has no nonzero eigenvalues")
    return obj


def _objective_value(metric: DiagonalMetric, s, mode: Mode
                     ) -> MetricObjective:
    """Condition objective of symmetric psd S at ``metric``.

    The denominator is lambda_min in exact mode and the smallest eigenvalue
    above ``PSEUDO_ZERO_TOL * lambda_max`` otherwise; the value is infinite
    when it is zero.
    """
    summary = spectral_summary(metric.scale_spectrum_matrix(s),
                               zero_tol=PSEUDO_ZERO_TOL)
    den = summary.lambda_min if mode == "exact" else summary.lambda_min_pos
    value = summary.lambda_max / den if den > 0 else math.inf
    return MetricObjective(mode=mode, numerator=summary.lambda_max,
                           denominator=den, value=value, metric=metric)


def select_diagonal_metric(s, mode: Literal["exact", "heuristic"] = "exact"
                           ) -> DiagonalMetric:
    """Diagonal E from iterated row-norm equilibration of symmetric psd S.

    Each of ``EQUILIBRATION_SWEEPS`` sweeps divides E_ii by the square root
    of the max-norm of row i of the current scaled matrix; rows with zero
    norm are skipped.  In exact mode an all-zero row is an error (the exact
    objective would be infinite); heuristic mode tolerates it.  The returned
    metric never has a worse objective (zero below ``PSEUDO_ZERO_TOL``) than
    the identity: if the sweeps degrade it, the identity is returned instead.
    """
    s = _as_dense(s)
    s = 0.5 * (s + s.T)
    n = s.shape[0]
    row_norms = np.abs(s).max(axis=1)
    if mode == "exact" and np.any(row_norms == 0):
        raise RankDeficiencyError(
            "S has an all-zero row; exact metric selection needs a "
            "nonsingular objective matrix")
    e = np.ones(n)
    for _ in range(EQUILIBRATION_SWEEPS):
        scaled = s * np.outer(e, e)
        norms = np.abs(scaled).max(axis=1)
        nonzero = norms > 0
        e[nonzero] /= np.sqrt(norms[nonzero])
    candidate = DiagonalMetric(e)
    identity = DiagonalMetric.identity(n)
    obj_mode = "exact" if mode == "exact" else "heuristic_pinv"
    if (_objective_value(candidate, s, obj_mode).value
            <= _objective_value(identity, s, obj_mode).value):
        return candidate
    return identity

