"""Diagonal metric (preconditioner) selection for the dual splitting.

The step-size theory says the dual condition number, the ratio of the
extreme eigenvalues of E S E^T for the dual curvature S = A H^-1 A^T,
governs the certified rate, so a diagonal E is chosen to shrink it.  When
the regularity assumptions fail, the same recipe runs on a pseudo condition
number (smallest nonzero eigenvalue in the denominator) of a formed psd
matrix such as A P11 A^T, P11 the top-left block of the inverse KKT matrix:
the KKT-block heuristic of :func:`proxsplit.bench.mpc_metric_objective`.
Each objective classifies eigenvalues computed once per metric (MetricSpectra).

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
    DEFAULT_ZERO_TOL,
    DiagonalMetric,
    MetricSpectra,
    kkt_p11,  # unused here, but perfbench/tracer.py patches metric.kkt_p11
    spectral_summary,  # unused here; perfbench/tracer.py patches it
)
from .rates import (DualRegularity, dual_curvature, dual_of_spectrum,
                    geometric_mean)

PSEUDO_ZERO_TOL = 1e-9
#: row-norm equilibration sweeps of :func:`select_diagonal_metric`
EQUILIBRATION_SWEEPS = 10

Mode = Literal["exact", "heuristic_p11"]


@dataclass(frozen=True)
class MetricObjective:
    """The condition-number objective of one metric choice.

    ``numerator`` is the largest eigenvalue of the scaled smoothness
    operator, ``denominator`` the smallest (or smallest nonzero, in the
    heuristic mode) eigenvalue of the scaled curvature operator, ``value``
    their ratio, and ``metric`` the diagonal scaling it was evaluated at.
    """

    mode: Mode
    numerator: float
    denominator: float
    metric: DiagonalMetric

    @property
    def value(self) -> float:
        den = self.denominator
        return self.numerator / den if den > 0 else math.inf

    @classmethod
    def exact(cls, e: DiagonalMetric, dual: DualRegularity) -> MetricObjective:
        """beta_hat / sigma_hat of the metric-form dual constants at E."""
        return cls("exact", dual.beta_hat, dual.sigma_hat, e)

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
    return 1.0 / geometric_mean(obj.numerator, obj.denominator,
                                "numerator*denominator")


def dual_condition_number(metric: DiagonalMetric, a, h) -> MetricObjective:
    """Exact objective lambda_max / lambda_min of E S E^T, S = A H^-1 A^T."""
    summary = MetricSpectra(dual_curvature(a, h)).summary(metric,
                                                          DEFAULT_ZERO_TOL)
    return MetricObjective.exact(metric, dual_of_spectrum(summary))


def pseudo_condition_of(metric: DiagonalMetric, s) -> MetricObjective:
    """Pseudo condition number of an already-formed symmetric psd S (or its
    MetricSpectra), eigenvalues below ``PSEUDO_ZERO_TOL * lambda_max``
    counted as zero."""
    spectra = s if isinstance(s, MetricSpectra) else MetricSpectra(s)
    obj = _objective_value(metric, spectra, "heuristic_p11")
    if obj.numerator <= 0:
        raise RankDeficiencyError("matrix has no nonzero eigenvalues")
    return obj


def _objective_value(metric: DiagonalMetric, spectra: MetricSpectra,
                     mode: Mode) -> MetricObjective:
    """Condition objective of symmetric psd S at ``metric``.

    The denominator is lambda_min in exact mode and the smallest eigenvalue
    above ``PSEUDO_ZERO_TOL * lambda_max`` otherwise; the value is infinite
    when it is zero.
    """
    summary = spectra.summary(metric, PSEUDO_ZERO_TOL)
    den = summary.lambda_min if mode == "exact" else summary.lambda_min_pos
    return MetricObjective(mode=mode, numerator=summary.lambda_max,
                           denominator=den, metric=metric)


def select_diagonal_metric(s, mode: Mode = "exact") -> DiagonalMetric:
    """Diagonal E from iterated row-norm equilibration of S or its spectra.

    Each of ``EQUILIBRATION_SWEEPS`` sweeps divides E_ii by the square root
    of the max-norm of row i of the current scaled matrix, skipping zero
    rows; a row so small that the scaled matrix overflows is a ValueError.
    In exact mode an all-zero row is a RankDeficiencyError; heuristic_p11
    tolerates it.  The returned metric never has a worse objective (zero
    below ``PSEUDO_ZERO_TOL``) than the identity, which it falls back to.
    """
    if mode not in ("exact", "heuristic_p11"):
        raise ValueError(f"mode {mode!r} is not 'exact' or 'heuristic_p11'")
    spectra = s if isinstance(s, MetricSpectra) else MetricSpectra(s)
    s = spectra.s
    if mode == "exact" and not np.abs(s).max(axis=1).all():
        raise RankDeficiencyError(
            "S has an all-zero row; exact metric selection needs a "
            "nonsingular objective matrix")
    e = np.ones(len(s))
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        for _ in range(EQUILIBRATION_SWEEPS):
            scaled = s * np.outer(e, e)
            norms = np.abs(scaled).max(axis=1)
            if not np.isfinite(norms).all():
                raise ValueError("S has a row too small to equilibrate")
            nonzero = norms > 0
            e[nonzero] /= np.sqrt(norms[nonzero])
    candidate = DiagonalMetric(e)
    identity = DiagonalMetric.identity(len(s))
    if (_objective_value(candidate, spectra, mode).value
            <= _objective_value(identity, spectra, mode).value):
        return candidate
    return identity

