"""Extremal two-dimensional instances attaining the rate bound exactly.

The smooth term is the diagonal quadratic 0.5*(beta*x1^2 + sigma*x2^2); the
second term is either the zero function ("g1") or the indicator of the
origin ("g2").  On these instances the splitting iteration is an exact
per-coordinate linear recurrence, so its rate is known in closed form and
matches the certified bound for every feasible (gamma, alpha); outside the
feasible relaxation interval the iteration provably fails to contract.

The constrained variant uses A = diag(theta, zeta) (zeta >= theta > 0),
B = -I, c = 0; the induced dual problem is the same construction with the
constants sigma_hat = theta^2/beta and beta_hat = zeta^2/sigma, which makes
it the extremal instance for the ADMM rate bound.  Note the layout flip:
in the dual coordinate the soft (sigma_hat) curvature sits at index 0 and
the stiff (beta_hat) curvature at index 1.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .admm import EqConstrainedProblem, admm_solve
from .linmetric import _step
from .prox import IndicatorZero, ProxFn, Quadratic, Zero
from .rates import (Regularity, contraction_factor, dual_constants,
                    geometric_mean, rate_bound)
from .splitting import SolveTrace, dr_solve

VARIANTS = ("g1", "g2")

#: coordinate codes: 1 is the stiff (beta) axis, 2 the soft (sigma) axis
BETA_COORD = 1
SIGMA_COORD = 2


@dataclass(frozen=True, eq=False)
class WorstCaseInstance:
    """One extremal instance ready to run; its fixed point is the origin."""

    f: ProxFn
    g: ProxFn
    problem: EqConstrainedProblem | None
    z0: np.ndarray


def _nonsmooth(variant: str) -> ProxFn:
    """g1 or g2; :func:`build` has checked the name."""
    return Zero(2) if variant == "g1" else IndicatorZero(2)


def _check_case(variant: str, coordinate: int) -> None:
    """Refuse a coordinate but the integer 1 or 2 (no bool), then a variant."""
    if (isinstance(coordinate, bool)
            or not isinstance(coordinate, (int, np.integer))
            or coordinate not in (BETA_COORD, SIGMA_COORD)):
        raise ValueError("coordinate must be 1 (beta) or 2 (sigma)")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")


def build(reg: Regularity, variant: str, *, theta: float | None = None,
          zeta: float | None = None,
          coordinate: int = SIGMA_COORD) -> WorstCaseInstance:
    """The dual (ADMM) extremal instance if theta, zeta are given, else DR's.

    ``variant`` names the nonsmooth term of the problem the splitting
    actually iterates on: the primal g in the primal setting, the dual
    second term in the dual setting (whose primal g is then its
    conjugate).  ``coordinate`` selects which curvature the canonical start
    excites: 1 the beta axis, 2 the sigma axis.  The fixed point and the
    solution are the origin in both settings.
    """
    _check_case(variant, coordinate)
    f = Quadratic(np.diag([reg.beta, reg.sigma]))
    if theta is None and zeta is None:
        g = _nonsmooth(variant)
        z0 = np.eye(2)[coordinate - BETA_COORD]
        return WorstCaseInstance(f=f, g=g, problem=None, z0=z0)
    if theta is None or zeta is None or not zeta >= theta > 0:
        raise ValueError("dual setting needs zeta >= theta > 0")
    # The dual second term is the conjugate of the primal g (B = -I), and
    # the zero function and the origin indicator are conjugate pairs, so
    # the primal g is the other member of the pair.
    g = _nonsmooth("g2" if variant == "g1" else "g1")
    problem = EqConstrainedProblem(
        f=f, g=g, A=np.diag([theta, zeta]), B=-np.eye(2), c=np.zeros(2))
    # Dual layout: soft curvature first, stiff second.
    z0 = np.eye(2)[SIGMA_COORD - coordinate]
    return WorstCaseInstance(f=f, g=g, problem=problem, z0=z0)


def exact_rate(reg: Regularity, variant: str, gamma: float, alpha: float,
               coordinate: int) -> float:
    """Exact per-step factor of the scalar recurrence on one coordinate.

    |1 - alpha + alpha*(1-gamma*lam)/(1+gamma*lam)| for variant g1 and
    |1 - alpha - alpha*(1-gamma*lam)/(1+gamma*lam)| for variant g2, with
    lam = beta on coordinate 1 and lam = sigma on coordinate 2.
    """
    _step(gamma)
    if math.isnan(alpha):
        raise ValueError("alpha must not be NaN")
    _check_case(variant, coordinate)
    gl = gamma * (reg.beta if coordinate == BETA_COORD else reg.sigma)
    # an overflowing gamma*lam takes the quotient's limit, -1, not NaN
    base = -1.0 if gl == math.inf else (1.0 - gl) / (1.0 + gl)
    if variant == "g1":
        return abs(1.0 - alpha + alpha * base)
    return abs(1.0 - alpha - alpha * base)


def adversarial_case(alpha: float, gamma: float, reg: Regularity
                     ) -> tuple[str, np.ndarray, int]:
    """(variant, z0, coordinate) whose exact rate attains the bound.

    Case split on the sign of alpha - 1 and gamma - 1/sqrt(beta*sigma):
    below both thresholds the slow sigma mode of the unconstrained-style
    variant is extremal; the other three quadrants follow by swapping the
    variant and/or the excited coordinate.
    """
    _step(gamma)
    if alpha == 0 or math.isnan(alpha):
        raise ValueError("alpha must be nonzero and not NaN")
    kink = 1.0 / geometric_mean(reg.beta, reg.sigma, "beta*sigma")
    if alpha <= 1:
        if gamma <= kink:
            variant, coordinate = "g1", SIGMA_COORD
        else:
            variant, coordinate = "g2", BETA_COORD
    else:
        if gamma >= kink:
            variant, coordinate = "g1", BETA_COORD
        else:
            variant, coordinate = "g2", SIGMA_COORD
    return variant, np.eye(2)[coordinate - BETA_COORD], coordinate


def _valid_ratios(ratios: list[float], distances: list[float]) -> list[float]:
    """Ratios whose denominators are above 1e-250, numerically meaningful."""
    return [r for r, d in zip(ratios, distances)
            if not math.isnan(r) and not d <= 1e-250]


def _measured_columns(trace: SolveTrace, reg: Regularity, variant: str,
                      gamma: float, alpha: float, coordinate: int) -> dict:
    """bound, exact_rate, measured_rate, max_abs_diff of one verified run.

    Ratios are taken from iteration 1 onward; the first transition is kept
    only when it is the sole available one (single-step convergence).
    Their median has ``np.median``'s bits, without numpy's dispatch.
    """
    ratios_all, dist = trace.contraction_ratios, trace.distances
    ratios = _valid_ratios(ratios_all[1:], dist[1:])
    if not ratios:
        ratios = _valid_ratios(ratios_all[:1], dist[:1])
    rate = exact_rate(reg, variant, gamma, alpha, coordinate)
    return {
        "bound": rate_bound(contraction_factor(reg, gamma), alpha),
        "exact_rate": rate,
        "measured_rate": (statistics.median(ratios) if ratios
                          else float("nan")),
        "max_abs_diff": max((abs(r - rate) for r in ratios),
                            default=float("nan")),
    }


def _adversarial_run(reg: Regularity, case: Regularity, gamma: float,
                     alpha: float, theta: float | None, zeta: float | None,
                     tol: float, iters: int) -> tuple[str, int, SolveTrace]:
    """Pick the case in ``case`` (reg, or the dual constants), build, solve."""
    variant, _, coordinate = adversarial_case(alpha, gamma, case)
    inst = build(reg, variant, theta=theta, zeta=zeta, coordinate=coordinate)
    if inst.problem is None:
        trace = dr_solve(inst.f, inst.g, gamma, alpha, inst.z0, tol=tol,
                         max_iters=iters, reference=np.zeros(2))
    else:
        trace = admm_solve(inst.problem, gamma, alpha, z0=inst.z0, tol=tol,
                           max_iters=iters, reference=np.zeros(2))[-1]
    return variant, coordinate, trace


def verify_point(beta: float, sigma: float, gamma: float, alpha: float, *,
                 iters: int = 120) -> dict:
    """Run the adversarial primal instance and compare measured vs exact.

    Returns a row dict with keys beta, sigma, gamma, alpha, variant, bound,
    exact_rate, measured_rate, max_abs_diff.
    """
    reg = Regularity(sigma=sigma, beta=beta)
    variant, coordinate, trace = _adversarial_run(reg, reg, gamma, alpha,
                                                  None, None, 1e-13, iters)
    return {"beta": beta, "sigma": sigma, "gamma": gamma, "alpha": alpha,
            "variant": variant,
            **_measured_columns(trace, reg, variant, gamma, alpha,
                                coordinate)}


def acceptance_alphas(delta: float) -> tuple[float, float, float]:
    """The standard relaxation probes: under-, un-, and near-maximal."""
    return 0.5, 1.0, 0.99 * 2.0 / (1.0 + delta)


def verify_grid(betas=None, sigma: float = 1.0) -> list[dict]:
    """Tightness sweep over smoothness constants ``betas`` (default 1, 4, 25
    and 100 times sigma), step sizes 0.2, 1 and 5 times 1/sqrt(beta*sigma),
    and relaxations; 120 iterations per point."""
    if betas is None:
        betas = [kappa * sigma for kappa in (1.0, 4.0, 25.0, 100.0)]
    rows = []
    for beta in betas:
        reg = Regularity(sigma=sigma, beta=beta)
        gamma_star = 1.0 / geometric_mean(reg.beta, reg.sigma, "beta*sigma")
        for ratio in (0.2, 1.0, 5.0):
            gamma = ratio * gamma_star
            delta = contraction_factor(reg, gamma)
            for alpha in acceptance_alphas(delta):
                rows.append(verify_point(reg.beta, reg.sigma, gamma, alpha))
    return rows


def divergence_distances(beta: float, sigma: float,
                         gamma: float) -> np.ndarray:
    """Distances to the fixed point over 100 iterations for alpha just beyond
    the feasible cap, alpha = 1.01 * 2/(1+delta)."""
    reg = Regularity(sigma=sigma, beta=beta)
    delta = contraction_factor(reg, gamma)
    alpha = 1.01 * 2.0 / (1.0 + delta)
    _, _, trace = _adversarial_run(reg, reg, gamma, alpha, None, None,
                                   1e-300, 100)
    return np.array(trace.distances)


def dual_verify_point(beta: float, sigma: float, theta: float, zeta: float,
                      gamma: float, alpha: float, *,
                      iters: int = 120) -> dict:
    """Adversarial constrained instance measured through the primal iteration.

    The adversarial case is selected in the dual constants; the measured
    contraction lives on z = gamma*(u - B y).
    """
    reg = Regularity(sigma=sigma, beta=beta)
    dreg = dual_constants(reg, theta, zeta).as_regularity()
    variant, coordinate, trace = _adversarial_run(reg, dreg, gamma, alpha,
                                                  theta, zeta, 1e-13, iters)
    return {"beta": beta, "sigma": sigma, "theta": theta, "zeta": zeta,
            "gamma": gamma, "alpha": alpha, "variant": variant,
            **_measured_columns(trace, dreg, variant, gamma, alpha,
                                coordinate)}
