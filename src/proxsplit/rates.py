"""Closed-form linear convergence rate mathematics.

Contraction factor of the reflected prox of a strongly convex smooth
function, the relaxed fixed-point rate bound it induces, the feasible
relaxation interval, parameter choices optimizing the bound, the dual
(constraint-aware) counterparts, iteration-count bounds, and the competing
closed-form rate bounds from earlier analyses.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (DimensionMismatchError, RankDeficiencyError,
                     UnboundedIterationError)
from .linmetric import _as_dense, _finite, _row_rank_svdvals, _step
from .linmetric import spectral_summary  # perfbench/tracer.py patches it


@dataclass(frozen=True)
class Regularity:
    """Strong convexity modulus sigma and smoothness constant beta.

    Requires 0 < sigma <= beta and a finite kappa = beta / sigma, the
    condition number; a function with both properties has beta >= sigma.
    """

    sigma: float
    beta: float

    def __post_init__(self):
        if not (0 < self.sigma <= self.beta < math.inf):
            raise ValueError("need 0 < sigma <= beta < inf")
        if self.kappa == math.inf:
            raise ValueError("kappa = beta/sigma overflows")

    @property
    def kappa(self) -> float:  # Python floats overflow to inf, no warning
        return float(self.beta) / float(self.sigma)


@dataclass(frozen=True)
class DualRegularity:
    """Regularity constants of the negative Fenchel dual of the smooth term.

    sigma_hat = theta^2 / beta and beta_hat = ||A||^2 / sigma in the
    Euclidean case; under a metric E they come from the extreme eigenvalues
    of E S E^T (see :func:`dual_of_spectrum`).
    """

    sigma_hat: float
    beta_hat: float

    def __post_init__(self):
        if not (0 < self.sigma_hat <= self.beta_hat < math.inf):
            raise ValueError("need 0 < sigma_hat <= beta_hat < inf")
        if self.kappa_hat == math.inf:
            raise ValueError("kappa_hat = beta_hat/sigma_hat overflows")

    @property
    def kappa_hat(self) -> float:  # as Python floats, like kappa
        return float(self.beta_hat) / float(self.sigma_hat)

    def as_regularity(self) -> Regularity:
        return Regularity(sigma=self.sigma_hat, beta=self.beta_hat)


def contraction_factor(reg: Regularity, gamma: float) -> float:
    """Contraction factor of the reflected prox at step size gamma.

    max((gamma*beta - 1)/(gamma*beta + 1), (1 - gamma*sigma)/(gamma*sigma + 1)),
    which always lies in [0, 1).  The first branch is active for
    gamma >= 1/sqrt(beta*sigma), the second below the kink; at the kink both
    agree to within one ulp and the max is returned.
    """
    _step(gamma)
    gb = gamma * reg.beta
    gs = gamma * reg.sigma
    # strictly below one mathematically; keep it so where the quotient
    # rounds to 1.0 (gamma*beta beyond ~9e15) or gamma*beta overflows
    if gb == math.inf:
        return math.nextafter(1.0, 0.0)
    value = max((gb - 1.0) / (gb + 1.0), (1.0 - gs) / (gs + 1.0))
    return min(value, math.nextafter(1.0, 0.0))


def rate_bound(delta: float, alpha: float) -> float:
    """Relaxed fixed-point iteration rate bound |1 - alpha| + alpha * delta.

    Values >= 1 signal that no contraction is guaranteed for that alpha.
    """
    if not 0 <= delta < 1:
        raise ValueError("delta must lie in [0, 1)")
    if math.isnan(alpha):
        raise ValueError("alpha must not be NaN")
    return abs(1.0 - alpha) + alpha * delta


def feasible_alpha_interval(delta: float) -> tuple[float, float]:
    """Open interval of relaxation parameters with a contractive bound."""
    if not 0 <= delta < 1:
        raise ValueError("delta must lie in [0, 1)")
    return (0.0, 2.0 / (1.0 + delta))


def geometric_mean(a: float, b: float, names: str) -> float:
    """math.sqrt(a * b) when the product is a positive normal float, else a
    ValueError naming the inputs (``names``), not a misreported step."""
    product = a * b
    if not 2.0 ** -1022 <= product < math.inf:
        raise ValueError(f"{names} = {a}*{b} is not a positive normal float")
    return math.sqrt(product)


def optimal_parameters(reg: Regularity) -> tuple[float, float, float]:
    """(gamma_star, alpha_star, rate_star) minimizing the rate bound.

    gamma_star = 1/sqrt(sigma*beta), alpha_star = 1, and the optimized rate
    is (sqrt(kappa) - 1)/(sqrt(kappa) + 1) with kappa = beta/sigma.
    """
    gamma_star = 1.0 / geometric_mean(reg.sigma, reg.beta, "sigma*beta")
    root = math.sqrt(reg.kappa)
    return gamma_star, 1.0, (root - 1.0) / (root + 1.0)


@dataclass(frozen=True)
class RateCertificate:
    """Contraction certificate for one step size, with the optimal choice.

    ``delta`` is the contraction factor at the certified gamma; feasible
    relaxations are (0, alpha_max) with alpha_max = 2/(1+delta);
    ``rate(alpha)`` evaluates the bound |1-alpha| + alpha*delta.  The
    gamma_star/alpha_star/rate_star triple optimizes the bound over all
    parameters, and rate_star = (sqrt(kappa)-1)/(sqrt(kappa)+1).
    """

    delta: float
    alpha_max: float
    gamma_star: float
    alpha_star: float
    rate_star: float
    kappa: float

    def __post_init__(self):
        if not 0 <= self.delta < 1:
            raise ValueError("delta must lie in [0, 1)")

    def rate(self, alpha: float) -> float:
        return rate_bound(self.delta, alpha)

    def to_json(self) -> dict:
        return asdict(self)  # the fields, in their order


def certificate(reg: Regularity, gamma: float) -> RateCertificate:
    """Build the rate certificate of ``reg`` at step size ``gamma``."""
    delta = contraction_factor(reg, gamma)
    return RateCertificate(delta, 2.0 / (1.0 + delta),
                           *optimal_parameters(reg), reg.kappa)


def dual_curvature(a, h) -> np.ndarray:
    """S = A H^-1 A^T, symmetrized, by one solve against H; NaN/inf raise."""
    a, h = _as_dense(a), _as_dense(h)
    if a.ndim != 2 or h.shape != (a.shape[1], a.shape[1]):
        raise DimensionMismatchError(f"A {a.shape} does not match H {h.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        try:
            s = a @ np.linalg.solve(_finite(h), _finite(a).T)
        except np.linalg.LinAlgError:
            raise RankDeficiencyError("singular H in S = A H^-1 A^T") from None
        s = 0.5 * (s + s.T)
    if not np.isfinite(s).all():
        raise ValueError("S = A H^-1 A^T overflows")
    return s


def dual_constants(reg: Regularity, theta: float,
                   zeta: float) -> DualRegularity:
    """Euclidean dual constants theta^2 / beta and zeta^2 / sigma of A's
    extreme singular values zeta >= theta > 0, an overflow refused by name."""
    if not zeta >= theta > 0:
        raise ValueError("need zeta >= theta > 0")
    try:
        sigma_hat, beta_hat = theta**2 / reg.beta, zeta**2 / reg.sigma
    except OverflowError:  # a float square past the largest double raises
        sigma_hat = beta_hat = math.inf  # which DualRegularity refuses
    return DualRegularity(sigma_hat=sigma_hat, beta_hat=beta_hat)


def dual_regularity(reg: Regularity, a) -> DualRegularity:
    """:func:`dual_constants` of A's extreme singular values (A must have
    full row rank); under a metric see dual_of_spectrum."""
    svals = _row_rank_svdvals(a)
    return dual_constants(reg, float(svals[-1]), float(svals[0]))


def dual_of_spectrum(summary) -> DualRegularity:
    """Metric-form dual constants: lambda_min and lambda_max of E S E^T."""
    if summary.lambda_min <= 0:
        raise RankDeficiencyError(
            "scaled A H^-1 A^T is singular; A must have full row rank")
    return DualRegularity(summary.lambda_min, summary.lambda_max)


def iteration_bound(rate: float, tol: float) -> int:
    """Smallest k with rate**k <= tol, i.e. ceil(ln tol / ln rate).

    Raises UnboundedIterationError when rate >= 1 (no finite guarantee).
    """
    if not 0 < tol < 1:
        raise ValueError("tol must lie in (0, 1)")
    if math.isnan(rate):
        raise ValueError("rate must not be NaN")
    if rate <= 0:
        return 1
    if rate >= 1:
        raise UnboundedIterationError(
            f"rate {rate} >= 1 guarantees no finite iteration count")
    return int(math.ceil(math.log(tol) / math.log(rate)))


def competing_rates(dual: DualRegularity) -> dict[str, float]:
    """Closed-form optimal rate bounds from this and earlier analyses.

    Keys: ``tight`` is (sqrt(kappa)-1)/(sqrt(kappa)+1), the tight bound this
    toolkit certifies; ``lions_mercier`` is sqrt(1 - sigma/(2*beta));
    ``davis_yin`` is sqrt(1 - sigma/beta); ``deng_yin`` is
    sqrt(1/(1 + 1/sqrt(kappa))); ``giselsson_boyd_admm_qp_equiv`` coincides
    with ``tight`` (the QP-specific analysis reaching the same constant).
    All in the dual constants sigma_hat, beta_hat, kappa_hat.
    """
    kappa = dual.kappa_hat
    ratio = dual.sigma_hat / dual.beta_hat
    root = math.sqrt(kappa)
    tight = (root - 1.0) / (root + 1.0)
    return {
        "tight": tight,
        "lions_mercier": math.sqrt(1.0 - 0.5 * ratio),
        "davis_yin": math.sqrt(1.0 - ratio),
        "deng_yin": math.sqrt(1.0 / (1.0 + 1.0 / root)),
        "giselsson_boyd_admm_qp_equiv": tight,
    }
