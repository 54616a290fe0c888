"""Drawn DR and ADMM problems: a solve that reports ``converged`` has a
finite ``x_final``, whatever the step size and relaxation, and every DR
step, and every ADMM step in the dual coordinate with or without a selected
metric, contracts toward the fixed point at no more than the certified
rate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from proxsplit.admm import EqConstrainedProblem, admm_solve
from proxsplit.bench import problem_dual_regularity
from proxsplit.linmetric import DiagonalMetric
from proxsplit.metric import select_diagonal_metric
from proxsplit.prox import (Box, IndicatorZero, PwlPenalty, Quadratic,
                            WeightedL1, Zero)
from proxsplit.rates import (Regularity, contraction_factor,
                             optimal_parameters, rate_bound)
from proxsplit.splitting import dr_solve

SEED = st.integers(min_value=0, max_value=2**32 - 1)
LOG_GAMMA = st.floats(min_value=-2.0, max_value=2.0)
# up to just below 2, where the growth per step stays below 3: 300 steps
# stay far from overflow, and both outcomes are drawn
ALPHA = st.floats(min_value=0.05, max_value=1.99)


def _nonsmooth(rng: np.random.Generator, dim: int):
    kind = rng.integers(0, 5)
    if kind == 0:
        return Zero(dim)
    if kind == 1:
        return IndicatorZero(dim)
    if kind == 2:
        lo = rng.normal(size=dim)
        return Box(lo, lo + rng.uniform(0.1, 3.0, size=dim))
    if kind == 3:
        return WeightedL1(rng.uniform(0.0, 3.0, size=dim))
    lo = rng.normal(size=dim)
    return PwlPenalty(lo, lo + rng.uniform(0.1, 2.0, size=dim),
                      rng.uniform(0.0, 10.0, size=dim), dim)


def _strongly_convex(rng: np.random.Generator, dim: int) -> Quadratic:
    m = rng.normal(size=(dim, dim))
    return Quadratic(m @ m.T + 0.1 * np.eye(dim), rng.normal(size=dim))


def _spd_quadratic(rng: np.random.Generator, dim: int, sigma: float,
                   kappa: float) -> Quadratic:
    """0.5 x^T Q x + q^T x, Q dense with its spectrum in [sigma,
    sigma*kappa]; both ends are eigenvalues when dim >= 2."""
    inner = sigma * kappa ** rng.uniform(size=max(dim - 2, 0))
    lam = np.concatenate([[sigma, sigma * kappa], inner])[:dim]
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return Quadratic(u @ np.diag(lam) @ u.T, rng.normal(size=dim))


def _check(trace) -> None:
    assert not trace.converged or np.isfinite(trace.x_final).all(), trace


@settings(max_examples=50, deadline=None, derandomize=True)
@given(SEED, st.integers(min_value=1, max_value=4), LOG_GAMMA, ALPHA)
def test_drawn_dr_convergence_has_a_finite_solution(seed, n, log_gamma,
                                                    alpha):
    rng = np.random.default_rng(seed)
    f, g = _strongly_convex(rng, n), _nonsmooth(rng, n)
    _check(dr_solve(f, g, 10.0**log_gamma, alpha, rng.normal(size=n),
                    tol=1e-8, max_iters=300))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(SEED, st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4), LOG_GAMMA, ALPHA)
def test_drawn_admm_convergence_has_a_finite_solution(seed, n, p, log_gamma,
                                                      alpha):
    p = min(p, n)  # A of p <= n rows has full row rank almost surely
    rng = np.random.default_rng(seed)
    problem = EqConstrainedProblem(
        f=_strongly_convex(rng, n), g=_nonsmooth(rng, p),
        A=rng.normal(size=(p, n)), B=-np.eye(p), c=rng.normal(size=p))
    _check(admm_solve(problem, 10.0**log_gamma, alpha, tol=1e-8,
                      max_iters=300)[-1])


# The certificate as a property of the class (Giselsson, J. Fixed Point
# Theory Appl. 2017; Ryu, Taylor, Bergeling and Giselsson, SIAM J. Optim.
# 2020): for a sigma-strongly convex, beta-smooth f, any g of the catalog,
# any gamma and alpha in (0, 2/(1+delta)), the relaxed DR map is
# Lipschitz with constant rate_bound(delta, alpha), so every step's
# distance ratio to the fixed point z* is at most that.  z* = x* +
# gamma*grad f(x*), with x* from a DR solve at gamma* and alpha 1 run to
# tol 1e-15.  Rounding leaves z* off by about 1e-14 of ||z0 - z*||, so a
# ratio is checked while its distance is above 1e-4 of the first one, where
# that error moves it by under RATE_SLACK; over 200 draws at most 2e-10.
RATE_SLACK = 1e-9


@settings(max_examples=100, deadline=None, derandomize=True)
@given(SEED, st.integers(min_value=1, max_value=4),
       st.floats(min_value=0.0, max_value=4.0),  # log10 kappa
       st.floats(min_value=-1.0, max_value=1.0),  # log10 sigma
       st.floats(min_value=-1.5, max_value=1.5),  # log10 gamma/gamma*
       st.floats(min_value=0.01, max_value=0.99))  # alpha over its cap
def test_drawn_dr_steps_contract_at_the_certified_rate(
        seed, n, log_kappa, log_sigma, log_ratio, share):
    rng = np.random.default_rng(seed)
    f = _spd_quadratic(rng, n, 10.0**log_sigma, 10.0**log_kappa)
    g = _nonsmooth(rng, n)
    reg = Regularity(*f.regularity)
    gamma_star = optimal_parameters(reg)[0]
    x = dr_solve(f, g, gamma_star, 1.0, np.zeros(n), tol=1e-15,
                 max_iters=4000).x_final
    gamma = gamma_star * 10.0**log_ratio
    delta = contraction_factor(reg, gamma)
    alpha = share * 2.0 / (1.0 + delta)
    z_star = x + gamma * (f.Q @ x + f.q)
    trace = dr_solve(f, g, gamma, alpha, z_star + 10.0 * rng.normal(size=n),
                     tol=1e-14, max_iters=300, reference=z_star)
    d = trace.distances
    checked = [r for r, dk in zip(trace.contraction_ratios, d)
               if dk >= 1e-4 * d[0]]
    assert checked
    assert max(checked) <= rate_bound(delta, alpha) + RATE_SLACK


# The same property on the Fenchel dual, through ADMM: from a consistent
# start its z = gamma*(u - B y) is the relaxed DR iterate on the dual pair,
# whose smooth term is sigma_hat-strongly convex and beta_hat-smooth, the
# extreme eigenvalues of E S E^T for S = A Q^-1 A^T and the rows of the
# constraint scaled by E.  The fixed point at gamma is z* = lambda* -
# gamma*B y*, with the multiplier lambda* = gamma_star*u and y* from a
# solve at the dual gamma_star and alpha 1.  The drawn kappa_hat is at most
# 10*cond(A)^2 <= 10**2.6, where that solve's rate is below 0.91, so
# REFERENCE_ITERS steps leave z* at rounding; over 2,000 draws the largest
# excess of a checked ratio was 1.5e-10, under the same RATE_SLACK.
REFERENCE_ITERS = 600


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SEED, st.integers(min_value=2, max_value=4),
       st.integers(min_value=1, max_value=4),
       st.floats(min_value=0.0, max_value=1.0),  # log10 kappa of f
       st.floats(min_value=-1.5, max_value=1.5),  # log10 gamma/gamma*
       st.floats(min_value=0.01, max_value=0.99),  # alpha over its cap
       st.booleans())  # the selected metric, else the identity
def test_drawn_admm_steps_contract_at_the_certified_dual_rate(
        seed, n, p, log_kappa, log_ratio, share, metric):
    p = min(p, n)
    rng = np.random.default_rng(seed)
    f = _spd_quadratic(rng, n, 10.0**rng.uniform(-1.0, 1.0), 10.0**log_kappa)
    # orthonormal rows of uneven scale: full row rank, cond(A) <= 10**0.8,
    # and a metric has something to equilibrate
    a = (10.0**rng.uniform(-0.4, 0.4, size=(p, 1))
         * np.linalg.qr(rng.normal(size=(n, n)))[0][:p])
    problem = EqConstrainedProblem(f=f, g=_nonsmooth(rng, p), A=a,
                                   B=-np.eye(p), c=rng.normal(size=p))
    e = (select_diagonal_metric(problem.dual_spectra) if metric
         else DiagonalMetric.identity(p))
    scaled = problem.scaled(e)
    dual = problem_dual_regularity(problem, e).as_regularity()
    gamma_star = optimal_parameters(dual)[0]
    _, y, u, _ = admm_solve(scaled, gamma_star, 1.0, tol=1e-300,
                            max_iters=REFERENCE_ITERS)
    gamma = gamma_star * 10.0**log_ratio
    delta = contraction_factor(dual, gamma)
    alpha = share * 2.0 / (1.0 + delta)
    z_star = gamma_star * u - gamma * (scaled.B @ y)
    trace = admm_solve(scaled, gamma, alpha, tol=1e-14, max_iters=300,
                       z0=z_star + 10.0 * rng.normal(size=p),
                       reference=z_star)[-1]
    d = trace.distances
    checked = [r for r, dk in zip(trace.contraction_ratios, d)
               if dk >= 1e-4 * d[0]]
    assert checked
    assert max(checked) <= rate_bound(delta, alpha) + RATE_SLACK


# A general A, where no reference z* is cheap to reach: if the relaxed map
# T is r-Lipschitz, ||z^{k+2} - z^{k+1}|| <= r ||z^{k+1} - z^k||, so from a
# start taken through the consistent initialization (z^1 = T z^0) each
# ratio of successive residuals checks rate_bound without z*.  A = U diag(s)
# V^T with singular values spread up to 10^2 and f's kappa up to 10^2 draw
# kappa_hat up to about 10^5; ratios below 1e-4 of the first residual are
# rounding, not contraction, and are not checked.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(SEED, st.integers(min_value=2, max_value=6),
       st.integers(min_value=1, max_value=6),
       st.floats(min_value=0.0, max_value=2.0),  # log10 kappa of f
       st.floats(min_value=0.0, max_value=2.0),  # log10 spread of A's s
       st.floats(min_value=-1.5, max_value=1.5),  # log10 gamma/gamma*
       st.floats(min_value=0.01, max_value=0.99),  # alpha over its cap
       st.booleans())  # the selected metric, else the identity
def test_drawn_admm_residual_ratios_stay_under_the_certified_rate(
        seed, n, p, log_kappa, log_spread, log_ratio, share, metric):
    p = min(p, n)
    rng = np.random.default_rng(seed)
    f = _spd_quadratic(rng, n, 10.0**rng.uniform(-1.0, 1.0), 10.0**log_kappa)
    ends = np.concatenate([[0.0, 1.0], rng.uniform(size=p)])[:p]
    s = 10.0**(rng.uniform(-1.0, 1.0) + log_spread * ends)
    u = np.linalg.qr(rng.normal(size=(p, p)))[0]
    v = np.linalg.qr(rng.normal(size=(n, n)))[0][:p]
    problem = EqConstrainedProblem(f=f, g=_nonsmooth(rng, p), A=u * s @ v,
                                   B=-np.eye(p), c=rng.normal(size=p))
    e = (select_diagonal_metric(problem.dual_spectra) if metric
         else DiagonalMetric.identity(p))
    dual = problem_dual_regularity(problem, e).as_regularity()
    gamma = optimal_parameters(dual)[0] * 10.0**log_ratio
    delta = contraction_factor(dual, gamma)
    alpha = share * 2.0 / (1.0 + delta)
    res = admm_solve(problem.scaled(e), gamma, alpha, tol=1e-14,
                     max_iters=300, z0=rng.normal(size=p))[-1].residuals
    checked = [later / now for now, later in zip(res, res[1:])
               if later >= 1e-4 * res[0]]
    assert max(checked, default=0.0) <= rate_bound(delta, alpha) + RATE_SLACK
