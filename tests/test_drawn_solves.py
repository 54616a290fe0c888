"""Drawn DR and ADMM problems: a solve that reports ``converged`` has a
finite ``x_final``, whatever the step size and relaxation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from proxsplit.admm import EqConstrainedProblem, admm_solve
from proxsplit.prox import (Box, IndicatorZero, PwlPenalty, Quadratic,
                            WeightedL1, Zero)
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
