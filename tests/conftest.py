"""Shared test oracles: brute-force 1-D minimization, catalog sampling and
the random stream drawn word by word.

The golden-section search is the independent oracle for prox correctness:
it minimizes the prox objective directly, never touching the closed-form
prox under test.  Likewise :class:`ReferenceStream` re-derives the documented
stream one draw at a time, never touching ``proxsplit.rng``'s bulk draws.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from proxsplit.prox import (
    Box,
    IndicatorAffine,
    IndicatorZero,
    ProxFn,
    PwlPenalty,
    Quadratic,
    QuadraticAffine,
    Separable,
    WeightedL1,
    Zero,
)


MASK = (1 << 64) - 1


def reference_word(seed: int, counter: int) -> int:
    # independent transcription of the documented mixing constants
    z = (seed + (counter + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


class ReferenceStream:
    """The documented stream drawn word by word from ``reference_word``."""

    def __init__(self, seed: int):
        self.seed, self.i, self.spare = seed, 0, None

    def word(self) -> int:
        self.i += 1
        return reference_word(self.seed, self.i - 1)

    def uniform(self) -> float:
        return (self.word() >> 11) * 2.0**-53

    def normal(self) -> float:
        if self.spare is not None:
            value, self.spare = self.spare, None
            return value
        u1, u2 = self.uniform(), self.uniform()
        r = math.sqrt(-2.0 * math.log(u1 if u1 != 0.0 else 2.0**-53))
        self.spare = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def sample(self, n: int, k: int) -> list[int]:
        pool = list(range(n))
        for j in range(k):
            pick = j + self.word() % (n - j)
            pool[j], pool[pick] = pool[pick], pool[j]
        return pool[:k]


def reference_lasso(spec):
    """A, b and the weights of ``gen_lasso(spec)`` drawn in the documented
    order, and the stream that drew them."""
    ref = ReferenceStream(spec.seed)
    a = np.zeros((spec.m, spec.n))
    for i in range(spec.m):
        for j in ref.sample(spec.n, spec.nnz_per_row):
            a[i, j] = ref.normal()
    b = np.array([ref.normal() for _ in range(spec.m)])
    w = np.array([ref.uniform() for _ in range(spec.n)])
    return a, b, w, ref


def golden_section(fun, lo: float, hi: float, tol: float = 1e-13,
                   max_iter: int = 500) -> float:
    """Argmin of a unimodal scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def prox_objective(f: ProxFn, gamma: float, z: np.ndarray):
    """The objective gamma*f(x) + 0.5*||x - z||^2 as a callable."""
    z = np.asarray(z, dtype=float)

    def obj(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return gamma * f(x) + 0.5 * float(np.sum((x - z) ** 2))

    return obj


def eval_longdouble(f: ProxFn, x):
    """Extended-precision evaluation of the 1-D catalog members.

    Golden-section argmin accuracy is limited by sqrt(eps(function value)),
    so the oracle evaluates in 80-bit arithmetic to push the noise floor
    well below the 1e-8 comparison tolerance.
    """
    x = np.longdouble(x)
    if isinstance(f, Quadratic):
        q = np.longdouble(f.Q[0, 0])
        lin = np.longdouble(f.q[0])
        return 0.5 * q * x * x + lin * x
    if isinstance(f, WeightedL1):
        return np.longdouble(f.w[0]) * abs(x)
    if isinstance(f, PwlPenalty):
        zero = np.longdouble(0.0)
        return np.longdouble(f.slope) * max(
            zero, x - np.longdouble(f.hi), np.longdouble(f.lo) - x)
    if isinstance(f, Zero):
        return np.longdouble(0.0)
    raise TypeError(f"no extended-precision evaluator for {f.kind}")


def golden_prox_1d(f: ProxFn, gamma: float, z: float,
                   bracket: tuple[float, float] | None = None) -> float:
    """Brute-force 1-D prox via golden-section on the prox objective."""
    if bracket is None:
        span = abs(z) + 10.0
        bracket = (z - span, z + span)
    gam = np.longdouble(gamma)
    zl = np.longdouble(z)

    def obj(x):
        x = np.longdouble(x)
        return gam * eval_longdouble(f, x) + 0.5 * (x - zl) ** 2

    return float(golden_section(obj, *bracket))


def sample_catalog_fn(rng: np.random.Generator, dim: int) -> ProxFn:
    """One random catalog member of the given dimension."""
    kind = rng.integers(0, 8)
    if kind == 0:
        m = rng.normal(size=(dim, dim))
        return Quadratic(m @ m.T + 0.1 * np.eye(dim), rng.normal(size=dim))
    if kind == 1:
        return Zero(dim)
    if kind == 2:
        return IndicatorZero(dim)
    if kind == 3:
        lo = rng.normal(size=dim)
        return Box(lo, lo + rng.uniform(0.1, 3.0, size=dim))
    if kind == 4:
        return WeightedL1(rng.uniform(0.0, 3.0, size=dim))
    if kind == 5:
        # half the draws give every coordinate its own band and slope
        size = dim if rng.integers(0, 2) else None
        lo = rng.normal(size=size)
        return PwlPenalty(lo, lo + rng.uniform(0.1, 2.0, size=size),
                          rng.uniform(0.0, 10.0, size=size), dim)
    if kind == 6:
        p = int(rng.integers(0, dim))
        lm = rng.normal(size=(p, dim))
        x_feas = rng.normal(size=dim)
        return IndicatorAffine(lm, lm @ x_feas)
    if dim >= 2:
        split = int(rng.integers(1, dim))
        return Separable([
            (0, split, WeightedL1(rng.uniform(0.0, 2.0, size=split))),
            (split, dim, Zero(dim - split)),
        ])
    return Zero(dim)


def sample_quadratic_affine(rng: np.random.Generator,
                            dim: int) -> QuadraticAffine:
    m = rng.normal(size=(dim, dim))
    p = max(1, dim // 2)
    lm = rng.normal(size=(p, dim))
    x_feas = rng.normal(size=dim)
    return QuadraticAffine(m @ m.T + 0.1 * np.eye(dim),
                           rng.normal(size=dim), lm, lm @ x_feas)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)
