"""Catalog of functions with closed-form proximal operators.

Every member exposes evaluation, ``prox``, the reflected prox
``2*prox - id``, and the conjugate prox through the Moreau identity.  The
catalog covers quadratics (optionally restricted to an affine set), the zero
function, indicators of {0} and of affine sets, box indicators, weighted l1
norms, piecewise-linear band penalties (band and slope shared or given per
coordinate), and separable compositions.

All instances are immutable and safe to share between threads.  A prox's
step-size constants are cached per gamma (a quadratic's factorization and
bound LAPACK solve, WeightedL1's thresholds, PwlPenalty's shift and edges),
read without a lock, which is taken only to build a missing entry.  Nothing
derived from ``q`` or ``b`` is cached: they may be rewritten in place.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import (
    CapabilityError,
    DimensionMismatchError,
    InfeasibleConstraintError,
    SingularKktError,
)
from .linmetric import (MetricSpectra, _as_dense, _check_symmetric, _finite,
                        _json_index, _json_object, _json_scalar_or_vector,
                        _json_vector, _normal_step, matrix_from_json,
                        matrix_to_json, spectral_summary)
from .rates import dual_curvature


def _cho_solver(a: np.ndarray) -> Callable:
    """x = solve(rhs) for a x = rhs through scipy's Cholesky factor of a.

    ``solve`` checks rhs for NaN/inf and calls the LAPACK ``potrs`` that
    ``scipy.linalg.cho_solve(cho_factor(a), rhs)`` calls, bound here once,
    so it returns the same bits without the wrapper's per-call cost.
    """
    c, lower = scipy.linalg.cho_factor(a)
    potrs, = scipy.linalg.get_lapack_funcs(("potrs",), (c,))

    def solve(rhs: np.ndarray) -> np.ndarray:
        x, info = potrs(c, _finite(rhs), lower=lower)
        if info:
            raise ValueError(f"illegal value in argument {-info} of potrs")
        return x

    return solve


def _lu_solver(a: np.ndarray) -> Callable:
    """x = solve(rhs) for a x = rhs through scipy's LU factor of a.

    As :func:`_cho_solver`, with the ``getrs`` of ``scipy.linalg.lu_solve``.
    """
    lu, piv = scipy.linalg.lu_factor(a)
    if not lu.size:  # LAPACK refuses n = 0, where scipy solves to empty
        return lambda rhs: np.empty_like(_finite(rhs))
    getrs, = scipy.linalg.get_lapack_funcs(("getrs",), (lu,))

    def solve(rhs: np.ndarray) -> np.ndarray:
        x, info = getrs(lu, piv, _finite(rhs))
        if info:
            raise ValueError(f"illegal value in argument {-info} of getrs")
        return x

    return solve


def _named_factor(solver: Callable, a: np.ndarray, name: str, gamma: float,
                  error: type) -> Callable:
    """solver(a); if that fails on a non-finite a, ``error`` names a, gamma."""
    try:
        return solver(a)
    except ValueError as exc:
        if np.isfinite(a).all():
            raise
        raise error(f"{name} is not finite at gamma = {gamma}") from exc


def _per_gamma(fn, gamma: float, build: Callable):
    """fn's constants for gamma, read without fn's lock; ``build(gamma)``
    makes missing ones under the lock, re-checked there, so it runs once."""
    got = fn._cache.get(gamma)
    if got is None:
        with fn._lock:
            got = fn._cache.get(gamma)
            if got is None:
                got = fn._cache[gamma] = build(gamma)
    return got


class ProxFn:
    """Base class; subclasses implement ``__call__`` and ``prox``."""

    #: intrinsic dimension, or None when the function works on any dimension
    dim: int | None = None
    #: (sigma, beta) strong convexity / smoothness pair when known
    regularity: tuple[float, float] | None = None
    kind = "abstract"

    def _check_point(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.ndim != 1:
            raise DimensionMismatchError("prox queries expect 1-d points")
        if self.dim is not None and z.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"{self.kind} expects dimension {self.dim}, got {z.shape[0]}")
        return z

    def _check(self, gamma: float, z: np.ndarray) -> np.ndarray:
        """The prox query z as a checked point, after 0 < gamma < inf."""
        if not 0 < gamma < np.inf:
            raise ValueError("gamma must be positive and finite")
        return self._check_point(z)

    def __call__(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def prox(self, gamma: float, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def reflect(self, gamma: float, z: np.ndarray) -> np.ndarray:
        """Reflected prox 2*prox(gamma, z) - z."""
        z = np.asarray(z, dtype=float)
        return 2.0 * self.prox(gamma, z) - z

    def conjugate_prox(self, gamma: float, z: np.ndarray) -> np.ndarray:
        """Prox of gamma times the convex conjugate, via Moreau's identity."""
        _normal_step(gamma)
        z = np.asarray(z, dtype=float)
        return z - gamma * self.prox(1.0 / gamma, z / gamma)

    def to_json(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        dim = "*" if self.dim is None else self.dim
        return f"{type(self).__name__}(dim={dim})"


class Quadratic(ProxFn):
    """f(x) = 0.5 x^T Q x + q^T x with symmetric psd Q.

    The prox solves (gamma*Q + I) x = z - gamma*q with a Cholesky
    factorization and its LAPACK solve, cached per gamma.  Regularity
    metadata is the extreme eigenvalue pair of Q (one symmetry check).
    """

    kind = "quadratic"

    def __init__(self, q_matrix, q_vector=None):
        spectra = MetricSpectra(q_matrix)
        qm, n = spectra.s, spectra.s.shape[0]
        qv = np.zeros(n) if q_vector is None else np.asarray(q_vector, float)
        if qv.shape != (n,):
            raise DimensionMismatchError("q must match Q's dimension")
        summary = spectral_summary(spectra)  # ValueError unless Q is psd
        self.Q, self.q, self.dim = qm, qv, n
        self.regularity = (summary.lambda_min, summary.lambda_max)
        self._cache, self._lock = {}, threading.Lock()

    def __call__(self, x: np.ndarray) -> float:
        x = self._check_point(x)
        return float(0.5 * x @ self.Q @ x + self.q @ x)

    def _factor(self, gamma: float) -> Callable:
        return _named_factor(_cho_solver, gamma * self.Q + np.eye(self.dim),
                             "gamma*Q + I", gamma, ValueError)

    def prox(self, gamma: float, z: np.ndarray) -> np.ndarray:
        z = self._check(gamma, z)
        return _per_gamma(self, gamma, self._factor)(z - gamma * self.q)

    def to_json(self) -> dict:
        return {"kind": self.kind, "Q": matrix_to_json(self.Q),
                "q": self.q.tolist()}


class QuadraticAffine(ProxFn):
    """Quadratic plus the indicator of an affine set {x : L x = b}.

    f(x) = 0.5 x^T Q x + q^T x restricted to L x = b.  The prox is the
    equality-constrained least squares solve through the saddle system
    [[gamma*Q + I, L^T], [L, 0]], whose LU factorization and LAPACK solve
    are cached per gamma.
    """

    kind = "quadratic_affine"

    def __init__(self, q_matrix, q_vector, l_matrix, b_vector):
        qm = _check_symmetric(_as_dense(q_matrix))
        n = qm.shape[0]
        qv = np.zeros(n) if q_vector is None else np.asarray(q_vector, float)
        lm = _as_dense(l_matrix)
        if lm.size == 0:
            lm = lm.reshape(0, n)
        bv = np.asarray(b_vector, dtype=float).ravel()
        if qv.shape != (n,) or lm.shape[1] != n or bv.shape != lm.shape[:1]:
            raise DimensionMismatchError("q, L, b shapes inconsistent with Q")
        self.Q, self.q, self.L, self.b, self.dim = qm, qv, lm, bv, n
        self._cache, self._lock = {}, threading.Lock()

    def __call__(self, x: np.ndarray) -> float:
        x = self._check_point(x)
        if self.L.shape[0] and np.linalg.norm(
                self.L @ x - self.b, np.inf) > 1e-9 * max(
                    1.0, np.abs(self.b).max(initial=0.0)):
            return np.inf
        return float(0.5 * x @ self.Q @ x + self.q @ x)

    def _factor(self, gamma: float) -> Callable:
        p = self.L.shape[0]
        return _named_factor(_lu_solver, np.block([
            [gamma * self.Q + np.eye(self.dim), self.L.T],
            [self.L, np.zeros((p, p))]]), "[[gamma*Q + I, L^T], [L, 0]]",
            gamma, SingularKktError)

    def prox(self, gamma: float, z: np.ndarray) -> np.ndarray:
        z = self._check(gamma, z)
        p = self.L.shape[0]
        rhs = np.concatenate([z - gamma * self.q, self.b])
        x = _per_gamma(self, gamma, self._factor)(rhs)[:self.dim]
        if p and np.count_nonzero(np.isfinite(x)) != x.size:
            raise SingularKktError("prox system solved to non-finite values",
                                   size=self.dim + p)
        return x

    def to_json(self) -> dict:
        return {"kind": self.kind, "Q": matrix_to_json(self.Q),
                "q": self.q.tolist(), "L": matrix_to_json(self.L),
                "b": self.b.tolist()}


class Zero(ProxFn):
    """The identically-zero function; its prox is the identity map."""

    kind = "zero"

    def __init__(self, dim: int | None = None):
        self.dim = dim

    def __call__(self, x: np.ndarray) -> float:
        self._check_point(x)
        return 0.0

    def prox(self, gamma: float, z: np.ndarray) -> np.ndarray:
        return self._check(gamma, z).copy()

    def to_json(self) -> dict:
        return {"kind": self.kind, "dim": self.dim}


class IndicatorZero(ProxFn):
    """Indicator of the origin; prox maps everything to 0."""

    kind = "indicator_zero"

    def __init__(self, dim: int | None = None):
        self.dim = dim

    def __call__(self, x: np.ndarray) -> float:
        x = self._check_point(x)
        return 0.0 if not x.size or np.abs(x).max() == 0.0 else np.inf

    def prox(self, gamma: float, z: np.ndarray) -> np.ndarray:
        return np.zeros(self._check(gamma, z).shape)

    def to_json(self) -> dict:
        return {"kind": self.kind, "dim": self.dim}


class IndicatorAffine(ProxFn):
    """Indicator of {x : L x = b}; prox is Euclidean projection onto it.

    Raises InfeasibleConstraintError at construction when the set is empty
    (b outside the range of L).
    """

    kind = "indicator_affine"

    def __init__(self, l_matrix, b_vector):
        lm = _as_dense(l_matrix)
        bv = np.asarray(b_vector, dtype=float).ravel()
        if lm.ndim != 2 or bv.shape[0] != lm.shape[0]:
            raise DimensionMismatchError("L and b shapes are inconsistent")
        self.L, self.b, self.dim = lm, bv, lm.shape[1]
        self._pinv = np.linalg.pinv(lm)
        if np.linalg.norm(lm @ (self._pinv @ bv) - bv) > 1e-8 * max(
                1.0, float(np.linalg.norm(bv))):
            raise InfeasibleConstraintError(
                "no point satisfies L x = b (b outside range of L)")

    def __call__(self, x: np.ndarray) -> float:
        x = self._check_point(x)
        if self.L.shape[0] == 0:
            return 0.0
        resid = np.linalg.norm(self.L @ x - self.b, np.inf)
        return 0.0 if resid <= 1e-9 * max(
            1.0, np.abs(self.b).max(initial=0.0)) else np.inf

    def prox(self, gamma: float, z: np.ndarray) -> np.ndarray:
        z = self._check(gamma, z)
        return z - self._pinv @ (self.L @ z - self.b)

    def to_json(self) -> dict:
        return {"kind": self.kind, "L": matrix_to_json(self.L),
                "b": self.b.tolist()}


class Box(ProxFn):
    """Indicator of the box [lo, hi]; prox clips coordinatewise."""

    kind = "box"

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float).ravel()
        hi = np.asarray(hi, dtype=float).ravel()
        if lo.shape != hi.shape:
            raise DimensionMismatchError("lo and hi must have equal length")
        if not np.all(lo <= hi):  # NaN fails too
            raise ValueError("need lo <= hi elementwise")
        self.lo, self.hi, self.dim = lo, hi, lo.shape[0]

    def __call__(self, x: np.ndarray) -> float:
        x = self._check_point(x)
        inside = np.all(x >= self.lo - 1e-12) and np.all(x <= self.hi + 1e-12)
        return 0.0 if inside else np.inf

    def prox(self, gamma: float, z: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(self._check(gamma, z), self.lo), self.hi)

    def to_json(self) -> dict:
        return {"kind": self.kind, "lo": self.lo.tolist(),
                "hi": self.hi.tolist()}


class WeightedL1(ProxFn):
    """f(x) = sum_i w_i |x_i| with nonnegative weights; prox soft-thresholds."""

    kind = "weighted_l1"

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float).ravel()
        if not np.all((0 <= w) & (w < np.inf)):
            raise ValueError("weights must be finite and nonnegative")
        self.w, self.dim = w, w.shape[0]
        self._cache, self._lock = {}, threading.Lock()

    def __call__(self, x: np.ndarray) -> float:
        return float(self.w @ np.abs(self._check_point(x)))

    def prox(self, gamma: float, z: np.ndarray) -> np.ndarray:
        z = self._check(gamma, z)
        thresh = _per_gamma(self, gamma, lambda g: g * self.w)
        return np.sign(z) * np.maximum(np.abs(z) - thresh, 0.0)

    def to_json(self) -> dict:
        return {"kind": self.kind, "w": self.w.tolist()}


class PwlPenalty(ProxFn):
    """Penalty sum_i s_i * max(0, x_i - hi_i, lo_i - x_i) (soft band [lo, hi]).

    ``lo``, ``hi`` and ``slope`` are each a scalar shared by every coordinate
    or a length-``dim`` array giving one value per coordinate; ``dim`` is
    inferred from the array parameters when omitted.  The prox shrinks toward
    the band: with t = gamma*s, points beyond the band by more than t move in
    by t, points within t of the band land on the nearest edge, and points
    inside the band stay put.  :func:`diag_scale` merges adjacent members of
    a ``Separable`` into one.
    """

    kind = "pwl_penalty"

    def __init__(self, lo, hi, slope, dim: int | None = None):
        lo, hi, slope = (float(v) if np.ndim(v) == 0
                         else np.asarray(v, dtype=float).ravel()
                         for v in (lo, hi, slope))
        sizes = {np.size(v) for v in (lo, hi, slope) if np.ndim(v)}
        if dim is not None:
            sizes.add(dim)
        if len(sizes) > 1:
            raise DimensionMismatchError(
                f"lo, hi, slope and dim disagree on the dimension: {sizes}")
        if not np.all((lo <= hi) & (lo < np.inf) & (-np.inf < hi)):
            raise ValueError("need lo <= hi elementwise, lo < inf, hi > -inf")
        if not np.all((0 <= slope) & (slope < np.inf)):
            raise ValueError("slope must be finite and nonnegative")
        self.lo, self.hi, self.slope = lo, hi, slope
        self.dim = sizes.pop() if sizes else None
        self._cache, self._lock = {}, threading.Lock()

    def __call__(self, x: np.ndarray) -> float:
        x = self._check_point(x)
        over = np.maximum(x - self.hi, 0.0)
        under = np.maximum(self.lo - x, 0.0)
        return float(np.sum(self.slope * (over + under)))

    def _edges(self, gamma: float) -> tuple:
        t = gamma * self.slope
        return t, self.hi + t, self.lo - t

    def prox(self, gamma: float, z: np.ndarray) -> np.ndarray:
        z = self._check(gamma, z)
        t, above, below = _per_gamma(self, gamma, self._edges)
        # a select, not a clamp (np.maximum(-0.0, 0.0) is +0.0): the first
        # true case of the four wins, so they are written last to first
        out = z.copy()
        np.copyto(out, self.lo, where=z < self.lo)
        np.copyto(out, z + t, where=z < below)
        np.copyto(out, self.hi, where=z > self.hi)
        np.copyto(out, z - t, where=z > above)
        return out

    def to_json(self) -> dict:
        # tolist() gives back a plain float for the scalar form
        lo, hi, slope = (np.asarray(v).tolist()
                         for v in (self.lo, self.hi, self.slope))
        return {"kind": self.kind, "lo": lo, "hi": hi, "slope": slope,
                "dim": self.dim}


class Separable(ProxFn):
    """Sum of catalog members acting on disjoint index ranges.

    ``members`` is a list of (start, stop, fn) covering [0, dim) without
    gaps or overlaps; the prox applies each member prox on its slice.
    """

    kind = "separable"

    def __init__(self, members: list[tuple[int, int, ProxFn]]):
        members = sorted(((int(a), int(b), f) for a, b, f in members),
                         key=lambda m: m[0])
        if not members:
            raise ValueError("Separable needs at least one member")
        pos = 0
        for start, stop, fn in members:
            if start != pos or stop <= start:
                raise ValueError(
                    "member ranges must be disjoint, ascending, and cover "
                    "[0, dim) without gaps")
            if fn.dim is not None and fn.dim != stop - start:
                raise DimensionMismatchError(
                    f"member of kind {fn.kind} has dim {fn.dim}, "
                    f"range has length {stop - start}")
            pos = stop
        self.members = tuple(members)
        self.dim = pos

    def __call__(self, x: np.ndarray) -> float:
        x = self._check_point(x)
        return float(sum(fn(x[a:b]) for a, b, fn in self.members))

    def prox(self, gamma: float, z: np.ndarray) -> np.ndarray:
        z = self._check(gamma, z)
        out = np.empty_like(z)
        for a, b, fn in self.members:
            out[a:b] = fn.prox(gamma, z[a:b])
        return out

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "members": [{"start": a, "stop": b, "fn": fn.to_json()}
                            for a, b, fn in self.members]}


class ConjugateOf(ProxFn):
    """The convex conjugate of a catalog member, prox via Moreau's identity.

    Used to run the splitting engine on dual formulations; not part of the
    JSON wire catalog.
    """

    kind = "conjugate"

    def __init__(self, inner: ProxFn):
        self.inner = inner
        self.dim = inner.dim

    def __call__(self, x: np.ndarray) -> float:
        raise CapabilityError(
            "conjugate values are not evaluable in closed form in general")

    def prox(self, gamma: float, z: np.ndarray) -> np.ndarray:
        return self.inner.conjugate_prox(gamma, z)


def strongly_convex(f: ProxFn) -> Quadratic:
    """``f`` itself if it is a positive definite Quadratic, the smooth term
    every rate certificate needs; anything else raises CapabilityError."""
    if not isinstance(f, Quadratic) or not f.regularity[0] > 0:
        raise CapabilityError("no rate certificate: the smooth term is not "
                              "a strongly convex quadratic")
    return f


def dual_quadratic(f: ProxFn, a, c) -> Quadratic:
    """The smooth dual term of a strictly convex quadratic, as a Quadratic.

    d1(mu) = f^*(-A^T mu) + <c, mu>
           = 0.5 mu^T (A Q^-1 A^T) mu + (A Q^-1 q + c)^T mu up to an
    additive constant, so ``prox(gamma, z)`` of the result is the prox of
    gamma*d1: it solves (gamma A Q^-1 A^T + I) mu = z - gamma (A Q^-1 q + c).
    """
    f = strongly_convex(f)
    a = _as_dense(a)
    if a.shape[1] != f.dim:
        raise DimensionMismatchError("A must have as many columns as f's dim")
    c = (np.zeros(a.shape[0]) if c is None
         else np.asarray(c, dtype=float).ravel())
    if c.shape[0] != a.shape[0]:
        raise DimensionMismatchError("c must match A's row count")
    lin = a @ scipy.linalg.solve(f.Q, f.q, assume_a="pos") + c
    return Quadratic(dual_curvature(a, f.Q), lin)


def _band(lo, hi, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The interval {s * x : lo <= x <= hi} per coordinate, for nonzero s."""
    up = s > 0
    return np.where(up, lo * s, hi * s), np.where(up, hi * s, lo * s)


def diag_scale(f: ProxFn, s: np.ndarray) -> ProxFn:
    """The function t -> f(S^-1 t) for a diagonal S = diag(s), s nonzero.

    ``s`` is one signed vector: each coordinate may have its own sign.
    Every catalog kind stays inside the catalog under this change of
    variables, which is what makes diagonal constraint scalings solvable in
    prox form.  Adjacent ``PwlPenalty`` members of a ``Separable`` merge
    into one, with the same prox bits; ``f`` and its wire format stay as is.
    """
    s = np.asarray(s, dtype=float).ravel()
    if not np.all(np.abs(s) > 0):
        raise ValueError("diagonal entries must be nonzero")
    if f.dim is not None and f.dim != s.shape[0]:
        raise DimensionMismatchError("diagonal length does not match f")
    sinv = 1.0 / s
    if isinstance(f, (Zero, IndicatorZero)):
        return type(f)(s.shape[0])
    if isinstance(f, WeightedL1):
        return WeightedL1(f.w / np.abs(s))
    if isinstance(f, Box):
        return Box(*_band(f.lo, f.hi, s))
    if isinstance(f, PwlPenalty):
        return PwlPenalty(*_band(f.lo, f.hi, s), f.slope / np.abs(s),
                          s.shape[0])
    if isinstance(f, Quadratic):
        return Quadratic(f.Q * np.outer(sinv, sinv), f.q * sinv)
    if isinstance(f, QuadraticAffine):
        return QuadraticAffine(f.Q * np.outer(sinv, sinv), f.q * sinv,
                               f.L * sinv[None, :], f.b)
    if isinstance(f, IndicatorAffine):
        return IndicatorAffine(f.L / s[None, :], f.b)
    if isinstance(f, Separable):
        out = []
        for a, b, fn in f.members:
            fn, last = diag_scale(fn, s[a:b]), out and out[-1][2]
            if isinstance(fn, PwlPenalty) and isinstance(last, PwlPenalty):
                a = out.pop()[0]
                fn = PwlPenalty(*map(np.concatenate, zip(
                    (last.lo, last.hi, last.slope), (fn.lo, fn.hi, fn.slope))))
            out.append((a, b, fn))
        return Separable(out)
    raise CapabilityError(
        f"no diagonal scaling rule for catalog kind {f.kind!r}")


def proxfn_from_json(obj: dict) -> ProxFn:
    """Rebuild a catalog member from its tagged-union JSON encoding."""
    kind = _json_object(obj, "a ProxFn").get("kind")
    dim = obj.get("dim")
    dim = None if dim is None else _json_index(dim, "dim")
    if kind == "quadratic":
        return Quadratic(matrix_from_json(obj["Q"]),
                         _json_vector(obj["q"], "q"))
    if kind == "quadratic_affine":
        return QuadraticAffine(matrix_from_json(obj["Q"]),
                               _json_vector(obj["q"], "q"),
                               matrix_from_json(obj["L"]),
                               _json_vector(obj["b"], "b"))
    if kind == "zero":
        return Zero(dim)
    if kind == "indicator_zero":
        return IndicatorZero(dim)
    if kind == "indicator_affine":
        return IndicatorAffine(matrix_from_json(obj["L"]),
                               _json_vector(obj["b"], "b"))
    if kind == "box":
        return Box(_json_vector(obj["lo"], "lo"),
                   _json_vector(obj["hi"], "hi"))
    if kind == "weighted_l1":
        return WeightedL1(_json_vector(obj["w"], "w"))
    if kind == "pwl_penalty":
        return PwlPenalty(*(_json_scalar_or_vector(obj[k], k)
                            for k in ("lo", "hi", "slope")), dim)
    if kind == "separable":
        if not isinstance(obj["members"], list):
            raise ValueError("members must be a list")
        members = [_json_object(m, "a member") for m in obj["members"]]
        return Separable([(_json_index(m["start"], "start"),
                           _json_index(m["stop"], "stop"),
                           proxfn_from_json(m["fn"])) for m in members])
    raise ValueError(f"unknown ProxFn kind {kind!r}")
