"""Catalog of functions with closed-form proximal operators.

Every member exposes evaluation, ``prox`` and the reflected prox
``2*prox - id``; ``ConjugateOf(f)`` proxes f's conjugate by Moreau.  The
catalog covers quadratics (optionally restricted to an affine set), the zero
function, indicators of {0} and of affine sets, box indicators, weighted l1
norms, piecewise-linear band penalties (band and slope shared or given per
coordinate), and separable compositions.

Each kind writes its value once, as ``_value(x)``, and its prox once, as
``prox_map(gamma)``, whose binding forms gamma's constants (a factorization,
thresholds, band edges, member maps); ``f(x)`` and ``prox`` check, then call.
Nothing is cached.  ``q`` and ``b`` may be rewritten in place between solves:
the ADMM x-update reads both at every step, and a map reads them at each call,
but a ``Quadratic``'s map skips q if it was all +0.0 at bind.  Instances are
immutable, hold no locks, pickle, and are safe to share between threads.
"""

from __future__ import annotations

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
                        _json_vector, _step, matrix_from_json,
                        matrix_to_json, spectral_summary)
from .rates import dual_curvature


def _smooth_solver(f, top: Callable[[], np.ndarray], name: str,
                   gamma: float, error: type) -> Callable:
    """x = solve(rhs) for the system of f's smooth term whose matrix ``top()``
    forms: gamma*Q + I for the prox, Q + gamma*A^T A for ADMM's x-update.

    A ``Quadratic`` f factors ``top`` by Cholesky; a ``QuadraticAffine`` f
    factors the saddle [[top, L^T], [L, 0]] by LU, and each solve appends
    f.b (read then: the closed loop rewrites it) and returns x[:n].  Solves
    check rhs for NaN/inf and call the LAPACK ``potrs``/``getrs`` of
    scipy's ``cho_solve``/``lu_solve``, bound once: their bits, without the
    wrappers' per-call cost.  A factorization that fails on a non-finite
    matrix raises ``error`` naming the matrix and gamma, the one signal: an
    overflow while ``top()`` forms it warns nothing.
    """
    with np.errstate(over="ignore"):
        top = top()
    n, cholesky = top.shape[0], isinstance(f, Quadratic)
    if not cholesky:
        p = f.L.shape[0]
        top = np.block([[top, f.L.T], [f.L, np.zeros((p, p))]])
        name = f"[[{name}, L^T], [L, 0]]"
    try:
        fac, aux = (scipy.linalg.cho_factor if cholesky  # (c, lower)
                    else scipy.linalg.lu_factor)(top)  # (lu, piv)
    except ValueError as exc:
        if np.isfinite(top).all():
            raise
        raise error(f"{name} is not finite at gamma = {gamma}") from exc
    if not fac.size:  # LAPACK refuses n = 0, where scipy solves to empty
        return lambda rhs: np.empty_like(_finite(rhs))
    lapack, = scipy.linalg.get_lapack_funcs(
        ("potrs" if cholesky else "getrs",), (fac,))

    def potrs(rhs: np.ndarray) -> np.ndarray:
        x, info = lapack(fac, _finite(rhs), lower=aux)
        if info:
            raise ValueError(f"illegal value in argument {-info} of potrs")
        return x

    def getrs(rhs: np.ndarray) -> np.ndarray:
        x, info = lapack(fac, aux, _finite(np.concatenate([rhs, f.b])))
        if info:
            raise ValueError(f"illegal value in argument {-info} of getrs")
        return x[:n]

    return potrs if cholesky else getrs


def _off_affine(l: np.ndarray, b: np.ndarray, x: np.ndarray) -> bool:
    """||L x - b||_inf > 1e-9*max(1, max|b|) or NaN; False with no rows."""
    tol = 1e-9 * max(1.0, np.abs(b).max(initial=0.0))
    return bool(l.shape[0]) and not np.linalg.norm(l @ x - b, np.inf) <= tol


class ProxFn:
    """Base class; subclasses implement ``_value`` and ``prox_map``, which
    trust their arguments, and inherit the checked ``f(x)`` and ``prox``."""

    #: intrinsic dimension, or None when the function works on any dimension
    dim: int | None = None
    #: (sigma, beta) strong convexity / smoothness pair when known
    regularity: tuple[float, float] | None = None
    kind = "abstract"

    def __init__(self, dim: int | None = None):
        self.dim = dim

    def __init_subclass__(cls):
        cls.prox = cls.prox  # its own, which perfbench's tracer wraps per kind

    def _check_point(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.ndim != 1:
            raise DimensionMismatchError("prox queries expect 1-d points")
        if self.dim is not None and z.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"{self.kind} expects dimension {self.dim}, got {z.shape[0]}")
        return z

    def __call__(self, x: np.ndarray) -> float:
        return self._value(self._check_point(x))

    def _value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def prox(self, gamma: float, z: np.ndarray) -> np.ndarray:
        """``prox_map(gamma)(z)``, bound anew at each call, after gamma (else
        ValueError) and z's shape (else DimensionMismatchError) are checked."""
        _step(gamma)
        z = self._check_point(z)
        return self.prox_map(gamma)(z)

    def prox_map(self, gamma: float) -> Callable[[np.ndarray], np.ndarray]:
        """z -> prox(gamma, z) for a caller that has checked gamma by the one
        step rule and passes 1-d float arrays of ``dim`` entries.  Binding
        forms the step size's constants, so each solve binds it once."""
        raise NotImplementedError

    def reflect(self, gamma: float, z: np.ndarray) -> np.ndarray:
        """Reflected prox 2*prox(gamma, z) - z."""
        z = np.asarray(z, dtype=float)
        return 2.0 * self.prox(gamma, z) - z

    def to_json(self) -> dict:
        """``{"kind": kind, field: value, ...}`` with the fields of
        ``_WIRE[kind]`` in order: a matrix in :func:`matrix_to_json`'s
        format, a vector as a list, a scalar or ``dim`` as it is."""
        if self.kind not in _WIRE:
            raise NotImplementedError
        out = {"kind": self.kind}
        for name in _WIRE[self.kind][1]:
            v = getattr(self, name)
            if isinstance(v, np.ndarray):
                v = matrix_to_json(v) if v.ndim == 2 else v.tolist()
            out[name] = v
        return out

    def __repr__(self) -> str:
        dim = "*" if self.dim is None else self.dim
        return f"{type(self).__name__}(dim={dim})"


class Quadratic(ProxFn):
    """f(x) = 0.5 x^T Q x + q^T x with symmetric psd Q.

    The prox solves (gamma*Q + I) x = z - gamma*q with a Cholesky
    factorization and its LAPACK solve, bound with the map.  Regularity is
    Q's extreme eigenvalue pair.  Refusals come in the order: Q square,
    finite, symmetric; q's shape, finite; Q nonempty, psd.
    """

    kind = "quadratic"

    def __init__(self, q_matrix, q_vector=None):
        spectra = MetricSpectra(q_matrix)
        qm, n = spectra.s, spectra.s.shape[0]
        qv = np.zeros(n) if q_vector is None else np.asarray(q_vector, float)
        if qv.shape != (n,):
            raise DimensionMismatchError("q must match Q's dimension")
        self.Q, self.q, self.dim = qm, _finite(qv), n
        summary = spectral_summary(spectra)  # ValueError unless Q is psd
        self.regularity = (summary.lambda_min, summary.lambda_max)

    def _value(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.Q @ x + self.q @ x)

    def prox_map(self, gamma: float) -> Callable[[np.ndarray], np.ndarray]:
        solve = _smooth_solver(self, lambda: gamma * self.Q + np.eye(self.dim),
                               "gamma*Q + I", gamma, ValueError)
        if not (self.q.any() or np.signbit(self.q).any()):  # z - gamma*q is z
            return solve
        return lambda z: solve(z - gamma * self.q)


class QuadraticAffine(ProxFn):
    """Quadratic plus the indicator of an affine set {x : L x = b}.

    f(x) = 0.5 x^T Q x + q^T x restricted to L x = b.  The prox is the
    equality-constrained least squares solve through the saddle system
    [[gamma*Q + I, L^T], [L, 0]], whose LU factorization and LAPACK solve
    are bound with the map.  NaN/inf in Q, q, L or b raise ValueError at
    construction.
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
        if (qv.shape != (n,) or lm.ndim != 2 or lm.shape[1] != n
                or bv.shape != lm.shape[:1]):
            raise DimensionMismatchError("q, L, b shapes inconsistent with Q")
        self.Q, self.q, self.dim = qm, _finite(qv), n
        self.L, self.b = _finite(lm), _finite(bv)

    def _value(self, x: np.ndarray) -> float:
        if _off_affine(self.L, self.b, x):
            return np.inf
        return float(0.5 * x @ self.Q @ x + self.q @ x)

    def prox_map(self, gamma: float) -> Callable[[np.ndarray], np.ndarray]:
        p = self.L.shape[0]
        solve = _smooth_solver(self, lambda: gamma * self.Q + np.eye(self.dim),
                               "gamma*Q + I", gamma, SingularKktError)

        def prox(z: np.ndarray) -> np.ndarray:
            x = solve(z - gamma * self.q)
            if p and np.count_nonzero(np.isfinite(x)) != x.size:
                raise SingularKktError("prox system solved to non-finite "
                                       "values", size=self.dim + p)
            return x
        return prox


class Zero(ProxFn):
    """The identically-zero function; its prox is the identity map."""

    kind = "zero"

    def _value(self, x: np.ndarray) -> float:
        return 0.0

    def prox_map(self, gamma: float) -> Callable[[np.ndarray], np.ndarray]:
        return np.ndarray.copy


class IndicatorZero(ProxFn):
    """Indicator of the origin; prox maps everything to 0."""

    kind = "indicator_zero"

    def _value(self, x: np.ndarray) -> float:
        return 0.0 if not x.size or np.abs(x).max() == 0.0 else np.inf

    def prox_map(self, gamma: float) -> Callable[[np.ndarray], np.ndarray]:
        return lambda z: np.zeros(z.shape)


class IndicatorAffine(ProxFn):
    """Indicator of {x : L x = b}; prox is Euclidean projection onto it.

    Raises InfeasibleConstraintError at construction when the set is empty
    (b outside the range of L), and ValueError on NaN/inf in L or b or when
    L is so small that its pseudo-inverse overflows.
    """

    kind = "indicator_affine"

    def __init__(self, l_matrix, b_vector):
        lm = _as_dense(l_matrix)
        bv = np.asarray(b_vector, dtype=float).ravel()
        if lm.ndim != 2 or bv.shape[0] != lm.shape[0]:
            raise DimensionMismatchError("L and b shapes are inconsistent")
        self.L, self.b, self.dim = _finite(lm), _finite(bv), lm.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            self._pinv = np.linalg.pinv(lm)
        if not np.isfinite(self._pinv).all():
            raise ValueError("the pseudo-inverse of L overflows")
        if np.linalg.norm(lm @ (self._pinv @ bv) - bv) > 1e-8 * max(
                1.0, float(np.linalg.norm(bv))):
            raise InfeasibleConstraintError(
                "no point satisfies L x = b (b outside range of L)")

    def _value(self, x: np.ndarray) -> float:
        return np.inf if _off_affine(self.L, self.b, x) else 0.0

    def prox_map(self, gamma: float) -> Callable[[np.ndarray], np.ndarray]:
        return lambda z: z - self._pinv @ (self.L @ z - self.b)


class Box(ProxFn):
    """Indicator of the box [lo, hi], lo < inf, hi > -inf; prox clips."""

    kind = "box"

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float).ravel()
        hi = np.asarray(hi, dtype=float).ravel()
        if lo.shape != hi.shape:
            raise DimensionMismatchError("lo and hi must have equal length")
        if not np.all((lo <= hi) & (lo < np.inf) & (-np.inf < hi)):  # NaN too
            raise ValueError("need lo <= hi elementwise, lo < inf, hi > -inf")
        self.lo, self.hi, self.dim = lo, hi, lo.shape[0]

    def _value(self, x: np.ndarray) -> float:
        inside = np.all(x >= self.lo - 1e-12) and np.all(x <= self.hi + 1e-12)
        return 0.0 if inside else np.inf

    def prox_map(self, gamma: float) -> Callable[[np.ndarray], np.ndarray]:
        return lambda z: np.minimum(np.maximum(z, self.lo), self.hi)

    def _edges(self, gamma: float) -> tuple:
        """``_band_select``'s constants for the box as a band of infinite
        slope, with this prox's bits: the shifted edges are -inf and inf,
        and z <= lo and z >= hi are tested as z < nextafter(lo, inf) and
        z > nextafter(hi, -inf), since a point on a bound takes the bound
        (below lo, the bound is min(lo, hi): hi when lo == hi)."""
        inf = np.full(self.dim, np.inf)
        return (inf, -inf, np.nextafter(self.lo, inf),
                np.minimum(self.lo, self.hi), np.nextafter(self.hi, -inf),
                self.hi, inf)


class WeightedL1(ProxFn):
    """f(x) = sum_i w_i |x_i| with nonnegative weights; prox soft-thresholds."""

    kind = "weighted_l1"

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float).ravel()
        if not np.all((0 <= w) & (w < np.inf)):
            raise ValueError("weights must be finite and nonnegative")
        self.w, self.dim = w, w.shape[0]

    def _value(self, x: np.ndarray) -> float:
        return float(self.w @ np.abs(x))

    def prox_map(self, gamma: float) -> Callable[[np.ndarray], np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore"):  # inf thresh -> 0
            thresh = gamma * self.w
        return lambda z: np.sign(z) * np.maximum(np.abs(z) - thresh, 0.0)


def _band_select(z, t, below, lo, lo_to, hi, hi_to, above) -> np.ndarray:
    """A band's prox: z - t where z > above, else hi_to where z > hi, else
    z + t where z < below, else lo_to where z < lo, else z.  A select, not
    a clamp (np.maximum(-0.0, 0.0) is +0.0), written last case first; z +/- t
    is formed only on the rows that take it."""
    out = z.copy()
    np.copyto(out, lo_to, where=z < lo)
    np.add(z, t, out=out, where=z < below)
    np.copyto(out, hi_to, where=z > hi)
    np.subtract(z, t, out=out, where=z > above)
    return out


class PwlPenalty(ProxFn):
    """Penalty sum_i s_i * max(0, x_i - hi_i, lo_i - x_i) (soft band [lo, hi]).

    ``lo``, ``hi`` and ``slope`` are each a scalar shared by every coordinate
    or a length-``dim`` array giving one value per coordinate; ``dim`` is
    inferred from the array parameters when omitted.  The prox shrinks toward
    the band: with t = gamma*s, points beyond the band by more than t move in
    by t, points within t of the band land on the nearest edge, and points
    inside the band stay put.  A ``Separable`` of bands and boxes runs this
    select (``_band_select``) once over all its coordinates.
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

    def _value(self, x: np.ndarray) -> float:
        over = np.maximum(x - self.hi, 0.0)
        under = np.maximum(self.lo - x, 0.0)
        return float(np.sum(self.slope * (over + under)))

    def _edges(self, gamma: float) -> tuple:
        """``_band_select``'s constants after z; t = inf selects the box."""
        with np.errstate(over="ignore", invalid="ignore"):
            t = gamma * self.slope
            return (t, self.lo - t, self.lo, self.lo, self.hi, self.hi,
                    self.hi + t)

    def prox_map(self, gamma: float) -> Callable[[np.ndarray], np.ndarray]:
        edges = self._edges(gamma)
        return lambda z: _band_select(z, *edges)


class Separable(ProxFn):
    """Sum of catalog members acting on disjoint index ranges.

    ``members`` is a list of (start, stop, fn) covering [0, dim) without
    gaps or overlaps (integer bounds); the prox applies each member's map on
    its slice, or, when every member is a ``PwlPenalty`` or a ``Box`` (a band
    of infinite slope), one ``_band_select`` over all coordinates, same bits.
    """

    kind = "separable"

    def __init__(self, members: list[tuple[int, int, ProxFn]]):
        members = sorted(((_json_index(a, "start"), _json_index(b, "stop"), f)
                          for a, b, f in members), key=lambda m: m[0])
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
        self.members, self.dim = tuple(members), pos
        self._bands = all(type(fn) in (PwlPenalty, Box)
                          for _, _, fn in members)

    def _value(self, x: np.ndarray) -> float:
        return float(sum(fn._value(x[a:b]) for a, b, fn in self.members))

    def _edges(self, gamma: float) -> tuple:
        """``_band_select``'s constants over all coordinates."""
        return tuple(map(np.concatenate, zip(*(
            [np.broadcast_to(v, b - a) for v in fn._edges(gamma)]
            for a, b, fn in self.members))))

    def prox_map(self, gamma: float) -> Callable[[np.ndarray], np.ndarray]:
        if self._bands:
            edges = self._edges(gamma)
            return lambda z: _band_select(z, *edges)
        maps = [(slice(a, b), fn.prox_map(gamma)) for a, b, fn in self.members]
        return lambda z: np.concatenate([m(z[ab]) for ab, m in maps])

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "members": [{"start": a, "stop": b, "fn": fn.to_json()}
                            for a, b, fn in self.members]}


class ConjugateOf(ProxFn):
    """The convex conjugate of a catalog member, prox via Moreau's identity.

    The one conjugate prox, ``ConjugateOf(f).prox(gamma, z)``; dual
    formulations run the splitting engine on it.  Not in the JSON catalog.
    """

    kind = "conjugate"

    def __init__(self, inner: ProxFn):
        self.inner, self.dim = inner, inner.dim

    def _value(self, x: np.ndarray) -> float:
        raise CapabilityError(
            "conjugate values are not evaluable in closed form in general")

    def prox_map(self, gamma: float) -> Callable[[np.ndarray], np.ndarray]:
        _step(gamma)  # Moreau's identity, the inner map at 1/gamma
        inner = self.inner.prox_map(1.0 / gamma)
        return lambda z: z - gamma * inner(z / gamma)


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
    prox form.  A ``Separable`` scales member by member, so the MPC g, bands
    and a box, proxes by one select (see ``Separable``).
    """
    s = np.asarray(s, dtype=float).ravel()
    if not np.all(np.abs(s) > 0):
        raise ValueError("diagonal entries must be nonzero")
    if f.dim is not None and f.dim != s.shape[0]:
        raise DimensionMismatchError("diagonal length does not match f")
    if isinstance(f, Separable):
        return Separable([(a, b, diag_scale(fn, s[a:b]))
                          for a, b, fn in f.members])
    with np.errstate(over="ignore", invalid="ignore"):
        sinv, n = 1.0 / s, s.shape[0]
        if isinstance(f, (Zero, IndicatorZero)):
            args = (n,)
        elif isinstance(f, WeightedL1):
            args = (f.w / np.abs(s),)
        elif isinstance(f, Box):
            args = _band(f.lo, f.hi, s)
        elif isinstance(f, PwlPenalty):
            args = (*_band(f.lo, f.hi, s), f.slope / np.abs(s), n)
        elif isinstance(f, Quadratic):
            args = (f.Q * np.outer(sinv, sinv), f.q * sinv)
        elif isinstance(f, QuadraticAffine):
            args = (f.Q * np.outer(sinv, sinv), f.q * sinv,
                    f.L * sinv[None, :], f.b)
        elif isinstance(f, IndicatorAffine):
            args = (f.L / s[None, :], f.b)
        else:
            raise CapabilityError(
                f"no diagonal scaling rule for catalog kind {f.kind!r}")
    return type(f)(*args)  # the constructor refuses an overflow by name


#: the JSON wire format of every kind but "separable": its class and the
#: attributes that ``ProxFn.to_json`` writes after "kind", in the order
#: the constructor takes them; ``Q`` and ``L`` are matrices
_WIRE = {cls.kind: (cls, fields) for cls, fields in (
    (Quadratic, ("Q", "q")),
    (QuadraticAffine, ("Q", "q", "L", "b")),
    (Zero, ("dim",)),
    (IndicatorZero, ("dim",)),
    (IndicatorAffine, ("L", "b")),
    (Box, ("lo", "hi")),
    (WeightedL1, ("w",)),
    (PwlPenalty, ("lo", "hi", "slope", "dim")),
)}


def proxfn_from_json(obj: dict) -> ProxFn:
    """Rebuild a catalog member from its tagged-union JSON encoding: ``dim``
    first, then ``_WIRE[kind]``'s fields in order, so the first bad field is
    the one reported; a kind not in the table is ``unknown ProxFn kind``."""
    kind = _json_object(obj, "a ProxFn").get("kind")
    dim = obj.get("dim")
    dim = None if dim is None else _json_index(dim, "dim")
    if isinstance(kind, str) and kind in _WIRE:  # a list kind is unhashable
        cls, fields = _WIRE[kind]
        vector = (_json_scalar_or_vector if cls is PwlPenalty
                  else _json_vector)
        return cls(*(dim if k == "dim" else matrix_from_json(obj[k])
                     if k in ("Q", "L") else vector(obj[k], k)
                     for k in fields))
    if kind == "separable":
        if not isinstance(obj["members"], list):
            raise ValueError("members must be a list")
        members = [_json_object(m, "a member") for m in obj["members"]]
        return Separable([(m["start"], m["stop"], proxfn_from_json(m["fn"]))
                          for m in members])
    raise ValueError(f"unknown ProxFn kind {kind!r}")
