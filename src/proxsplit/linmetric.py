"""JSON matrix format and the spectral quantities the rate theory needs.

Everything here targets desk-scale problems: spectral computations densify
their input.  Every eigenvalue computation goes through one kernel: LAPACK's
``syevr``, bound at import and called as ``scipy.linalg.eigh(s,
eigvals_only=True)`` calls it, so with eigh's bits and ascending order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    EigenConvergenceError,
    NonSymmetricError,
    RankDeficiencyError,
    SingularKktError,
)

DEFAULT_ZERO_TOL = 1e-10


def _as_dense(a) -> np.ndarray:
    """Coerce array_like to a dense float ndarray."""
    return np.asarray(a, dtype=float)


def _finite(rhs: np.ndarray) -> np.ndarray:
    """rhs after the NaN/inf check that scipy's wrappers make."""
    if np.count_nonzero(np.isfinite(rhs)) != rhs.size:
        raise ValueError("array must not contain infs or NaNs")
    return rhs


def _positive(value: float, what: str) -> None:
    """Raise ValueError unless value > 0, which NaN is not."""
    if not value > 0:
        raise ValueError(f"{what} must be positive")


def _count(value, what: str, least: int) -> None:
    """Raise ValueError unless value is an int or numpy integer >= least."""
    if not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, "
                         f"got {value!r}")


def _normal_step(gamma: float) -> None:
    """Raise ValueError unless gamma is a positive normal float (NaN is
    not): below that, the 1.0 / gamma that the proxes take overflows."""
    if not gamma >= 2.0 ** -1022:
        raise ValueError(f"gamma must be positive and normal, got {gamma}")


def _json_index(v, what: str) -> int:
    try:
        i = int(v)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != v or i < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {v!r}")
    return i


def _json_object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    return obj


def _json_vector(v, what: str) -> np.ndarray:
    """Float vector from a JSON list of finite numbers, else ValueError."""
    if not isinstance(v, list) or not all(
            isinstance(t, numbers.Real) and math.isfinite(t) for t in v):
        raise ValueError(f"{what} must be a list of finite numbers")
    return np.asarray(v, dtype=float)


def _json_scalar_or_vector(v, what: str):
    """One finite number, or a float vector from a list of them."""
    if isinstance(v, list):
        return _json_vector(v, what)
    if not isinstance(v, numbers.Real) or not math.isfinite(v):
        raise ValueError(f"{what} must be a finite number or a list of them")
    return v


def matrix_to_json(a) -> dict:
    """JSON wire format of a finite real matrix.

    ``{"rows": r, "cols": c, "triplets": [[i, j, v], ...]}`` lists the
    nonzeros in row-major order with 0-based indices.
    """
    a = _as_dense(a)
    if a.ndim != 2:
        raise DimensionMismatchError("expected a 2-d matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    ii, jj = np.nonzero(a)
    return {"rows": a.shape[0], "cols": a.shape[1],
            "triplets": [[i, j, v] for i, j, v in zip(
                ii.tolist(), jj.tolist(), a[ii, jj].tolist())]}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Dense matrix from the :func:`matrix_to_json` format.

    Duplicate triplets are summed.  Raises ValueError on malformed input:
    a non-object, non-integral or out-of-range indices or sizes, or
    non-finite entries.
    """
    rows = _json_index(_json_object(obj, "a matrix")["rows"], "rows")
    cols = _json_index(obj["cols"], "cols")
    triplets = obj["triplets"]
    if not isinstance(triplets, list):
        raise ValueError("triplets must be a list")
    out = np.zeros((rows, cols))
    for t in triplets:
        if not isinstance(t, (list, tuple)) or len(t) != 3:
            raise ValueError("each triplet must be [i, j, value]")
        i = _json_index(t[0], "triplet index")
        j = _json_index(t[1], "triplet index")
        if i >= rows or j >= cols:
            raise ValueError("triplet indices out of range")
        if not isinstance(t[2], numbers.Real):
            raise ValueError("matrix entries must be numbers")
        out[i, j] += t[2]
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix entries must be finite")
    return out


@dataclass(frozen=True, eq=False)
class DiagonalMetric:
    """Positive diagonal E; the induced metric is K = E^T E."""

    diag: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float).ravel()
        if d.size == 0 or np.any(d <= 0) or not np.all(np.isfinite(d)):
            raise ValueError("DiagonalMetric entries must be finite and > 0")
        d.flags.writeable = False
        object.__setattr__(self, "diag", d)

    @property
    def dim(self) -> int:
        return self.diag.size

    def scale_spectrum_matrix(self, s) -> np.ndarray:
        """E S E^T for symmetric S (diagonal E, so E^T = E)."""
        s = _as_dense(s)
        if s.shape != (self.dim, self.dim):
            raise DimensionMismatchError("metric dimension does not match S")
        return s * np.outer(self.diag, self.diag)

    @classmethod
    def identity(cls, dim: int) -> "DiagonalMetric":
        return cls(np.ones(dim))


@dataclass(frozen=True)
class SpectralSummary:
    """Extreme eigenvalues of a symmetric psd matrix.

    ``lambda_min_pos`` is the smallest eigenvalue classified as nonzero; it
    is 0.0 when every eigenvalue is classified zero (degenerate all-zero
    matrix, rejected by the consumers that need a positive value).
    """

    lambda_max: float
    lambda_min: float
    lambda_min_pos: float


_SYEVR, _SYEVR_LWORK = scipy.linalg.get_lapack_funcs(
    ("syevr", "syevr_lwork"), (np.zeros((1, 1)),))


def _eigvalsh(s: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of symmetric float ``s`` by eigh's ``syevr``
    call: ``compute_v=0``, the default range 'A', ``lower=1`` and the
    workspace sizes of ``syevr_lwork``."""
    if not _finite(s).size:
        raise DimensionMismatchError("expected a nonempty matrix")
    work, iwork, _ = _SYEVR_LWORK(s.shape[0], lower=1)
    eigs, _, _, _, info = _SYEVR(s, compute_v=0, lower=1, lwork=int(work),
                                 liwork=int(iwork))
    if info:
        raise EigenConvergenceError(f"syevr did not converge (info {info})")
    return eigs


def _check_symmetric(s: np.ndarray) -> np.ndarray:
    """Symmetrized s; asymmetry above 1e-10 * max(1, max|s_ij|) raises."""
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionMismatchError("expected a square matrix")
    peak = float(np.abs(s).max(initial=0.0))
    if not peak < math.inf:  # NaN too; an inf would make s - s.T warn
        raise ValueError("array must not contain infs or NaNs")
    scale = max(1.0, peak)
    if np.abs(s - s.T).max(initial=0.0) > 1e-10 * scale:
        raise NonSymmetricError("matrix is not symmetric within tolerance")
    if scale >= 2.0 ** 1023:  # above max/2: only there can s + s.T overflow
        with np.errstate(over="ignore"):
            if not np.isfinite(s + s.T).all():
                raise ValueError("symmetrized matrix 0.5*(S + S^T) overflows")
    return 0.5 * (s + s.T)


def spectral_summary(s) -> SpectralSummary:
    """Extreme eigenvalues of symmetric psd ``s`` or of a MetricSpectra's S."""
    spectra = s if isinstance(s, MetricSpectra) else MetricSpectra(s)
    return spectra.summary(None, DEFAULT_ZERO_TOL)


class MetricSpectra:
    """Symmetric psd S and the eigenvalues of E S E^T, once per metric E."""

    def __init__(self, s):
        self.s = _check_symmetric(_as_dense(s))
        self._eigenvalues: dict[bytes | None, np.ndarray] = {}

    def summary(self, metric: DiagonalMetric | None,
                zero_tol: float) -> SpectralSummary:
        """Extreme eigenvalues of E S E^T (S for ``metric=None``): those
        below ``zero_tol * lambda_max`` in magnitude count as zero, and a
        more negative one raises ValueError (S is not psd)."""
        if not zero_tol >= 0:
            raise ValueError("zero_tol must be >= 0")
        key = None if metric is None else metric.diag.tobytes()
        eigs = self._eigenvalues.get(key)
        if eigs is None:
            eigs = self._eigenvalues[key] = _eigvalsh(
                metric.scale_spectrum_matrix(self.s) if metric else self.s)
        lam_max = float(eigs[-1])
        tol_abs = zero_tol * lam_max
        if lam_max < 0 or eigs[0] < -max(tol_abs, 1e-12 * max(lam_max, 1.0)):
            raise ValueError("matrix is not positive semidefinite")
        # eigs ascend and the clamp takes every one up to tol_abs to 0.0, so
        # the first one above tol_abs is the smallest nonzero eigenvalue
        i = int(np.searchsorted(eigs, tol_abs, side="right"))
        pos = float(eigs[i]) if i < eigs.size else 0.0
        return SpectralSummary(lam_max, pos if i == 0 else 0.0, pos)


def kkt_p11(q, l) -> np.ndarray:
    """Top-left block of the inverse of the saddle matrix [[Q, L^T], [L, 0]].

    ``q`` is n x n psd and ``l`` is p x n; p = 0 reduces to inv(Q).  Raises
    SingularKktError naming the rank defect when the block matrix is
    singular (Q not positive definite on ker(L), or L row-rank deficient).
    """
    q = _check_symmetric(_as_dense(q))
    l = _as_dense(l)
    n = q.shape[0]
    if l.size == 0:
        l = l.reshape(0, n)
    if l.ndim != 2 or l.shape[1] != n:
        raise DimensionMismatchError("L must have as many columns as Q")
    p = l.shape[0]
    kkt = np.block([[q, l.T], [l, np.zeros((p, p))]])
    rank = np.linalg.matrix_rank(kkt)
    if rank < n + p:
        raise SingularKktError(
            f"KKT matrix of size {n + p} has rank {rank} "
            f"(defect {n + p - rank}); Q must be positive definite on "
            "ker(L) and L must have full row rank",
            size=n + p, rank=int(rank))
    rhs = np.vstack([np.eye(n), np.zeros((p, n))])
    sol = scipy.linalg.solve(kkt, rhs, assume_a="sym")
    return sol[:n, :]


def _row_rank_svdvals(a) -> np.ndarray:
    """Descending singular values of a full-row-rank m x n matrix (m <= n).

    Raises RankDeficiencyError when s_min <= ``DEFAULT_ZERO_TOL * s_max``.
    """
    a = _as_dense(a)
    if a.ndim != 2:
        raise DimensionMismatchError("expected a 2-d matrix")
    if a.shape[0] > a.shape[1]:
        raise DimensionMismatchError(
            "expected at least as many columns as rows (m <= n)")
    svals = scipy.linalg.svdvals(a)
    if svals[-1] <= DEFAULT_ZERO_TOL * svals[0]:
        raise RankDeficiencyError(
            f"matrix of shape {a.shape} is row-rank deficient "
            f"(smallest singular value {svals[-1]:.3e})")
    return svals

