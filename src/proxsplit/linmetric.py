"""Dense/sparse matrix layer and the spectral quantities the rate theory needs.

Everything here targets desk-scale problems: spectral computations densify
their input and use LAPACK's symmetric eigensolver, while sparse storage is
only exploited in matrix-vector products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import (
    DimensionMismatchError,
    EigenConvergenceError,
    NonSymmetricError,
    RankDeficiencyError,
    SingularKktError,
)

DEFAULT_ZERO_TOL = 1e-10


def _as_dense(a) -> np.ndarray:
    """Coerce Matrix, scipy sparse, or array_like to a dense float ndarray."""
    if isinstance(a, Matrix):
        return a.toarray()
    if scipy.sparse.issparse(a):
        return np.asarray(a.todense(), dtype=float)
    return np.asarray(a, dtype=float)


class Matrix:
    """Immutable real matrix with dense or triplet-sparse storage.

    Entries must be finite.  Duplicate triplets are canonicalized by
    summation.  The JSON wire format is
    ``{"rows": r, "cols": c, "triplets": [[i, j, v], ...]}`` with 0-based
    indices.
    """

    __slots__ = ("_data", "_sparse")

    def __init__(self, data, sparse: bool = False):
        if sparse or scipy.sparse.issparse(data):
            mat = scipy.sparse.csr_matrix(data, dtype=float)
            mat.sum_duplicates()
            if not np.all(np.isfinite(mat.data)):
                raise ValueError("matrix entries must be finite")
            self._data = mat
            self._sparse = True
        else:
            arr = np.array(data, dtype=float)
            if arr.ndim != 2:
                raise DimensionMismatchError("Matrix needs a 2-d array")
            if not np.all(np.isfinite(arr)):
                raise ValueError("matrix entries must be finite")
            arr.flags.writeable = False
            self._data = arr
            self._sparse = False

    @classmethod
    def from_triplets(cls, rows: int, cols: int, triplets) -> "Matrix":
        triplets = list(triplets)
        if triplets:
            ii, jj, vv = (np.array(col) for col in zip(*triplets))
        else:
            ii = jj = vv = np.zeros(0)
        ii = ii.astype(int)
        jj = jj.astype(int)
        if len(ii) and (ii.min() < 0 or ii.max() >= rows
                        or jj.min() < 0 or jj.max() >= cols):
            raise ValueError("triplet indices out of range")
        coo = scipy.sparse.coo_matrix((vv.astype(float), (ii, jj)),
                                      shape=(rows, cols))
        coo.sum_duplicates()
        return cls(coo, sparse=True)

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    @property
    def is_sparse(self) -> bool:
        return self._sparse

    def toarray(self) -> np.ndarray:
        if self._sparse:
            return self._data.toarray()
        return np.array(self._data)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.cols,):
            raise DimensionMismatchError(
                f"matvec expects length {self.cols}, got {v.shape}")
        return self._data @ v

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.rows,):
            raise DimensionMismatchError(
                f"rmatvec expects length {self.rows}, got {v.shape}")
        return self._data.T @ v

    def nnz(self) -> int:
        if self._sparse:
            return int(self._data.nnz)
        return int(np.count_nonzero(self._data))

    def to_json(self) -> dict:
        if self._sparse:
            coo = self._data.tocoo()
            trip = sorted(zip(coo.row.tolist(), coo.col.tolist(),
                              coo.data.tolist()))
        else:
            ii, jj = np.nonzero(self._data)
            trip = [(int(i), int(j), float(self._data[i, j]))
                    for i, j in zip(ii, jj)]
        return {"rows": self.rows, "cols": self.cols,
                "triplets": [[i, j, v] for i, j, v in trip]}

    @classmethod
    def from_json(cls, obj: dict) -> "Matrix":
        return cls.from_triplets(int(obj["rows"]), int(obj["cols"]),
                                 obj["triplets"])

    def __repr__(self) -> str:
        kind = "sparse" if self._sparse else "dense"
        return f"Matrix({self.rows}x{self.cols}, {kind}, nnz={self.nnz()})"


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

    def as_matrix(self) -> np.ndarray:
        return np.diag(self.diag)

    def metric_matrix(self) -> np.ndarray:
        """K = E^T E (diagonal with squared entries)."""
        return np.diag(self.diag**2)

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
    tol_used: float


def _check_symmetric(s: np.ndarray, rel_tol: float = 1e-10) -> np.ndarray:
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionMismatchError("expected a square matrix")
    scale = max(1.0, float(np.abs(s).max(initial=0.0)))
    if np.abs(s - s.T).max(initial=0.0) > rel_tol * scale:
        raise NonSymmetricError("matrix is not symmetric within tolerance")
    return 0.5 * (s + s.T)


def spectral_summary(s, zero_tol: float = DEFAULT_ZERO_TOL) -> SpectralSummary:
    """Extreme eigenvalues of symmetric psd ``s`` with zero classification.

    Eigenvalues below ``zero_tol * lambda_max`` count as zero.  Small
    negative eigenvalues inside that band are clamped to zero; anything more
    negative violates the psd precondition and raises ValueError.
    """
    if zero_tol < 0:
        raise ValueError("zero_tol must be >= 0")
    s = _check_symmetric(_as_dense(s))
    try:
        eigs = scipy.linalg.eigh(s, eigvals_only=True)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigenConvergenceError(
            f"symmetric eigensolver did not converge: {exc}") from exc
    lam_max = float(eigs[-1])
    if lam_max < 0:
        lam_max_abs = float(np.abs(eigs).max())
        if lam_max_abs > 0:
            raise ValueError("matrix is not positive semidefinite")
        lam_max = 0.0
    tol_abs = zero_tol * lam_max
    if eigs[0] < -max(tol_abs, 1e-12 * max(lam_max, 1.0)):
        raise ValueError("matrix is not positive semidefinite")
    clamped = np.where(np.abs(eigs) <= tol_abs, 0.0, np.maximum(eigs, 0.0))
    positive = clamped[clamped > 0.0]
    return SpectralSummary(
        lambda_max=lam_max,
        lambda_min=float(clamped.min()) if clamped.size else 0.0,
        lambda_min_pos=float(positive.min()) if positive.size else 0.0,
        tol_used=tol_abs,
    )


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


def pseudo_inverse(q, zero_tol: float = DEFAULT_ZERO_TOL) -> np.ndarray:
    """Dense Moore-Penrose pseudo-inverse of a symmetric psd matrix."""
    q = _check_symmetric(_as_dense(q))
    eigvals, eigvecs = scipy.linalg.eigh(q)
    tol_abs = zero_tol * max(float(eigvals[-1]), 0.0)
    inv = np.where(eigvals > tol_abs, 1.0 / np.where(eigvals > tol_abs,
                                                     eigvals, 1.0), 0.0)
    return (eigvecs * inv) @ eigvecs.T


def _row_rank_svdvals(a, zero_tol: float = DEFAULT_ZERO_TOL) -> np.ndarray:
    """Descending singular values of a full-row-rank m x n matrix (m <= n).

    Raises RankDeficiencyError when the matrix does not have full row rank.
    """
    a = _as_dense(a)
    if a.ndim != 2:
        raise DimensionMismatchError("expected a 2-d matrix")
    if a.shape[0] > a.shape[1]:
        raise DimensionMismatchError(
            "expected at least as many columns as rows (m <= n)")
    svals = scipy.linalg.svdvals(a)
    if svals[-1] <= zero_tol * svals[0]:
        raise RankDeficiencyError(
            f"matrix of shape {a.shape} is row-rank deficient "
            f"(smallest singular value {svals[-1]:.3e})")
    return svals


def smallest_singular_value(a, zero_tol: float = DEFAULT_ZERO_TOL) -> float:
    """Smallest singular value of a full-row-rank m x n matrix (m <= n).

    This is the largest constant t with ||A^T mu|| >= t ||mu|| for all mu.
    Raises RankDeficiencyError when the matrix does not have full row rank.
    """
    return float(_row_rank_svdvals(a, zero_tol)[-1])
