"""Dense factorizations used by the solvers: thin SVD, polar factor,
spectral norm, and leading singular subspaces.

Every factorization is one LAPACK SVD through ``np.linalg.svd``.  The polar
factor U V^T of the thin SVD is the orthogonal Procrustes solution (Higham,
"Computing the polar decomposition -- with applications", 1986), and the
spectral norm is the largest singular value.  A LAPACK failure to converge
surfaces as :class:`ConvergenceError`.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .core import DataMatrix, StiefelPoint
from .errors import ConvergenceError, DomainError, NumericError, ShapeError


class ThinSVD(NamedTuple):
    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray


def _checked_matrix(M, op):
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ShapeError(f"{op} expects a nonempty 2-d array, got shape {np.shape(M)}")
    if not np.all(np.isfinite(A)):
        raise NumericError(f"{op} input has non-finite entries")
    return A


def _svd(A, op, compute_uv=True):
    try:
        return np.linalg.svd(A, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"{op}: LAPACK SVD did not converge ({exc})") from None


def thin_svd(M) -> ThinSVD:
    """Thin singular value decomposition M = U diag(sigma) V^T.

    Parameters
    ----------
    M : array_like, shape (d, k) with d >= k

    Returns
    -------
    ThinSVD
        U is d x k with orthonormal columns, sigma is nonincreasing and
        nonnegative, V is k x k orthogonal.  Zero singular values still get
        orthonormal U columns.
    """
    A = _checked_matrix(M, "thin_svd")
    d, k = A.shape
    if d < k:
        raise ShapeError(f"thin_svd needs rows >= cols, got shape {(d, k)}")
    U, sigma, Vt = _svd(A, "thin_svd")
    return ThinSVD(U, sigma, Vt.T)


def polar_factor(M) -> np.ndarray:
    """Orthonormal polar factor U V^T of a d x k matrix, d >= k.

    This is the maximizer of <Z, M> over Stiefel points Z; for rank-deficient
    M the free directions are whatever orthonormal completion LAPACK returns,
    which is deterministic for a fixed build.
    """
    U, _, V = thin_svd(M)
    return U @ V.T


def spectral_norm(M) -> float:
    """Largest singular value of M."""
    A = _checked_matrix(M, "spectral_norm")
    return float(_svd(A, "spectral_norm", compute_uv=False)[0])


def singular_values(X: DataMatrix) -> np.ndarray:
    """All min(d, n) singular values of X, nonincreasing."""
    return _svd(X.values, "singular_values", compute_uv=False)


def top_k_left_singular(X: DataMatrix, k: int) -> StiefelPoint:
    """Leading k left singular vectors of X as a Stiefel point.

    Warns when sigma_k and sigma_{k+1} are within 1e-10 of each other, since
    the returned subspace is then not well determined.
    """
    p = min(X.d, X.n)
    if not (isinstance(k, (int, np.integer)) and 1 <= k <= p):
        raise DomainError(f"k must lie in [1, {p}], got {k!r}")
    left, sigma, _ = _svd(X.values, "top_k_left_singular")
    if k < p and sigma[k - 1] - sigma[k] <= 1e-10:
        warnings.warn(
            f"singular value gap at k = {k} is degenerate "
            f"(sigma_k = {sigma[k - 1]:.6e}, sigma_k+1 = {sigma[k]:.6e})",
            RuntimeWarning,
            stacklevel=2,
        )
    return StiefelPoint(left[:, :k])


def random_stiefel(d: int, k: int, seed) -> StiefelPoint:
    """Polar factor of a seeded d x k Gaussian draw.

    ``seed`` is anything numpy's default_rng accepts, or an existing
    Generator, which is then advanced.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return StiefelPoint(polar_factor(rng.standard_normal((d, k))))
