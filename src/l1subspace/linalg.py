"""Dense factorizations used by the solvers: polar factor, spectral norm
and singular values.

Every factorization is one LAPACK SVD through ``np.linalg.svd``.  The polar
factor U V^T of the thin SVD is the orthogonal Procrustes solution (Higham,
"Computing the polar decomposition -- with applications", 1986), and the
spectral norm is the largest singular value.  A LAPACK failure to converge
surfaces as :class:`ConvergenceError`.
"""

from __future__ import annotations

import numpy as np

from .core import DataMatrix, StiefelPoint, _matrix
from .errors import ConvergenceError, ShapeError


def _svd(A, op, compute_uv=True):
    try:
        return np.linalg.svd(A, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"{op}: LAPACK SVD did not converge ({exc})") from None


def polar_factor(M) -> np.ndarray:
    """Orthonormal polar factor U V^T of a d x k matrix, d >= k.

    This is the maximizer of <Z, M> over Stiefel points Z; for rank-deficient
    M the free directions are whatever orthonormal completion LAPACK returns,
    which is deterministic for a fixed build.
    """
    A = _matrix(M, "polar_factor input")
    if A.shape[0] < A.shape[1]:
        raise ShapeError(f"polar_factor needs rows >= cols, got shape {A.shape}")
    U, _, Vt = _svd(A, "polar_factor")
    return U @ Vt


def spectral_norm(M) -> float:
    """Largest singular value of M."""
    A = _matrix(M, "spectral_norm input")
    return float(_svd(A, "spectral_norm", compute_uv=False)[0])


def singular_values(X: DataMatrix) -> np.ndarray:
    """All min(d, n) singular values of X, nonincreasing."""
    return _svd(X.values, "singular_values", compute_uv=False)


def random_stiefel(d: int, k: int, seed) -> StiefelPoint:
    """Polar factor of a seeded d x k Gaussian draw.

    ``seed`` is anything numpy's default_rng accepts, or an existing
    Generator, which is then advanced.
    """
    return StiefelPoint(polar_factor(np.random.default_rng(seed).standard_normal((d, k))))
