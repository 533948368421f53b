"""Core types and objectives for rotationally invariant L1 subspace fitting.

The target problem is to maximize the entrywise L1 norm of the projection
``Q Q^T X`` over matrices Q with orthonormal columns.  Writing |t| as
max(t, -t) entrywise turns this into minimizing

    H(P, Q) = -<P, X^T Q Q^T>

jointly over sign matrices P and Stiefel points Q.  This module holds the
shared value types and the two objectives.  Heavier linear algebra lives
in :mod:`l1subspace.linalg`, the alternating scheme, sign step included, in
:mod:`l1subspace.solvers`.

All array-valued types copy their input and freeze it read-only, so instances
can be shared freely between threads and runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    FeasibilityError,
    NumericError,
    ShapeError,
)

# row means of a centered matrix must vanish to this relative tolerance
CENTERING_TOL = 1e-9
# orthonormality defect allowed on Stiefel points
STIEFEL_TOL = 1e-8


def _matrix(M, what):
    """M as a float array, not copied when it already is one.

    Raises ShapeError unless M is a nonempty 2-d array and NumericError
    unless every entry is finite; ``what`` names M in the message.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ShapeError(f"{what} must be a nonempty 2-d array, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NumericError(f"{what} has non-finite entries")
    return A


def _frozen_array(obj, field, raw):
    vals = _matrix(np.array(raw, dtype=float), f"{type(obj).__name__}.{field}")
    vals.setflags(write=False)
    object.__setattr__(obj, field, vals)
    return vals


def _fit(X, Q=None, P=None):
    """Raise ShapeError unless Q has the d rows of the d x n data X and P is n x d."""
    if Q is not None and Q.d != X.d:
        raise ShapeError(f"Q has {Q.d} rows but X has {X.d} rows")
    if P is not None and P.values.shape != (X.n, X.d):
        raise ShapeError(f"P must be {X.n} x {X.d} to match X, got {P.values.shape}")


@dataclass(frozen=True)
class DataMatrix:
    """Dense d x n data matrix, one feature per row and one sample per column.

    Parameters
    ----------
    values : array_like, shape (d, n)
    centered : bool
        If True, every row mean must vanish up to a relative tolerance of
        ``CENTERING_TOL``.
    """

    values: np.ndarray
    centered: bool = False

    def __post_init__(self):
        vals = _frozen_array(self, "values", self.values)
        if self.centered:
            scale = np.maximum(1.0, np.max(np.abs(vals), axis=1))
            if np.any(np.abs(vals.mean(axis=1)) > CENTERING_TOL * scale):
                raise FeasibilityError("centered flag set but row means are not zero")

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SignMatrix:
    """Dense n x d matrix with every entry exactly +1 or -1."""

    values: np.ndarray

    def __post_init__(self):
        vals = _frozen_array(self, "values", self.values)
        if not np.all((vals == 1.0) | (vals == -1.0)):
            raise FeasibilityError("sign matrix entries must be exactly +1 or -1")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class StiefelPoint:
    """d x K matrix with orthonormal columns, K <= d.

    The orthonormality defect ||Q^T Q - I||_F may not exceed ``STIEFEL_TOL``.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = _frozen_array(self, "values", self.values)
        d, k = vals.shape
        if k > d:
            raise ShapeError(f"Stiefel point needs K <= d, got shape {(d, k)}")
        defect = np.linalg.norm(vals.T @ vals - np.eye(k))
        if not defect <= STIEFEL_TOL:
            raise FeasibilityError(
                f"columns are not orthonormal: ||Q^T Q - I||_F = {defect:.3e}"
            )

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]


def _positive_finite(name, value):
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class FixedBeta:
    """Constant Q-step parameter, the practical choice."""

    value: float

    def __post_init__(self):
        _positive_finite("beta", self.value)


@dataclass(frozen=True)
class AdaptiveBeta:
    """Bounds (beta_star, beta_sup) for the per-iteration adaptive schedule."""

    beta_star: float
    beta_sup: float

    def __post_init__(self):
        _positive_finite("beta_star", self.beta_star)
        _positive_finite("beta_sup", self.beta_sup)
        if self.beta_sup < self.beta_star:
            raise DomainError(
                f"beta_sup = {self.beta_sup} is below beta_star = {self.beta_star}"
            )


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of one solver run.

    ``gamma`` is the extrapolation weight in [0, 1]; gamma = 0 recovers the
    plain alternating scheme.  ``theory_mode`` switches on the conservative
    step-size rules that make the descent guarantees checkable; it requires
    an :class:`AdaptiveBeta` mode.
    """

    alpha: float
    beta_mode: FixedBeta | AdaptiveBeta
    gamma: float = 1.0
    max_iters: int = 1000
    tol: float = 1e-6
    theory_mode: bool = False

    def __post_init__(self):
        _positive_finite("alpha", self.alpha)
        _positive_finite("tol", self.tol)
        if not isinstance(self.beta_mode, (FixedBeta, AdaptiveBeta)):
            raise DomainError("beta_mode must be FixedBeta or AdaptiveBeta")
        if not (isinstance(self.gamma, (int, float)) and 0.0 <= self.gamma <= 1.0):
            raise DomainError(f"gamma must lie in [0, 1], got {self.gamma!r}")
        if not (isinstance(self.max_iters, int) and self.max_iters >= 1):
            raise DomainError(f"max_iters must be a positive integer, got {self.max_iters!r}")
        if not isinstance(self.theory_mode, bool):
            raise DomainError(f"theory_mode must be a bool, got {self.theory_mode!r}")
        if self.theory_mode and not isinstance(self.beta_mode, AdaptiveBeta):
            raise DomainError("theory_mode requires an AdaptiveBeta mode")

    @property
    def beta_star(self) -> float:
        """Lower beta bound; for a fixed schedule this is the fixed value."""
        if isinstance(self.beta_mode, AdaptiveBeta):
            return self.beta_mode.beta_star
        return self.beta_mode.value


def objective_l(Q: StiefelPoint, X: DataMatrix) -> float:
    """Projection objective l(Q) = -|| Q Q^T X ||_1 (entrywise L1 norm)."""
    _fit(X, Q)
    return _objective_l(Q.values, X.values)


def _objective_l(Q: np.ndarray, X: np.ndarray, out: np.ndarray | None = None) -> float:
    """-||Q (Q^T X)||_1 from plain arrays; the d x n product goes to ``out`` if given."""
    M = np.matmul(Q, Q.T @ X, out=out)
    return -float(np.abs(M, out=M).sum())


def objective_h(P: SignMatrix, Q: StiefelPoint, X: DataMatrix) -> float:
    """Two-block objective h(P, Q) = -<P, X^T Q Q^T>.

    Minimizing over sign matrices P recovers ``objective_l(Q, X)`` exactly,
    with minimizer P in sign(X^T Q Q^T).
    """
    _fit(X, Q, P)
    return h_from_factors(P.values, Q.values, X.values.T @ Q.values)


def h_from_factors(
    P: np.ndarray, Q: np.ndarray, XtQ: np.ndarray, out: np.ndarray | None = None
) -> float:
    """h(P, Q) = -<P Q, X^T Q> from plain arrays, given the n x K product X^T Q.

    This equals -<P, X^T Q Q^T> without forming that n x d matrix.  The
    n x K product P Q goes to ``out`` if given, where a caller can reuse it.
    """
    return -float(np.vdot(np.matmul(P, Q, out=out), XtQ))
