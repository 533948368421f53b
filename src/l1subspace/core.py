"""Core types and objectives for rotationally invariant L1 subspace fitting.

The target problem is to maximize the entrywise L1 norm of the projection
``Q Q^T X`` over matrices Q with orthonormal columns.  Writing |t| as
max(t, -t) entrywise turns this into minimizing

    H(P, Q) = -<P, X^T Q Q^T>

jointly over sign matrices P and Stiefel points Q.  This module holds the
shared value types, the two objectives, the one place that calls LAPACK's
SVD and the one rule for scalar arguments (``_count``, ``_number``): a count
is an int or a numpy integer, a number a count or a float, a bool neither.
Heavier linear algebra lives in :mod:`l1subspace.linalg`, the alternating
scheme, sign step included, in :mod:`l1subspace.solvers`.

All array-valued types freeze their array read-only, so instances can be
shared freely between threads and runs.  An array from a caller is copied
first, so writing to it later leaves the instance as it was.  An array the
library has just allocated, and that nothing else refers to, is handed over
wrapped in :class:`_Adopted` and frozen in place, with no copy: a parsed or
centered data block, a finished run's sign block.  A :class:`DataMatrix`
also keeps its spectrum, filled lazily and read-only once filled (see
there).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
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


def _svd(A, op, compute_uv=True):
    """Thin SVD of A, or its singular values alone; a LAPACK failure to
    converge is a ConvergenceError that names ``op``."""
    try:
        return np.linalg.svd(A, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"{op}: LAPACK SVD did not converge ({exc})") from None


def _fro_norm(A: np.ndarray) -> float:
    """||A||_F of a finite array, finite whenever the norm itself is.

    A is scaled by the power of two just above max |a| before squaring, as
    LAPACK's dnrm2 scales by max |a|, so no square overflows and the largest
    do not underflow.  A power of two scales exactly, so wherever the
    unscaled squares stay in range the result is bit for bit
    ``np.linalg.norm(A)``.
    """
    big = max(-float(A.min()), float(A.max()))
    if big == 0.0:
        return 0.0
    e = math.frexp(big)[1]
    return math.ldexp(float(np.linalg.norm(np.ldexp(A, -e))), e)


class _Adopted:
    """An array the library has just allocated and hands to one of the array
    types, which then freezes it in place instead of copying it.  Wrap only
    an array that no other code refers to."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _frozen_array(obj, field, raw):
    """Store ``raw`` as ``obj.field``, validated and read-only: a copy of
    caller input, or the array itself when it comes wrapped in _Adopted."""
    vals = raw.array if isinstance(raw, _Adopted) else np.array(raw, dtype=float)
    vals = _matrix(vals, f"{type(obj).__name__}.{field}")
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

    The spectrum of X is computed on first use and kept, so every reader of
    X's singular values shares one SVD: ``_sigma`` for the singular values
    alone, ``_factor`` for the thin factor that theory mode needs.  Both are
    read-only.  Two threads that fill the same entry at once at most compute
    it twice, and LAPACK returns the same value both times.
    """

    values: np.ndarray
    centered: bool = False

    def __post_init__(self):
        vals = _frozen_array(self, "values", self.values)
        if self.centered:
            # max |v| of a row is max(max v, -min v), with no n x d temporary
            scale = np.maximum(1.0, np.maximum(vals.max(axis=1), -vals.min(axis=1)))
            if np.any(np.abs(vals.mean(axis=1)) > CENTERING_TOL * scale):
                raise FeasibilityError("centered flag set but row means are not zero")

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @functools.cached_property
    def _factor(self) -> tuple[np.ndarray, np.ndarray]:
        """sigma and Sigma V^T from the thin SVD X = U Sigma V^T.

        Sigma V^T is r x n with r = min(d, n).  U has orthonormal columns, so
        ||X M||_2 = ||(Sigma V^T) M||_2 for every M with n rows.
        """
        _, sigma, Vt = _svd(self.values, "data factorization")
        SVt = sigma[:, None] * Vt
        sigma.setflags(write=False)
        SVt.setflags(write=False)
        return sigma, SVt

    @functools.cached_property
    def _sigma(self) -> np.ndarray:
        """All min(d, n) singular values, nonincreasing: the factor's when it
        exists, otherwise from an SVD that computes no vectors."""
        if "_factor" in self.__dict__:
            return self._factor[0]
        sigma = _svd(self.values, "singular values", compute_uv=False)
        sigma.setflags(write=False)
        return sigma


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


def _is_count(value) -> bool:
    """An int or a numpy integer; a bool is an int to Python but not a count here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A count or a float: np.float64, not np.float32, so step sizes stay float64."""
    return _is_count(value) or isinstance(value, float)


def _count(name, value, low=1, high=math.inf):
    """Raise DomainError unless value is a count in low..high."""
    if not (_is_count(value) and low <= value <= high):
        span = f"in {low}..{high}" if high < math.inf else f">= {low}"
        raise DomainError(f"{name} must be an integer {span}, got {value!r}")


def _number(name, value, low=0.0, high=math.inf, *, open_low=True):
    """Raise DomainError unless value is a finite number in (low, high], or in
    [low, high] when not ``open_low``; by default a positive finite number."""
    if not (_is_number(value) and (low < value if open_low else low <= value)
            and value <= high and value < math.inf):
        left, right = "(" if open_low else "[", ")" if high == math.inf else "]"
        raise DomainError(f"{name} must lie in {left}{low:g}, {high:g}{right}, got {value!r}")


@dataclass(frozen=True)
class FixedBeta:
    """Constant Q-step parameter, the practical choice."""

    value: float

    def __post_init__(self):
        _number("beta", self.value)


@dataclass(frozen=True)
class AdaptiveBeta:
    """Bounds (beta_star, beta_sup) for the per-iteration adaptive schedule."""

    beta_star: float
    beta_sup: float

    def __post_init__(self):
        _number("beta_star", self.beta_star)
        _number("beta_sup", self.beta_sup)
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
        _number("alpha", self.alpha)
        _number("tol", self.tol)
        if not isinstance(self.beta_mode, (FixedBeta, AdaptiveBeta)):
            raise DomainError("beta_mode must be FixedBeta or AdaptiveBeta")
        _number("gamma", self.gamma, 0.0, 1.0, open_low=False)
        _count("max_iters", self.max_iters)
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
