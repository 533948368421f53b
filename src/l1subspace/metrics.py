"""Solution-quality and convergence metrics.

Covers total explained variance against the L2 baseline, gap traces for
convergence plots, least-squares linear-rate fitting on log gaps, a small
deterministic k-means with permutation-matched clustering accuracy, the
energy rule for choosing the subspace dimension, and rank-K reconstruction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import DataMatrix, StiefelPoint
from .errors import DomainError, ShapeError
from .linalg import singular_values
from .solvers import RunTrace

KMEANS_MAX_ITERS = 300
KMEANS_RESTARTS = 10


class GapTraces(NamedTuple):
    """Per-snapshot distances to the run's final iterate, aligned with
    ``trace.snapshot_iters``."""

    function_gaps: np.ndarray
    iterate_gaps: np.ndarray


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log10(gap) against iteration number."""

    slope: float
    r2: float
    window: range

    def __post_init__(self):
        if not isinstance(self.window, range) or len(self.window) < 10:
            raise DomainError(
                f"window must be a range of at least 10 iterations, got {self.window!r}"
            )
        if not 0.0 <= self.r2 <= 1.0:
            raise DomainError(f"r2 = {self.r2} outside [0, 1]")


def l2_baseline_energy(X: DataMatrix, k: int) -> float:
    """Best rank-k captured energy: sum of the k largest squared singular
    values of X, equal to ||X^T Qbar||_F^2 for the dominant left basis Qbar."""
    if not (isinstance(k, (int, np.integer)) and 1 <= k <= min(X.d, X.n)):
        raise DomainError(f"k must be in 1..{min(X.d, X.n)}, got {k!r}")
    s = singular_values(X)
    return float(np.sum(s[:k] ** 2))


def tev(X: DataMatrix, Q: StiefelPoint, *, baseline: float | None = None) -> float:
    """Total explained variance ||X^T Q||_F^2 / ||X^T Qbar||_F^2 relative to
    the best subspace of the same dimension.

    ``baseline`` short-circuits the denominator when the caller has already
    computed l2_baseline_energy(X, Q.k); X = 0 is a domain error.
    """
    if Q.d != X.d:
        raise ShapeError(f"Q has {Q.d} rows but X has {X.d}")
    if baseline is None:
        baseline = l2_baseline_energy(X, Q.k)
    if not baseline > 0.0:
        raise DomainError("baseline energy is zero; X must be nonzero")
    captured = float(np.sum((X.values.T @ Q.values) ** 2))
    return captured / baseline


def gap_traces(trace: RunTrace, final: StiefelPoint) -> GapTraces:
    """Distances of the stored snapshots to the final iterate.

    Function gaps are h(P^k, Q^k) - h at the last recorded iteration (the
    objective h is recorded every iteration); iterate gaps are
    ||Q^k - Q*||_F over the stored snapshots.  Both sequences align with
    ``trace.snapshot_iters``.
    """
    if not trace.snapshot_iters:
        raise DomainError("trace holds no iterate snapshots")
    h = np.asarray(trace.h)
    h_star = h[-1]
    function_gaps = np.array([h[k] - h_star for k in trace.snapshot_iters])
    iterate_gaps = np.array(
        [np.linalg.norm(Qk - final.values) for Qk in trace.q_snapshots]
    )
    return GapTraces(function_gaps, iterate_gaps)


def fit_linear_rate(gaps, window: range) -> RateFit:
    """Ordinary least squares of log10(gap) on the iteration index.

    ``gaps`` is indexed by iteration; ``window`` selects which iterations to
    fit (at least 10).  Every selected gap must be positive.
    """
    gaps = np.asarray(gaps, dtype=float)
    if not isinstance(window, range):
        raise DomainError(f"window must be a range, got {type(window).__name__}")
    if len(window) < 10:
        raise DomainError(f"window must cover at least 10 iterations, got {len(window)}")
    ks = np.array(window)
    if ks.min() < 0 or ks.max() >= gaps.shape[0]:
        raise DomainError(
            f"window {window!r} outside the recorded range 0..{gaps.shape[0] - 1}"
        )
    selected = gaps[ks]
    if np.any(selected <= 0.0) or not np.all(np.isfinite(selected)):
        raise DomainError("every gap in the window must be positive and finite")
    y = np.log10(selected)
    slope, intercept = np.polyfit(ks, y, 1)
    residuals = y - (slope * ks + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-20 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return RateFit(float(slope), float(min(max(r2, 0.0), 1.0)), window)


# ---------------------------------------------------------------------------
# clustering


def _kmeans_plus_plus(pts, k, rng):
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)  # fewer distinct points than centers
        centers[j] = pts[idx]
        d2 = np.minimum(d2, ((pts - centers[j]) ** 2).sum(axis=1))
    return centers


def _lloyd(pts, centers, max_iters):
    n, k = pts.shape[0], centers.shape[0]
    labels = None
    for _ in range(max_iters):
        dists = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        # reseed each empty cluster with the point farthest from its center
        assigned = dists[np.arange(n), new_labels]
        taken: set[int] = set()
        for j in range(k):
            if not np.any(new_labels == j):
                order = np.argsort(-assigned)
                far = next(int(i) for i in order if int(i) not in taken)
                taken.add(far)
                centers[j] = pts[far]
                new_labels[far] = j
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
        for j in range(k):
            members = pts[labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    inertia = float(((pts - centers[labels]) ** 2).sum())
    return labels, inertia


def kmeans(points, k: int, seed: int = 0) -> np.ndarray:
    """Seeded k-means labels for column points, best of ``KMEANS_RESTARTS`` runs.

    ``points`` holds one point per column.  Each restart draws its own
    generator from (seed, restart), initializes with distance-squared
    sampling, and runs Lloyd iterations until assignments stabilize; the
    restart with the lowest within-cluster sum of squares wins, ties going
    to the lowest restart index.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.size == 0:
        raise ShapeError(f"points must be a nonempty 2-d array, got {np.shape(points)}")
    if not np.all(np.isfinite(pts)):
        raise DomainError("points contain non-finite values")
    n = pts.shape[1]
    if not (isinstance(k, (int, np.integer)) and 1 <= k <= n):
        raise DomainError(f"k must be in 1..{n}, got {k!r}")
    pts = pts.T.copy()
    best_labels, best_inertia = None, np.inf
    for r in range(KMEANS_RESTARTS):
        rng = np.random.default_rng([seed, r])
        centers = _kmeans_plus_plus(pts, int(k), rng)
        labels, inertia = _lloyd(pts, centers, KMEANS_MAX_ITERS)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels


def clustering_accuracy(pred, truth) -> float:
    """Best agreement between two labelings over all label permutations.

    Label values are arbitrary; at most 8 distinct labels per side so the
    exhaustive permutation search stays cheap.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ShapeError(
            f"label sequences must be 1-d and equally long, got {pred.shape} vs {truth.shape}"
        )
    if pred.size == 0:
        raise DomainError("label sequences are empty")
    t_vals, t_idx = np.unique(truth, return_inverse=True)
    p_vals, p_idx = np.unique(pred, return_inverse=True)
    m = max(len(t_vals), len(p_vals))
    if m > 8:
        raise DomainError(f"{m} distinct labels exceed the permutation limit of 8")
    confusion = np.zeros((m, m), dtype=np.int64)
    np.add.at(confusion, (t_idx, p_idx), 1)
    best = max(
        sum(confusion[i, perm[i]] for i in range(m))
        for perm in itertools.permutations(range(m))
    )
    return float(best) / float(pred.size)


def choose_k_energy(X: DataMatrix, threshold: float = 0.8) -> int:
    """Smallest dimension whose squared singular values capture at least
    ``threshold`` of the total."""
    if not (isinstance(threshold, (int, float)) and 0.0 < threshold <= 1.0):
        raise DomainError(f"threshold must lie in (0, 1], got {threshold!r}")
    s = singular_values(X)
    cum = np.cumsum(s**2)
    total = float(cum[-1])
    if total <= 0.0:
        raise DomainError("X is zero; no energy to capture")
    reached = cum >= threshold * total * (1.0 - 1e-12)
    return int(np.argmax(reached)) + 1


def reconstruct(X: DataMatrix, Q: StiefelPoint) -> DataMatrix:
    """Projection Q Q^T X of the data onto the subspace."""
    if Q.d != X.d:
        raise ShapeError(f"Q has {Q.d} rows but X has {X.d}")
    values = Q.values @ (Q.values.T @ X.values)
    return DataMatrix(values, centered=X.centered)
