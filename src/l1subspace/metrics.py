"""Solution-quality and convergence metrics.

Covers total explained variance against the L2 baseline, gap traces for
convergence plots, least-squares linear-rate fitting on log gaps, a small
deterministic k-means with permutation-matched clustering accuracy, the
energy rule for choosing the subspace dimension, and rank-K reconstruction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import DataMatrix, StiefelPoint, _count, _fit, _number
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
        _window(self.window)
        if not 0.0 <= self.r2 <= 1.0:
            raise DomainError(f"r2 = {self.r2} outside [0, 1]")


def _window(window) -> None:
    """Raise DomainError unless window is a range of at least 10 iterations."""
    if not isinstance(window, range) or len(window) < 10:
        raise DomainError(f"window must be a range of at least 10 iterations, got {window!r}")


def tev(X: DataMatrix, Q: StiefelPoint) -> float:
    """Total explained variance ||X^T Q||_F^2 / ||X^T Qbar||_F^2 relative to
    the best subspace of the same dimension.

    The denominator is the sum of the K largest squared singular values of
    X, read from X's cached spectrum.  Both energies are formed from values
    scaled by 2^-e for the power of two 2^e just above sigma_1: those lie
    below 1 in magnitude, so no square overflows, and a power of two scales
    exactly, so the ratio is bit for bit the unscaled one wherever that is
    finite.  X = 0 is a domain error.
    """
    _fit(X, Q)
    s = singular_values(X)
    if not s[0] > 0.0:
        raise DomainError("baseline energy is zero; X must be nonzero")
    e = -math.frexp(float(s[0]))[1]
    baseline = float(np.sum(np.ldexp(s[: Q.k], e) ** 2))
    captured = float(np.sum(np.ldexp(X.values.T @ Q.values, e) ** 2))
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
    _window(window)
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


def _sq_dists(coords, centers, out, scratch):
    """Squared distances from each center (row of ``centers``, k x K) to each
    point (column of ``coords``, K x n) into ``out`` (k x n); ``scratch`` is a
    second k x n buffer.

    Coordinates are added one at a time, in order.  For K <= 7 that is bit
    for bit what numpy's ``sum`` over the last axis of the n x k x K
    difference array does; numpy sums pairwise only from 8 terms.
    """
    np.subtract(coords[0], centers[:, :1], out=out)
    np.square(out, out=out)
    for c in range(1, coords.shape[0]):
        np.subtract(coords[c], centers[:, c : c + 1], out=scratch)
        np.square(scratch, out=scratch)
        out += scratch
    return out


def _nearest_center(dists):
    """Index of each column's smallest entry, the first one on ties (as
    ``argmin(axis=0)``, without its transposed copy), and that entry."""
    labels = np.zeros(dists.shape[1], dtype=np.intp)
    nearest = dists[0].copy()
    for j in range(1, dists.shape[0]):
        labels[dists[j] < nearest] = j
        np.minimum(nearest, dists[j], out=nearest)
    return labels, nearest


def _kmeans_plus_plus(coords, k, rng):
    n = coords.shape[1]
    centers = np.empty((k, coords.shape[0]))
    d2, new, scratch = np.empty((3, 1, n))
    centers[0] = coords[:, rng.integers(n)]
    _sq_dists(coords, centers[:1], d2, scratch)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = rng.choice(n, p=d2[0] / total)
        else:
            idx = rng.integers(n)  # fewer distinct points than centers
        centers[j] = coords[:, idx]
        np.minimum(d2, _sq_dists(coords, centers[j : j + 1], new, scratch), out=d2)
    return centers


def _lloyd(pts, centers, max_iters):
    n, k = pts.shape[0], centers.shape[0]
    coords = pts.T.copy()
    dists, scratch = np.empty((2, k, n))
    labels = None
    for _ in range(max_iters):
        new_labels, nearest = _nearest_center(_sq_dists(coords, centers, dists, scratch))
        counts = np.bincount(new_labels, minlength=k)
        if not counts.all():
            # reseed each empty cluster with the point farthest from its
            # center; a reseed can empty a later cluster, which is reseeded too
            farthest = iter(np.argsort(-nearest))
            for j in range(k):
                if counts[j] == 0:
                    far = next(farthest)
                    counts[new_labels[far]] -= 1
                    counts[j] = 1
                    new_labels[far] = j
                    centers[j] = pts[far]
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
        filled = counts > 0
        if len(coords) == 1:
            # mean(axis=0) of an m x 1 array sums pairwise, not in member
            # order as bincount does, so one coordinate keeps the mean
            for j in np.flatnonzero(filled):
                centers[j, 0] = coords[0][labels == j].mean()
        else:
            # bincount adds each cluster's members in index order, as
            # mean(axis=0) does over the rows of an m x K array
            for c, row in enumerate(coords):
                sums = np.bincount(labels, weights=row, minlength=k)
                centers[filled, c] = sums[filled] / counts[filled]
    inertia = float(((pts - centers[labels]) ** 2).sum())
    return labels, inertia


def kmeans(points, k: int, seed: int = 0) -> np.ndarray:
    """Seeded k-means labels for column points, best of ``KMEANS_RESTARTS`` runs.

    ``points`` holds one point per column.  Each restart draws its own
    generator from (seed, restart), initializes with distance-squared
    sampling, and runs Lloyd iterations until assignments stabilize; the
    restart with the lowest within-cluster sum of squares wins, ties going
    to the lowest restart index.

    Cost: O(restarts * iterations * n * k * K) time for n points of K
    coordinates and k clusters, and O(n k) memory: squared distances go into
    two reused k x n buffers, one coordinate at a time, and cluster sums come
    from ``np.bincount``.  For K <= 7 the labels are bit for bit those of the
    n x k x K broadcast formulation.  From K = 8 numpy sums that broadcast
    array pairwise, so distances differ in the last bits and a near tie can
    go the other way: in 300 random inputs with K = 8..12 (n 20..300, k
    2..10, a third rounded to integers) no ``kmeans`` call and 2 single
    Lloyd runs from fixed centers gave other labels.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.size == 0:
        raise ShapeError(f"points must be a nonempty 2-d array, got {np.shape(points)}")
    if not np.all(np.isfinite(pts)):
        raise DomainError("points contain non-finite values")
    n = pts.shape[1]
    _count("k", k, 1, n)
    coords = np.ascontiguousarray(pts)
    pts = pts.T.copy()
    best_labels, best_inertia = None, np.inf
    for r in range(KMEANS_RESTARTS):
        rng = np.random.default_rng([seed, r])
        centers = _kmeans_plus_plus(coords, int(k), rng)
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
    ``threshold`` of the total.

    The singular values are X's cached spectrum, scaled as in ``tev``.
    """
    _number("threshold", threshold, 0.0, 1.0)
    s = singular_values(X)
    if not s[0] > 0.0:
        raise DomainError("X is zero; no energy to capture")
    cum = np.cumsum(np.ldexp(s, -math.frexp(float(s[0]))[1]) ** 2)
    total = float(cum[-1])
    reached = cum >= threshold * total * (1.0 - 1e-12)
    return int(np.argmax(reached)) + 1


def reconstruct(X: DataMatrix, Q: StiefelPoint) -> DataMatrix:
    """Projection Q Q^T X of the data onto the subspace."""
    _fit(X, Q)
    values = Q.values @ (Q.values.T @ X.values)
    return DataMatrix(values, centered=X.centered)
