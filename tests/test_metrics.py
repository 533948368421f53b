"""Tests for quality metrics, rate fitting, clustering, and reconstruction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1subspace import (
    DataMatrix,
    FixedBeta,
    RateFit,
    SolverConfig,
    StiefelPoint,
    choose_k_energy,
    clustering_accuracy,
    fit_linear_rate,
    gap_traces,
    kmeans,
    random_stiefel,
    reconstruct,
    solve,
    tev,
)
from l1subspace.errors import DomainError, ShapeError
from l1subspace.metrics import KMEANS_MAX_ITERS, KMEANS_RESTARTS, _lloyd

from traced import traced_peak


def centered(values):
    vals = np.asarray(values, dtype=float)
    return DataMatrix(vals - vals.mean(axis=1, keepdims=True), centered=True)


def random_centered(d, n, rng):
    return centered(rng.standard_normal((d, n)))


# ---------------------------------------------------------------------------
# total explained variance


class TestTev:
    def test_best_basis_scores_one(self):
        rng = np.random.default_rng(0)
        X = random_centered(8, 30, rng)
        Qbar = StiefelPoint(np.linalg.svd(X.values, full_matrices=False)[0][:, :3])
        assert tev(X, Qbar) == pytest.approx(1.0, abs=1e-12)

    def test_axis_fixture(self):
        # X = diag(3,2,1), K = 1, Q = e2: captured 2^2 = 4 of the best 3^2 = 9
        X = DataMatrix(np.diag([3.0, 2.0, 1.0]))
        Q = StiefelPoint(np.array([[0.0], [1.0], [0.0]]))
        assert tev(X, Q) == pytest.approx(4.0 / 9.0, abs=1e-12)

    def test_bounded_by_one_for_any_feasible_q(self):
        rng = np.random.default_rng(1)
        X = random_centered(10, 25, rng)
        for trial in range(25):
            value = tev(X, random_stiefel(10, 4, seed=trial))
            assert 0.0 <= value <= 1.0 + 1e-9

    def test_invariant_under_basis_rotation(self):
        rng = np.random.default_rng(2)
        X = random_centered(7, 20, rng)
        Q = random_stiefel(7, 3, seed=5)
        U = random_stiefel(3, 3, seed=6).values  # orthogonal 3x3
        before = tev(X, Q)
        after = tev(X, StiefelPoint(Q.values @ U))
        assert after == pytest.approx(before, abs=1e-12)

    def test_shares_the_cached_spectrum(self, monkeypatch):
        # the baseline is X's cached spectrum: one values-only SVD of X
        # serves every tev and the energy rule, and matches the plain formula
        rng = np.random.default_rng(3)
        X = random_centered(9, 15, rng)
        Q = random_stiefel(9, 2, seed=7)
        s = np.linalg.svd(X.values, compute_uv=False)
        want = float(np.sum((X.values.T @ Q.values) ** 2)) / float(np.sum(s[:2] ** 2))
        real_svd = np.linalg.svd
        calls = []

        def counting_svd(a, *args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert tev(X, Q) == want
        assert tev(X, Q) == want
        choose_k_energy(X)
        assert calls == [False]

    def test_huge_data_gives_the_scaled_ratio(self):
        # ||X^T Q||_F^2 overflows at this scale, but the ratio is scale-free
        rng = np.random.default_rng(8)
        X = random_centered(6, 20, rng)
        Q = random_stiefel(6, 2, seed=9)
        with np.errstate(over="raise"):
            huge = tev(DataMatrix(X.values * 1e200), Q)
        assert huge == pytest.approx(tev(X, Q), rel=1e-12)

    def test_zero_matrix_is_domain_error(self):
        X = DataMatrix(np.zeros((4, 6)))
        Q = StiefelPoint(np.eye(4)[:, :2])
        with pytest.raises(DomainError):
            tev(X, Q)

    def test_shape_mismatch(self):
        X = DataMatrix(np.ones((4, 6)))
        with pytest.raises(ShapeError):
            tev(X, StiefelPoint(np.eye(5)[:, :2]))


# ---------------------------------------------------------------------------
# gap traces


def practical_config(**kw):
    base = dict(
        alpha=1e-6, beta_mode=FixedBeta(10.0), gamma=1.0, max_iters=2000, tol=1e-6
    )
    base.update(kw)
    return SolverConfig(**base)


class TestGapTraces:
    def test_converged_run_ends_at_zero(self):
        rng = np.random.default_rng(4)
        X = random_centered(8, 40, rng)
        report = solve(X, practical_config(), random_stiefel(8, 2, seed=0), snapshots=True)
        assert report.stop_reason == "tolerance"
        gaps = gap_traces(report.trace, report.final_Q)
        assert len(gaps.function_gaps) == report.iterations + 1
        assert len(gaps.iterate_gaps) == report.iterations + 1
        assert gaps.function_gaps[-1] == 0.0
        assert gaps.iterate_gaps[-1] == 0.0
        # entry k describes iterate k
        h, final = report.trace.h, report.final_Q.values
        for k, Qk in enumerate(report.trace.q_snapshots):
            assert gaps.function_gaps[k] == h[k] - h[-1]
            assert gaps.iterate_gaps[k] == np.linalg.norm(Qk - final)

    def test_unpacks_as_pair(self):
        rng = np.random.default_rng(5)
        X = random_centered(6, 20, rng)
        report = solve(X, practical_config(), random_stiefel(6, 2, seed=1), snapshots=True)
        function_gaps, iterate_gaps = gap_traces(report.trace, report.final_Q)
        assert function_gaps.shape == iterate_gaps.shape

    def test_stationary_run_is_identically_zero(self):
        X = DataMatrix(np.zeros((5, 8)), centered=True)
        report = solve(X, practical_config(), random_stiefel(5, 2, seed=2), snapshots=True)
        gaps = gap_traces(report.trace, report.final_Q)
        assert np.all(gaps.function_gaps == 0.0)
        assert np.all(gaps.iterate_gaps == 0.0)

    def test_missing_snapshots_raise(self):
        rng = np.random.default_rng(6)
        X = random_centered(6, 20, rng)
        report = solve(X, practical_config(), random_stiefel(6, 2, seed=3),
                       snapshots=False)
        with pytest.raises(DomainError):
            gap_traces(report.trace, report.final_Q)


# ---------------------------------------------------------------------------
# linear-rate fitting


class TestFitLinearRate:
    def test_exact_geometric_decay(self):
        gaps = 10.0 ** (-np.arange(30, dtype=float))
        fit = fit_linear_rate(gaps, range(0, 30))
        assert fit.slope == pytest.approx(-1.0, abs=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_gaps_have_zero_slope(self):
        fit = fit_linear_rate(np.full(20, 0.125), range(0, 20))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r2 == 1.0

    def test_strided_window_uses_true_iteration_numbers(self):
        gaps = 10.0 ** (-np.arange(60, dtype=float))
        fit = fit_linear_rate(gaps, range(10, 50, 2))
        assert fit.slope == pytest.approx(-1.0, abs=1e-10)

    def test_noisy_decay_keeps_high_r2(self):
        rng = np.random.default_rng(7)
        ks = np.arange(100, dtype=float)
        gaps = 10.0 ** (-0.05 * ks) * (1.0 + 0.01 * rng.standard_normal(100))
        fit = fit_linear_rate(gaps, range(40, 100))
        assert fit.slope < 0.0
        assert fit.r2 >= 0.99

    def test_r2_stays_in_unit_interval(self):
        rng = np.random.default_rng(8)
        gaps = np.exp(rng.standard_normal(50))
        fit = fit_linear_rate(gaps, range(0, 50))
        assert 0.0 <= fit.r2 <= 1.0

    def test_rejects_short_window(self):
        with pytest.raises(DomainError):
            fit_linear_rate(np.ones(20), range(0, 9))

    def test_rejects_window_outside_data(self):
        with pytest.raises(DomainError):
            fit_linear_rate(np.ones(20), range(15, 30))

    def test_rejects_nonpositive_gaps(self):
        gaps = np.ones(20)
        gaps[12] = 0.0
        with pytest.raises(DomainError):
            fit_linear_rate(gaps, range(0, 20))

    def test_rejects_non_range_window(self):
        with pytest.raises(DomainError):
            fit_linear_rate(np.ones(20), [0, 1, 2, 3, 4, 5, 6, 7, 8, 9])

    def test_rate_fit_validates_itself(self):
        with pytest.raises(DomainError):
            RateFit(-1.0, 0.5, range(0, 5))
        with pytest.raises(DomainError):
            RateFit(-1.0, 1.5, range(0, 20))


# ---------------------------------------------------------------------------
# k-means and accuracy


class TestKmeans:
    def test_two_clear_clusters_on_a_line(self):
        points = np.array([[0.0, 0.1, 10.0, 10.1]])
        labels = kmeans(points, 2, seed=0)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_k_equals_n_gives_singletons(self):
        points = np.array([[0.0, 1.0, 2.0, 3.0]])
        labels = kmeans(points, 4, seed=0)
        assert len(set(labels.tolist())) == 4

    def test_duplicated_points_keep_the_partition(self):
        rng = np.random.default_rng(9)
        blob_a = rng.standard_normal((2, 8)) * 0.2
        blob_b = rng.standard_normal((2, 8)) * 0.2 + 10.0
        points = np.hstack([blob_a, blob_b])
        doubled = np.hstack([points, points])
        base = kmeans(points, 2, seed=1)
        dup = kmeans(doubled, 2, seed=1)
        assert np.array_equal(dup[:16], dup[16:])  # identical points agree
        assert clustering_accuracy(base, dup[:16]) == 1.0

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(10)
        points = rng.standard_normal((3, 30))
        assert np.array_equal(kmeans(points, 3, seed=4), kmeans(points, 3, seed=4))

    def test_separated_blobs_recovered_exactly(self):
        rng = np.random.default_rng(11)
        truth = np.repeat([0, 1, 2], 20)
        offsets = np.array([[0.0, 30.0, -30.0], [0.0, 30.0, 30.0]])
        points = rng.standard_normal((2, 60)) + offsets[:, truth]
        labels = kmeans(points, 3, seed=5)
        assert clustering_accuracy(labels, truth) == 1.0

    def test_rejects_k_beyond_n(self):
        with pytest.raises(DomainError):
            kmeans(np.ones((2, 3)), 4, seed=0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            kmeans(np.ones(5), 2, seed=0)

    def test_lloyd_repairs_empty_clusters(self):
        # both initial centers far away on the same side: first assignment
        # sends everything to one cluster and the other must be reseeded
        pts = np.array([[0.0], [1.0], [10.0]])
        centers = np.array([[100.0], [200.0]])
        labels, inertia = _lloyd(pts, pts.T.copy(), centers, 300)
        assert len(set(labels.tolist())) == 2
        assert math.isfinite(inertia)


# Reference k-means: the n x k x K broadcast formulation with per-cluster
# boolean masks and mean(axis=0).  The library's column-wise kernel must give
# the same labels, inertia and centers bit for bit for K <= 7.


def _reference_kmeans_plus_plus(pts, k, rng):
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[j] = pts[idx]
        d2 = np.minimum(d2, ((pts - centers[j]) ** 2).sum(axis=1))
    return centers


def _reference_lloyd(pts, centers, max_iters):
    n, k = pts.shape[0], centers.shape[0]
    labels = None
    for _ in range(max_iters):
        dists = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
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


def _reference_kmeans(points, k, seed):
    pts = np.asarray(points, dtype=float).T.copy()
    best_labels, best_inertia = None, np.inf
    for r in range(KMEANS_RESTARTS):
        rng = np.random.default_rng([seed, r])
        centers = _reference_kmeans_plus_plus(pts, k, rng)
        labels, inertia = _reference_lloyd(pts, centers, KMEANS_MAX_ITERS)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels


@st.composite
def cluster_inputs(draw):
    """K x n column points, K in 1..7, with k <= min(n, 10) clusters.  Points
    are standard normal, rounded to integers, or a few integer points
    repeated, so distance ties and empty clusters occur."""
    K = draw(st.integers(1, 7))
    n = draw(st.integers(1, 300))
    k = draw(st.integers(1, min(n, 10)))
    kind = draw(st.sampled_from(["normal", "integer", "duplicated"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = 3.0 * rng.standard_normal((K, n))
    if kind != "normal":
        points = np.round(points)
    if kind == "duplicated":
        points = points[:, rng.integers(0, max(1, n // 4), size=n)]
    return points, k, rng


@settings(max_examples=150, deadline=None)
@given(cluster_inputs(), st.integers(0, 1000))
def test_kmeans_matches_broadcast_reference(case, seed):
    points, k, _ = case
    assert np.array_equal(kmeans(points, k, seed=seed), _reference_kmeans(points, k, seed))


@settings(max_examples=300, deadline=None)
@given(cluster_inputs(), st.sampled_from([0.0, 1.0, 20.0]))
def test_lloyd_matches_broadcast_reference(case, spread):
    # centers on, near or far from data points: far ones leave clusters empty
    points, k, rng = case
    pts = points.T.copy()
    start = pts[rng.integers(0, pts.shape[0], size=k)] + spread * rng.standard_normal((k, pts.shape[1]))
    centers, want_centers = start.copy(), start.copy()
    labels, inertia = _lloyd(pts, pts.T.copy(), centers, KMEANS_MAX_ITERS)
    want_labels, want_inertia = _reference_lloyd(pts, want_centers, KMEANS_MAX_ITERS)
    assert np.array_equal(labels, want_labels)
    assert inertia == want_inertia
    assert np.array_equal(centers, want_centers)


def test_lloyd_memory_is_linear_in_points_times_clusters():
    # one n x k x K float array at n = 20000, k = 10, K = 7 is 10.7 MiB
    rng = np.random.default_rng(13)
    pts = rng.standard_normal((20000, 7))
    centers = pts[:10].copy()
    _, peak = traced_peak(_lloyd, pts, pts.T.copy(), centers, 3)
    assert peak < 8e6


class TestClusteringAccuracy:
    def test_identical_labelings(self):
        labels = np.array([0, 1, 1, 0, 1])
        assert clustering_accuracy(labels, labels) == 1.0

    def test_binary_complement_is_perfect(self):
        truth = np.array([0, 1, 1, 0, 1, 0])
        assert clustering_accuracy(1 - truth, truth) == 1.0

    def test_invariant_under_relabeling(self):
        rng = np.random.default_rng(12)
        truth = rng.integers(0, 3, size=50)
        pred = rng.integers(0, 3, size=50)
        remap = np.array([7, 2, 9])
        assert clustering_accuracy(remap[pred], truth) == clustering_accuracy(
            pred, truth
        )

    def test_random_binary_guessing_scores_near_half(self):
        rng = np.random.default_rng(13)
        truth = np.repeat([0, 1], 5000)
        pred = rng.integers(0, 2, size=10000)
        acc = clustering_accuracy(pred, truth)
        assert 0.48 <= acc <= 0.52

    def test_partial_agreement_oracle(self):
        # 4 of 5 agree under the best permutation (swap the labels)
        truth = np.array([0, 0, 1, 1, 1])
        pred = np.array([1, 1, 0, 0, 1])
        best = 0
        for a, b in ((0, 1), (1, 0)):
            mapping = {0: a, 1: b}
            best = max(best, sum(mapping[p] == t for p, t in zip(pred, truth)))
        assert clustering_accuracy(pred, truth) == best / 5.0

    def test_unequal_label_counts_still_match(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 2, 2])
        assert clustering_accuracy(pred, truth) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            clustering_accuracy([0, 1], [0, 1, 1])

    def test_too_many_labels(self):
        with pytest.raises(DomainError):
            clustering_accuracy(np.arange(9), np.arange(9))


# ---------------------------------------------------------------------------
# energy rule


class TestChooseKEnergy:
    def test_three_singular_values_fixture(self):
        # squares 9, 4, 1: 9/14 < 0.8 but 13/14 >= 0.8, so K = 2
        X = DataMatrix(np.diag([3.0, 2.0, 1.0]))
        assert choose_k_energy(X, threshold=0.8) == 2

    def test_threshold_one_returns_rank(self):
        rng = np.random.default_rng(14)
        low_rank = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 5))
        assert choose_k_energy(DataMatrix(low_rank), threshold=1.0) == 2

    def test_huge_data_picks_the_same_dimension(self):
        # the squared singular values overflow at this scale; their shares do not
        X = DataMatrix(np.diag([3.0, 2.0, 1.0]) * 1e200)
        with np.errstate(over="raise"):
            assert choose_k_energy(X, threshold=0.8) == 2

    def test_rank_one_always_one(self):
        X = DataMatrix(np.outer([1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0]))
        assert choose_k_energy(X, threshold=0.2) == 1
        assert choose_k_energy(X, threshold=0.99) == 1

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(15)
        X = DataMatrix(rng.standard_normal((6, 9)))
        s = np.linalg.svd(X.values, compute_uv=False)
        for threshold in (0.3, 0.5, 0.8, 0.95):
            total = sum(v * v for v in s)
            running, expected = 0.0, None
            for i, v in enumerate(s):
                running += v * v
                if running >= threshold * total:
                    expected = i + 1
                    break
            assert choose_k_energy(X, threshold=threshold) == expected

    def test_bad_threshold(self):
        X = DataMatrix(np.eye(3))
        for threshold in (0.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                choose_k_energy(X, threshold=threshold)

    def test_zero_matrix(self):
        with pytest.raises(DomainError):
            choose_k_energy(DataMatrix(np.zeros((3, 4))))


# ---------------------------------------------------------------------------
# reconstruction


class TestReconstruct:
    def test_exact_when_subspace_contains_data(self):
        rng = np.random.default_rng(16)
        Q = random_stiefel(6, 2, seed=8)
        X = DataMatrix(Q.values @ rng.standard_normal((2, 10)))
        rebuilt = reconstruct(X, Q)
        assert np.allclose(rebuilt.values, X.values, atol=1e-12)

    def test_zero_when_orthogonal(self):
        Q = StiefelPoint(np.eye(4)[:, :2])
        X = DataMatrix(np.vstack([np.zeros((2, 5)), np.ones((2, 5))]))
        assert np.allclose(reconstruct(X, Q).values, 0.0, atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(17)
        X = random_centered(7, 12, rng)
        Q = random_stiefel(7, 3, seed=9)
        once = reconstruct(X, Q)
        twice = reconstruct(once, Q)
        assert np.allclose(twice.values, once.values, atol=1e-10)

    def test_never_increases_norm(self):
        rng = np.random.default_rng(18)
        for trial in range(10):
            X = random_centered(5, 9, rng)
            Q = random_stiefel(5, 2, seed=trial)
            assert (
                np.linalg.norm(reconstruct(X, Q).values)
                <= np.linalg.norm(X.values) + 1e-12
            )

    def test_preserves_centered_flag(self):
        rng = np.random.default_rng(19)
        Q = random_stiefel(5, 2, seed=20)
        raw = DataMatrix(rng.standard_normal((5, 8)))
        assert not reconstruct(raw, Q).centered
        assert reconstruct(random_centered(5, 8, rng), Q).centered

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            reconstruct(DataMatrix(np.ones((4, 6))), StiefelPoint(np.eye(3)[:, :1]))
