"""Acceptance gate: one test per shipped guarantee, pinned tolerances.

Each criterion is a single test so the terminal summary (see conftest)
prints exactly one PASS/FAIL line per guarantee.  The solver settings used
here are frozen; changing them invalidates the calibrated thresholds.
"""

import json
import time

import numpy as np
import pytest

from l1subspace import (
    AdaptiveBeta,
    DataMatrix,
    FixedBeta,
    GrayImage,
    LabeledDataset,
    SignMatrix,
    SolverConfig,
    StiefelPoint,
    add_block_outliers,
    center_features,
    choose_k_energy,
    clustering_accuracy,
    fit_linear_rate,
    gap_traces,
    gen_synthetic,
    kmeans,
    objective_l,
    parse_libsvm,
    polar_factor,
    random_stiefel,
    read_pgm,
    solve,
    sufficient_decrease_check,
    tev,
    write_csv_matrix,
    write_libsvm,
    write_pgm,
)
from l1subspace.cli import main as cli_main
from l1subspace.core import objective_h
from l1subspace.solvers import update_P, update_Q


def all_sign_patterns(m):
    # rows are every vector in {-1, +1}^m, in binary counting order
    bits = (np.arange(2 ** m, dtype=np.uint32)[:, None] >> np.arange(m)) & 1
    return bits.astype(float) * 2.0 - 1.0


# ---------------------------------------------------------------------------
# criterion 1: on tiny instances, minimizing the two-block objective over
# every sign matrix recovers the projection objective exactly, and the
# minimizer is the entrywise sign of X^T Q Q^T.


def test_criterion_01_reformulation_enumeration():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 16 // d + 1))
        K = int(rng.integers(1, d + 1))
        X = DataMatrix(rng.standard_normal((d, n)))
        Q = random_stiefel(d, K, seed=int(rng.integers(0, 2 ** 31)))
        T = (X.values.T @ Q.values) @ Q.values.T

        patterns = all_sign_patterns(n * d)
        h_all = -(patterns @ T.ravel())
        best = int(np.argmin(h_all))
        h_min = float(h_all[best])

        ell = objective_l(Q, X)
        assert h_min == pytest.approx(ell, rel=1e-12, abs=1e-12)
        P_best = patterns[best].reshape(n, d)
        assert h_min == pytest.approx(
            objective_h(P_best, Q.values, X.values.T @ Q.values), rel=1e-12, abs=1e-12
        )
        nz = np.abs(T) > 1e-9
        assert nz.all()  # continuous data: no ties to muddy the minimizer
        assert np.array_equal(P_best[nz], np.sign(T)[nz])
    assert time.perf_counter() - started < 5.0


# ---------------------------------------------------------------------------
# criterion 2: the two block updates solve their subproblems exactly; the
# sign step matches brute-force enumeration and the Procrustes step beats
# random Stiefel samples.


def test_criterion_02_subproblem_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(202)

    for _ in range(50):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 12 // d + 1))
        X = DataMatrix(rng.standard_normal((d, n)))
        E = rng.standard_normal((d, d))
        P_prev = np.where(rng.random((n, d)) < 0.5, -1.0, 1.0)
        alpha = float(10.0 ** rng.uniform(-1, 1))

        T = X.values.T @ E
        patterns = all_sign_patterns(n * d)
        objective = -(patterns @ T.ravel()) + 0.5 * alpha * np.sum(
            (patterns - P_prev.ravel()) ** 2, axis=1
        )
        brute_best = float(objective.min())

        P_new = P_prev.copy()
        update_P(P_new, T.copy(), alpha)
        achieved = -float(np.vdot(P_new, T)) + 0.5 * alpha * float(
            np.sum((P_new - P_prev) ** 2)
        )
        assert achieved <= brute_best + 1e-10 * (1.0 + abs(brute_best))

    for _ in range(50):
        d = int(rng.integers(3, 11))
        K = int(rng.integers(1, min(4, d) + 1))
        n = int(rng.integers(5, 21))
        X = DataMatrix(rng.standard_normal((d, n)))
        Q = random_stiefel(d, K, seed=int(rng.integers(0, 2 ** 31)))
        P = SignMatrix(np.where(rng.random((n, d)) < 0.5, -1.0, 1.0))
        beta = float(10.0 ** rng.uniform(-0.3, 1.7))

        Q_new = update_Q(X.values, P.values, Q.values, X.values.T @ Q.values, beta)
        XP = X.values @ P.values
        M = (XP + XP.T) @ Q.values + beta * Q.values

        samples = np.linalg.qr(rng.standard_normal((1000, d, K)))[0]
        sample_best = float(np.einsum("bij,ij->b", samples, M).max())
        assert float(np.vdot(Q_new, M)) >= sample_best - 1e-8
    assert time.perf_counter() - started < 30.0


# ---------------------------------------------------------------------------
# criterion 3: theory-mode runs never violate the per-sweep potential
# decrease inequality, under either reading of the constant.


def test_criterion_03_sufficient_decrease():
    for seed in range(20):
        X, _ = gen_synthetic(d=30, n=100, k=3, sigma=0.5, seed=seed)
        config = SolverConfig(
            alpha=1e-6,
            beta_mode=AdaptiveBeta(1.0, 1e9),
            gamma=1.0,
            max_iters=2000,
            tol=1e-8,
            theory_mode=True,
        )
        report = solve(X, config, random_stiefel(30, 3, seed=seed + 500))
        audit = sufficient_decrease_check(report.trace, config)
        assert audit.checked >= 1
        assert audit.violations == ()
        assert audit.violations_weak == ()


# ---------------------------------------------------------------------------
# criteria 4 and 5 share twenty practical-mode runs on one synthetic family.


PRACTICAL_RUNS = 20


@pytest.fixture(scope="module")
def practical_runs():
    runs = []
    for seed in range(PRACTICAL_RUNS):
        X, _ = gen_synthetic(d=50, n=200, k=5, sigma=0.5, seed=seed)
        config = SolverConfig(
            alpha=1e-6,
            beta_mode=FixedBeta(3000.0),
            gamma=1.0,
            max_iters=5000,
            tol=1e-10,
        )
        report = solve(X, config, random_stiefel(50, 5, seed=seed + 1000), snapshots=True)
        runs.append((X, report))
    return runs


def test_criterion_04_linear_convergence(practical_runs):
    passes = 0
    for X, report in practical_runs:
        k_stop = report.iterations
        assert report.stop_reason == "tolerance"
        assert k_stop > 51  # the 50-step window must sit past the start
        gaps = gap_traces(report.trace, report.final_Q).iterate_gaps
        fit = fit_linear_rate(gaps, range(k_stop - 50, k_stop))
        if fit.slope < 0.0 and fit.r2 >= 0.9:
            passes += 1
    assert passes >= 18


def test_criterion_05_criticality(practical_runs):
    exercised = 0
    for X, report in practical_runs:
        if not report.alpha_condition_holds:
            continue
        exercised += 1
        bound = 1e-5 * (1.0 + float(np.linalg.norm(X.values)))
        assert report.criticality <= bound
    assert exercised >= 1


# ---------------------------------------------------------------------------
# criterion 6: explained-variation quality band, extrapolated vs plain
# scheme from identical starts on ten datasets.


def test_criterion_06_tev_quality():
    started = time.perf_counter()
    scores = {1.0: [], 0.0: []}
    for seed in range(10):
        X, _ = gen_synthetic(d=200, n=500, k=20, sigma=0.5, seed=100 + seed)
        init_Q = random_stiefel(200, 20, seed=seed + 7919)
        for gamma in (1.0, 0.0):
            config = SolverConfig(
                alpha=1e-6,
                beta_mode=FixedBeta(20.0),
                gamma=gamma,
                max_iters=1000,
                tol=1e-6,
            )
            report = solve(X, config, init_Q, snapshots=False)
            scores[gamma].append(tev(X, report.final_Q))
    mean_extrapolated = float(np.mean(scores[1.0]))
    mean_plain = float(np.mean(scores[0.0]))
    assert mean_extrapolated >= 0.90
    assert mean_extrapolated >= mean_plain - 0.005
    assert time.perf_counter() - started < 300.0


# ---------------------------------------------------------------------------
# criterion 7: the objective and the explained-variation score are blind to
# right-rotations of the basis.


def test_criterion_07_rotational_invariance():
    rng = np.random.default_rng(707)
    X, _ = gen_synthetic(d=20, n=60, k=4, sigma=0.5, seed=7)
    for _ in range(100):
        Q = random_stiefel(20, 4, seed=int(rng.integers(0, 2 ** 31)))
        U = polar_factor(rng.standard_normal((4, 4)))
        QU = StiefelPoint(Q.values @ U)

        ell = objective_l(Q, X)
        assert abs(objective_l(QU, X) - ell) <= 1e-8 * (1.0 + abs(ell))
        assert abs(tev(X, QU) - tev(X, Q)) <= 1e-10


# ---------------------------------------------------------------------------
# criterion 8: end-to-end clustering on a planted two-cluster set, with the
# subspace dimension chosen by the 0.8 energy rule.


def test_criterion_08_clustering_pipeline():
    accuracies = []
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        direction = rng.standard_normal(50)
        direction /= np.linalg.norm(direction)
        labels = np.repeat([0, 1], 200)
        # cluster means at +-5 along one direction: separation 10x unit noise
        means = np.where(labels == 0, -5.0, 5.0) * direction[:, None]
        X = center_features(DataMatrix(means + rng.standard_normal((50, 400))))

        K = choose_k_energy(X, 0.8)
        config = SolverConfig(
            alpha=1e-6, beta_mode=FixedBeta(20.0), gamma=1.0,
            max_iters=1000, tol=1e-6,
        )
        report = solve(X, config, random_stiefel(50, K, seed=seed + 17),
                       snapshots=False)
        projected = report.final_Q.values.T @ X.values
        predicted = kmeans(projected, 2, seed=seed)
        accuracies.append(clustering_accuracy(predicted, labels))
    assert float(np.mean(accuracies)) >= 0.95


# ---------------------------------------------------------------------------
# criterion 9: data layer fidelity (sparse text round-trip, noise variance,
# image round-trip, and the corruption footprint).


def test_criterion_09_data_layer(tmp_path):
    # sparse text round-trip is exact
    rng = np.random.default_rng(909)
    features = rng.standard_normal((6, 10))
    features[rng.random((6, 10)) < 0.4] = 0.0
    features[0, 0] = 1e-17
    features[1, 2] = -3.7e5
    features[2, 3] = 0.1
    dataset = LabeledDataset(DataMatrix(features), rng.integers(-5, 5, 10))
    path = tmp_path / "round.txt"
    write_libsvm(dataset, path)
    again = parse_libsvm(path, n_features=6)
    assert np.array_equal(again.features.values, features)
    assert np.array_equal(again.labels, dataset.labels)

    # the generator's inverse-CDF noise hits the requested variance: off the
    # planted subspace only noise is left, with d - k of its d directions
    # and n - 1 of its n degrees of freedom after centering
    sigma, d, n, k = 1.7, 1000, 1000, 3
    X, truth = gen_synthetic(d, n, k, sigma, seed=9)
    Q = truth.Q_true.values
    residual = X.values - Q @ (Q.T @ X.values)
    want = sigma ** 2 * (1.0 - k / d) * (1.0 - 1.0 / n)
    assert float(np.var(residual)) == pytest.approx(want, rel=0.02)

    # image round-trips are lossless in both encodings
    pixels = rng.integers(0, 256, (11, 13)).astype(float)
    for binary in (True, False):
        target = tmp_path / f"img_{binary}.pgm"
        write_pgm(GrayImage(pixels), target, binary=binary)
        assert np.array_equal(read_pgm(target).pixels, pixels)

    # corruption touches exactly half the designated block, nothing else
    image = GrayImage(np.zeros((12, 18)))
    for block in (1, 5, 9):
        raw = add_block_outliers(image, block, seed=3)
        changed = raw != image.pixels
        assert int(changed.sum()) == (12 // 3) * (18 // 3) // 2
        row, col = divmod(block - 1, 3)
        block_mask = np.zeros((12, 18), dtype=bool)
        block_mask[row * 4:(row + 1) * 4, col * 6:(col + 1) * 6] = True
        assert not changed[~block_mask].any()
        added = raw[changed] - image.pixels[changed]
        assert added.min() >= 1.0 and added.max() <= 200.0


# ---------------------------------------------------------------------------
# criterion 10: identical solve invocations produce byte-identical traces.


def test_criterion_10_determinism(tmp_path):
    X, _ = gen_synthetic(d=15, n=40, k=3, sigma=0.5, seed=5)
    data = tmp_path / "X.csv"
    write_csv_matrix(X.values, data)
    argv_tail = ["--data", str(data), "--k", "3", "--beta", "50",
                 "--seed", "4", "--tol", "1e-8"]
    for name in ("a", "b"):
        assert cli_main(["solve", "--out", str(tmp_path / name)] + argv_tail) == 0
    trace_a = (tmp_path / "a" / "trace.csv").read_bytes()
    trace_b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert trace_a == trace_b
    report_a = json.loads((tmp_path / "a" / "report.json").read_text())
    report_b = json.loads((tmp_path / "b" / "report.json").read_text())
    report_a.pop("timing")
    report_b.pop("timing")
    assert report_a == report_b
