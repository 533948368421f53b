import io

import numpy as np
import pytest

from l1subspace import data, linalg, metrics, solvers
from l1subspace.core import (
    AdaptiveBeta,
    DataMatrix,
    FixedBeta,
    SignMatrix,
    SolverConfig,
    StiefelPoint,
    _fro_norm,
    objective_h,
    objective_l,
)
from l1subspace.errors import (
    DomainError,
    FeasibilityError,
    NumericError,
    ShapeError,
)

from dense_reference import sign_select


def random_stiefel(d, k, rng):
    q, _ = np.linalg.qr(rng.standard_normal((d, k)))
    return StiefelPoint(q[:, :k])


# ---------------------------------------------------------------------------
# independent oracles, written as explicit loops on nested lists


def oracle_l(Q, X):
    d, n = len(X), len(X[0])
    k = len(Q[0])
    total = 0.0
    for i in range(d):
        for j in range(n):
            acc = 0.0
            for a in range(d):
                qq = sum(Q[i][c] * Q[a][c] for c in range(k))
                acc += qq * X[a][j]
            total += abs(acc)
    return -total


def oracle_h(P, Q, X):
    d, n = len(X), len(X[0])
    k = len(Q[0])
    total = 0.0
    for j in range(n):
        for i in range(d):
            t = 0.0
            for a in range(d):
                qq = sum(Q[a][c] * Q[i][c] for c in range(k))
                t += X[a][j] * qq
            total += P[j][i] * t
    return -total


def enumerate_min_h(T):
    # brute force over all sign matrices; T is n x d as nested lists
    n, d = len(T), len(T[0])
    best = None
    best_P = None
    for bits in range(2 ** (n * d)):
        val = 0.0
        P = [[0.0] * d for _ in range(n)]
        for idx in range(n * d):
            p = 1.0 if (bits >> idx) & 1 else -1.0
            P[idx // d][idx % d] = p
            val -= p * T[idx // d][idx % d]
        if best is None or val < best:
            best, best_P = val, P
    return best, best_P


# ---------------------------------------------------------------------------
# objective_l


def test_objective_l_identity_axis():
    X = DataMatrix(np.eye(2))
    Q = StiefelPoint([[1.0], [0.0]])
    assert objective_l(Q, X) == -1.0


def test_objective_l_full_k_gives_entrywise_l1():
    X = DataMatrix([[1.0, 2.0], [-1.0, 0.0]])
    Q = StiefelPoint(np.eye(2))
    assert objective_l(Q, X) == -4.0


def test_objective_l_oracle_value():
    # frozen from the loop oracle on this fixture
    X = [[1.0, 2.0], [-1.0, 0.0]]
    s = 1.0 / np.sqrt(2.0)
    Q = [[s], [s]]
    expected = oracle_l(Q, X)
    assert expected == pytest.approx(-2.0, abs=1e-12)
    got = objective_l(StiefelPoint(Q), DataMatrix(X))
    assert got == pytest.approx(expected, abs=1e-12)


def test_objective_l_random_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(5):
        d, n, k = 4, 3, 2
        X = rng.standard_normal((d, n))
        Q = random_stiefel(d, k, rng)
        got = objective_l(Q, DataMatrix(X))
        want = oracle_l(Q.values.tolist(), X.tolist())
        assert got == pytest.approx(want, rel=1e-12)


def test_objective_l_shape_mismatch():
    X = DataMatrix(np.eye(3))
    Q = StiefelPoint([[1.0], [0.0]])
    with pytest.raises(ShapeError):
        objective_l(Q, X)


def test_objective_l_rotational_invariance():
    rng = np.random.default_rng(11)
    X = DataMatrix(rng.standard_normal((5, 8)))
    Q = random_stiefel(5, 2, rng)
    base = objective_l(Q, X)
    for _ in range(5):
        U, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        rotated = StiefelPoint(Q.values @ U)
        assert objective_l(rotated, X) == pytest.approx(base, abs=1e-8 * (1 + abs(base)))


# ---------------------------------------------------------------------------
# objective_h: h(P, Q) = -<P Q, X^T Q> from plain arrays and the product X^T Q


def test_objective_h_zero_data():
    X = np.zeros((2, 3))
    P = np.ones((3, 2))
    Q = np.array([[1.0], [0.0]])
    assert objective_h(P, Q, X.T @ Q) == 0.0


def test_objective_h_sign_selection_attains_l():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 6))
    Q = random_stiefel(4, 2, rng)
    T = (X.T @ Q.values) @ Q.values.T
    P = np.where(np.sign(T) != 0, np.sign(T), 1.0)
    dm = DataMatrix(X)
    assert objective_h(P, Q.values, X.T @ Q.values) == pytest.approx(
        objective_l(Q, dm), rel=1e-12)


def test_objective_h_matches_oracle():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((3, 4))
    Q = random_stiefel(3, 2, rng)
    P = np.where(rng.standard_normal((4, 3)) >= 0, 1.0, -1.0)
    got = objective_h(P, Q.values, X.T @ Q.values)
    want = oracle_h(P.tolist(), Q.values.tolist(), X.tolist())
    assert got == pytest.approx(want, rel=1e-12)


def test_objective_h_enumeration_equivalence():
    # min over all sign matrices of h equals l, minimizer matches sign(T)
    rng = np.random.default_rng(9)
    X = rng.standard_normal((2, 3))
    Q = random_stiefel(2, 1, rng)
    dm = DataMatrix(X)
    T = (X.T @ Q.values) @ Q.values.T
    best, best_P = enumerate_min_h(T.tolist())
    assert best == pytest.approx(objective_l(Q, dm), rel=1e-12)
    mask = np.abs(T) > 1e-12
    assert np.array_equal(np.asarray(best_P)[mask], np.sign(T)[mask])


# ---------------------------------------------------------------------------
# sign_select, the dense sign rule the solver tests compare against


def test_sign_select_keeps_previous_on_ties():
    M = [[0.0, 3.0], [-2.0, 0.0]]
    P_prev = [[-1.0, -1.0], [1.0, 1.0]]
    out = sign_select(M, P_prev)
    assert np.array_equal(out, [[-1.0, 1.0], [-1.0, 1.0]])


def test_sign_select_zero_matrix_identity():
    P_prev = np.where(np.random.default_rng(1).standard_normal((3, 2)) >= 0, 1.0, -1.0)
    assert np.array_equal(sign_select(np.zeros((3, 2)), P_prev), P_prev)


def test_sign_select_always_pm_one():
    rng = np.random.default_rng(23)
    M = rng.standard_normal((4, 5))
    M[rng.random((4, 5)) < 0.3] = 0.0
    P_prev = np.where(rng.standard_normal((4, 5)) >= 0, 1.0, -1.0)
    out = sign_select(M, P_prev)
    assert np.all(np.abs(out) == 1.0)


def test_sign_select_rejects_nan():
    with pytest.raises(NumericError):
        sign_select(np.array([[np.nan]]), np.array([[1.0]]))


def test_sign_select_shape_mismatch():
    with pytest.raises(ShapeError):
        sign_select(np.zeros((2, 2)), np.ones((3, 2)))


# ---------------------------------------------------------------------------
# type invariants


def test_data_matrix_rejects_nonfinite():
    with pytest.raises(NumericError):
        DataMatrix([[np.inf, 0.0]])


def test_data_matrix_centered_check():
    with pytest.raises(FeasibilityError):
        DataMatrix([[1.0, 2.0]], centered=True)
    dm = DataMatrix([[1.0, -1.0]], centered=True)
    assert dm.d == 1 and dm.n == 2


def test_data_matrix_values_read_only():
    dm = DataMatrix(np.eye(2))
    with pytest.raises(ValueError):
        dm.values[0, 0] = 5.0


def test_data_matrix_centered_scale_reads_both_signs():
    # the tolerance scales with max |v| of each row: here 2e6 from the
    # negative (then the positive) side, so a row mean of 1.5e-3 passes
    # against 1e-9 * 2e6 while 1e-9 times the other side's 1e6 would fail it
    eps = 4.5e-3
    DataMatrix([[-2e6, 1e6, 1e6 + eps], [2e6, -1e6, -1e6 - eps]], centered=True)
    with pytest.raises(FeasibilityError):
        DataMatrix([[-2e6, 1e6, 1e6 + 2 * eps]], centered=True)


@pytest.mark.parametrize("make,raw", [
    (DataMatrix, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]),
    (SignMatrix, [[1.0, -1.0], [-1.0, 1.0]]),
    (StiefelPoint, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
    (data.GrayImage, [[7.0, 8.0], [9.0, 10.0]]),
], ids=["DataMatrix", "SignMatrix", "StiefelPoint", "GrayImage"])
def test_array_types_copy_caller_input(make, raw):
    # writing to the caller's array after construction leaves the instance
    # as it was, and the instance's own array is read-only
    given = np.array(raw)
    held = next(iter(vars(make(given)).values()))
    given[0, 0] = -given[0, 0] + 1.0
    assert np.array_equal(held, raw)
    assert not held.flags.writeable


def test_library_built_arrays_are_read_only():
    # the parsed and the centered features, a finished run's sign block and a
    # reconstruction are handed to their types without a copy, and frozen
    parsed = data.parse_libsvm(io.StringIO("1 1:2.0 3:1.5\n2 2:-1.0\n-1 1:0.5\n")).features
    centered = data.center_features(parsed)
    config = SolverConfig(alpha=1e-6, beta_mode=FixedBeta(10.0), max_iters=5)
    report = solvers.solve(centered, config, linalg.random_stiefel(3, 1, 0))
    rebuilt = metrics.reconstruct(centered, report.final_Q)
    for values in (parsed.values, centered.values, report.final_P.values, rebuilt.values):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0, 0] = 0.0


def test_sign_matrix_rejects_zeros():
    with pytest.raises(FeasibilityError):
        SignMatrix([[1.0, 0.0]])


def test_stiefel_rejects_non_orthonormal():
    with pytest.raises(FeasibilityError):
        StiefelPoint([[1.0], [1.0]])


def test_stiefel_rejects_wide():
    with pytest.raises(ShapeError):
        StiefelPoint(np.eye(3)[:2])


# ---------------------------------------------------------------------------
# configs


def test_config_validation():
    FixedBeta(1.0)
    with pytest.raises(DomainError):
        FixedBeta(0.0)
    with pytest.raises(DomainError):
        AdaptiveBeta(2.0, 1.0)
    with pytest.raises(DomainError):
        SolverConfig(alpha=-1.0, beta_mode=FixedBeta(1.0))
    with pytest.raises(DomainError):
        SolverConfig(alpha=1.0, beta_mode=FixedBeta(1.0), gamma=1.5)
    with pytest.raises(DomainError):
        SolverConfig(alpha=1.0, beta_mode=FixedBeta(1.0), max_iters=0)
    with pytest.raises(DomainError):
        SolverConfig(alpha=1.0, beta_mode=FixedBeta(1.0), theory_mode=True)
    with pytest.raises(DomainError, match="theory_mode must be a bool"):
        SolverConfig(alpha=1e-6, beta_mode=AdaptiveBeta(1.0, 100.0), theory_mode="false")
    cfg = SolverConfig(alpha=1e-6, beta_mode=AdaptiveBeta(1.0, 100.0), theory_mode=True)
    assert cfg.beta_star == 1.0
    assert SolverConfig(alpha=1.0, beta_mode=FixedBeta(2.5)).beta_star == 2.5


def test_fro_norm_scales_by_a_power_of_two():
    A = np.random.default_rng(5).standard_normal((7, 11))
    # in range: the same bits as the unscaled norm
    assert _fro_norm(A) == np.linalg.norm(A)
    assert _fro_norm(np.zeros((2, 3))) == 0.0
    # the squares overflow or underflow at these scales; the norm does not
    for scale in (1e200, 1e-200):
        with np.errstate(over="raise"):
            assert _fro_norm(A * scale) == pytest.approx(np.linalg.norm(A) * scale, rel=1e-14)


# (build, accepted): False when the call must raise DomainError
BOOLS_AND_NUMPY_SCALARS = {
    "alpha": (lambda: SolverConfig(alpha=True, beta_mode=FixedBeta(1.0)), False),
    "gamma": (lambda: SolverConfig(alpha=1e-6, beta_mode=FixedBeta(1.0), gamma=True), False),
    "gamma-false": (
        lambda: SolverConfig(alpha=1e-6, beta_mode=FixedBeta(1.0), gamma=False), False),
    "max_iters": (
        lambda: SolverConfig(alpha=1e-6, beta_mode=FixedBeta(1.0), max_iters=True), False),
    "tol": (lambda: SolverConfig(alpha=1e-6, beta_mode=FixedBeta(1.0), tol=True), False),
    "FixedBeta": (lambda: FixedBeta(True), False),
    "AdaptiveBeta": (lambda: AdaptiveBeta(True, 2.0), False),
    "choose_k_energy": (
        lambda: metrics.choose_k_energy(DataMatrix(np.eye(5, 30)), threshold=True), False),
    "kmeans": (lambda: metrics.kmeans(np.eye(2, 6), True), False),
    "gen_synthetic-sigma": (lambda: data.gen_synthetic(5, 30, 1, True, 0), False),
    "gen_synthetic-d": (lambda: data.gen_synthetic(True, 30, 1, 0.5, 0), False),
    "add_block_outliers": (
        lambda: data.add_block_outliers(data.GrayImage(np.zeros((6, 6))), True, 0), False),
    "random_stiefel": (lambda: linalg.random_stiefel(True, 1, 0), False),
    "random_stiefel-np.True_": (lambda: linalg.random_stiefel(2, np.True_, 0), False),
    "FixedBeta-np.int64": (lambda: FixedBeta(np.int64(20)), True),
    "max_iters-np.int64": (
        lambda: SolverConfig(alpha=1e-6, beta_mode=FixedBeta(1.0), max_iters=np.int64(5)),
        True),
}


@pytest.mark.parametrize("build,accepted", BOOLS_AND_NUMPY_SCALARS.values(),
                         ids=BOOLS_AND_NUMPY_SCALARS)
def test_bool_is_not_a_number(build, accepted):
    # isinstance(True, int) holds, so the rule must name bool explicitly; a
    # numpy integer is a count like an int
    if accepted:
        build()
    else:
        with pytest.raises(DomainError):
            build()


# ---------------------------------------------------------------------------
# public surface


def test_every_exported_name_resolves():
    import l1subspace

    for name in l1subspace.__all__:
        assert getattr(l1subspace, name) is not None
    namespace = {}
    exec("from l1subspace import *", namespace)
    assert set(l1subspace.__all__) <= set(namespace)
