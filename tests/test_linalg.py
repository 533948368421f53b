import numpy as np
import pytest

from l1subspace.core import DataMatrix, StiefelPoint
from l1subspace.errors import ConvergenceError, DomainError, NumericError, ShapeError
from l1subspace.linalg import (
    polar_factor,
    random_stiefel,
    singular_values,
    spectral_norm,
    thin_svd,
    top_k_left_singular,
)


def assert_orthonormal(U, tol=1e-10):
    k = U.shape[1]
    assert np.linalg.norm(U.T @ U - np.eye(k)) <= tol


# ---------------------------------------------------------------------------
# thin_svd


def test_thin_svd_identity():
    U, s, V = thin_svd(np.eye(3))
    assert np.allclose(s, 1.0)
    assert np.allclose(U @ np.diag(s) @ V.T, np.eye(3), atol=1e-14)


def test_thin_svd_diagonal_with_zero_row():
    M = np.array([[3.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    U, s, V = thin_svd(M)
    assert np.allclose(s, [3.0, 2.0], atol=1e-14)
    assert np.allclose(U @ np.diag(s) @ V.T, M, atol=1e-13)


def test_thin_svd_random_reconstruction():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((5, 3))
    U, s, V = thin_svd(M)
    assert np.linalg.norm(U @ np.diag(s) @ V.T - M) <= 1e-10
    assert_orthonormal(U)
    assert_orthonormal(V)
    assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
    # independent oracle: squared singular values are Gram eigenvalues
    want = np.sqrt(np.maximum(np.linalg.eigvalsh(M.T @ M)[::-1], 0.0))
    assert np.allclose(s, want, atol=1e-10)


@pytest.mark.parametrize("shape", [(4, 1), (6, 4), (30, 8), (9, 9)])
def test_thin_svd_shapes_against_numpy(shape):
    rng = np.random.default_rng(sum(shape))
    M = rng.standard_normal(shape)
    U, s, V = thin_svd(M)
    assert np.allclose(s, np.linalg.svd(M, compute_uv=False), atol=1e-10)
    assert np.linalg.norm(U @ np.diag(s) @ V.T - M) <= 1e-9 * max(1.0, np.linalg.norm(M))
    assert_orthonormal(U)
    assert_orthonormal(V)


def test_thin_svd_rank_deficient_completion():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((6, 1))
    v = rng.standard_normal((1, 3))
    M = u @ v
    U, s, V = thin_svd(M)
    assert s[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)
    assert np.allclose(s[1:], 0.0, atol=1e-12)
    assert_orthonormal(U)
    assert np.linalg.norm(U @ np.diag(s) @ V.T - M) <= 1e-10


def test_thin_svd_zero_matrix():
    U, s, V = thin_svd(np.zeros((4, 2)))
    assert np.all(s == 0.0)
    assert_orthonormal(U)
    assert_orthonormal(V)


def test_thin_svd_graded_columns():
    # columns spanning ten orders of magnitude still come back accurately
    rng = np.random.default_rng(3)
    M = rng.standard_normal((12, 4)) * np.array([1e5, 1.0, 1e-3, 1e-5])
    U, s, V = thin_svd(M)
    assert np.allclose(s, np.linalg.svd(M, compute_uv=False), rtol=1e-10)
    assert np.linalg.norm(U @ np.diag(s) @ V.T - M) <= 1e-9 * np.linalg.norm(M)


def test_thin_svd_errors():
    with pytest.raises(ShapeError):
        thin_svd(np.ones((2, 3)))
    with pytest.raises(NumericError):
        thin_svd(np.array([[np.nan], [1.0]]))
    with pytest.raises(ShapeError):
        thin_svd(np.zeros((0, 0)))


# ---------------------------------------------------------------------------
# polar_factor


def test_polar_factor_of_stiefel_is_identity_map():
    q = random_stiefel(5, 2, 7).values
    assert np.allclose(polar_factor(q), q, atol=1e-12)


def test_polar_factor_vector():
    out = polar_factor(np.array([[3.0], [4.0]]))
    assert np.allclose(out, [[0.6], [0.8]], atol=1e-14)


def test_polar_factor_maximizes_inner_product():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((4, 2))
    Z = polar_factor(M)
    best = float(np.vdot(Z, M))
    # independent oracle: trace norm equals the max of <Z, M> over Stiefel
    assert best == pytest.approx(np.linalg.svd(M, compute_uv=False).sum(), rel=1e-12)
    for _ in range(200):
        W, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        assert float(np.vdot(W, M)) <= best + 1e-8


def test_polar_factor_zero_matrix_is_deterministic():
    a = polar_factor(np.zeros((3, 2)))
    b = polar_factor(np.zeros((3, 2)))
    assert np.array_equal(a, b)
    assert_orthonormal(a)


# ---------------------------------------------------------------------------
# spectral_norm


def test_spectral_norm_diagonal():
    got = spectral_norm(np.diag([5.0, 1.0]))
    assert got == pytest.approx(5.0, abs=5e-7)


def test_spectral_norm_zero():
    assert spectral_norm(np.zeros((3, 2))) == 0.0


def test_spectral_norm_shear():
    # frozen: largest singular value of [[1,1],[0,1]] is sqrt((3+sqrt 5)/2)
    want = np.sqrt((3.0 + np.sqrt(5.0)) / 2.0)
    assert want == pytest.approx(1.618033988749895, abs=1e-12)
    got = spectral_norm(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert got == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("shape", [(6, 3), (3, 6), (12, 30)])
def test_spectral_norm_matches_numpy(shape):
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    M = rng.standard_normal(shape)
    want = np.linalg.norm(M, 2)
    got = spectral_norm(M)
    assert got == pytest.approx(want, rel=1e-7)
    assert got >= want * (1.0 - 1e-7)


def test_spectral_norm_tiny_gap_is_one_sided():
    # near-degenerate top pair: the value must stay on or above the truth
    # minus the tolerance
    rng = np.random.default_rng(220)
    M = rng.standard_normal((20, 20))
    want = np.linalg.norm(M, 2)
    got = spectral_norm(M)
    assert got >= want * (1.0 - 1e-10)
    assert got <= want * (1.0 + 1e-3)


def test_spectral_norm_never_underestimates_much():
    rng = np.random.default_rng(29)
    for _ in range(10):
        M = rng.standard_normal((8, 5))
        want = np.linalg.norm(M, 2)
        assert spectral_norm(M) >= want * (1.0 - 1e-6)


def test_spectral_norm_errors():
    with pytest.raises(NumericError):
        spectral_norm(np.array([[np.inf]]))


# ---------------------------------------------------------------------------
# leading singular subspaces


def test_top_k_left_singular_diagonal():
    X = DataMatrix(np.diag([3.0, 2.0, 1.0]))
    Q = top_k_left_singular(X, 2)
    proj = Q.values @ Q.values.T
    want = np.diag([1.0, 1.0, 0.0])
    assert np.allclose(proj, want, atol=1e-10)


def test_top_k_left_singular_scaled_columns():
    # X columns along e1 and e2 with norms 4 and 1: the K=1 space is e1
    X = DataMatrix(np.array([[4.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    Q = top_k_left_singular(X, 1)
    assert abs(Q.values[0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_top_k_left_singular_wide_matrix():
    rng = np.random.default_rng(31)
    X = DataMatrix(rng.standard_normal((6, 8)))
    Q = top_k_left_singular(X, 3)
    energy = np.linalg.norm(X.values.T @ Q.values) ** 2
    want = np.sum(np.linalg.svd(X.values, compute_uv=False)[:3] ** 2)
    assert energy == pytest.approx(want, rel=1e-10)


def test_top_k_degenerate_gap_warns():
    X = DataMatrix(np.eye(2))
    with pytest.warns(RuntimeWarning):
        top_k_left_singular(X, 1)


def test_top_k_out_of_range():
    X = DataMatrix(np.eye(3))
    with pytest.raises(DomainError):
        top_k_left_singular(X, 0)
    with pytest.raises(DomainError):
        top_k_left_singular(X, 4)


def test_singular_values_identity_and_rect():
    assert np.allclose(singular_values(DataMatrix(np.eye(4))), 1.0)
    M = np.zeros((2, 5))
    M[0, 0] = 2.0
    M[1, 1] = 2.0
    assert np.allclose(singular_values(DataMatrix(M)), [2.0, 2.0])


def test_singular_values_frobenius_identity():
    rng = np.random.default_rng(37)
    X = DataMatrix(rng.standard_normal((5, 9)))
    s = singular_values(X)
    assert len(s) == 5
    assert np.sum(s**2) == pytest.approx(np.linalg.norm(X.values) ** 2, rel=1e-12)


def test_lapack_failure_is_convergence_error(monkeypatch):
    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    X = DataMatrix(np.diag([3.0, 2.0, 1.0]))
    with pytest.raises(ConvergenceError):
        thin_svd(np.eye(3))
    with pytest.raises(ConvergenceError):
        polar_factor(np.eye(3))
    with pytest.raises(ConvergenceError):
        singular_values(X)
    with pytest.raises(ConvergenceError):
        spectral_norm(np.eye(3))
    with pytest.raises(ConvergenceError):
        top_k_left_singular(X, 1)


# ---------------------------------------------------------------------------
# random_stiefel


def test_random_stiefel_deterministic_and_feasible():
    a = random_stiefel(6, 3, 42)
    b = random_stiefel(6, 3, 42)
    c = random_stiefel(6, 3, 43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert isinstance(a, StiefelPoint)
