import numpy as np
import pytest

from l1subspace.core import DataMatrix, StiefelPoint
from l1subspace.errors import ConvergenceError, NumericError, ShapeError
from l1subspace.linalg import (
    polar_factor,
    random_stiefel,
    singular_values,
    spectral_norm,
)


def assert_orthonormal(U, tol=1e-10):
    k = U.shape[1]
    assert np.linalg.norm(U.T @ U - np.eye(k)) <= tol


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


def _procrustes_inputs():
    rng = np.random.default_rng(0)
    yield "identity", np.eye(3)
    yield "zero-row", np.array([[3.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    yield "zero", np.zeros((4, 2))
    for shape in [(5, 3), (4, 1), (6, 4), (30, 8), (9, 9)]:
        yield f"{shape[0]}x{shape[1]}", rng.standard_normal(shape)
    yield "rank-1", rng.standard_normal((6, 1)) @ rng.standard_normal((1, 3))
    # columns spanning ten orders of magnitude
    yield "graded", rng.standard_normal((12, 4)) * np.array([1e5, 1.0, 1e-3, 1e-5])


PROCRUSTES_INPUTS = dict(_procrustes_inputs())


@pytest.mark.parametrize("M", PROCRUSTES_INPUTS.values(), ids=PROCRUSTES_INPUTS)
def test_polar_factor_is_procrustes_solution(M):
    # independent oracle: Z is a polar factor of M exactly when Z has
    # orthonormal columns and Z^T M is symmetric positive semidefinite, and
    # then <Z, M> is the trace norm of M
    Z = polar_factor(M)
    assert Z.shape == M.shape
    assert_orthonormal(Z)
    H = Z.T @ M
    scale = max(1.0, np.linalg.norm(M))
    assert np.linalg.norm(H - H.T) <= 1e-9 * scale
    assert np.linalg.eigvalsh((H + H.T) / 2.0).min() >= -1e-9 * scale
    nuclear = np.linalg.svd(M, compute_uv=False).sum()
    assert float(np.vdot(Z, M)) == pytest.approx(nuclear, rel=1e-10)


def test_polar_factor_errors():
    with pytest.raises(ShapeError, match="rows >= cols"):
        polar_factor(np.ones((2, 3)))
    with pytest.raises(NumericError):
        polar_factor(np.array([[np.nan], [1.0]]))
    with pytest.raises(ShapeError):
        polar_factor(np.zeros((0, 0)))


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
    with pytest.raises(ShapeError):
        spectral_norm(np.ones(3))
    with pytest.raises(ShapeError):
        spectral_norm(np.zeros((0, 2)))


# ---------------------------------------------------------------------------
# singular_values


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
    with pytest.raises(ConvergenceError, match="polar_factor"):
        polar_factor(np.eye(3))
    with pytest.raises(ConvergenceError):
        singular_values(X)
    with pytest.raises(ConvergenceError):
        spectral_norm(np.eye(3))


# ---------------------------------------------------------------------------
# random_stiefel


def test_random_stiefel_deterministic_and_feasible():
    a = random_stiefel(6, 3, 42)
    b = random_stiefel(6, 3, 42)
    c = random_stiefel(6, 3, 43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert isinstance(a, StiefelPoint)
