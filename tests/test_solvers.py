import itertools
import math
import tracemalloc

import numpy as np
import pytest

from l1subspace import solvers
from l1subspace.core import (
    AdaptiveBeta,
    DataMatrix,
    FixedBeta,
    SignMatrix,
    SolverConfig,
    StiefelPoint,
    h_from_factors,
    objective_h,
    objective_l,
)
from l1subspace.errors import (
    DomainError,
    FeasibilityError,
    InfeasibleBoundError,
    NumericError,
    SelectionError,
    ShapeError,
)
from l1subspace.data import read_csv_matrix, write_csv_matrix
from l1subspace.linalg import random_stiefel, spectral_norm
from l1subspace.metrics import reconstruct, tev
from l1subspace.solvers import (
    ZERO_TOL,
    _beta,
    _closing,
    _gamma_cap,
    _q_step,
    _s_times,
    adaptive_beta,
    check_alpha_condition,
    criticality_residual,
    extrapolate,
    gamma_star,
    solve,
    sufficient_decrease_check,
    update_P,
    update_Q,
)

from dense_reference import sign_select
from traced import traced_peak


def centered(values):
    values = np.asarray(values, dtype=float)
    return DataMatrix(values - values.mean(axis=1, keepdims=True), centered=True)


def random_centered(d, n, rng):
    return centered(rng.standard_normal((d, n)))


# ---------------------------------------------------------------------------
# extrapolate


def test_extrapolate_gamma_zero_is_projector():
    Q = random_stiefel(5, 2, 3)
    E = extrapolate(Q, random_stiefel(5, 2, 4), 0.0)
    assert np.array_equal(E, Q.values @ Q.values.T)


def test_extrapolate_equal_arguments():
    Q = random_stiefel(4, 2, 8)
    E = extrapolate(Q, Q, 0.7)
    assert np.allclose(E, Q.values @ Q.values.T, atol=1e-15)


def test_extrapolate_axis_fixture():
    # frozen: Q = e1, Q_prev = e2, gamma = 1 gives diag(2, -1)
    Q = StiefelPoint([[1.0], [0.0]])
    Q_prev = StiefelPoint([[0.0], [1.0]])
    E = extrapolate(Q, Q_prev, 1.0)
    assert np.array_equal(E, [[2.0, 0.0], [0.0, -1.0]])


def test_extrapolate_is_symmetric():
    rng = np.random.default_rng(12)
    Q = random_stiefel(6, 3, rng)
    Qp = random_stiefel(6, 3, rng)
    E = extrapolate(Q, Qp, 0.5)
    assert np.linalg.norm(E - E.T) <= 1e-10


def test_extrapolate_domain_and_shape_errors():
    Q = StiefelPoint([[1.0], [0.0]])
    with pytest.raises(DomainError):
        extrapolate(Q, Q, 1.5)
    with pytest.raises(ShapeError):
        extrapolate(Q, StiefelPoint([[1.0], [0.0], [0.0]]), 0.5)


# ---------------------------------------------------------------------------
# update_P


def test_update_p_zero_data_keeps_signs():
    X = DataMatrix(np.zeros((2, 3)), centered=True)
    P = SignMatrix([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
    out = update_P(P, X, np.eye(2), 0.5)
    assert np.array_equal(out.values, P.values)


def test_update_p_huge_alpha_keeps_signs():
    rng = np.random.default_rng(2)
    X = DataMatrix(rng.uniform(-1.0, 1.0, size=(3, 4)))
    P = SignMatrix(np.where(rng.standard_normal((4, 3)) >= 0, 1.0, -1.0))
    out = update_P(P, X, np.eye(3), 1e12)
    assert np.array_equal(out.values, P.values)


def test_update_p_minimizes_prox_objective():
    # enumeration oracle over all sign matrices of the proximal objective
    rng = np.random.default_rng(7)
    for _ in range(5):
        n, d = 2, 2
        X = DataMatrix(rng.standard_normal((d, n)))
        E = rng.standard_normal((d, d))
        E = (E + E.T) / 2.0
        P_cur = np.where(rng.standard_normal((n, d)) >= 0, 1.0, -1.0)
        alpha = float(rng.uniform(0.2, 3.0))
        T = X.values.T @ E

        def prox_obj(P):
            return -np.vdot(P, T) + 0.5 * alpha * np.linalg.norm(P - P_cur) ** 2

        best = min(
            prox_obj(np.array(bits, dtype=float).reshape(n, d))
            for bits in itertools.product([-1.0, 1.0], repeat=n * d)
        )
        got = update_P(SignMatrix(P_cur), X, E, alpha)
        assert prox_obj(got.values) == pytest.approx(best, abs=1e-12)


def test_update_p_errors():
    X = DataMatrix(np.zeros((2, 3)))
    P = SignMatrix(np.ones((3, 2)))
    with pytest.raises(DomainError):
        update_P(P, X, np.eye(2), 0.0)
    with pytest.raises(ShapeError):
        update_P(P, X, np.eye(3), 1.0)
    with pytest.raises(ShapeError):
        update_P(SignMatrix(np.ones((2, 2))), X, np.eye(2), 1.0)


# ---------------------------------------------------------------------------
# update_Q


def test_update_q_zero_data_returns_same_point():
    X = DataMatrix(np.zeros((3, 4)))
    Q = random_stiefel(3, 2, 5)
    P = SignMatrix(np.ones((4, 3)))
    out = update_Q(Q, P, X, 2.0)
    assert out is Q


def test_update_q_k1_closed_form():
    rng = np.random.default_rng(9)
    X = DataMatrix(rng.standard_normal((4, 6)))
    Q = random_stiefel(4, 1, rng)
    P = SignMatrix(np.where(rng.standard_normal((6, 4)) >= 0, 1.0, -1.0))
    beta = 3.0
    XP = X.values @ P.values
    S = XP + XP.T
    M = Q.values + (S @ Q.values) / beta
    got = update_Q(Q, P, X, beta)
    assert np.allclose(got.values, M / np.linalg.norm(M), atol=1e-12)


def test_update_q_maximizes_procrustes_objective():
    rng = np.random.default_rng(21)
    X = DataMatrix(rng.standard_normal((5, 7)))
    Q = random_stiefel(5, 2, rng)
    P = SignMatrix(np.where(rng.standard_normal((7, 5)) >= 0, 1.0, -1.0))
    beta = 4.0
    XP = X.values @ P.values
    M = Q.values + ((XP + XP.T) @ Q.values) / beta
    got = update_Q(Q, P, X, beta)
    best = float(np.vdot(got.values, M))
    for _ in range(500):
        Z, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        assert float(np.vdot(Z, M)) <= best + 1e-8


def test_update_q_errors():
    X = DataMatrix(np.zeros((2, 3)))
    Q = StiefelPoint([[1.0], [0.0]])
    with pytest.raises(DomainError):
        update_Q(Q, SignMatrix(np.ones((3, 2))), X, 0.0)
    with pytest.raises(ShapeError):
        update_Q(Q, SignMatrix(np.ones((2, 2))), X, 1.0)


# ---------------------------------------------------------------------------
# step-size rules


def test_gamma_star_zero_data():
    assert gamma_star(1.0, 1.0, DataMatrix(np.zeros((2, 2)))) == 1.0


def test_gamma_star_values():
    X = DataMatrix([[1.0, 0.0], [0.0, 0.0]])  # spectral norm exactly 1
    assert gamma_star(8.0, 1.0, X) == pytest.approx(1.0, rel=1e-5)
    assert gamma_star(4.0, 1.0, X) == pytest.approx(0.5, rel=1e-5)
    assert gamma_star(16.0, 1.0, X) == 1.0  # capped at one


def test_gamma_star_domain_errors():
    X = DataMatrix(np.eye(2))
    with pytest.raises(DomainError):
        gamma_star(0.0, 1.0, X)
    with pytest.raises(DomainError):
        gamma_star(1.0, -2.0, X)


def test_adaptive_beta_zero_data():
    X = DataMatrix(np.zeros((2, 3)))
    P = SignMatrix(np.ones((3, 2)))
    assert adaptive_beta(X, P, 2.0, 100.0) == 3.0


def test_adaptive_beta_known_norm():
    # X P = [[10]] so the spectral norm is exactly 10 and b = 1.5*2 + 20
    X = DataMatrix([[10.0]])
    P = SignMatrix([[1.0]])
    assert adaptive_beta(X, P, 2.0, 100.0) == pytest.approx(23.0, rel=1e-6)
    with pytest.raises(InfeasibleBoundError):
        adaptive_beta(X, P, 2.0, 20.0)


@pytest.mark.parametrize("beta_sup", [float("nan"), -1.0])
def test_adaptive_beta_checks_the_upper_bound(beta_sup):
    # a NaN bound once passed (25.18 here) and a negative one was infeasible
    X = DataMatrix(np.random.default_rng(0).standard_normal((4, 6)))
    P = SignMatrix(np.ones((6, 4)))
    with pytest.raises(DomainError, match="beta_sup"):
        adaptive_beta(X, P, 1.0, beta_sup)


# ---------------------------------------------------------------------------
# stationarity diagnostics


def test_criticality_zero_for_full_k():
    # with K = d the projector is the identity and the gradient is normal
    rng = np.random.default_rng(3)
    X = DataMatrix(rng.standard_normal((3, 5)))
    Q = StiefelPoint(np.eye(3))
    T = (X.values.T @ Q.values) @ Q.values.T
    P = SignMatrix(sign_select(T, np.ones_like(T)))
    assert criticality_residual(Q, P, X) <= 1e-10


def test_criticality_selection_error():
    X = DataMatrix(np.eye(2))
    Q = StiefelPoint([[1.0], [0.0]])
    P = SignMatrix([[-1.0, 1.0], [1.0, 1.0]])  # disagrees at the (0,0) entry
    with pytest.raises(SelectionError):
        criticality_residual(Q, P, X)


def test_criticality_zero_data():
    X = DataMatrix(np.zeros((2, 2)))
    Q = StiefelPoint([[1.0], [0.0]])
    P = SignMatrix(np.ones((2, 2)))
    assert criticality_residual(Q, P, X) == 0.0


def test_check_alpha_condition_thresholds():
    X = DataMatrix(np.diag([3.0, 2.0]))
    Q = StiefelPoint(np.eye(2))
    assert check_alpha_condition(X, Q, 1.0)
    assert not check_alpha_condition(X, Q, 2.0)  # strict inequality
    assert not check_alpha_condition(X, Q, 2.5)
    assert check_alpha_condition(DataMatrix(np.zeros((2, 2))), Q, 5.0)
    with pytest.raises(DomainError):
        check_alpha_condition(X, Q, 0.0)


# ---------------------------------------------------------------------------
# solve


def practical_config(**kw):
    base = dict(alpha=1e-6, beta_mode=FixedBeta(10.0), gamma=1.0,
                max_iters=2000, tol=1e-6)
    base.update(kw)
    return SolverConfig(**base)


def test_solve_zero_data_one_sweep():
    X = DataMatrix(np.zeros((3, 5)), centered=True)
    Q0 = random_stiefel(3, 2, 0)
    rep = solve(X, practical_config(), Q0)
    assert rep.iterations == 1
    assert rep.stop_reason == "tolerance"
    assert np.array_equal(rep.final_Q.values, Q0.values)
    assert rep.final_objective == 0.0
    assert rep.criticality == 0.0
    assert len(rep.trace) == 2


def test_solve_huge_tol_stops_immediately():
    rng = np.random.default_rng(1)
    X = random_centered(6, 12, rng)
    rep = solve(X, practical_config(tol=1e9), random_stiefel(6, 2, 2))
    assert rep.iterations == 1
    assert rep.stop_reason == "tolerance"


def test_solve_max_iters_stop():
    rng = np.random.default_rng(2)
    X = random_centered(6, 12, rng)
    rep = solve(X, practical_config(max_iters=3, tol=1e-30), random_stiefel(6, 2, 2))
    assert rep.stop_reason == "max_iters"
    assert rep.iterations == 3
    assert len(rep.trace) == 4


def test_solve_requires_centered():
    X = DataMatrix(np.ones((2, 3)))
    with pytest.raises(FeasibilityError):
        solve(X, practical_config(), StiefelPoint([[1.0], [0.0]]))


def test_solve_rejects_bad_init_shapes():
    rng = np.random.default_rng(3)
    X = random_centered(4, 8, rng)
    with pytest.raises(ShapeError):
        solve(X, practical_config(), random_stiefel(5, 2, 0))
    # the start is Q0 alone: P0 = sign(X^T Q0 Q0^T) is not a parameter
    with pytest.raises(TypeError):
        solve(X, practical_config(), random_stiefel(4, 2, 0),
              SignMatrix(np.ones((8, 4))))


def test_solve_k_cannot_exceed_n():
    rng = np.random.default_rng(4)
    X = random_centered(6, 2, rng)
    with pytest.raises(ShapeError):
        solve(X, practical_config(), random_stiefel(6, 3, 0))


def test_solve_is_deterministic():
    rng = np.random.default_rng(5)
    X = random_centered(8, 20, rng)
    Q0 = random_stiefel(8, 2, 1)
    a = solve(X, practical_config(max_iters=40, tol=1e-30), Q0)
    b = solve(X, practical_config(max_iters=40, tol=1e-30), Q0)
    assert a.trace.phi == b.trace.phi
    assert a.trace.gap[1:] == b.trace.gap[1:]
    assert np.array_equal(a.final_Q.values, b.final_Q.values)
    assert np.array_equal(a.final_P.values, b.final_P.values)


def test_solve_objective_never_worse_than_start():
    rng = np.random.default_rng(6)
    X = random_centered(10, 30, rng)
    Q0 = random_stiefel(10, 3, 7)
    rep = solve(X, practical_config(), Q0)
    assert rep.trace.h[-1] <= rep.trace.h[0] + 1e-9


def test_palm_specialization_is_bit_identical():
    # gamma = 0 must match a hand-rolled loop of the two plain updates
    rng = np.random.default_rng(0)
    X = random_centered(8, 20, rng)
    Q0 = random_stiefel(8, 2, 1)
    cfg = practical_config(alpha=1e-4, beta_mode=FixedBeta(5.0), gamma=0.0,
                           max_iters=15, tol=1e-14)
    rep = solve(X, cfg, Q0, snapshots=True)

    T0 = (X.values.T @ Q0.values) @ Q0.values.T
    P = SignMatrix(sign_select(T0, np.ones((20, 8))))
    Q = Q0
    qs = [Q0.values]
    for _ in range(rep.iterations):
        P = update_P(P, X, Q.values @ Q.values.T, 1e-4)
        Q = update_Q(Q, P, X, 5.0)
        qs.append(Q.values)
    assert len(rep.trace.q_snapshots) == rep.iterations + 1
    for snap, q in zip(rep.trace.q_snapshots, qs):
        assert np.array_equal(snap, q)
    assert np.array_equal(rep.final_P.values, P.values)


def test_tall_problem_never_forms_a_d_by_d_matrix():
    # at d = 4000 one d x d float matrix is 128 MB; a sweep's arrays are n x d
    # or d x K (192 kB here), so the whole run must stay far below that
    rng = np.random.default_rng(21)
    X = random_centered(4000, 6, rng)
    cfg = practical_config(max_iters=5, tol=1e-14)

    def run():
        rep = solve(X, cfg, random_stiefel(4000, 2, 0), snapshots=False)
        # after 5 sweeps final_P need not match sign(X^T Q Q^T) yet; rebuild
        # it so the residual runs its full S Q path instead of the sign check
        Q = rep.final_Q.values
        P = SignMatrix(sign_select((X.values.T @ Q) @ Q.T, np.ones((6, 4000))))
        return rep, criticality_residual(rep.final_Q, P, X)

    (rep, residual), peak = traced_peak(run)
    assert rep.iterations == 5
    assert np.isfinite(residual)
    assert peak < 16 * 2**20


def test_tall_theory_solve_never_forms_a_d_by_d_matrix():
    # adaptive beta needs ||X P||_2; at d = 2000 the d x d matrix X P alone
    # would be 32 MB, while the factor (Sigma V^T) P is only r x d
    rng = np.random.default_rng(22)
    X = random_centered(2000, 6, rng)
    rep, peak = traced_peak(solve, X, theory_config(max_iters=2, tol=1e-14),
                            random_stiefel(2000, 2, 0), snapshots=False)
    assert rep.iterations == 2
    assert peak < 8 * 2**20


def test_theory_solve_takes_one_spectral_norm_per_flipping_sweep(monkeypatch):
    # beta(P) of a sweep is beta(P_next) of the one before, a sweep that
    # flips no sign keeps P and so its beta, and gamma_star reads sigma_1
    # from the same factorization of X: one norm for P0 and one for each
    # sweep that flips a sign
    calls = []

    def counting_norm(M):
        calls.append(1)
        return spectral_norm(M)

    monkeypatch.setattr(solvers, "spectral_norm", counting_norm)
    rng = np.random.default_rng(24)
    X = random_centered(9, 30, rng)
    rep = solve(X, theory_config(max_iters=6, tol=1e-300), random_stiefel(9, 2, 1))
    assert rep.iterations == 6
    flipping = sum(dP > 0 for dP in rep.trace.dP[1:])
    assert 0 < flipping < rep.iterations
    assert len(calls) == 1 + flipping


def test_solve_validates_the_iterate_only_where_it_leaves(monkeypatch):
    # the sign step yields +/-1 and the Q step orthonormal columns by
    # construction, so a run of k sweeps builds one SignMatrix (final_P) and
    # one StiefelPoint (final_Q) rather than one per sweep
    built = {"P": 0, "Q": 0}

    class CountingSign(SignMatrix):
        def __post_init__(self):
            built["P"] += 1
            super().__post_init__()

    class CountingStiefel(StiefelPoint):
        def __post_init__(self):
            built["Q"] += 1
            super().__post_init__()

    monkeypatch.setattr(solvers, "SignMatrix", CountingSign)
    monkeypatch.setattr(solvers, "StiefelPoint", CountingStiefel)
    X = random_centered(9, 30, np.random.default_rng(25))
    Q0 = random_stiefel(9, 2, 1)
    rep = solve(X, practical_config(max_iters=20, tol=1e-300), Q0)
    assert rep.iterations == 20
    assert built == {"P": 1, "Q": 1}
    assert type(rep.final_P) is CountingSign
    assert type(rep.final_Q) is CountingStiefel


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_solve_sign_step_rejects_overflow():
    # X^T E / alpha overflows to inf at this scale; the sign step's
    # finiteness check must still stop the run with NumericError
    X = random_centered(6, 12, np.random.default_rng(26))
    X = DataMatrix(X.values * 1e303, centered=True)
    with pytest.raises(NumericError, match="sign step input"):
        solve(X, practical_config(alpha=1e-6), random_stiefel(6, 2, 0))


def test_solve_q_snapshots_are_read_only():
    X = random_centered(8, 20, np.random.default_rng(27))
    rep = solve(X, practical_config(max_iters=5, tol=1e-300), random_stiefel(8, 2, 1),
                snapshots=True)
    assert len(rep.trace.q_snapshots) == rep.iterations + 1 == 6
    assert not any(snap.flags.writeable for snap in rep.trace.q_snapshots)


def test_solve_keeps_every_snapshot_of_a_long_run():
    # snapshots were once thinned to every tenth sweep past 10,000
    X = random_centered(3, 5, np.random.default_rng(0))
    Q0 = random_stiefel(3, 1, 0)
    rep = solve(X, practical_config(max_iters=10_010, tol=1e-300), Q0, snapshots=True)
    assert rep.iterations == 10_010
    snaps = rep.trace.q_snapshots
    assert len(snaps) == len(rep.trace) == rep.iterations + 1
    assert np.array_equal(snaps[0], Q0.values)
    assert np.array_equal(snaps[-1], rep.final_Q.values)
    # each sweep's recorded dQ is the distance between consecutive snapshots
    for k in (1, 10_001, 10_009):
        assert rep.trace.dQ[k] == float(np.linalg.norm(snaps[k] - snaps[k - 1]))


def test_solve_restart_from_converged_point_stays_put():
    # a converged run restarted at its own final Q must stop in one sweep
    rng = np.random.default_rng(5)
    Q_true = random_stiefel(12, 2, 99)
    X = centered(Q_true.values @ rng.standard_normal((2, 30)))
    tight = practical_config(tol=1e-12, max_iters=20000)
    first = solve(X, tight, random_stiefel(12, 2, 0))
    assert first.stop_reason == "tolerance"
    again = solve(X, practical_config(max_iters=50), first.final_Q)
    assert again.iterations == 1
    assert again.stop_reason == "tolerance"
    assert np.allclose(again.final_Q.values, first.final_Q.values, atol=1e-9)
    assert again.criticality <= 1e-6


def test_solve_tight_tolerance_reaches_stationarity():
    rng = np.random.default_rng(11)
    X = random_centered(16, 60, rng)
    rep = solve(X, practical_config(tol=1e-10, max_iters=20000),
                random_stiefel(16, 3, 1))
    assert rep.stop_reason == "tolerance"
    assert np.isfinite(rep.criticality)
    assert rep.criticality <= 1e-6 * (1.0 + np.linalg.norm(X.values))


@pytest.mark.parametrize("config,stale", [
    (practical_config(tol=1e-10), False),
    (practical_config(gamma=0.0, max_iters=5), True),
    (SolverConfig(alpha=1e-6, beta_mode=AdaptiveBeta(1.0, 1e9), max_iters=40,
                  theory_mode=True), False),
], ids=["practical", "stale-after-5-sweeps", "theory"])
def test_closing_on_written_artifacts_reproduces_the_report(tmp_path, config, stale):
    # check recomputes the closing figures from final_P.csv and final_Q.csv
    # through the same function solve closes with, so they agree bit for bit;
    # five sweeps leave a P that lags Q, whose residual is nan on both sides
    X = random_centered(12, 50, np.random.default_rng(23))
    rep = solve(X, config, random_stiefel(12, 3, 5))
    write_csv_matrix(rep.final_P.values, tmp_path / "final_P.csv")
    write_csv_matrix(rep.final_Q.values, tmp_path / "final_Q.csv")
    P = read_csv_matrix(tmp_path / "final_P.csv")
    Q = read_csv_matrix(tmp_path / "final_Q.csv")
    stale_mags, holds, objective, crit = _closing(
        X.values, P, Q, X.values.T @ Q, config.alpha, np.empty((X.n, X.d)))
    assert (stale_mags.size > 0) is stale
    assert holds is rep.alpha_condition_holds
    assert objective == rep.final_objective
    assert crit == rep.criticality or stale and math.isnan(crit) and math.isnan(rep.criticality)


# ---------------------------------------------------------------------------
# the shape guard of every function that couples X (d x n), Q (d x K), P (n x d)

# (name, call on (X, Q, P), the blocks it takes)
COUPLED = [
    ("objective_l", lambda X, Q, P: objective_l(Q, X), "Q"),
    ("objective_h", lambda X, Q, P: objective_h(P, Q, X), "QP"),
    ("tev", lambda X, Q, P: tev(X, Q), "Q"),
    ("reconstruct", lambda X, Q, P: reconstruct(X, Q), "Q"),
    ("update_P", lambda X, Q, P: update_P(P, X, np.eye(X.d), 1.0), "P"),
    ("update_Q", lambda X, Q, P: update_Q(Q, P, X, 1.0), "QP"),
    ("adaptive_beta", lambda X, Q, P: adaptive_beta(X, P, 1.0, 1e9), "P"),
    ("check_alpha_condition", lambda X, Q, P: check_alpha_condition(X, Q, 1e-6), "Q"),
    ("solve", lambda X, Q, P: solve(X, practical_config(), Q), "Q"),
    ("criticality_residual", lambda X, Q, P: criticality_residual(Q, P, X), "QP"),
]


@pytest.mark.parametrize(
    "call, block",
    [
        pytest.param(call, block, id=f"{name}-{block}")
        for name, call, blocks in COUPLED
        for block in blocks
    ],
)
def test_mismatched_block_is_a_shape_error(call, block):
    # one block at a time gets d + 1 rows (Q) or d + 1 columns (P); unguarded,
    # numpy's matmul would raise a plain ValueError instead
    d, n, k = 4, 6, 2
    X = random_centered(d, n, np.random.default_rng(5))
    Q = random_stiefel(d + (block == "Q"), k, 6)
    P = SignMatrix(np.ones((n, d + (block == "P"))))
    with pytest.raises(ShapeError):
        call(X, Q, P)


# ---------------------------------------------------------------------------
# theory mode


def theory_config(**kw):
    base = dict(alpha=1e-6, beta_mode=AdaptiveBeta(1.0, 1e9), gamma=1.0,
                max_iters=150, tol=1e-8, theory_mode=True)
    base.update(kw)
    return SolverConfig(**base)


def test_theory_mode_potential_decreases():
    rng = np.random.default_rng(17)
    X = random_centered(10, 40, rng)
    rep = solve(X, theory_config(), random_stiefel(10, 2, 3))
    phi = np.asarray(rep.trace.phi)
    assert np.all(np.diff(phi) <= 1e-9 * (1.0 + np.abs(phi[:-1])))
    assert rep.trace.gamma_star is not None


def test_sufficient_decrease_check_clean_run():
    rng = np.random.default_rng(19)
    X = random_centered(10, 40, rng)
    cfg = theory_config()
    rep = solve(X, cfg, random_stiefel(10, 2, 4))
    out = sufficient_decrease_check(rep.trace, cfg)
    assert out.violations == ()
    assert out.violations_weak == ()
    assert out.checked == rep.iterations
    assert 0.0 <= out.kappa1_weak <= out.kappa1


def test_sufficient_decrease_check_flags_doctored_trace():
    rng = np.random.default_rng(23)
    X = random_centered(8, 24, rng)
    cfg = theory_config(max_iters=30)
    rep = solve(X, cfg, random_stiefel(8, 2, 5))
    rep.trace.phi[3] = rep.trace.phi[2] + 1.0  # inject an increase
    out = sufficient_decrease_check(rep.trace, cfg)
    assert 3 in out.violations or 4 in out.violations


def test_sufficient_decrease_check_fails_closed_on_nan_gap():
    # every comparison with NaN is False, so a step whose gap is NaN must be
    # counted as a violation explicitly, under both readings of kappa1
    rng = np.random.default_rng(23)
    X = random_centered(8, 24, rng)
    cfg = theory_config(max_iters=30)
    rep = solve(X, cfg, random_stiefel(8, 2, 5))
    assert sufficient_decrease_check(rep.trace, cfg).violations == ()
    rep.trace.gap[3] = float("nan")
    rep.trace.phi[3] = rep.trace.phi[2] + 1.0
    out = sufficient_decrease_check(rep.trace, cfg)
    assert out.violations == (3,)
    assert out.violations_weak == (3,)


def test_sufficient_decrease_check_requires_theory_mode():
    rng = np.random.default_rng(29)
    X = random_centered(6, 12, rng)
    cfg = practical_config(max_iters=10, tol=1e-30)
    rep = solve(X, cfg, random_stiefel(6, 2, 6))
    with pytest.raises(DomainError):
        sufficient_decrease_check(rep.trace, cfg)


def test_sufficient_decrease_check_requires_gamma_star():
    # kappa1 rests on gamma*, which every theory-mode solve records; a trace
    # read back without it (as parse_trace_csv gives) cannot be audited
    rng = np.random.default_rng(29)
    X = random_centered(6, 12, rng)
    cfg = theory_config(max_iters=10)
    rep = solve(X, cfg, random_stiefel(6, 2, 6))
    rep.trace.gamma_star = None
    with pytest.raises(DomainError, match="gamma_star"):
        sufficient_decrease_check(rep.trace, cfg)


def test_theory_mode_gamma_is_capped():
    rng = np.random.default_rng(31)
    X = random_centered(8, 20, rng)
    cfg = theory_config(max_iters=40)
    rep = solve(X, cfg, random_stiefel(8, 2, 7))
    assert rep.trace.gamma_star <= 1.0
    # the run must still behave like a descent method near the cap
    assert rep.trace.phi[-1] <= rep.trace.phi[0]


@pytest.mark.parametrize("cfg", [practical_config(max_iters=60, tol=1e-12),
                                 theory_config(max_iters=60, tol=1e-12)],
                         ids=["practical", "theory"])
def test_recorded_phi_is_h_plus_drift_penalty(cfg):
    # Phi(C_k) = h(P_k, Q_k) + (beta_star / 2) ||Q_k - Q_{k-1}||_F^2, in the
    # order solve evaluates it, so the equality is exact
    rng = np.random.default_rng(37)
    rep = solve(random_centered(10, 40, rng), cfg, random_stiefel(10, 2, 8))
    trace, beta_star = rep.trace, cfg.beta_star
    assert trace.phi[0] == trace.h[0]
    for k in range(1, len(trace.phi)):
        assert trace.phi[k] == trace.h[k] + 0.5 * beta_star * trace.dQ[k] * trace.dQ[k]


# ---------------------------------------------------------------------------
# solve against the dense per-sweep loop it replaced


def _reference_solve(X, config, init_Q):
    """The sweep before the workspace: a fresh n x d X^T E from hstack and
    vstack factors, the dense sign step sign_select(P + X^T E / alpha, P),
    a P_next != P flip count, and closing checks that each form X^T Q Q^T.
    Returns every field of the report but wall time."""
    Xv = X.values
    Q = Q_prev = init_Q.values
    XtQ = Xv.T @ Q
    XtQ_prev = XtQ
    P = sign_select(XtQ @ Q.T, np.ones((X.n, X.d)))
    gamma = float(config.gamma)
    trace = solvers.RunTrace()
    bm = config.beta_mode
    adaptive = isinstance(bm, AdaptiveBeta)
    if adaptive:
        sigma, SVt = X._factor
        beta_P = _beta(SVt, P, bm.beta_star, bm.beta_sup)
    if config.theory_mode:
        gs = _gamma_cap(config.alpha, bm.beta_star, float(sigma[0]))
        gamma = max(0.0, min(gamma, gs - solvers.GAMMA_MARGIN))
        trace.gamma_star = gs
    iterations = 0
    h0 = h_from_factors(P, Q, XtQ)
    solvers._record(trace, True, h0, h0, math.nan, math.nan, math.nan, Q)
    dQ_prev = 0.0
    stop_reason = "max_iters"
    final_gap = math.nan
    for k in range(1, config.max_iters + 1):
        if gamma == 0.0:
            XtE = XtQ @ Q.T
        else:
            XtE = np.hstack([XtQ, XtQ_prev]) @ np.vstack(
                [(1.0 + gamma) * Q.T, -gamma * Q_prev.T])
        P_next = sign_select(P + XtE / config.alpha, P)
        if adaptive:
            beta_next = _beta(SVt, P_next, bm.beta_star, bm.beta_sup)
            beta_k = max(beta_P, beta_next)
            beta_P = beta_next
        else:
            beta_k = bm.value
        Q_next = _q_step(Q, _s_times(Xv, P_next, Q, XtQ), beta_k)
        XtQ_prev, XtQ = XtQ, Xv.T @ Q_next
        dP = 2.0 * math.sqrt(np.count_nonzero(P_next != P))
        dQ = float(np.linalg.norm(Q_next - Q))
        gap = math.sqrt(dP * dP + dQ * dQ + dQ_prev * dQ_prev)
        P, Q, Q_prev = P_next, Q_next, Q
        iterations = k
        hk = h_from_factors(P, Q, XtQ)
        solvers._record(trace, True, hk + 0.5 * config.beta_star * dQ * dQ,
                        hk, dP, dQ, gap, Q)
        final_gap = gap
        if gap < config.tol:
            stop_reason = "tolerance"
            break
        dQ_prev = dQ

    T = (Xv.T @ Q) @ Q.T
    mags = np.abs(T)
    if np.any((mags > ZERO_TOL) & (np.sign(T) != P)):
        crit = math.nan
    else:
        G = -_s_times(Xv, P, Q, Xv.T @ Q)
        QtG = Q.T @ G
        crit = float(np.linalg.norm(G - Q @ ((QtG + QtG.T) / 2.0)))
    nz = mags > ZERO_TOL
    holds = (not nz.any()) or config.alpha < float(mags[nz].min())
    objective = -float(np.abs(Q @ (Q.T @ Xv)).sum())
    return dict(P=P, Q=Q, objective=objective, trace=trace, criticality=crit,
                alpha_holds=holds, stop_reason=stop_reason, iterations=iterations,
                final_gap=final_gap)


def _integer_data_with_zero_samples(d, n, rng):
    # columns A, -A and zeros: integer entries, exactly zero row means, and
    # zero rows in X^T Q Q^T, where every sign is a tie
    half = (n - 2) // 2
    A = rng.integers(-3, 4, size=(d, half)).astype(float)
    return DataMatrix(np.hstack([A, -A, np.zeros((d, n - 2 * half))]), centered=True)


def _same(a, b):
    return np.array_equal(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                          equal_nan=True)


@pytest.mark.parametrize("theory", [False, True], ids=["practical", "theory"])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("shape,data", [((6, 300), "normal"), ((300, 6), "normal"),
                                        ((7, 40), "integer"), ((40, 12), "integer")],
                         ids=["n>>d", "d>>n", "int-wide", "int-tall"])
def test_solve_matches_dense_reference_bit_for_bit(shape, data, gamma, theory):
    d, n = shape
    rng = np.random.default_rng(d * 1000 + n)
    X = (random_centered(d, n, rng) if data == "normal"
         else _integer_data_with_zero_samples(d, n, rng))
    cfg = (theory_config(gamma=gamma, max_iters=40, tol=1e-9) if theory
           else practical_config(alpha=1e-3, gamma=gamma, max_iters=40, tol=1e-9))
    Q0 = random_stiefel(d, 2, 5)
    rep = solve(X, cfg, Q0, snapshots=True)
    want = _reference_solve(X, cfg, Q0)
    # a sweep that flips no sign reuses beta(P) and P Q, and the next one
    # that flips must form them afresh: each case runs both kinds
    flipped = [dP > 0 for dP in rep.trace.dP[1:]]
    assert not all(flipped)
    assert any(flipped[flipped.index(False):])
    for name in ("phi", "h", "dP", "dQ", "gap"):
        assert _same(getattr(rep.trace, name), getattr(want["trace"], name)), name
    assert len(rep.trace.q_snapshots) == len(want["trace"].q_snapshots) == rep.iterations + 1
    for got_Q, want_Q in zip(rep.trace.q_snapshots, want["trace"].q_snapshots):
        assert np.array_equal(got_Q, want_Q)
    assert rep.trace.gamma_star == want["trace"].gamma_star
    assert np.array_equal(rep.final_P.values, want["P"])
    assert np.array_equal(rep.final_Q.values, want["Q"])
    assert _same(rep.criticality, want["criticality"])
    assert rep.alpha_condition_holds is want["alpha_holds"]
    assert rep.final_objective == want["objective"]
    assert rep.stop_reason == want["stop_reason"]
    assert rep.iterations == want["iterations"]
    assert _same(rep.final_gap, want["final_gap"])


def test_wide_solve_peaks_below_three_sign_blocks():
    # one n x d float array is 1.28 MB at n = 4000, d = 40; the run keeps
    # two (P and the product buffer T), builds P0 in place in P and hands P
    # itself to final_P.  The n x 2K and n x K factors add 0.23 blocks, and
    # a sweep that flips an eighth of the signs holds their int64 indices
    # and one gathered copy, another 0.25, for 2.48 blocks: a temporary
    # n x d array anywhere in the run crosses 2.6 (gathering and dividing
    # every candidate entry by alpha read 2.74)
    X = random_centered(40, 4000, np.random.default_rng(38))
    cfg = practical_config(max_iters=30, tol=1e-300)
    Q0 = random_stiefel(40, 3, 1)
    rep, peak = traced_peak(solve, X, cfg, Q0, snapshots=False)
    assert rep.iterations == 30
    assert peak < 2.6 * 4000 * 40 * 8


def test_sweep_that_flips_no_sign_allocates_less_than_an_n_by_k_block(monkeypatch):
    # X^T Q once lived in a strided half of the n x 2K factor, and h's inner
    # product copied it, one n x K block (96 kB at n = 4000, K = 3), every
    # sweep.  Each sweep's growth is read between two _record calls: the
    # peak since the last one, less what was live after it
    X = random_centered(40, 4000, np.random.default_rng(38))
    Q0 = solve(X, practical_config(), random_stiefel(40, 3, 1)).final_Q
    growth = []
    live_after = None
    record = solvers._record

    def measured(trace, snapshots, phi, h, dP, dQ, gap, Q):
        nonlocal live_after
        if dP == 0.0:  # dP = 2 sqrt(flips), nan at iterate 0
            growth.append(tracemalloc.get_traced_memory()[1] - live_after)
        record(trace, snapshots, phi, h, dP, dQ, gap, Q)
        tracemalloc.reset_peak()
        live_after = tracemalloc.get_traced_memory()[0]

    monkeypatch.setattr(solvers, "_record", measured)
    rep, _ = traced_peak(solve, X, practical_config(max_iters=6, tol=1e-300), Q0)
    assert rep.iterations == 6
    assert len(growth) >= 3
    assert max(growth) < 4000 * 3 * 8
