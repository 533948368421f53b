"""Property tests: every rank-K product a sweep uses equals its dense form.

``solve`` never builds the d x d matrices E, XP or S; its step functions
evaluate X^T E (``extrapolate``), S Q, the objective h (``objective_h``) and
the criticality residual from X^T Q and friends, and the backtracked Q step
(``adaptive_beta``) tests the descent inequality from P D and X^T D.
Each test below draws a small problem and compares the factored value with
the dense formula to 1e-10 relative.  The screened sign step, which
divides only the entries that can flip, must equal the dense step bit for
bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1subspace.core import DataMatrix, SignMatrix, StiefelPoint, objective_h
from l1subspace.errors import NumericError
from l1subspace.linalg import polar_factor
from l1subspace.solvers import (
    _s_times,
    adaptive_beta,
    criticality_residual,
    extrapolate,
    update_P,
)

from dense_reference import extrapolated_projector, sign_select

RTOL = 1e-10


@st.composite
def problems(draw):
    """A centered d x n matrix (some entries exactly zero), two Stiefel
    points with K <= min(d, n), a sign block, and gamma in [0, 1]."""
    d = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, min(d, n)))
    gamma = draw(st.floats(0.0, 1.0))
    sparsity = draw(st.sampled_from([0.0, 0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((d, n)) * (rng.random((d, n)) >= sparsity)
    X = DataMatrix(values - values.mean(axis=1, keepdims=True), centered=True)
    Q = StiefelPoint(polar_factor(rng.standard_normal((d, k))))
    Q_prev = StiefelPoint(polar_factor(rng.standard_normal((d, k))))
    P = SignMatrix(np.where(rng.random((n, d)) < 0.5, -1.0, 1.0))
    return X, Q, Q_prev, P, gamma


def assert_close(got, want):
    err = float(np.linalg.norm(np.asarray(got) - np.asarray(want)))
    assert err <= RTOL * max(float(np.linalg.norm(want)), 1.0)


@settings(max_examples=200, deadline=None)
@given(problems())
def test_sign_step_input_matches_dense_extrapolation(problem):
    X, Q, Q_prev, _, gamma = problem
    Xt = X.values.T
    F = np.hstack([np.full((X.n, Q.k), np.nan), Xt @ Q_prev.values])
    W, out = np.empty((2 * Q.k, X.d)), np.empty((X.n, X.d))
    got = extrapolate(Xt @ Q.values, F, W, Q.values, Q_prev.values, gamma, out)
    assert got is out
    assert_close(got, Xt @ extrapolated_projector(Q.values, Q_prev.values, gamma))


@settings(max_examples=200, deadline=None)
@given(problems())
def test_s_times_q_matches_dense_s(problem):
    X, Q, _, P, _ = problem
    XP = X.values @ P.values
    got = _s_times(X.values, P.values, Q.values, X.values.T @ Q.values)
    assert_close(got, (XP + XP.T) @ Q.values)


@settings(max_examples=200, deadline=None)
@given(problems())
def test_criticality_residual_matches_dense_formula(problem):
    X, Q, _, _, _ = problem
    Q_ = Q.values
    P = sign_select((X.values.T @ Q_) @ Q_.T, np.ones((X.n, X.d)))
    XP = X.values @ P
    G = -(XP + XP.T) @ Q_
    QtG = Q_.T @ G
    want = np.linalg.norm(G - Q_ @ ((QtG + QtG.T) / 2.0))
    assert_close(criticality_residual(Q, SignMatrix(P), X), want)


@settings(max_examples=200, deadline=None)
@given(problems())
def test_objective_h_matches_dense_inner_product(problem):
    X, Q, _, P, _ = problem
    want = -float(np.vdot(P.values, (X.values.T @ Q.values) @ Q.values.T))
    assert_close(objective_h(P.values, Q.values, X.values.T @ Q.values), want)


@settings(max_examples=200, deadline=None)
@given(problems(), st.floats(1e-3, 1e3))
def test_backtracked_step_satisfies_the_dense_descent_inequality(problem, beta_star):
    X, Q, _, P, _ = problem
    Xv, Qv, Pv = X.values, Q.values, P.values
    SQ = _s_times(Xv, Pv, Qv, Xv.T @ Qv)
    Q_next, beta, L, trials = adaptive_beta(Xv, Pv, Qv, SQ, beta_star, beta_star, math.inf)
    assert beta == 1.5 * beta_star + L
    assert L == beta_star * 2.0 ** (trials - 1)
    # in dense form f(Z) = h(P, Z) = -<Z, S Z> / 2, with gradient -S Q at Q
    S = Xv @ Pv + (Xv @ Pv).T

    def f(Z):
        return -0.5 * float(np.vdot(Z, S @ Z))

    D = Q_next - Qv
    # the tested -<P D, X^T D> is f(Q+) - f(Q) + <S Q, D>
    curvature = f(Q_next) - f(Qv) + float(np.vdot(S @ Qv, D))
    assert_close(-float(np.vdot(Pv @ D, Xv.T @ D)), curvature)
    assert curvature <= 0.5 * L * float(np.vdot(D, D)) + RTOL * max(abs(f(Qv)), 1.0)


@st.composite
def sign_steps(draw):
    """A sign block P, a product T and alpha in [1e-300, 1e300].  T mixes
    entries near the flip threshold -alpha P, exact ties T = -alpha P, ties
    one ulp off, signed zeros, subnormals and huge values; sometimes one
    entry is NaN, infinite, or so large that T / alpha overflows."""
    n = draw(st.integers(1, 9))
    d = draw(st.integers(1, 9))
    poison = draw(st.sampled_from([None, None, None, "nan", "inf", "-inf", "overflow"]))
    if poison == "overflow":
        alpha = 10.0 ** draw(st.floats(-300.0, -1.0))
    else:
        alpha = 10.0 ** draw(st.floats(-300.0, 300.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = np.where(rng.random((n, d)) < 0.5, -1.0, 1.0)
    tie = -alpha * P
    kinds = [
        rng.standard_normal((n, d)) * alpha * 10.0 ** rng.uniform(-3, 3, (n, d)),
        tie,
        np.nextafter(tie, np.inf),
        np.nextafter(tie, -np.inf),
        np.where(rng.random((n, d)) < 0.5, -0.0, 0.0),
        rng.choice([-1.0, 1.0], (n, d)) * rng.integers(1, 2**52, (n, d)) * 5e-324,
        rng.choice([-1.0, 1.0], (n, d)) * 10.0 ** rng.uniform(-300, 307, (n, d)),
    ]
    pick = rng.integers(0, len(kinds), (n, d))
    T = np.choose(pick, kinds)
    if poison is not None:
        bad = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "overflow": -1.7e308}[poison]
        T[rng.integers(n), rng.integers(d)] = bad
    return P, T, alpha


@settings(max_examples=400, deadline=None)
@given(sign_steps())
def test_screened_sign_step_matches_dense_sign_step(case):
    P, T, alpha = case
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want = sign_select(P + T / alpha, P)
        except NumericError:
            want = None
    got = P.copy()
    if want is None:
        with pytest.raises(NumericError, match="non-finite"):
            update_P(got, T.copy(), alpha)
        return
    flips = update_P(got, T.copy(), alpha)
    assert got.tobytes() == want.tobytes()
    assert flips == np.count_nonzero(want != P)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.floats(5e-324, 1e300),
    # powers of two, and the doubles just below them: there the double
    # below -alpha divides to nearest the rounding tie at -1 - 2^-53
    st.integers(-1074, 996).map(lambda e: math.ldexp(1.0, e)),
    st.integers(-1073, 996).map(lambda e: math.nextafter(math.ldexp(1.0, e), 0.0)),
))
def test_minus_alpha_is_the_exact_flip_threshold(alpha):
    # the sign step flips an entry t of T P where t < -alpha, in place of
    # fl(t / alpha) < -1: -alpha keeps its sign and the double below it
    # turns, and the quotient is monotone in t, so the two rules agree
    t = -alpha
    assert t / alpha >= -1.0
    assert math.nextafter(t, -math.inf) / alpha < -1.0
