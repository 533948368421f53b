"""Alternating proximal scheme for the two-block L1 projection objective.

One sweep updates the sign block by an exact proximal step (an entrywise
sign with ties kept) and the Stiefel block by a linearized proximal step
whose solution is an orthogonal Procrustes problem, solved by the polar
factor.  A quadratic extrapolation of the projector Q Q^T accelerates the
sign step; gamma = 0 recovers the plain scheme.

Both steps only ever see the data through rank-K products.  The sign step
needs X^T E for the extrapolated projector E = (1+gamma) Q Q^T -
gamma Q' Q'^T, which is [X^T Q, X^T Q'] [(1+gamma) Q^T; -gamma Q'^T]; the
Q step needs S Q for S = XP + (XP)^T, which is X (P Q) + P^T (X^T Q).
``solve`` carries X^T Q from one sweep to the next, so a sweep of a d x n
problem costs O(ndK) time and O(nd) memory and never forms a d x d matrix.
Theory mode's adaptive beta needs ||XP||_2 as well.  With the thin SVD
X = U Sigma V^T, taken once per run, that is ||(Sigma V^T) P||_2, the norm
of an r x d matrix with r = min(d, n): O(r n d) a sweep.

Two parameter regimes are supported.  The practical regime takes a fixed
Q-step parameter beta and any gamma in [0, 1].  The theory regime derives
beta each sweep from the current sign block and caps gamma strictly below
gamma_star, which makes the recorded potential provably decrease; the
sufficient_decrease_check audit verifies that on a finished trace.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    AdaptiveBeta,
    DataMatrix,
    SignMatrix,
    SolverConfig,
    StiefelPoint,
    h_from_factors,
    objective_l,
    sign_select,
)
from .errors import (
    DomainError,
    FeasibilityError,
    InfeasibleBoundError,
    SelectionError,
    ShapeError,
)
from .linalg import _svd, polar_factor, spectral_norm

# iterations whose index exceeds this are snapshot-thinned to every tenth
SNAPSHOT_DENSE_LIMIT = 10_000
# entries of X^T Q Q^T at or below this magnitude count as zero
ZERO_TOL = 1e-12
# margin by which theory mode keeps gamma strictly below gamma_star
GAMMA_MARGIN = 1e-12


@dataclass
class RunTrace:
    """Per-iteration diagnostics of one run.

    Entry k describes iterate k; entry 0 is the starting point, so the step
    fields hold nan there.  ``gap[k]`` is the full triple step
    ||C^k - C^{k-1}||_F including the trailing Q block.  Q snapshots, read-only
    d x K arrays, exist only when ``solve`` runs with ``snapshots=True``: then
    they are kept for every iteration up to ``SNAPSHOT_DENSE_LIMIT`` and every
    tenth one beyond that.
    """

    phi: list[float] = field(default_factory=list)
    h: list[float] = field(default_factory=list)
    dP: list[float] = field(default_factory=list)
    dQ: list[float] = field(default_factory=list)
    gap: list[float] = field(default_factory=list)
    snapshot_iters: list[int] = field(default_factory=list)
    q_snapshots: list[np.ndarray] = field(default_factory=list)
    gamma_star: float | None = None

    def __len__(self):
        return len(self.phi)


@dataclass(frozen=True)
class DecreaseReport:
    """Audit of the per-sweep potential decrease on a theory-mode trace.

    ``kappa1`` builds the decrease constant from the upper beta bound; the
    weaker ``kappa1_weak`` uses the lower bound, which is what the descent
    derivation itself supports, so both readings can be checked.
    """

    kappa1: float
    kappa1_weak: float
    violations: tuple[int, ...]
    violations_weak: tuple[int, ...]
    checked: int


@dataclass(frozen=True)
class RunReport:
    """Outcome of one solve: final blocks, diagnostics, and the trace."""

    final_P: SignMatrix
    final_Q: StiefelPoint
    final_objective: float
    trace: RunTrace
    criticality: float
    alpha_condition_holds: bool
    stop_reason: str
    iterations: int
    wall_time: float
    final_gap: float


def extrapolate(Q: StiefelPoint, Q_prev: StiefelPoint, gamma: float) -> np.ndarray:
    """Extrapolated projector E = Q Q^T + gamma (Q Q^T - Q_prev Q_prev^T).

    This is the dense d x d reference; ``solve`` never forms it and works
    with X^T E through ``_xt_extrapolated`` instead.
    """
    if not (isinstance(gamma, (int, float)) and 0.0 <= gamma <= 1.0):
        raise DomainError(f"gamma must lie in [0, 1], got {gamma!r}")
    if Q_prev.values.shape != Q.values.shape:
        raise ShapeError(
            f"Q_prev shape {Q_prev.values.shape} differs from Q shape {Q.values.shape}"
        )
    G = Q.values @ Q.values.T
    if gamma == 0.0:
        return G
    return G + gamma * (G - Q_prev.values @ Q_prev.values.T)


def _xt_extrapolated(
    XtQ: np.ndarray, XtQ_prev: np.ndarray, Q: np.ndarray, Q_prev: np.ndarray, gamma: float
) -> np.ndarray:
    """X^T E for E = extrapolate(Q, Q_prev, gamma), as one n x 2K by 2K x d product."""
    if gamma == 0.0:
        return XtQ @ Q.T
    return np.hstack([XtQ, XtQ_prev]) @ np.vstack([(1.0 + gamma) * Q.T, -gamma * Q_prev.T])


def _sign_step(P: np.ndarray, XtE: np.ndarray, alpha: float) -> np.ndarray:
    """Sign step from the n x d product X^T E, however E was represented.

    XtE is overwritten; callers pass a freshly computed product.
    """
    # built in XtE's own storage: on n >> d data the page faults of every
    # extra n x d temporary cost more than the arithmetic of the sign step.
    # The sign itself goes to a new array: numpy's np.sign(M, out=M) runs
    # several times slower than writing to separate storage.
    M = XtE
    M /= alpha
    M += P
    return sign_select(M, P)


def _s_times(X: np.ndarray, P: np.ndarray, Q: np.ndarray, XtQ: np.ndarray) -> np.ndarray:
    """S Q for S = XP + (XP)^T, evaluated as X (P Q) + P^T (X^T Q)."""
    return X @ (P @ Q) + P.T @ XtQ


def _q_step(Q: np.ndarray, SQ: np.ndarray, beta: float) -> np.ndarray:
    """Procrustes step from the d x K product S Q; Q itself when S Q = 0."""
    if not SQ.any():
        return Q
    return polar_factor(Q + SQ / beta)


def update_P(P: SignMatrix, X: DataMatrix, E: np.ndarray, alpha: float) -> SignMatrix:
    """Proximal sign step: entrywise sign of P + X^T E / alpha, keeping ties.

    This is the exact minimizer of -<P', X^T E> + (alpha/2) ||P' - P||_F^2
    over sign matrices P'.
    """
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha) and alpha > 0):
        raise DomainError(f"alpha must be positive and finite, got {alpha!r}")
    E = np.asarray(E, dtype=float)
    if E.shape != (X.d, X.d):
        raise ShapeError(f"E must be {X.d} x {X.d}, got {E.shape}")
    if P.values.shape != (X.n, X.d):
        raise ShapeError(f"P must be {X.n} x {X.d}, got {P.values.shape}")
    return SignMatrix(_sign_step(P.values, X.values.T @ E, alpha))


def update_Q(Q: StiefelPoint, P_next: SignMatrix, X: DataMatrix, beta: float) -> StiefelPoint:
    """Procrustes step: polar factor of Q + (S Q) / beta with S = XP + (XP)^T.

    This maximizes <Q', S Q + beta Q> over the Stiefel manifold, i.e. the
    linearized objective plus the proximal coupling to the previous Q.
    """
    if not (isinstance(beta, (int, float)) and math.isfinite(beta) and beta > 0):
        raise DomainError(f"beta must be positive and finite, got {beta!r}")
    if P_next.values.shape != (X.n, X.d):
        raise ShapeError(f"P must be {X.n} x {X.d}, got {P_next.values.shape}")
    if Q.d != X.d:
        raise ShapeError(f"Q has {Q.d} rows but X has {X.d} rows")
    SQ = _s_times(X.values, P_next.values, Q.values, X.values.T @ Q.values)
    Q_next = _q_step(Q.values, SQ, beta)
    return Q if Q_next is Q.values else StiefelPoint(Q_next)


def _data_factor(X: np.ndarray) -> tuple[float, np.ndarray]:
    """sigma_1 = ||X||_2 and Sigma V^T from the thin SVD X = U Sigma V^T.

    Sigma V^T is r x n with r = min(d, n).  U has orthonormal columns, so
    ||X M||_2 = ||(Sigma V^T) M||_2 for every M with n rows.
    """
    _, sigma, Vt = _svd(X, "data factorization")
    return float(sigma[0]), sigma[:, None] * Vt


def _gamma_cap(alpha_star: float, beta_star: float, sigma1: float) -> float:
    """gamma* of ``gamma_star`` from sigma_1 = ||X||_2."""
    if sigma1 == 0.0:
        return 1.0
    return min(1.0, alpha_star * beta_star / (8.0 * sigma1 * sigma1))


def _beta(SVt: np.ndarray, P: np.ndarray, beta_star: float, beta_sup: float) -> float:
    """(3/2) beta_star + 2 ||X P||_2 from the factor Sigma V^T of X."""
    b = 1.5 * beta_star + 2.0 * spectral_norm(SVt @ P)
    if b > beta_sup:
        raise InfeasibleBoundError(
            f"adaptive beta {b:.6g} exceeds the configured bound beta_sup = {beta_sup:.6g}"
        )
    return b


def gamma_star(alpha_star: float, beta_star: float, X: DataMatrix) -> float:
    """Extrapolation cap gamma* = min(1, alpha_star beta_star / (8 ||X||^2))."""
    for name, value in (("alpha_star", alpha_star), ("beta_star", beta_star)):
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return _gamma_cap(alpha_star, beta_star, _data_factor(X.values)[0])


def adaptive_beta(X: DataMatrix, P: SignMatrix, beta_star: float, beta_sup: float) -> float:
    """Theory-mode Q-step parameter (3/2) beta_star + 2 ||X P||_2.

    Raises InfeasibleBoundError when the value would exceed beta_sup.
    """
    if not (isinstance(beta_star, (int, float)) and math.isfinite(beta_star) and beta_star > 0):
        raise DomainError(f"beta_star must be positive and finite, got {beta_star!r}")
    if P.values.shape != (X.n, X.d):
        raise ShapeError(f"P must be {X.n} x {X.d}, got {P.values.shape}")
    return _beta(_data_factor(X.values)[1], P.values, beta_star, beta_sup)


def sign_mismatch(Q: StiefelPoint, P: SignMatrix, X: DataMatrix) -> np.ndarray:
    """Magnitudes of X^T Q Q^T at the entries where P has the opposite sign.

    Entries with magnitude at most ``ZERO_TOL`` count as zero and never
    disagree.  An empty result means P selects sign(X^T Q Q^T).
    """
    if Q.d != X.d or P.values.shape != (X.n, X.d):
        raise ShapeError(
            f"inconsistent shapes: X is {X.d} x {X.n}, Q is {Q.d} x {Q.k}, "
            f"P is {P.values.shape}"
        )
    T = (X.values.T @ Q.values) @ Q.values.T
    mags = np.abs(T)
    return mags[(mags > ZERO_TOL) & (np.sign(T) != P.values)]


def criticality_residual(Q: StiefelPoint, P: SignMatrix, X: DataMatrix) -> float:
    """Stationarity measure at (P, Q): tangent part of the objective gradient.

    With S = XP + P^T X^T and G = -S Q, the residual is
    ||G - Q sym(Q^T G)||_F, the distance of G from the normal cone at Q.
    P must agree with sign(X^T Q Q^T) wherever that matrix is nonzero
    (see ``sign_mismatch``); otherwise SelectionError is raised.
    """
    bad = sign_mismatch(Q, P, X).size
    if bad:
        raise SelectionError(
            f"P disagrees with sign(X^T Q Q^T) at {bad} nonzero entries"
        )
    XtQ = X.values.T @ Q.values
    G = -_s_times(X.values, P.values, Q.values, XtQ)
    QtG = Q.values.T @ G
    R = G - Q.values @ ((QtG + QtG.T) / 2.0)
    return float(np.linalg.norm(R))


def check_alpha_condition(X: DataMatrix, Q: StiefelPoint, alpha_star: float) -> bool:
    """Post-hoc step-size test: alpha_star below the smallest nonzero entry
    magnitude of X^T Q Q^T.  Vacuously true when that matrix is zero."""
    if not (isinstance(alpha_star, (int, float)) and math.isfinite(alpha_star) and alpha_star > 0):
        raise DomainError(f"alpha_star must be positive and finite, got {alpha_star!r}")
    if Q.d != X.d:
        raise ShapeError(f"Q has {Q.d} rows but X has {X.d} rows")
    T = (X.values.T @ Q.values) @ Q.values.T
    mags = np.abs(T)
    nz = mags > ZERO_TOL
    if not nz.any():
        return True
    return alpha_star < float(mags[nz].min())


def _record(trace, snapshots, k, phi, h, dP, dQ, gap, Q):
    trace.phi.append(phi)
    trace.h.append(h)
    trace.dP.append(dP)
    trace.dQ.append(dQ)
    trace.gap.append(gap)
    if snapshots and (k <= SNAPSHOT_DENSE_LIMIT or k % 10 == 0):
        Q.setflags(write=False)
        trace.snapshot_iters.append(k)
        trace.q_snapshots.append(Q)


def solve(
    X: DataMatrix,
    config: SolverConfig,
    init_Q: StiefelPoint,
    init_P: SignMatrix | None = None,
    *,
    snapshots: bool = True,
) -> RunReport:
    """Run the alternating scheme from (init_P, init_Q) until the triple step
    drops below config.tol or config.max_iters sweeps have run.

    X must be centered.  When init_P is omitted it starts from
    sign(X^T Q0 Q0^T) with ties broken to +1.  Identical inputs produce
    identical reports on one BLAS/LAPACK build run with a fixed thread count;
    other thread counts can change the last digits.  The only
    nondeterministic field is wall time.

    The iterates are plain arrays inside the loop: the sign step yields +/-1
    entries and the Q step orthonormal columns by construction, so they are
    validated once, as final_P and final_Q.
    """
    if not X.centered:
        raise FeasibilityError("solve requires a centered data matrix")
    if init_Q.d != X.d:
        raise ShapeError(f"init_Q has {init_Q.d} rows but X has {X.d} rows")
    if init_Q.k > min(X.d, X.n):
        raise ShapeError(
            f"K = {init_Q.k} exceeds min(d, n) = {min(X.d, X.n)}"
        )
    t0 = time.perf_counter()

    Xv = X.values
    Q = Q_prev = init_Q.values
    # X^T Q of the current and the previous Q, carried between sweeps
    XtQ = Xv.T @ Q
    XtQ_prev = XtQ
    if init_P is None:
        P = sign_select(XtQ @ Q.T, np.ones((X.n, X.d)))
    else:
        if init_P.values.shape != (X.n, X.d):
            raise ShapeError(
                f"init_P must be {X.n} x {X.d}, got {init_P.values.shape}"
            )
        P = init_P.values

    gamma = float(config.gamma)
    trace = RunTrace()
    bm = config.beta_mode
    adaptive = isinstance(bm, AdaptiveBeta)
    if adaptive:
        # beta(P) of each sweep is beta(P_next) of the sweep before
        sigma1, SVt = _data_factor(Xv)
        beta_P = _beta(SVt, P, bm.beta_star, bm.beta_sup)
    if config.theory_mode:
        gs = _gamma_cap(config.alpha, bm.beta_star, sigma1)
        gamma = max(0.0, min(gamma, gs - GAMMA_MARGIN))
        assert gamma < gs
        trace.gamma_star = gs

    iterations = 0
    h0 = h_from_factors(P, Q, XtQ)
    _record(trace, snapshots, 0, h0, h0, math.nan, math.nan, math.nan, Q)

    beta_star_phi = config.beta_star
    dQ_prev = 0.0
    stop_reason = "max_iters"
    final_gap = math.nan
    for k in range(1, config.max_iters + 1):
        XtE = _xt_extrapolated(XtQ, XtQ_prev, Q, Q_prev, gamma)
        P_next = _sign_step(P, XtE, config.alpha)
        if adaptive:
            beta_next = _beta(SVt, P_next, bm.beta_star, bm.beta_sup)
            beta_k = max(beta_P, beta_next)
            beta_P = beta_next
        else:
            beta_k = bm.value
        Q_next = _q_step(Q, _s_times(Xv, P_next, Q, XtQ), beta_k)
        XtQ_prev, XtQ = XtQ, Xv.T @ Q_next

        # entries are +/-1, so each flipped sign adds 4 to ||P_next - P||^2
        dP = 2.0 * math.sqrt(np.count_nonzero(P_next != P))
        dQ = float(np.linalg.norm(Q_next - Q))
        gap = math.sqrt(dP * dP + dQ * dQ + dQ_prev * dQ_prev)
        P, Q, Q_prev = P_next, Q_next, Q
        iterations = k

        hk = h_from_factors(P, Q, XtQ)
        phik = hk + 0.5 * beta_star_phi * dQ * dQ
        _record(trace, snapshots, k, phik, hk, dP, dQ, gap, Q)

        if gap < config.tol:
            stop_reason = "tolerance"
            final_gap = gap
            break
        dQ_prev = dQ
        final_gap = gap

    # release the last sweep's n x d arrays before the validating copy of P
    # and the closing checks, which allocate n x d arrays of their own
    del XtE, P_next
    P, Q = SignMatrix(P), StiefelPoint(Q)
    try:
        crit = criticality_residual(Q, P, X)
    except SelectionError:
        crit = math.nan
    return RunReport(
        final_P=P,
        final_Q=Q,
        final_objective=objective_l(Q, X),
        trace=trace,
        criticality=crit,
        alpha_condition_holds=check_alpha_condition(X, Q, config.alpha),
        stop_reason=stop_reason,
        iterations=iterations,
        wall_time=time.perf_counter() - t0,
        final_gap=final_gap,
    )


def sufficient_decrease_check(
    trace: RunTrace, config: SolverConfig, X: DataMatrix | None = None
) -> DecreaseReport:
    """Audit Phi(C^k) - Phi(C^{k-1}) <= -kappa1 ||C^k - C^{k-1}||_F^2 on a
    theory-mode trace, with slack 1e-9 (1 + |Phi|) per comparison.

    gamma_star comes from the trace when present, otherwise it is recomputed
    from X.  Returns the violating iteration indices under both readings of
    the constant.
    """
    if not config.theory_mode:
        raise DomainError("the decrease guarantee only covers theory-mode runs")
    bm = config.beta_mode
    gs = trace.gamma_star
    if gs is None:
        if X is None:
            raise DomainError("trace lacks gamma_star; pass X to recompute it")
        gs = gamma_star(config.alpha, bm.beta_star, X)
    alpha_term = config.alpha * (1.0 - gs) / 2.0
    kappa1 = min(alpha_term, bm.beta_sup / 4.0)
    kappa1_weak = min(alpha_term, bm.beta_star / 4.0)
    violations, violations_weak = [], []
    for k in range(1, len(trace.phi)):
        lhs = trace.phi[k] - trace.phi[k - 1]
        slack = 1e-9 * (1.0 + abs(trace.phi[k - 1]))
        g2 = trace.gap[k] * trace.gap[k]
        if lhs > -kappa1 * g2 + slack:
            violations.append(k)
        if lhs > -kappa1_weak * g2 + slack:
            violations_weak.append(k)
    return DecreaseReport(
        kappa1=kappa1,
        kappa1_weak=kappa1_weak,
        violations=tuple(violations),
        violations_weak=tuple(violations_weak),
        checked=max(len(trace.phi) - 1, 0),
    )
