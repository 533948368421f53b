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

Each step is one function, the one that ``solve`` runs:
``extrapolate`` forms X^T E, ``update_P`` takes the sign step, ``update_Q``
the Procrustes step, ``adaptive_beta`` gives theory mode's beta and
``core.objective_h`` the recorded h.  They take plain arrays and validate
no argument: ``solve`` validates its inputs once, at its boundary.  The
benchmark's tracer (``perfbench/tracer.py``) rebinds these names in every
module and times each step by its name.

``solve`` allocates its n x d arrays once per run: the sign block P and a
product buffer T, plus the n x 2K and 2K x d factors of X^T E and the
n x K product P Q; every product is written into them with
``np.matmul(..., out=)``.  The sign step is screened and in place.  Since P
is +/-1, P_ij turns exactly where fl((X^T E)_ij P_ij / alpha) < -1, which
under round-to-nearest is exactly where (X^T E)_ij P_ij < -alpha (see
``update_P``).  So after one exact pass T *= P and a min and a max for the
finiteness check, the sign step stops at once when even the smallest entry
of T * P is at least -alpha; otherwise one compare with -alpha picks the
entries that turn, they are flipped, and the flip count for the trace is
their number.  No entry is divided by alpha.  A sweep runs at most six
products that touch n x d data (X^T E into T, three that read P and two
that read X) and at most four elementwise passes over T (the product with
P, min, max, compare).  It allocates no n x d float array: only the
compare's boolean mask and the indices of the flipped entries.  The
closing checks form X^T Q Q^T once, in T, and final_P adopts P itself.

A sweep that flips no sign leaves P bit for bit as it was, so everything
that depends on P alone is reused rather than recomputed: the sign step
skips its compare, gather and scatter, the Q step reads the P Q that the
previous sweep's objective formed at the same P and Q, and theory mode
keeps its beta.  The closing criticality residual likewise reuses the last
P Q.

Theory mode's adaptive beta needs ||XP||_2 as well.  With the thin SVD
X = U Sigma V^T that is ||(Sigma V^T) P||_2, the norm of an r x d matrix
with r = min(d, n): O(r n d), evaluated once per sweep that flips a sign.
The factor Sigma V^T and sigma_1 = ||X||_2, which caps gamma, come from the
spectrum that the DataMatrix keeps (``DataMatrix._factor``): one SVD of
X, taken on first use, serves every run on that X.

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
    _Adopted,
    _fit,
    _fro_norm,
    _objective_l,
    _number,
    objective_h,
)
from .errors import (
    DomainError,
    FeasibilityError,
    InfeasibleBoundError,
    NumericError,
    SelectionError,
    ShapeError,
)
from .linalg import polar_factor, spectral_norm

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
    ``q_snapshots[k]`` is iterate k, for every k.
    """

    phi: list[float] = field(default_factory=list)
    h: list[float] = field(default_factory=list)
    dP: list[float] = field(default_factory=list)
    dQ: list[float] = field(default_factory=list)
    gap: list[float] = field(default_factory=list)
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


def extrapolate(
    XtQ: np.ndarray,
    F: np.ndarray,
    W: np.ndarray,
    Q: np.ndarray,
    Q_prev: np.ndarray,
    gamma: float,
    out: np.ndarray,
) -> np.ndarray:
    """X^T E for the extrapolated projector E = Q Q^T + gamma (Q Q^T - Q' Q'^T),
    Q' = Q_prev, as one n x 2K by 2K x d product.

    F is the n x 2K factor [X^T Q, X^T Q']: its right half must hold X^T Q',
    and its left half is filled here from the n x K product ``XtQ``.  The
    2K x d buffer W is filled with [(1+gamma) Q^T; -gamma Q'^T] and the
    n x d product is written to ``out``, so nothing is allocated.  For
    gamma = 0 the product is X^T Q Q^T alone, and F is not read.
    """
    k = Q.shape[1]
    if gamma == 0.0:
        return np.matmul(XtQ, Q.T, out=out)
    F[:, :k] = XtQ
    np.multiply(Q.T, 1.0 + gamma, out=W[:k])
    np.multiply(Q_prev.T, -gamma, out=W[k:])
    return np.matmul(F, W, out=out)


def update_P(P: np.ndarray, T: np.ndarray, alpha: float) -> int:
    """Screened proximal sign step P <- sign(P + T / alpha), ties keeping P.

    For T = X^T E this is the exact minimizer of -<P', X^T E> +
    (alpha/2) ||P' - P||_F^2 over sign matrices P'.  P is updated in place
    through a flat view, so it must be C-contiguous; T, the n x d product
    X^T E, is overwritten with T * P.  Returns the number of flipped signs.
    Raises NumericError when P + T / alpha has a non-finite entry.  When no
    entry can turn, P and the flip count are settled after the finiteness
    check and nothing more is read.
    """
    # P is +/-1, so T * P is exact and fl(P + fl(T / alpha)) equals
    # P fl(1 + fl(T P / alpha)): the sign turns exactly where
    # fl(T P / alpha) < -1 and is kept, ties included, everywhere else.
    # That is exactly where T P < -alpha, so no entry is divided: -alpha / alpha
    # is -1, and a double below -alpha lies at least ulp(alpha) below it, with
    # ulp(alpha) / alpha > 2^-53 (subnormal alpha included), so its quotient
    # is rounded below -1
    T *= P
    # fl(t / alpha) is monotone in t, and P + fl(t / alpha) overflows only if
    # fl(t / alpha) does, so the two extremes decide finiteness; a NaN
    # entry makes both extremes NaN
    lo, hi = float(T.min()), float(T.max())
    if not (math.isfinite(lo / alpha) and math.isfinite(hi / alpha)):
        raise NumericError("sign step input has non-finite entries")
    # no entry turns when the smallest one does not
    if lo >= -alpha:
        return 0
    flips = np.flatnonzero(T.reshape(-1) < -alpha)
    Pf = P.reshape(-1)
    Pf[flips] *= -1.0  # one gathered temporary, negated in place
    return flips.size


def _s_times(
    X: np.ndarray,
    P: np.ndarray,
    Q: np.ndarray,
    XtQ: np.ndarray,
    PQ: np.ndarray | None = None,
) -> np.ndarray:
    """S Q for S = XP + (XP)^T, evaluated as X (P Q) + P^T (X^T Q).

    ``PQ``, when given, must hold the n x K product P Q; it is formed otherwise.
    """
    if PQ is None:
        PQ = P @ Q
    return X @ PQ + P.T @ XtQ


def update_Q(
    X: np.ndarray,
    P: np.ndarray,
    Q: np.ndarray,
    XtQ: np.ndarray,
    beta: float,
    PQ: np.ndarray | None = None,
) -> np.ndarray:
    """Procrustes step: the polar factor of Q + S Q / beta for S = XP + (XP)^T,
    or Q itself when S Q = 0.

    This maximizes <Q', S Q + beta Q> over Stiefel points Q', the linearized
    objective plus the proximal coupling to Q.  S Q is formed from the n x K
    products X^T Q and, when given, P Q (see ``_s_times``).
    """
    SQ = _s_times(X, P, Q, XtQ, PQ)
    if not SQ.any():
        return Q
    return polar_factor(Q + SQ / beta)


def _gamma_cap(alpha_star: float, beta_star: float, sigma1: float) -> float:
    """gamma* of ``gamma_star`` from sigma_1 = ||X||_2."""
    if sigma1 == 0.0:
        return 1.0
    return min(1.0, alpha_star * beta_star / (8.0 * sigma1 * sigma1))


def adaptive_beta(SVt: np.ndarray, P: np.ndarray, beta_star: float, beta_sup: float) -> float:
    """Theory-mode Q-step parameter (3/2) beta_star + 2 ||X P||_2, from the
    factor Sigma V^T of X; InfeasibleBoundError when it exceeds beta_sup."""
    b = 1.5 * beta_star + 2.0 * spectral_norm(SVt @ P)
    if b > beta_sup:
        raise InfeasibleBoundError(
            f"adaptive beta {b:.6g} exceeds the configured bound beta_sup = {beta_sup:.6g}"
        )
    return b


def gamma_star(alpha_star: float, beta_star: float, X: DataMatrix) -> float:
    """Extrapolation cap gamma* = min(1, alpha_star beta_star / (8 ||X||^2))."""
    _number("alpha_star", alpha_star)
    _number("beta_star", beta_star)
    return _gamma_cap(alpha_star, beta_star, float(X._sigma[0]))


def _alpha_holds(mags: np.ndarray, alpha_star: float) -> bool:
    """alpha_star below the smallest entry of mags = |X^T Q Q^T| above ZERO_TOL."""
    return alpha_star < float(np.min(mags, where=mags > ZERO_TOL, initial=math.inf))


def _residual(
    X: np.ndarray,
    P: np.ndarray,
    Q: np.ndarray,
    XtQ: np.ndarray,
    PQ: np.ndarray | None = None,
) -> float:
    """||G - Q sym(Q^T G)||_F for G = -S Q, from the n x K products X^T Q
    and, when given, P Q."""
    G = -_s_times(X, P, Q, XtQ, PQ)
    QtG = Q.T @ G
    return _fro_norm(G - Q @ ((QtG + QtG.T) / 2.0))


def _closing(X: np.ndarray, P: np.ndarray, Q: np.ndarray, XtQ: np.ndarray, alpha: float,
             T: np.ndarray, PQ: np.ndarray | None = None) -> tuple[np.ndarray, bool, float, float]:
    """The closing figures at (P, Q): the magnitudes of X^T Q Q^T where P has
    the opposite sign (at most ZERO_TOL counts as zero), the alpha test, l(Q)
    and the criticality residual, nan when P is stale.

    One X^T Q Q^T, formed from ``XtQ`` in the n x d buffer T, serves the sign
    agreement and the alpha test; the objective reuses T's storage for
    Q (Q^T X), and the residual reads ``PQ``, the product P Q, when given.
    """
    # P is +/-1, so each entry of (X^T Q Q^T) * P keeps its magnitude exactly
    # and is negative exactly where P has the opposite sign
    TP = np.matmul(XtQ, Q.T, out=T)
    TP *= P
    stale = -TP[TP < -ZERO_TOL]
    alpha_holds = _alpha_holds(np.abs(TP, out=TP), alpha)
    objective = _objective_l(Q, X, out=T.reshape(X.shape))
    return stale, alpha_holds, objective, math.nan if stale.size else _residual(X, P, Q, XtQ, PQ)


def criticality_residual(Q: StiefelPoint, P: SignMatrix, X: DataMatrix) -> float:
    """Stationarity measure at (P, Q): tangent part of the objective gradient.

    With S = XP + P^T X^T and G = -S Q, the residual is
    ||G - Q sym(Q^T G)||_F, the distance of G from the normal cone at Q.
    P must agree with sign(X^T Q Q^T) wherever that matrix has a magnitude
    above ``ZERO_TOL``; otherwise SelectionError is raised.  It is the
    residual of ``_closing``, whose other figures cost two more products.
    """
    _fit(X, Q, P)
    Xv, Qv = X.values, Q.values
    stale, _, _, crit = _closing(Xv, P.values, Qv, Xv.T @ Qv, 1.0, np.empty((X.n, X.d)))
    if stale.size:
        raise SelectionError(
            f"P disagrees with sign(X^T Q Q^T) at {stale.size} nonzero entries"
        )
    return crit


def check_alpha_condition(X: DataMatrix, Q: StiefelPoint, alpha_star: float) -> bool:
    """Post-hoc step-size test: alpha_star below the smallest nonzero entry
    magnitude of X^T Q Q^T.  Vacuously true when that matrix is zero."""
    _number("alpha_star", alpha_star)
    _fit(X, Q)
    T = (X.values.T @ Q.values) @ Q.values.T
    return _alpha_holds(np.abs(T, out=T), alpha_star)


def _record(trace, snapshots, phi, h, dP, dQ, gap, Q):
    trace.phi.append(phi)
    trace.h.append(h)
    trace.dP.append(dP)
    trace.dQ.append(dQ)
    trace.gap.append(gap)
    if snapshots:
        Q.setflags(write=False)
        trace.q_snapshots.append(Q)


def solve(
    X: DataMatrix,
    config: SolverConfig,
    init_Q: StiefelPoint,
    *,
    snapshots: bool = False,
) -> RunReport:
    """Run the alternating scheme from Q0 = init_Q until the triple step
    drops below config.tol or config.max_iters sweeps have run.

    X must be centered.  The first sign block is P0 = sign(X^T Q0 Q0^T), with
    ties broken to +1.  Identical inputs produce
    identical reports on one BLAS/LAPACK build run with a fixed thread count;
    other thread counts can change the last digits.  The only
    nondeterministic field is wall time.

    The iterates are plain arrays inside the loop: the sign step yields +/-1
    entries and the Q step orthonormal columns by construction, so they are
    validated once, as final_P and final_Q.  Every sweep's Q is kept in the
    trace only with ``snapshots=True`` (see RunTrace): at d x K a sweep,
    a long run on tall data holds far more snapshots than data.
    """
    if not X.centered:
        raise FeasibilityError("solve requires a centered data matrix")
    _fit(X, init_Q)
    if init_Q.k > min(X.d, X.n):
        raise ShapeError(
            f"K = {init_Q.k} exceeds min(d, n) = {min(X.d, X.n)}"
        )
    t0 = time.perf_counter()

    Xv = X.values
    n, d, K = X.n, X.d, init_Q.k
    Q = Q_prev = init_Q.values
    # the run's workspace, filled in place every sweep: T holds the n x d
    # product X^T E, F and W its n x 2K and 2K x d factors (see
    # extrapolate), XtQ carries X^T Q between sweeps, contiguous so that
    # h's inner product reads it in place, F's right half carries X^T Q', and
    # PQ carries the P Q of the last objective h
    T = np.empty((n, d))
    F = np.empty((n, 2 * K))
    W = np.empty((2 * K, d))
    PQ = np.empty((n, K))
    XtQ = np.matmul(Xv.T, Q)
    F[:, K:] = XtQ
    # P, the sign block, is the only other n x d array; the sign step
    # updates it in place.  P0 = sign(X^T Q0 Q0^T) with ties, signed zeros
    # included, broken to +1, built as 1 - 2 [T < 0]; the extremes decide
    # finiteness as in update_P
    np.matmul(XtQ, Q.T, out=T)
    if not (math.isfinite(float(T.min())) and math.isfinite(float(T.max()))):
        raise NumericError("sign step input has non-finite entries")
    P = np.less(T, 0.0, out=np.empty((n, d)))
    P *= -2.0
    P += 1.0

    gamma = float(config.gamma)
    trace = RunTrace()
    bm = config.beta_mode
    adaptive = isinstance(bm, AdaptiveBeta)
    if adaptive:
        # beta(P) of each sweep is beta(P_next) of the sweep before
        sigma, SVt = X._factor
        beta_P = adaptive_beta(SVt, P, bm.beta_star, bm.beta_sup)
    if config.theory_mode:
        gs = _gamma_cap(config.alpha, bm.beta_star, float(sigma[0]))
        gamma = max(0.0, min(gamma, gs - GAMMA_MARGIN))
        assert gamma < gs
        trace.gamma_star = gs

    iterations = 0
    h0 = objective_h(P, Q, XtQ, out=PQ)
    _record(trace, snapshots, h0, h0, math.nan, math.nan, math.nan, Q)

    beta_star_phi = config.beta_star
    dQ_prev = 0.0
    stop_reason = "max_iters"
    final_gap = math.nan
    for k in range(1, config.max_iters + 1):
        extrapolate(XtQ, F, W, Q, Q_prev, gamma, T)
        flips = update_P(P, T, config.alpha)
        # a sweep that flips no sign keeps P bit for bit, so beta(P) and the
        # P Q that the last h formed at this P and Q still hold
        beta_k = beta_P if adaptive else bm.value
        if flips:
            np.matmul(P, Q, out=PQ)
            if adaptive:
                beta_P = adaptive_beta(SVt, P, bm.beta_star, bm.beta_sup)
                beta_k = max(beta_k, beta_P)
        Q_next = update_Q(Xv, P, Q, XtQ, beta_k, PQ)
        F[:, K:] = XtQ
        np.matmul(Xv.T, Q_next, out=XtQ)

        # entries are +/-1, so each flipped sign adds 4 to ||P_next - P||^2
        dP = 2.0 * math.sqrt(flips)
        dQ = float(np.linalg.norm(Q_next - Q))
        gap = math.sqrt(dP * dP + dQ * dQ + dQ_prev * dQ_prev)
        Q, Q_prev = Q_next, Q
        iterations = k

        hk = objective_h(P, Q, XtQ, out=PQ)
        phik = hk + 0.5 * beta_star_phi * dQ * dQ
        _record(trace, snapshots, phik, hk, dP, dQ, gap, Q)

        if gap < config.tol:
            stop_reason = "tolerance"
            final_gap = gap
            break
        dQ_prev = dQ
        final_gap = gap

    # the closing figures reuse T, the carried X^T Q and the last h's P Q
    _, alpha_holds, objective, crit = _closing(Xv, P, Q, XtQ, config.alpha, T, PQ)
    # release the product buffer before P's entries are validated; final_P
    # adopts P itself, which the run no longer writes
    del T
    return RunReport(
        final_P=SignMatrix(_Adopted(P)),
        final_Q=StiefelPoint(Q),
        final_objective=objective,
        trace=trace,
        criticality=crit,
        alpha_condition_holds=alpha_holds,
        stop_reason=stop_reason,
        iterations=iterations,
        wall_time=time.perf_counter() - t0,
        final_gap=final_gap,
    )


def sufficient_decrease_check(trace: RunTrace, config: SolverConfig) -> DecreaseReport:
    """Audit Phi(C^k) - Phi(C^{k-1}) <= -kappa1 ||C^k - C^{k-1}||_F^2 on a
    theory-mode trace, with slack 1e-9 (1 + |Phi|) per comparison.

    kappa1 rests on the trace's gamma_star, which every theory-mode ``solve``
    records; a trace without it is a DomainError.  Returns the violating
    iteration indices under both readings of the constant.  The audit fails
    closed: a step whose inequality cannot be evaluated, because Phi or the
    step gap is NaN, counts as a violation.
    """
    if not config.theory_mode:
        raise DomainError("the decrease guarantee only covers theory-mode runs")
    bm = config.beta_mode
    gs = trace.gamma_star
    if gs is None:
        raise DomainError("trace lacks gamma_star")
    alpha_term = config.alpha * (1.0 - gs) / 2.0
    kappa1 = min(alpha_term, bm.beta_sup / 4.0)
    kappa1_weak = min(alpha_term, bm.beta_star / 4.0)
    violations, violations_weak = [], []
    for k in range(1, len(trace.phi)):
        lhs = trace.phi[k] - trace.phi[k - 1]
        slack = 1e-9 * (1.0 + abs(trace.phi[k - 1]))
        g2 = trace.gap[k] * trace.gap[k]
        # written as "not <=" so that a NaN comparison counts as a violation
        if not lhs <= -kappa1 * g2 + slack:
            violations.append(k)
        if not lhs <= -kappa1_weak * g2 + slack:
            violations_weak.append(k)
    return DecreaseReport(
        kappa1=kappa1,
        kappa1_weak=kappa1_weak,
        violations=tuple(violations),
        violations_weak=tuple(violations_weak),
        checked=max(len(trace.phi) - 1, 0),
    )
