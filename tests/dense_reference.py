"""Dense formulas that the tests compare the library's kernels against."""

import numpy as np

from l1subspace.errors import NumericError, ShapeError


def sign_select(M, P_prev):
    """Entrywise sign of M, keeping the previous sign where M is zero.

    The dense sign rule: ``solve``'s sign step P <- sign(P + X^T E / alpha),
    ties keeping P, is sign_select(P + X^T E / alpha, P), and its first sign
    block is sign_select(X^T Q0 Q0^T, ones).  Both arguments are plain arrays
    of identical shape; P_prev must already be a valid +/-1 pattern.
    Returns a new +/-1 array.
    """
    M = np.asarray(M, dtype=float)
    P_prev = np.asarray(P_prev, dtype=float)
    if M.shape != P_prev.shape:
        raise ShapeError(f"shape mismatch: M is {M.shape}, P_prev is {P_prev.shape}")
    if not np.all(np.isfinite(M)):
        raise NumericError("sign_select input has non-finite entries")
    s = np.sign(M)
    np.copyto(s, P_prev, where=s == 0.0)
    return s
