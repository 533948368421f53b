"""Correctness checks on the artifacts of each benchmark operation.

Every number here is recomputed with numpy and LAPACK from the files an
operation wrote and the inputs the benchmark generated.  Nothing is imported
from l1subspace, so a fault in the library's own linear algebra (its Jacobi
SVD, its power iteration) cannot hide a wrong answer.  Each check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

# orthonormality defect allowed on a returned basis
ORTHO_TOL = 1e-8
# relative agreement required between a reported value and its recomputation
REL_TOL = 1e-8
# rounding every pixel to an integer moves an rmse by at most half a level
PGM_ROUNDING = 0.5
# entries of X^T Q Q^T at or below this magnitude carry no sign information
ZERO_TOL = 1e-12
# accuracy every clustering repetition must reach
ACCURACY_FLOOR = 0.9
# tev every extrapolated (gamma = 1) solve must reach
TEV_FLOOR = 0.90

# magic, width, height, maxval 255, then exactly one whitespace byte
_PGM_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+255\s")


def read_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def read_pgm(path) -> np.ndarray:
    """Pixels of a binary (P5) PGM with maxval 255, as a float array."""
    data = Path(path).read_bytes()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ValueError(f"{path}: not a P5 PGM with maxval 255")
    width, height = int(header[1]), int(header[2])
    payload = data[header.end() : header.end() + width * height]
    pixels = np.frombuffer(payload, dtype=np.uint8)
    if pixels.size != width * height:
        raise ValueError(f"{path}: truncated pixel data")
    return pixels.reshape(height, width).astype(float)


def read_report(out_dir) -> dict:
    with open(Path(out_dir) / "report.json", encoding="utf-8") as fh:
        return json.load(fh)


def centered(X: np.ndarray) -> np.ndarray:
    return X - X.mean(axis=1, keepdims=True)


def _close(reported, recomputed, rel=REL_TOL, floor=0.0) -> bool:
    if reported is None:
        return False
    return abs(float(reported) - recomputed) <= rel * abs(recomputed) + floor


def rmse(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean((a - b) ** 2)))


def best_assignment(pred, truth) -> int:
    """Largest number of agreeing labels over one-to-one label matchings.

    Exact dynamic programme over subsets of predicted labels, so it needs
    no permutation limit for the label counts a benchmark uses.
    """
    t_vals, t_idx = np.unique(truth, return_inverse=True)
    p_vals, p_idx = np.unique(pred, return_inverse=True)
    m = max(len(t_vals), len(p_vals))
    confusion = np.zeros((m, m), dtype=np.int64)
    np.add.at(confusion, (t_idx, p_idx), 1)
    # best[mask]: best total when the first popcount(mask) truth labels are
    # matched to the predicted labels in mask
    best = np.full(1 << m, -1, dtype=np.int64)
    best[0] = 0
    for mask in range(1 << m):
        if best[mask] < 0:
            continue
        row = bin(mask).count("1")
        if row == m:
            continue
        for col in range(m):
            if not mask & (1 << col):
                nxt = mask | (1 << col)
                best[nxt] = max(best[nxt], best[mask] + confusion[row, col])
    return int(best[-1])


def energy_dimension(X: np.ndarray, threshold: float) -> int:
    """Smallest K whose leading squared singular values reach the threshold."""
    s = np.linalg.svd(X, compute_uv=False)
    cum = np.cumsum(s**2)
    return int(np.searchsorted(cum, threshold * cum[-1])) + 1


# ---------------------------------------------------------------------------
# per-workload checks


def _criticality(X: np.ndarray, Q: np.ndarray, P: np.ndarray) -> tuple[float, float]:
    """Tangent residual ||G - Q sym(Q^T G)||_F with G = -(XP + P^T X^T) Q,
    and ||G||_F as its scale."""
    XP = X @ P
    G = -(XP @ Q + XP.T @ Q)
    QtG = Q.T @ G
    R = G - Q @ ((QtG + QtG.T) / 2.0)
    return float(np.linalg.norm(R)), float(np.linalg.norm(G))


def check_solve(X: np.ndarray, out_dir, *, tev_floor: float | None) -> list[str]:
    """A `solve` run: orthonormal Q, objective, tev and criticality.

    ``X`` is the dataset as written to disk; the solver centers it on load.
    """
    X = centered(X)
    out = Path(out_dir)
    report = read_report(out)
    results = report["results"]
    Q = read_csv(out / "final_Q.csv")
    P = read_csv(out / "final_P.csv")
    problems = []
    k = Q.shape[1]
    defect = float(np.linalg.norm(Q.T @ Q - np.eye(k)))
    if defect > ORTHO_TOL:
        problems.append(f"final_Q is not orthonormal: defect {defect:.3e}")
    B = Q.T @ X
    objective = -float(np.abs(Q @ B).sum())
    if not _close(results["final_objective"], objective):
        problems.append(
            f"final_objective {results['final_objective']!r} != -||QQ^T X||_1 = {objective!r}"
        )
    if tev_floor is not None:
        s = np.linalg.svd(X, compute_uv=False)
        tev = float(np.sum(B**2)) / float(np.sum(s[:k] ** 2))
        if not _close(results["tev"], tev):
            problems.append(f"tev {results['tev']!r} != recomputed {tev!r}")
        if tev < tev_floor:
            problems.append(f"tev {tev:.4f} below floor {tev_floor}")
    alpha = float(report["config"]["alpha"])
    holds, stale, stale_large = sign_state(X, Q, P, alpha)
    if results["alpha_condition_holds"] != holds:
        problems.append(f"alpha_condition_holds {results['alpha_condition_holds']} != {holds}")
    if stale_large:
        problems.append(
            f"final_P disagrees with sign(X^T Q Q^T) at {stale_large} entries above 2 alpha"
        )
    if stale:
        # a sign step keeps the old sign where |X^T E| < alpha, so a stale
        # sign there is the solver's rule; no criticality certificate exists
        if results["criticality"] is not None:
            problems.append("criticality reported although final_P is stale")
        return problems
    residual, scale = _criticality(X, Q, P)
    if not _close(results["criticality"], residual, rel=1e-6, floor=1e-11 * scale):
        problems.append(
            f"criticality {results['criticality']!r} != recomputed {residual!r}"
        )
    return problems


def sign_state(X: np.ndarray, Q: np.ndarray, P: np.ndarray, alpha: float):
    """Whether alpha lies below every nonzero |X^T Q Q^T| entry, how many
    entries of P disagree with that sign, and how many of those lie above
    2 alpha.  The last sign step kept the old sign where |X^T E| < alpha,
    with E built from the previous iterates, so a stale sign can sit only
    where |X^T Q Q^T| is of the order of alpha."""
    T = (X.T @ Q) @ Q.T
    mags = np.abs(T)
    nz = mags > ZERO_TOL
    holds = bool(not nz.any() or alpha < mags[nz].min())
    stale = nz & (np.sign(T) != P)
    return holds, int(stale.sum()), int(np.sum(stale & (mags > 2.0 * alpha)))


def read_trace(path) -> dict[str, np.ndarray]:
    lines = Path(path).read_text(encoding="ascii").split()
    header = lines[0].split(",")
    rows = [[float(v) if v else np.nan for v in line.split(",")] for line in lines[1:]]
    table = np.asarray(rows, dtype=float)
    return {name: table[:, j] for j, name in enumerate(header)}


def check_theory(X: np.ndarray, out_dir, check_exit: int) -> list[str]:
    """A theory-mode `solve` audited by `check`.

    The audit's verdict is right: `check` exits 0, or 5 exactly when the
    final sign block is stale (then the alpha condition fails and no
    criticality certificate exists).  gamma_star agrees with sigma_1 from
    LAPACK, and trace.csv shows the sufficient decrease
    Phi_k - Phi_{k-1} <= -kappa1 ||C_k - C_{k-1}||^2 at every sweep.
    """
    out = Path(out_dir)
    problems = check_solve(X, out, tev_floor=None)
    X = centered(X)
    report = read_report(out)
    config, results = report["config"], report["results"]
    alpha = float(config["alpha"])
    Q = read_csv(out / "final_Q.csv")
    P = read_csv(out / "final_P.csv")
    # `check` fails the criticality certificate exactly when P is stale
    expected_exit = 5 if sign_state(X, Q, P, alpha)[1] else 0
    if check_exit != expected_exit:
        problems.append(f"`check` exited with {check_exit}, expected {expected_exit}")
    beta_star, beta_sup = float(config["beta_star"]), float(config["beta_sup"])
    gs = results["gamma_star"]
    sigma1 = float(np.linalg.norm(X, 2))
    expected = min(1.0, alpha * beta_star / (8.0 * sigma1 * sigma1))
    if not _close(gs, expected, rel=1e-4):
        problems.append(f"gamma_star {gs!r} != alpha beta*/(8 sigma_1^2) = {expected!r}")
        return problems
    trace = read_trace(out / "trace.csv")
    phi, gap = trace["phi"], trace["gap"]
    kappa1 = min(alpha * (1.0 - gs) / 2.0, beta_sup / 4.0)
    lhs = phi[1:] - phi[:-1]
    slack = 1e-9 * (1.0 + np.abs(phi[:-1]))
    bad = np.flatnonzero(lhs > -kappa1 * gap[1:] ** 2 + slack) + 1
    if bad.size:
        problems.append(f"sufficient decrease fails at sweeps {bad[:5].tolist()}")
    h = -float(np.vdot(P, (X.T @ Q) @ Q.T))
    if not _close(trace["h"][-1], h):
        problems.append(f"last trace h {trace['h'][-1]!r} != -<P, X^T Q Q^T> = {h!r}")
    if int(trace["k"][-1]) != results["iterations"]:
        problems.append("trace length disagrees with the reported iterations")
    return problems


def check_image(clean_pgm, corrupted_dir, out_dir) -> list[str]:
    """A `reconstruct` run: each recon_i.pgm's rmse against the clean image
    matches the report and beats the rmse of corrupted_i.pgm."""
    out = Path(out_dir)
    reported = read_report(out)["results"]["rmse"]
    clean = read_pgm(clean_pgm)
    problems = []
    for i in range(1, 10):
        restored = rmse(read_pgm(out / f"recon_{i}.pgm"), clean)
        corrupted = rmse(read_pgm(Path(corrupted_dir) / f"corrupted_{i}.pgm"), clean)
        if reported is None or not _close(reported[i - 1], restored, rel=0.0, floor=PGM_ROUNDING):
            problems.append(f"image {i}: rmse {restored:.4f} disagrees with the report")
        if not restored < corrupted:
            problems.append(
                f"image {i}: restored rmse {restored:.4f} not below corrupted {corrupted:.4f}"
            )
    return problems


def check_cluster(
    X: np.ndarray, truth: np.ndarray, threshold: float, out_dir, predictions: list
) -> list[str]:
    """A `cluster` run: the energy-rule K and every repetition's accuracy,
    recomputed from the k-means labels the run produced."""
    results = read_report(out_dir)["results"]
    problems = []
    expected_k = max(energy_dimension(centered(X), threshold), 2)
    if results["subspace_dim"] != expected_k or results["subspace_dim_rule"] != "energy":
        problems.append(
            f"K {results['subspace_dim']} ({results['subspace_dim_rule']}) != "
            f"energy-rule K {expected_k}"
        )
    accuracies = results["accuracies"]
    if len(predictions) != len(accuracies):
        problems.append(f"{len(predictions)} k-means labelings for {len(accuracies)} reps")
        return problems
    for rep, (pred, reported) in enumerate(zip(predictions, accuracies)):
        acc = best_assignment(pred, truth) / truth.size
        if not _close(reported, acc, rel=0.0, floor=1e-12):
            problems.append(f"rep {rep}: accuracy {reported!r} != recomputed {acc!r}")
        if acc < ACCURACY_FLOOR:
            problems.append(f"rep {rep}: accuracy {acc:.4f} below floor {ACCURACY_FLOOR}")
    return problems
