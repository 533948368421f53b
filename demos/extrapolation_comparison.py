"""
Does extrapolation help? Paired comparison on synthetic datasets
================================================================

Runs the extrapolated scheme (gamma = 1) and the plain one (gamma = 0)
from identical starting points on five datasets and compares explained
variation and sweep counts.
"""

import numpy as np

from l1subspace import (
    FixedBeta,
    SolverConfig,
    gen_synthetic,
    random_stiefel,
    solve,
    tev,
)

K = 10
rows = []
for seed in range(5):
    X, _ = gen_synthetic(d=100, n=300, k=K, sigma=0.5, seed=seed)
    init_Q = random_stiefel(X.d, K, seed=seed + 100)

    scores = {}
    sweeps = {}
    for gamma in (1.0, 0.0):
        config = SolverConfig(alpha=1e-6, beta_mode=FixedBeta(20.0),
                              gamma=gamma, max_iters=1000, tol=1e-6)
        report = solve(X, config, init_Q, snapshots=False)
        # both variants share X, so its singular values are computed once
        scores[gamma] = tev(X, report.final_Q)
        sweeps[gamma] = report.iterations
    rows.append((seed, scores[1.0], scores[0.0], sweeps[1.0], sweeps[0.0]))

print("seed   tev(extrapolated)  tev(plain)   sweeps(e)  sweeps(p)")
for seed, te, tp, se, sp in rows:
    print(f"{seed:4d}   {te:17.6f}  {tp:10.6f}   {se:9d}  {sp:9d}")

te_mean = float(np.mean([r[1] for r in rows]))
tp_mean = float(np.mean([r[2] for r in rows]))
se_mean = float(np.mean([r[3] for r in rows]))
sp_mean = float(np.mean([r[4] for r in rows]))
print(f"\nmean   {te_mean:17.6f}  {tp_mean:10.6f}   {se_mean:9.1f}  {sp_mean:9.1f}")
print(f"\nwith identical data and starts, extrapolation changes mean tev by "
      f"{te_mean - tp_mean:+.6f}")
print(f"and reaches the stopping tolerance in {sp_mean - se_mean:+.1f} fewer sweeps")
