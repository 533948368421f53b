"""
Solver walkthrough: from raw data to a certified critical point
===============================================================

Runs the alternating scheme on one synthetic dataset, prints how the
objective falls, audits the per-sweep decrease inequality in theory mode,
and fits the linear rate of the practical run's tail.
"""

import numpy as np

from l1subspace import (
    AdaptiveBeta,
    FixedBeta,
    SolverConfig,
    check_alpha_condition,
    criticality_residual,
    fit_linear_rate,
    gap_traces,
    gen_synthetic,
    random_stiefel,
    solve,
    sufficient_decrease_check,
)

# a planted 3-dimensional subspace in 30 dimensions, plus heavy-tailed noise
X, truth = gen_synthetic(d=30, n=100, k=3, sigma=0.5, seed=0)
print(f"data: {X.d} features x {X.n} samples, noise sigma = {truth.sigma}")

# ---------------------------------------------------------------------
# practical mode: fixed proximal weight, full extrapolation

config = SolverConfig(
    alpha=1e-6,            # sign-step proximal weight
    beta_mode=FixedBeta(200.0),
    gamma=1.0,             # full extrapolation
    max_iters=2000,
    tol=1e-10,
)
# snapshots=True keeps every sweep's Q, which gap_traces reads below
report = solve(X, config, random_stiefel(X.d, 3, seed=1), snapshots=True)

print(f"\npractical run stopped after {report.iterations} sweeps "
      f"({report.stop_reason}), objective {report.final_objective:.6f}")
for k in (0, 1, 2, 5, 10, report.iterations):
    print(f"  sweep {k:4d}: h = {report.trace.h[k]:.6f}")

# the tail of the iterate gaps ||Q_k - Q*|| decays geometrically; fit the
# log-gap slope over the 30 sweeps before the stop
gaps = gap_traces(report.trace, report.final_Q).iterate_gaps
window = range(max(1, report.iterations - 30), report.iterations)
fit = fit_linear_rate(gaps, window)
print(f"tail fit over sweeps {window.start}..{window.stop - 1}: "
      f"slope {fit.slope:.4f} per sweep (r^2 = {fit.r2:.4f})")
print(f"so the gap shrinks by ~{10 ** -fit.slope:.2f}x each sweep")

# first-order certificate at the final point
bound = 1e-5 * (1.0 + float(np.linalg.norm(X.values)))
print(f"criticality residual {report.criticality:.3e} vs bound {bound:.3e}")
print(f"step-size condition holds: {report.alpha_condition_holds}")

# ---------------------------------------------------------------------
# theory mode: backtracked beta and capped extrapolation, so every sweep
# provably lowers the potential by a known margin

theory_config = SolverConfig(
    alpha=1e-6,
    beta_mode=AdaptiveBeta(beta_star=1.0, beta_sup=1e9),
    gamma=1.0,
    max_iters=2000,
    tol=1e-8,
    theory_mode=True,
)
theory_report = solve(X, theory_config, random_stiefel(X.d, 3, seed=1))
audit = sufficient_decrease_check(theory_report.trace, theory_config)

print(f"\ntheory run stopped after {theory_report.iterations} sweeps, "
      f"extrapolation capped at gamma* = {theory_report.trace.gamma_star:.3e}")
print(f"{theory_report.q_step_trials} Q-step trials, last beta {theory_report.final_beta:.3e}")
print(f"decrease audit: {audit.checked} sweeps checked, "
      f"{len(audit.violations)} violations (kappa1 = {audit.kappa1:.3e})")

# both runs land on equally good objectives
print(f"\nobjectives: practical {report.final_objective:.6f}, "
      f"theory {theory_report.final_objective:.6f}")
