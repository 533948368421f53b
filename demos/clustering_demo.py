"""
Subspace clustering on planted blobs
====================================

Two Gaussian clusters in 50 dimensions, far apart along one random
direction.  The pipeline picks the subspace dimension with the 0.8 energy
rule, finds a robust basis, projects, and k-means labels the projections.
"""

import numpy as np

from l1subspace import (
    DataMatrix,
    FixedBeta,
    SolverConfig,
    center_features,
    choose_k_energy,
    clustering_accuracy,
    kmeans,
    random_stiefel,
    solve,
)

rng = np.random.default_rng(0)

# two clusters of 150 points each, means 10 noise units apart
direction = rng.standard_normal(50)
direction /= np.linalg.norm(direction)
labels = np.repeat([0, 1], 150)
means = np.where(labels == 0, -5.0, 5.0) * direction[:, None]
X = center_features(DataMatrix(means + rng.standard_normal((50, 300))))

K = choose_k_energy(X, 0.8)  # smallest K keeping 80% of spectral energy
print(f"energy rule keeps K = {K} of {X.d} dimensions")

config = SolverConfig(alpha=1e-6, beta_mode=FixedBeta(20.0), gamma=1.0,
                      max_iters=1000, tol=1e-6)
report = solve(X, config, random_stiefel(X.d, K, seed=1))
print(f"solver: {report.iterations} sweeps, objective {report.final_objective:.2f}")

# cluster the K-dimensional projections instead of the raw features
projected = report.final_Q.values.T @ X.values
predicted = kmeans(projected, 2, seed=0)

accuracy = clustering_accuracy(predicted, labels)
print(f"clustering accuracy after projection: {accuracy:.4f}")

# for contrast, k-means on the raw 50-dimensional features
raw_accuracy = clustering_accuracy(kmeans(X.values, 2, seed=0), labels)
print(f"clustering accuracy on raw features:  {raw_accuracy:.4f}")
