"""
Restoring block-corrupted images with a robust subspace
=======================================================

Nine copies of one grayscale image each get a different 3x3 grid block
hit with large positive outliers.  A 2-dimensional robust basis of the
stacked copies separates the shared content from the corruption.

The image is 240 x 240, so the stack is 57600 x 9.  The solver only forms
rank-K products, never a 57600 x 57600 matrix, so this runs in seconds and
well under a gigabyte of memory.  The script prints the sweep count, the
solver's wall time, and per-image errors before and after restoration.
"""

import time

import numpy as np

from l1subspace import (
    DataMatrix,
    FixedBeta,
    GrayImage,
    SolverConfig,
    corrupt_image,
    image_columns,
    random_stiefel,
    reconstruct,
    solve,
    unstack_images,
)

rng = np.random.default_rng(7)

# a smooth synthetic photo stand-in: two outer products plus mild grain
side = 240
ramp = np.linspace(0.0, 1.0, side)
pixels = 150.0 * np.outer(ramp, ramp) + 80.0 * np.outer(1.0 - ramp, np.sin(np.pi * ramp))
pixels += rng.random((side, side)) * 12.0
clean = GrayImage(np.clip(np.round(pixels), 0.0, 255.0))

# one corrupted copy per grid block, blocks numbered 1..9 row by row
corrupted = [corrupt_image(clean, block, np.random.default_rng([3, block]))
             for block in range(1, 10)]

columns = image_columns(corrupted)        # (240*240) x 9, one image per column
means = columns.mean(axis=1, keepdims=True)
X = DataMatrix(columns - means, centered=True)

config = SolverConfig(alpha=1e-6, beta_mode=FixedBeta(100.0), gamma=1.0,
                      max_iters=1000, tol=1e-3)
start = time.perf_counter()
report = solve(X, config, random_stiefel(X.d, 2, seed=0))
elapsed = time.perf_counter() - start
print(f"solver: {report.iterations} sweeps on a {X.d} x {X.n} stack in {elapsed:.2f} s")

# project every column onto the basis, then undo the centering
rebuilt = reconstruct(X, report.final_Q).values + means
restored = unstack_images(np.clip(rebuilt, 0.0, 255.0), side, side)

print("\nimage  rmse(corrupted vs clean)  rmse(restored vs clean)")
for i, (bad, fixed) in enumerate(zip(corrupted, restored), start=1):
    rmse_bad = float(np.sqrt(np.mean((bad.pixels - clean.pixels) ** 2)))
    rmse_fixed = float(np.sqrt(np.mean((fixed.pixels - clean.pixels) ** 2)))
    print(f"{i:5d}  {rmse_bad:24.3f}  {rmse_fixed:23.3f}")
