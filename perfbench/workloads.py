"""The benchmark's workloads: inputs made from a seed, and one round of
operations, each a list of ``l1subspace.cli.main`` calls plus its check.

Inputs are generated through the library (``gen_synthetic``,
``write_csv_matrix``, ``write_pgm``, ``write_libsvm``) and written under the
run's work directory; the program sees only those files.  A run repeats
whole rounds, so every run attempts the same operations in the same
proportions whatever its length.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from l1subspace import (
    DataMatrix,
    GrayImage,
    LabeledDataset,
    add_block_outliers,
    gen_synthetic,
    write_csv_matrix,
    write_libsvm,
    write_pgm,
)


@dataclass
class Op:
    """One timed operation: CLI calls run back to back, then a check.

    ``check`` receives the exit codes of the calls and the k-means labels
    the operation produced, and returns a list of problems.  ``expect`` names
    a known fault: the exception the operation currently ends in.
    """

    name: str
    commands: list[list[str]]
    check: Callable[[list[int], list], list[str]]
    expect: tuple[str, str] | None = None  # (exception type, message part)


def data_seed(seed: int, index: int) -> int:
    """Seed of the index-th input of a run; distinct across run seeds."""
    return 1000 * seed + index


@dataclass
class GateSolve:
    """`solve` with tev at the criterion-6 shape, gamma 1 and 0 per dataset."""

    d: int = 200
    n: int = 500
    k: int = 20
    sigma: float = 0.5
    beta: float = 20.0
    # six operations take 15 to 20 s, so a run is one whole round and its
    # length does not jump between one and two rounds
    datasets: int = 3
    name = "gate_solve"

    def setup(self, work: Path, seed: int) -> list[Op]:
        ops = []
        for i in range(self.datasets):
            s = data_seed(seed, i)
            X, _ = gen_synthetic(self.d, self.n, self.k, self.sigma, s)
            x_path = work / f"X{i}.csv"
            write_csv_matrix(X.values, str(x_path))
            for gamma in (1.0, 0.0):
                out = work / f"solve{i}_gamma{gamma:g}"
                argv = ["solve", "--out", str(out), "--data", str(x_path),
                        "--k", str(self.k), "--beta", repr(self.beta),
                        "--gamma", repr(gamma), "--seed", str(s)]
                floor = checks.TEV_FLOOR if gamma == 1.0 else 0.0

                def check(codes, labels, x_path=x_path, out=out, floor=floor):
                    return checks.check_solve(checks.read_csv(x_path), out, tev_floor=floor)

                ops.append(Op(f"solve X{i} gamma={gamma:g}", [argv], check))
        return ops


@dataclass
class TheoryAudit:
    """Theory-mode `solve` (adaptive beta, gamma capped by gamma*), then
    `check` on its run directory; the pair is one operation."""

    d: int = 50
    n: int = 200
    k: int = 3
    sigma: float = 0.5
    # the power iterations behind adaptive_beta make a sweep up to four
    # times slower on some datasets than on others, so a run spans many
    # datasets to keep its median steady
    datasets: int = 80
    name = "theory_audit"

    def setup(self, work: Path, seed: int) -> list[Op]:
        ops = []
        for i in range(self.datasets):
            s = data_seed(seed, i)
            X, _ = gen_synthetic(self.d, self.n, self.k, self.sigma, s)
            x_path = work / f"X{i}.csv"
            write_csv_matrix(X.values, str(x_path))
            out = work / f"theory{i}"
            solve = ["solve", "--out", str(out), "--data", str(x_path),
                     "--k", str(self.k), "--theory", "--beta-star", "1",
                     "--beta-sup", "1e9", "--alpha", "1e-6", "--tol", "1e-8",
                     "--no-tev", "--seed", str(s)]
            audit = ["check", "--run", str(out)]

            def check(codes, labels, x_path=x_path, out=out):
                if codes[0] != 0:
                    return [f"solve exited with {codes[0]}"]
                return checks.check_theory(checks.read_csv(x_path), out, codes[-1])

            ops.append(Op(f"theory X{i}", [solve, audit], check))
        return ops


def smooth_image(side: int, rng: np.random.Generator) -> np.ndarray:
    """Integer pixels of a smooth scene: two separable ramps plus grain."""
    ramp = np.linspace(0.0, 1.0, side)
    a, b, phase = rng.uniform(100.0, 160.0), rng.uniform(50.0, 100.0), rng.uniform(0.0, np.pi)
    pixels = a * np.outer(ramp, ramp) + b * np.outer(1.0 - ramp, np.sin(np.pi * ramp + phase) ** 2)
    pixels += rng.random((side, side)) * 12.0
    return np.clip(np.round(pixels), 0.0, 255.0)


def corrupted_copies(clean: GrayImage, seed: int) -> list[GrayImage]:
    """The nine block-corrupted copies ``reconstruct --image`` would make.

    The library's outlier stage runs unchanged; the affine rescale back to
    [0, 255] is clipped here, because ``corrupt_image`` can overshoot 255 by
    one rounding step and then fails (see the README).
    """
    images = []
    for block in range(1, 10):
        raw = add_block_outliers(clean, block, np.random.default_rng([seed, block]))
        lo, hi = float(raw.min()), float(raw.max())
        images.append(GrayImage(np.clip((raw - lo) * (255.0 / (hi - lo)), 0.0, 255.0)))
    return images


@dataclass
class ImageTall:
    """`reconstruct` of a 9-image stack with d = side^2 >> n = 9.

    Each solve runs a fixed budget of ``sweeps``, below the 11 to 15 that
    tol = 1e-3 takes at 48 x 48, so every operation does the same work and
    its time follows the cost of one sweep.
    """

    side: int = 48
    k: int = 2
    sweeps: int = 8
    images: int = 4
    name = "image_tall"

    def setup(self, work: Path, seed: int) -> list[Op]:
        ops = []
        for i in range(self.images):
            s = data_seed(seed, i)
            clean = GrayImage(smooth_image(self.side, np.random.default_rng(s)))
            clean_path = work / f"clean{i}.pgm"
            write_pgm(clean, str(clean_path))
            corrupted_dir = work / f"corrupted{i}"
            corrupted_dir.mkdir()
            for block, image in enumerate(corrupted_copies(clean, s), start=1):
                write_pgm(image, str(corrupted_dir / f"corrupted_{block}.pgm"))
            out = work / f"recon{i}"
            argv = ["reconstruct", "--out", str(out), "--image", str(clean_path),
                    "--corrupted", str(corrupted_dir), "--k", str(self.k),
                    "--max-iters", str(self.sweeps), "--seed", str(s)]

            def check(codes, labels, clean_path=clean_path, corrupted_dir=corrupted_dir, out=out):
                return checks.check_image(clean_path, corrupted_dir, out)

            ops.append(Op(f"reconstruct image{i}", [argv], check))
        return ops


def block_text(d: int, n: int, classes: int, rng: np.random.Generator):
    """Word counts where each class owns a block of d / classes word ids.

    Own-block words occur at Poisson rate 1.2, every other word at 0.15.
    Returns the d x n count matrix and the n labels.
    """
    labels = np.arange(n) % classes
    width = d // classes
    rate = np.full((d, n), 0.15)
    for c in range(classes):
        rate[c * width : (c + 1) * width, labels == c] = 1.2
    return rng.poisson(rate).astype(float), labels


# the fixed 10-class input of the operation that fails on the permutation limit
TEN_CLASS_SEED = 10


@dataclass
class TextCluster:
    """`cluster` on LIBSVM block text with n >> d and K from the energy rule,
    plus one 10-class `cluster` that currently ends in a DomainError."""

    d: int = 40
    n: int = 4000
    classes: int = 4
    datasets: int = 12
    ten_class_n: int = 1000
    threshold: float = 0.3
    reps: int = 2
    beta: float = 20.0
    name = "text_cluster"

    def _op(self, work: Path, tag: str, X, labels, s: int, expect=None) -> Op:
        path = work / f"{tag}.svm"
        write_libsvm(LabeledDataset(DataMatrix(X), labels), str(path))
        out = work / f"cluster_{tag}"
        argv = ["cluster", "--out", str(out), "--libsvm", str(path),
                "--threshold", repr(self.threshold), "--reps", str(self.reps),
                "--beta", repr(self.beta), "--seed", str(s)]

        def check(codes, predictions):
            return checks.check_cluster(X, labels, self.threshold, out, predictions)

        return Op(f"cluster {tag}", [argv], check, expect)

    def setup(self, work: Path, seed: int) -> list[Op]:
        ops = []
        for i in range(self.datasets):
            s = data_seed(seed, i)
            X, labels = block_text(self.d, self.n, self.classes, np.random.default_rng(s))
            ops.append(self._op(work, f"text{i}", X, labels, s))
        X, labels = block_text(self.d, self.ten_class_n, 10, np.random.default_rng(TEN_CLASS_SEED))
        ops.append(self._op(work, "ten_class", X, labels, TEN_CLASS_SEED,
                            expect=("DomainError", "permutation limit")))
        return ops


WORKLOADS = {w.name: w for w in (GateSolve(), ImageTall(), TheoryAudit(), TextCluster())}
