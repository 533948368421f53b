"""Each benchmark check passes the program's real output and rejects a
deliberately wrong one.

    python3 -m pytest perfbench

The workloads run at small shapes through ``l1subspace.cli.main``; the
artifacts are then tampered with and checked again.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from l1subspace import cli  # noqa: E402
from tracer import Probe  # noqa: E402
from workloads import GateSolve, ImageTall, TextCluster, TheoryAudit  # noqa: E402


def run(op) -> list[int]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return [cli.main(argv) for argv in op.commands]


def out_dir(op) -> Path:
    argv = op.commands[0]
    return Path(argv[argv.index("--out") + 1])


def write_csv(values, path) -> None:
    np.savetxt(path, values, delimiter=",", fmt="%.17g")


@pytest.fixture
def probe():
    probe = Probe()
    probe.install()
    yield probe
    probe.uninstall()


def test_solve_check_rejects_rotated_q(tmp_path):
    op = GateSolve(d=30, n=80, k=3, datasets=1).setup(tmp_path, seed=0)[0]
    codes = run(op)
    assert op.check(codes, []) == []
    Q = checks.read_csv(out_dir(op) / "final_Q.csv")
    # rotate part of the basis into the orthogonal complement
    outside = np.linalg.qr(np.random.default_rng(1).standard_normal((30, 30)))[0][:, :3]
    outside -= Q @ (Q.T @ outside)
    turned = np.linalg.qr(Q + 0.5 * outside)[0]
    write_csv(turned, out_dir(op) / "final_Q.csv")
    problems = op.check(codes, [])
    assert any(p.startswith("final_objective") for p in problems)
    assert any(p.startswith("tev") and "recomputed" in p for p in problems)
    assert any(p.startswith("tev") and "below floor" in p for p in problems)


def test_solve_check_rejects_flipped_sign_block(tmp_path):
    op = GateSolve(d=30, n=80, k=3, datasets=1).setup(tmp_path, seed=1)[1]
    codes = run(op)
    assert op.check(codes, []) == []
    P = checks.read_csv(out_dir(op) / "final_P.csv")
    P[:20, :10] *= -1.0
    write_csv(P, out_dir(op) / "final_P.csv")
    assert any("disagrees with sign" in p for p in op.check(codes, []))


def test_theory_check_rejects_rising_potential(tmp_path):
    op = TheoryAudit(d=20, n=60, k=2, datasets=1).setup(tmp_path, seed=0)[0]
    codes = run(op)
    assert op.check(codes, []) == []
    trace = out_dir(op) / "trace.csv"
    lines = trace.read_text().splitlines()
    fields = lines[3].split(",")
    fields[1] = repr(float(lines[2].split(",")[1]) + 1.0)  # phi rises at sweep 2
    lines[3] = ",".join(fields)
    trace.write_text("\n".join(lines) + "\n")
    problems = op.check(codes, [])
    assert any("sufficient decrease" in p for p in problems), problems
    assert any("exited with" in p for p in op.check([0, 5 - codes[1]], []))


def test_cluster_check_rejects_shuffled_labels(tmp_path, probe):
    op = TextCluster(d=12, n=300, classes=3, reps=2).setup(tmp_path, seed=0)[0]
    codes = run(op)
    assert op.check(codes, probe.labels) == []
    shuffled = [np.random.default_rng(2).permutation(labels) for labels in probe.labels]
    problems = op.check(codes, shuffled)
    assert any("!= recomputed" in p for p in problems)
    assert any("below floor" in p for p in problems)


def test_image_check_rejects_corrupted_image_as_restored(tmp_path):
    op = ImageTall(side=18, images=1).setup(tmp_path, seed=0)[0]
    codes = run(op)
    assert op.check(codes, []) == []
    argv = op.commands[0]
    corrupted = Path(argv[argv.index("--corrupted") + 1])
    shutil.copy(corrupted / "corrupted_5.pgm", out_dir(op) / "recon_5.pgm")
    problems = op.check(codes, [])
    assert any(p.startswith("image 5:") and "report" in p for p in problems)
    assert any(p.startswith("image 5:") and "not below" in p for p in problems)


def test_best_assignment_matches_exhaustive_search():
    rng = np.random.default_rng(3)
    for m in (2, 3, 5):
        truth = rng.integers(0, m, size=40)
        pred = rng.integers(0, m, size=40)
        exhaustive = max(
            sum(int(np.sum((truth == t) & (pred == perm[t]))) for t in range(m))
            for perm in itertools.permutations(range(m))
        )
        assert checks.best_assignment(pred, truth) == exhaustive


def test_energy_dimension_counts_leading_energy():
    X = np.diag([3.0, 2.0, 1.0])  # energies 9, 4, 1 of 14
    assert checks.energy_dimension(X, 9 / 14) == 1
    assert checks.energy_dimension(X, 0.65) == 2
    assert checks.energy_dimension(X, 1.0) == 3
