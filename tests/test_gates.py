"""End-to-end gates run as child processes under a 3 GB address-space cap.

Each child gets ``RLIMIT_AS`` = 3e9 bytes before it starts, so a run that
forms an n x n or d x d matrix at scale, or an allocation that memory
overcommit would otherwise grant, fails here instead of passing on a large
host; a 60 s timeout catches a run that got slow instead.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import l1subspace

CAP = 3 * 10**9
REPO = Path(__file__).resolve().parents[1]
SRC = str(Path(l1subspace.__file__).resolve().parents[1])


def _capped():
    resource.setrlimit(resource.RLIMIT_AS, (CAP, CAP))


def run_capped(args, cwd):
    """Run ``python *args`` in cwd under the cap and the timeout."""
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True,
        timeout=60, preexec_fn=_capped, env={**os.environ, "PYTHONPATH": SRC},
    )


def cli(*args):
    return ["-m", "l1subspace.cli", *args]


@pytest.mark.parametrize("demo", sorted((REPO / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs_under_the_cap(demo, tmp_path):
    # the image demo is 240 x 240 (d = 57600): one d x d matrix would need
    # 24.7 GiB, so this fails if a sweep ever forms one again
    done = run_capped([str(demo)], tmp_path)
    assert done.returncode == 0, done.stderr


def test_tall_theory_solve_and_check_under_the_cap(tmp_path):
    # theory mode's adaptive beta once formed the d x d matrix X P and took
    # its SVD every sweep; at d = 2304 five sweeps took minutes
    steps = [
        cli("synth", "--out", "tall", "--d", "2304", "--n", "9", "--k", "2",
            "--sigma", "0.5", "--seed", "1"),
        cli("solve", "--out", "tall/run", "--data", "tall/X.csv", "--k", "2",
            "--theory", "--beta-star", "1", "--beta-sup", "1e9", "--tol", "1e-10",
            "--seed", "1"),
        cli("check", "--run", "tall/run"),
    ]
    for step in steps:
        done = run_capped(step, tmp_path)
        assert done.returncode == 0, (step, done.stderr)


@pytest.mark.parametrize("command", [["solve", "--k", "1"], ["cluster"]], ids=lambda c: c[0])
def test_huge_libsvm_index_is_a_data_error(command, tmp_path):
    # index 10^9 on two lines asks for a 16 GB dense array: a data error
    # (exit 3) naming the line, where overcommit could otherwise grant it
    (tmp_path / "two_class.svm").write_text("1 1:1.0\n-1 1000000000:1.0\n")
    done = run_capped(
        cli(*command, "--out", command[0], "--libsvm", "two_class.svm", "--beta", "20"),
        tmp_path,
    )
    assert done.returncode == 3, done.stderr
