"""Benchmark of the l1subspace command line, one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds ``src/l1subspace``.  The
workload runs in a fresh child process (perfbench/worker.py) whose
environment pins BLAS and OpenMP to one thread and puts this tree's ``src``
first on the import path.  With ``--trace 0`` the last line of output is
the end-to-end metrics; set-up is measured SETUP_SAMPLES times, in that
many fresh processes, and its median reported.  With ``--trace 1`` it is
the per-layer metrics of a traced run.  Workloads, metrics and reference
figures are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# every run of the program sees exactly one BLAS / OpenMP thread
THREAD_PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}
SETUP_SAMPLES = 3
# the whole command must finish within this many seconds
DEADLINE_S = 170.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def spawn(args, deadline: float, setup_only: bool) -> dict:
    """Run the worker once and return the JSON object on its last line."""
    env = dict(os.environ, **THREAD_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    start = time.monotonic()
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds),
            "--trace", str(args.trace), "--start", repr(start)]
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - start, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "l1subspace" / "cli.py").is_file():
        print(f"error: no l1subspace source tree under {ROOT}", file=sys.stderr)
        return 2
    try:
        setups = []
        if not args.trace:
            setups = [spawn(args, deadline, True)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        result = spawn(args, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    print("env: " + json.dumps(result["env"], sort_keys=True))
    print(f"rounds: {result['rounds']}  setup samples (s): {setups}")
    for name, metric in metrics.items():
        print(f"{args.workload}/{name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
