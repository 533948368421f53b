"""One workload in one fresh process: set up, warm up, run timed rounds,
check every output, and print one JSON line of results.

Started by run.py with BLAS and OpenMP pinned to one thread; not meant to
be run by hand.  ``--start`` is the monotonic clock reading taken just
before this process was spawned, so set-up time includes interpreter start
and imports.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import l1subspace
from l1subspace import cli, linalg
from tracer import LAYERS, Probe, Tracer, layer_name
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--start", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads": {key: os.environ.get(key) for key in sorted(os.environ) if key.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


class Runner:
    """Runs operations through ``cli.main`` and keeps their outcomes."""

    def __init__(self, probe, tracer):
        self.probe = probe
        self.tracer = tracer
        self.records: list[dict] = []
        self.problems: list[str] = []

    def run(self, op, traced: bool, timed: bool = True) -> None:
        self.probe.reset()
        self.tracer.reset()
        if traced:
            self.tracer.install()
        codes, error, elapsed = [], None, 0.0
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                for argv in op.commands:
                    start = time.perf_counter()
                    try:
                        codes.append(cli.main(argv))
                    finally:
                        elapsed += time.perf_counter() - start
        # the benchmark's boundary: record any failure and keep running
        except Exception as exc:
            error = (type(exc).__name__, str(exc))
        finally:
            if traced:
                self.tracer.uninstall()
        failed = self._judge(op, codes, error)
        if timed:
            self.records.append({
                "seconds": elapsed,
                "failed": failed,
                "traced": traced,
                "sweeps": self.probe.sweeps,
                "solve_s": self.probe.solve_s,
                "self_s": dict(self.tracer.self_s),
                "calls": dict(self.tracer.calls),
            })

    def _judge(self, op, codes, error) -> bool:
        """Check the op's outputs; True when the operation failed."""
        if error is not None:
            if op.expect and error[0] == op.expect[0] and op.expect[1] in error[1]:
                return True
            self.problems.append(f"{op.name}: {error[0]}: {error[1]}")
            return True
        if codes[0] != 0:
            self.problems.append(f"{op.name}: exit code {codes[0]}")
            return True
        try:
            found = op.check(codes, self.probe.labels)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            found = [f"unreadable output: {type(exc).__name__}: {exc}"]
        self.problems.extend(f"{op.name}: {p}" for p in found)
        return False


def end_to_end(records, setup_s: float) -> dict:
    solve_s = sum(r["solve_s"] for r in records)
    sweeps = sum(r["sweeps"] for r in records)
    return {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(r["seconds"] for r in records), "s"),
        "sweeps_per_s": (sweeps / solve_s if solve_s > 0 else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(records, rounds: int) -> dict:
    traced = [r for r in records if r["traced"]]
    metrics = {}
    for home, names in LAYERS.items():
        for name in names:
            label = layer_name(home, name)
            metrics[f"{label}.s"] = (statistics.median(r["self_s"].get(label, 0.0) for r in traced), "s")
            if home is linalg:
                metrics[f"{label}.calls"] = (statistics.median(r["calls"].get(label, 0) for r in traced), "count")
    metrics["solvers.sweeps"] = (statistics.median(r["sweeps"] for r in traced), "count")
    # rounds alternate plain and traced, so each traced op pairs with the
    # same op one round earlier
    width = len(records) // rounds
    pairs = [
        records[i]["seconds"] - records[i - width]["seconds"]
        for i, r in enumerate(records) if r["traced"]
    ]
    metrics["trace.overhead_s"] = (statistics.median(pairs), "s")
    covered = [
        sum(v for k, v in r["self_s"].items() if k != "cli.self") / r["seconds"] for r in traced
    ]
    metrics["trace.covered_share"] = (statistics.median(covered), "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if Path(l1subspace.__file__).resolve().parent != ROOT / "src" / "l1subspace":
        print(f"imported l1subspace from {l1subspace.__file__}, not this tree", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work_root = ROOT / "perfbench" / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    probe, tracer = Probe(), Tracer()
    probe.install()
    runner = Runner(probe, tracer)
    try:
        ops = workload.setup(work, args.seed)
        runner.run(ops[0], traced=False, timed=False)  # warm-up
        setup_s = time.monotonic() - args.start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        began = time.perf_counter()
        rounds = 0
        while True:
            traced = bool(args.trace) and rounds % 2 == 1
            for op in ops:
                runner.run(op, traced)
            rounds += 1
            elapsed = time.perf_counter() - began
            # stop at the round boundary nearest to the requested length
            done = elapsed + 0.5 * elapsed / rounds >= args.seconds
            if done and (not args.trace or rounds >= 2):
                break
    finally:
        probe.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    records = runner.records
    metrics = per_layer(records, rounds) if args.trace else end_to_end(records, setup_s)
    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "setup_s": setup_s,
        "rounds": rounds,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
