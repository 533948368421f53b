"""Instrumentation that rebinds l1subspace's public functions.

The library looks its functions up as module globals (``cli`` calls the
``solve`` it imported from ``solvers``, ``solvers`` calls its own
``extrapolate``).  Replacing a name in every module that holds it therefore
intercepts every call without editing the program.  Two layers of wrapping
exist:

* ``Probe`` is bound in every run.  It wraps only ``solve`` (sweeps and
  time inside solve calls) and ``kmeans`` (the labels, for the clustering
  check): one extra Python call per solve or k-means call.
* ``Tracer`` is bound only in traced rounds.  It wraps each function in
  ``LAYERS`` with a span and charges each span its self time: its duration
  minus the durations of the spans it caused.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import l1subspace
from l1subspace import cli, core, data, linalg, metrics, solvers

MODULES = (l1subspace, cli, core, data, linalg, metrics, solvers)

# home module -> public functions timed as that layer's spans
LAYERS = {
    linalg: ("polar_factor", "singular_values", "spectral_norm"),
    solvers: (
        "solve",
        "extrapolate",
        "update_P",
        "update_Q",
        "adaptive_beta",
        "gamma_star",
        "criticality_residual",
        "check_alpha_condition",
        "sufficient_decrease_check",
    ),
    core: ("objective_h", "objective_l"),
    metrics: ("tev", "choose_k_energy", "kmeans", "clustering_accuracy", "reconstruct"),
    data: ("read_csv_matrix", "parse_libsvm", "read_pgm"),
    cli: ("main",),
}


def layer_name(module, name: str) -> str:
    # the span around cli.main keeps only what no other span covers
    if module is cli:
        return "cli.self"
    return f"{module.__name__.rsplit('.', 1)[-1]}.{name}"


class Rebinder:
    """Swaps a function for a wrapper wherever a module holds it, and back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def rebind(self, home, name: str, make_wrapper) -> None:
        original = inspect.unwrap(getattr(home, name))
        wrappers = {}  # one wrapper per distinct bound function
        for module in MODULES:
            bound = module.__dict__.get(name)
            # a wrapper bound earlier (the Probe's) stands in for the original
            if callable(bound) and inspect.unwrap(bound) is original:
                if id(bound) not in wrappers:
                    wrappers[id(bound)] = make_wrapper(bound)
                self._saved.append((module, name, bound))
                setattr(module, name, wrappers[id(bound)])

    def restore(self) -> None:
        while self._saved:
            module, name, bound = self._saved.pop()
            setattr(module, name, bound)


class Probe:
    """Always-on counters: sweeps and seconds inside solve, k-means labels."""

    def __init__(self):
        self._rebinder = Rebinder()
        self.reset()

    def reset(self) -> None:
        self.sweeps = 0
        self.solve_s = 0.0
        self.labels: list = []

    def install(self) -> None:
        self._rebinder.rebind(solvers, "solve", self._wrap_solve)
        self._rebinder.rebind(metrics, "kmeans", self._wrap_kmeans)

    def uninstall(self) -> None:
        self._rebinder.restore()

    def _wrap_solve(self, fn):
        @functools.wraps(fn)
        def solve(*args, **kwargs):
            start = time.perf_counter()
            try:
                report = fn(*args, **kwargs)
            finally:
                self.solve_s += time.perf_counter() - start
            self.sweeps += report.iterations
            return report

        return solve

    def _wrap_kmeans(self, fn):
        @functools.wraps(fn)
        def kmeans(*args, **kwargs):
            labels = fn(*args, **kwargs)
            self.labels.append(labels)
            return labels

        return kmeans


class Tracer:
    """Self time and call count per layer function, per operation."""

    def __init__(self):
        self._rebinder = Rebinder()
        self._open: list[float] = []  # child time accumulated by each open span
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)

    def install(self) -> None:
        for home, names in LAYERS.items():
            for name in names:
                label = layer_name(home, name)
                self._rebinder.rebind(home, name, lambda fn, label=label: self._span(label, fn))

    def uninstall(self) -> None:
        self._rebinder.restore()

    def _span(self, label: str, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._open.pop()
                self.self_s[label] += elapsed - children
                self.calls[label] += 1
                if self._open:
                    self._open[-1] += elapsed

        return span
