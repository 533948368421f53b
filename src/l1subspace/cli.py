"""Command-line front end for reproducible experiments.

Subcommands: synth | solve | bench | cluster | reconstruct | check.  Every
run reads an optional flat ``key = value`` config file, applies flag
overrides, writes the fully resolved config next to its outputs, and emits
machine-readable artifacts (CSV traces, JSON reports).  :func:`main`
resolves the options and creates the output directory once, then hands
both to the command's handler.  Every file, input or output, goes through
the reader or the atomic writer of :mod:`l1subspace.data`.  Identical config
and seed give byte-identical traces and reports, except for the timing
section of each report, on one BLAS/LAPACK build run with a fixed thread
count; other thread counts can change the last digits.

Exit codes: 0 success, 2 config error, 3 data error, 4 solver error,
5 check failure.  One boundary, :func:`_fails_as`, turns a library error into
the code of the phase it arises in: settings are exit 2, input files exit 3,
the solver exit 4 (exit 2 when it rejects the setup), and a failed ``check``
exit 5.  A corrupt report field, the dataset path included, is exit 3.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from .core import AdaptiveBeta, DataMatrix, FixedBeta, SignMatrix, SolverConfig, StiefelPoint, _Adopted, _fro_norm, _is_count, _is_number, _number, objective_h
from .data import (
    GrayImage,
    _open_read,
    _read,
    _write,
    center_features,
    corrupt_image,
    crop_to_grid,
    gen_synthetic,
    image_columns,
    parse_libsvm,
    read_csv_matrix,
    read_pgm,
    unstack_images,
    write_csv_matrix,
    write_pgm,
)
from .errors import (
    ConvergenceError,
    DomainError,
    FeasibilityError,
    InfeasibleBoundError,
    NumericError,
    ParseError,
    SelectionError,
    ShapeError,
)
from .linalg import random_stiefel
from .metrics import choose_k_energy, clustering_accuracy, kmeans, reconstruct, tev
from .solvers import (
    RunReport,
    RunTrace,
    _closing,
    _record,
    gamma_star,
    solve,
    sufficient_decrease_check,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SOLVER = 4
EXIT_CHECK = 5

TRACE_HEADER = "k,phi,h,dP,dQ,gap"

_SOLVER_ERRORS = (ConvergenceError, NumericError, InfeasibleBoundError, SelectionError)


class CliError(Exception):
    """Failure with a chosen process exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextlib.contextmanager
def _fails_as(code: int, what: str, *errors):
    """Turn any of ``errors`` raised in the block into ``CliError(code, "what: error")``."""
    try:
        yield
    except errors as exc:
        raise CliError(code, f"{what}: {exc}") from None


# ---------------------------------------------------------------------------
# option plumbing: config file + flag overrides -> one resolved dict

_REQUIRED = object()


def _parse_bool(text):
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# the option rows of every command that runs the solver (see COMMANDS)
_SOLVER_OPTS = [
    ("alpha", float, 1e-6),
    ("beta", float, None),
    ("beta_star", float, None),
    ("beta_sup", float, None),
    ("gamma", float, 1.0),
    ("max_iters", int, 1000),
    ("tol", float, 1e-6),
    ("seed", int, 0),
    ("theory", _parse_bool, False),
]


def read_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` lines; blank lines and # comments are ignored."""
    with _fails_as(EXIT_CONFIG, "cannot read config file", OSError, UnicodeDecodeError):
        text = _read(path, binary=True).decode("utf-8")
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise CliError(
                EXIT_CONFIG, f"config line {lineno}: expected key = value, got {line!r}"
            )
        values[key.strip()] = value.strip()
    return values


def resolve_options(command: str, args: argparse.Namespace) -> dict:
    """Merge defaults, config-file values, and flag overrides for a command,
    then check the ranges no later step checks: a seed numpy accepts, an
    energy threshold in (0, 1] and at least one repetition."""
    table = COMMANDS[command][2]
    known = {key for key, _, _ in table}
    file_values = read_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(file_values) - known)
    if unknown:
        raise CliError(
            EXIT_CONFIG, f"config keys not recognized by {command}: {', '.join(unknown)}"
        )
    resolved = {}
    for key, convert, default in table:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in file_values:
            with _fails_as(EXIT_CONFIG, f"config key {key}", ValueError):
                resolved[key] = convert(file_values[key])
        elif default is _REQUIRED:
            raise CliError(EXIT_CONFIG, f"missing required setting: {key}")
        else:
            resolved[key] = default
    if resolved.get("seed", 0) < 0:
        raise CliError(EXIT_CONFIG, f"seed must be a nonnegative integer, got {resolved['seed']}")
    with _fails_as(EXIT_CONFIG, "invalid settings", DomainError):
        _number("threshold", resolved.get("threshold", 1.0), 0.0, 1.0)
    if resolved.get("reps", 1) < 1:
        raise CliError(EXIT_CONFIG, "reps must be at least 1")
    return resolved


def _cell(value) -> str:
    """A value as written to config.txt and the CSV files: empty for None,
    true or false for a bool, full precision for a float."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_resolved_config(out_dir: str, resolved: dict) -> None:
    lines = [
        f"{key} = {_cell(value)}"
        for key, value in sorted(resolved.items())
        if value is not None
    ]
    # UTF-8, not ASCII: a data path in the config may hold any character
    _write(("\n".join(lines) + "\n").encode("utf-8"), os.path.join(out_dir, "config.txt"))


def _write_json(path: str, payload: dict) -> None:
    _write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"), path)


def _jsonable_float(value):
    """A float for JSON, or None for a missing value or one JSON cannot hold (nan, inf)."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def _ensure_out_dir(path: str) -> str:
    with _fails_as(EXIT_DATA, "cannot create output directory", OSError):
        os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# shared build steps


def build_solver_config(resolved: dict) -> SolverConfig:
    fixed = resolved.get("beta")
    star, sup = resolved.get("beta_star"), resolved.get("beta_sup")
    if fixed is not None and (star is not None or sup is not None):
        raise CliError(EXIT_CONFIG, "give either beta or beta_star/beta_sup, not both")
    if fixed is None and star is None and sup is None:
        raise CliError(EXIT_CONFIG, "a beta setting is required: beta, or beta_star with beta_sup")
    if fixed is None and (star is None or sup is None):
        raise CliError(EXIT_CONFIG, "beta_star and beta_sup must be given together")
    with _fails_as(EXIT_CONFIG, "invalid solver settings", DomainError, ShapeError, ValueError):
        beta_mode = FixedBeta(fixed) if fixed is not None else AdaptiveBeta(star, sup)
        return SolverConfig(
            alpha=resolved["alpha"],
            beta_mode=beta_mode,
            gamma=resolved["gamma"],
            max_iters=resolved["max_iters"],
            tol=resolved["tol"],
            theory_mode=resolved.get("theory", False),
        )


def load_feature_matrix(resolved: dict) -> DataMatrix:
    """Load and center the features named by ``data`` (CSV) or ``libsvm``."""
    data_path, libsvm_path = resolved.get("data"), resolved.get("libsvm")
    if (data_path is None) == (libsvm_path is None):
        raise CliError(EXIT_CONFIG, "give exactly one of data (CSV) or libsvm")
    with _fails_as(EXIT_DATA, "cannot load features",
                   OSError, ParseError, ShapeError, NumericError):
        if data_path is not None:
            raw = DataMatrix(_Adopted(read_csv_matrix(data_path)))
        else:
            raw = parse_libsvm(libsvm_path).features
        return center_features(raw)


def trace_csv_text(trace: RunTrace) -> str:
    """trace.csv's text; a step column writes nan, as at iterate 0, as an empty cell."""
    lines = [TRACE_HEADER]
    for k in range(len(trace.phi)):
        steps = (trace.dP[k], trace.dQ[k], trace.gap[k])
        cells = (k, trace.phi[k], trace.h[k], *(None if math.isnan(s) else s for s in steps))
        lines.append(",".join(map(_cell, cells)))
    return "\n".join(lines) + "\n"


def parse_trace_csv(text: str) -> RunTrace:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != TRACE_HEADER:
        raise CliError(EXIT_DATA, f"trace file must start with header {TRACE_HEADER!r}")
    trace = RunTrace()
    for row_index, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != 6:
            raise CliError(EXIT_DATA, f"trace row {row_index}: expected 6 fields")
        try:
            k = int(parts[0])
            phi, h = float(parts[1]), float(parts[2])
            dP, dQ, gap = (float(p) if p else math.nan for p in parts[3:6])
        except ValueError:
            raise CliError(EXIT_DATA, f"trace row {row_index}: bad numeric field") from None
        if k != row_index:
            raise CliError(EXIT_DATA, f"trace row {row_index}: non-consecutive iteration {k}")
        _record(trace, False, phi, h, dP, dQ, gap, None)
    if not trace.phi:
        raise CliError(EXIT_DATA, "trace file holds no iterations")
    return trace


def _beta_results(report: RunReport) -> dict:
    """The Q-step trials and the last beta of a run that backtracked its
    beta; nothing for a fixed beta, whose report keeps its old keys."""
    if report.q_step_trials is None:
        return {}
    return {"q_step_trials": int(report.q_step_trials),
            "final_beta": float(report.final_beta)}


def _run_solver(X: DataMatrix, config: SolverConfig, k: int, seed) -> RunReport:
    """Solve from the seeded random start Q0, with library errors as exit codes."""
    with _fails_as(EXIT_CONFIG, "invalid subspace dimension", DomainError, ShapeError):
        init_Q = random_stiefel(X.d, k, seed=seed)
    with _fails_as(EXIT_CONFIG, "solver rejected the setup",
                   FeasibilityError, ShapeError, DomainError):
        with _fails_as(EXIT_SOLVER, "solver failed", *_SOLVER_ERRORS):
            return solve(X, config, init_Q)


def _write_report(out: str, command: str, resolved: dict, results: dict, timing: dict) -> None:
    """Write report.json and config.txt for a solve, cluster or reconstruct run."""
    payload = {
        "command": command,
        "config": {k: v for k, v in sorted(resolved.items()) if v is not None},
        "results": results,
        "timing": timing,
    }
    _write_json(os.path.join(out, "report.json"), payload)
    write_resolved_config(out, resolved)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with _open_read(path, binary=True) as fh:
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# synth


def cmd_synth(resolved: dict, out: str) -> None:
    with _fails_as(EXIT_CONFIG, "invalid synthetic settings", DomainError, NumericError):
        X, truth = gen_synthetic(
            resolved["d"], resolved["n"], resolved["k"], resolved["sigma"], resolved["seed"]
        )
    x_path = os.path.join(out, "X.csv")
    q_path = os.path.join(out, "Q_true.csv")
    write_csv_matrix(X.values, x_path)
    write_csv_matrix(truth.Q_true.values, q_path)
    manifest = {
        "command": "synth",
        "d": resolved["d"],
        "n": resolved["n"],
        "k": resolved["k"],
        "sigma": resolved["sigma"],
        "seed": resolved["seed"],
        "noiseless": truth.noiseless,
        "files": {
            "X.csv": {"sha256": _sha256(x_path)},
            "Q_true.csv": {"sha256": _sha256(q_path)},
        },
    }
    _write_json(os.path.join(out, "manifest.json"), manifest)
    write_resolved_config(out, resolved)
    print(f"wrote {x_path} ({resolved['d']} x {resolved['n']}), Q_true, manifest")


# ---------------------------------------------------------------------------
# solve


def _tev(X: DataMatrix, Q: StiefelPoint) -> float:
    """tev(X, Q), or nan where it is undefined (X = 0)."""
    with contextlib.suppress(DomainError):
        return tev(X, Q)
    return math.nan


def cmd_solve(resolved: dict, out: str) -> None:
    config = build_solver_config(resolved)
    X = load_feature_matrix(resolved)
    report = _run_solver(X, config, resolved["k"], resolved["seed"])
    tev_value = _tev(X, report.final_Q) if resolved["tev"] else None
    _write(trace_csv_text(report.trace).encode("utf-8"), os.path.join(out, "trace.csv"))
    write_csv_matrix(report.final_Q.values, os.path.join(out, "final_Q.csv"))
    write_csv_matrix(report.final_P.values, os.path.join(out, "final_P.csv"))
    results = {
        "final_objective": float(report.final_objective),
        "iterations": int(report.iterations),
        "stop_reason": report.stop_reason,
        "final_gap": float(report.final_gap),
        "criticality": _jsonable_float(report.criticality),
        "alpha_condition_holds": bool(report.alpha_condition_holds),
        "tev": _jsonable_float(tev_value),
        "gamma_star": _jsonable_float(report.trace.gamma_star),
        "beta_star": float(config.beta_star),
        "files": {
            "trace": "trace.csv",
            "final_Q": "final_Q.csv",
            "final_P": "final_P.csv",
        },
        **_beta_results(report),
    }
    _write_report(out, "solve", resolved, results,
                  {"wall_time_seconds": float(report.wall_time)})
    print(
        f"stop={report.stop_reason} iters={report.iterations} "
        f"objective={report.final_objective:.6e} criticality={report.criticality:.3e}"
    )


# ---------------------------------------------------------------------------
# bench


def cmd_bench(resolved: dict, out: str) -> None:
    variants = ("palme", "palm")
    base_config = build_solver_config(resolved)

    rows = []
    for rep in range(resolved["reps"]):
        data_seed = resolved["seed"] + rep
        with _fails_as(EXIT_CONFIG, "invalid synthetic settings", DomainError, NumericError):
            X, _ = gen_synthetic(
                resolved["d"], resolved["n"], resolved["k"], resolved["sigma"], data_seed
            )
        for variant in variants:
            gamma = 0.0 if variant == "palm" else base_config.gamma
            config = dataclasses.replace(base_config, gamma=gamma)
            record = {
                "variant": variant,
                "rep": rep,
                "data_seed": data_seed,
                "status": "error",
                "tev": None,
                "iterations": None,
                "wall_time": None,
                "stop_reason": "",
                "error": "",
            }
            try:
                report = _run_solver(X, config, resolved["k"], data_seed + 7919)
                record.update(
                    status="ok",
                    tev=tev(X, report.final_Q),
                    iterations=report.iterations,
                    wall_time=report.wall_time,
                    stop_reason=report.stop_reason,
                )
            except (CliError, DomainError) as exc:
                record["error"] = str(exc)
            rows.append(record)

    header = ["variant", "rep", "data_seed", "status", "tev", "iterations",
              "wall_time", "stop_reason", "error"]
    table = list(rows)
    summary = []
    for variant in variants:
        good = [row for row in rows if row["variant"] == variant and row["status"] == "ok"]
        if not good:
            summary.append(f"{variant}: all runs failed")
            continue
        mean = {col: float(np.mean([row[col] for row in good]))
                for col in ("tev", "iterations", "wall_time")}
        table.append({**mean, "variant": variant, "rep": "mean", "data_seed": None,
                      "status": "ok", "stop_reason": "", "error": ""})
        summary.append(f"{variant}: mean tev {mean['tev']:.6f} over {len(good)} runs")
    lines = [",".join(header)]
    lines += [",".join(_cell(row[col]) for col in header) for row in table]
    _write(("\n".join(lines) + "\n").encode("utf-8"), os.path.join(out, "bench.csv"))

    by_rep = {(row["variant"], row["rep"]): row for row in rows if row["status"] == "ok"}
    paired = ["rep,data_seed,tev_palme,tev_palm,tev_delta"]
    for rep in range(resolved["reps"]):
        a, b = by_rep.get(("palme", rep)), by_rep.get(("palm", rep))
        if a is not None and b is not None:
            cells = (rep, a["data_seed"], a["tev"], b["tev"], a["tev"] - b["tev"])
            paired.append(",".join(_cell(cell) for cell in cells))
    _write(("\n".join(paired) + "\n").encode("utf-8"), os.path.join(out, "paired.csv"))

    write_resolved_config(out, resolved)
    print("\n".join(summary))
    if all(row["status"] == "error" for row in rows):
        raise CliError(EXIT_SOLVER, "all benchmark runs failed")


# ---------------------------------------------------------------------------
# cluster


def cmd_cluster(resolved: dict, out: str) -> None:
    if resolved["k"] is not None and resolved["k"] < 2:
        raise CliError(EXIT_CONFIG, "k must be at least 2")
    config = build_solver_config(resolved)
    with _fails_as(EXIT_DATA, "cannot load dataset", OSError, ParseError):
        dataset = parse_libsvm(resolved["libsvm"])
    labels = dataset.labels
    n_clusters = len(np.unique(labels))
    if n_clusters < 2:
        raise CliError(EXIT_DATA, "dataset holds a single class; nothing to cluster")
    X = center_features(dataset.features)
    del dataset  # the uncentered features are not read again
    if resolved["k"] is not None:
        K = resolved["k"]
        k_rule = "flag"
    else:
        with _fails_as(EXIT_DATA, "energy rule failed", DomainError):
            K = choose_k_energy(X, threshold=resolved["threshold"])
        K = max(K, 2)
        k_rule = "energy"
    accuracies, iterations = [], []
    wall_times = []
    for rep in range(resolved["reps"]):
        rep_seed = resolved["seed"] + rep
        started = time.perf_counter()
        report = _run_solver(X, config, K, rep_seed)
        iterations.append(report.iterations)
        projected = report.final_Q.values.T @ X.values
        del report  # its n x d final_P must not outlive the repetition
        predicted = kmeans(projected, n_clusters, seed=rep_seed)
        wall_times.append(time.perf_counter() - started)
        accuracies.append(clustering_accuracy(predicted, labels))
    results = {
        "subspace_dim": int(K),
        "subspace_dim_rule": k_rule,
        "clusters": int(n_clusters),
        "samples": int(X.n),
        "accuracies": [float(a) for a in accuracies],
        "mean_accuracy": float(np.mean(accuracies)),
        "iterations": [int(i) for i in iterations],
    }
    timing = {
        "wall_time_seconds": float(sum(wall_times)),
        "per_rep_seconds": [float(w) for w in wall_times],
    }
    _write_report(out, "cluster", resolved, results, timing)
    print(
        f"K={K} ({k_rule}) clusters={n_clusters} "
        f"mean accuracy {float(np.mean(accuracies)):.4f} over {resolved['reps']} reps"
    )


# ---------------------------------------------------------------------------
# reconstruct


def _load_corrupted_dir(path: str) -> list[GrayImage]:
    with _fails_as(EXIT_DATA, "cannot list corrupted directory", OSError):
        names = sorted(
            name for name in os.listdir(path) if name.lower().endswith(".pgm")
        )
    if len(names) != 9:
        raise CliError(
            EXIT_DATA, f"corrupted directory must hold exactly 9 PGM files, found {len(names)}"
        )
    images = []
    for name in names:
        with _fails_as(EXIT_DATA, f"cannot read {name}", OSError, ParseError):
            images.append(read_pgm(os.path.join(path, name)))
    return images


def cmd_reconstruct(resolved: dict, out: str) -> None:
    if resolved["image"] is None and resolved["corrupted"] is None:
        raise CliError(EXIT_CONFIG, "give a clean image, a corrupted directory, or both")
    if all(resolved[key] is None for key in ("beta", "beta_star", "beta_sup")):
        resolved["beta"] = 100.0
    config = build_solver_config(resolved)

    clean = None
    if resolved["image"] is not None:
        with _fails_as(EXIT_DATA, "cannot read clean image", OSError, ParseError):
            clean = read_pgm(resolved["image"])
        with _fails_as(EXIT_DATA, "clean image unusable", ShapeError):
            clean = crop_to_grid(clean)

    if resolved["corrupted"] is not None:
        corrupted = _load_corrupted_dir(resolved["corrupted"])
    else:
        corrupted = [
            corrupt_image(clean, block, np.random.default_rng([resolved["seed"], block]))
            for block in range(1, 10)
        ]
        for block, image in enumerate(corrupted, start=1):
            write_pgm(image, os.path.join(out, f"corrupted_{block}.pgm"))

    with _fails_as(EXIT_DATA, "corrupted images disagree", ShapeError):
        columns = image_columns(corrupted)
    height, width = corrupted[0].pixels.shape
    del corrupted  # the stack holds their pixels
    if clean is not None and clean.pixels.shape != (height, width):
        raise CliError(
            EXIT_DATA,
            f"clean image is {clean.pixels.shape} but corrupted are "
            f"{(height, width)}",
        )
    # the stack is centered in place and adopted: X is its only copy
    means = columns.mean(axis=1, keepdims=True)
    columns -= means
    X = DataMatrix(_Adopted(columns), centered=True)
    report = _run_solver(X, config, resolved["k"], resolved["seed"])
    rebuilt = reconstruct(X, report.final_Q).values + means
    np.clip(rebuilt, 0.0, 255.0, out=rebuilt)
    images = unstack_images(rebuilt, height, width)
    rmse = None
    for index, image in enumerate(images, start=1):
        write_pgm(image, os.path.join(out, f"recon_{index}.pgm"))
    if clean is not None:
        rmse = [
            float(np.sqrt(np.mean((image.pixels - clean.pixels) ** 2)))
            for image in images
        ]
    results = {
        "image_shape": [int(height), int(width)],
        "iterations": int(report.iterations),
        "stop_reason": report.stop_reason,
        "final_objective": float(report.final_objective),
        "rmse": rmse,
        "mean_rmse": float(np.mean(rmse)) if rmse is not None else None,
        "files": [f"recon_{i}.pgm" for i in range(1, 10)],
        **_beta_results(report),
    }
    _write_report(out, "reconstruct", resolved, results,
                  {"wall_time_seconds": float(report.wall_time)})
    if rmse is not None:
        print(f"mean rmse {float(np.mean(rmse)):.4f} over 9 images")
    else:
        print("reconstructed 9 images (no clean reference, rmse skipped)")


# ---------------------------------------------------------------------------
# check


def _load_report(run_dir: str) -> dict:
    path = os.path.join(run_dir, "report.json")
    with _fails_as(EXIT_DATA, "cannot read report", OSError):
        with _fails_as(EXIT_DATA, "corrupt report JSON", json.JSONDecodeError, UnicodeDecodeError):
            payload = json.loads(_read(path, binary=True).decode("utf-8"))
    if not isinstance(payload, dict):
        raise CliError(EXIT_DATA, "corrupt report: not a JSON object")
    for key in ("command", "config", "results"):
        if key not in payload:
            raise CliError(EXIT_DATA, f"corrupt report: missing {key!r}")
        if key != "command" and not isinstance(payload[key], dict):
            raise CliError(EXIT_DATA, f"corrupt report: {key!r} is not a JSON object")
    if payload["command"] != "solve":
        raise CliError(EXIT_DATA, "check needs a solve run directory")
    return payload


def _stored(results: dict, key: str, valid, kind: str):
    """``results[key]``; exit 3 unless ``valid`` accepts it."""
    if not valid(value := results.get(key)):
        raise CliError(EXIT_DATA, f"corrupt report: {key!r} is not {kind}")
    return value


def _stored_number(results: dict, key: str) -> float | None:
    """``results[key]`` as a float, None when absent or null."""
    value = _stored(results, key, lambda v: v is None or _is_number(v), "a number")
    return None if value is None else float(value)


def _agrees(stored: float, recomputed: float) -> bool:
    """The stored figure matches its recomputation to 1e-8 relative."""
    return abs(recomputed - stored) <= 1e-8 * (1.0 + abs(stored))


def _shown(value) -> str:
    """A compared figure as check prints it: a float to ten digits, else JSON."""
    return f"{value:.9e}" if isinstance(value, float) else json.dumps(value)


def _off_rows(trace: RunTrace, beta_star: float) -> list[int]:
    """The trace rows that solve's own expressions, in its order, do not
    reproduce bit for bit: phi = h + 0.5 beta_star dQ^2, gap = sqrt(dP^2 +
    dQ^2 + dQ_prev^2) and dP = 2 sqrt(m) for a flip count m; row 0 is phi = h."""
    phi, h, dP, dQ, gap = map(np.array, (trace.phi, trace.h, trace.dP, trace.dQ, trace.gap))
    dQ_prev = np.concatenate(([0.0], dQ[1:-1]))
    with np.errstate(all="ignore"):  # an edited row may overflow; it then differs
        ok = ((phi[1:] == h[1:] + 0.5 * beta_star * dQ[1:] * dQ[1:])
              & (gap[1:] == np.sqrt(dP[1:] * dP[1:] + dQ[1:] * dQ[1:] + dQ_prev * dQ_prev))
              & (dP[1:] == 2.0 * np.sqrt(np.rint((dP[1:] / 2.0) ** 2))))
    first = phi[0] == h[0] and np.isnan([dP[0], dQ[0], gap[0]]).all()
    return np.flatnonzero(~np.concatenate(([first], ok))).tolist()


def _audit(X: DataMatrix, P: SignMatrix, Q: StiefelPoint, config: SolverConfig,
           results: dict, trace_path: str):
    """Yield check's (name, passed, detail) rows on a run; passed is None on a
    row that only informs.  The alpha test's row comes before any stored
    figure is read, so a caller that prints each row as it comes shows it
    even when a corrupt field ends the audit with exit 3."""
    Xv, Pv, Qv, alpha = X.values, P.values, Q.values, config.alpha
    XtQ = Xv.T @ Qv
    PQ = np.empty((X.n, Q.k))
    h = objective_h(Pv, Qv, XtQ, out=PQ)
    stale, holds, objective, residual = _closing(Xv, Pv, Qv, XtQ, alpha, np.empty((X.n, X.d)), PQ)
    yield "alpha condition", None, f"{'holds' if holds else 'does not hold'} (informational)"

    if stale.size:
        above = int(np.count_nonzero(stale > alpha))
        # sign(P + X^T E / alpha) keeps P's sign wherever |X^T E| < alpha
        why = (f"{above} of them above alpha = {alpha:.3g}" if above else
               f"all at or below alpha = {alpha:.3g} (largest {float(stale.max()):.3e}), "
               "where the sign step keeps the previous sign: the alpha condition fails")
        criticality = ("criticality", False, "sign block inconsistent: P disagrees with "
                       f"sign(X^T Q Q^T) at {stale.size} nonzero entries, {why}")
    else:
        bound = 1e-5 * (1.0 + _fro_norm(Xv))
        # a norm too large for a float is infinite, and inf <= inf proves nothing
        finite = math.isfinite(residual) and math.isfinite(bound)
        detail = f"residual {residual:.3e} vs bound {bound:.3e}{'' if finite else ', not finite'}"
        criticality = ("criticality", finite and residual <= bound, detail)

    stored = _stored_number(results, "criticality")
    if math.isnan(residual):
        consistent = stored is None
        detail = ("stored value missing" if consistent
                  else f"stored {stored:.3e}, but the residual could not be recomputed")
    else:
        consistent = stored is not None and _agrees(stored, residual)
        detail = (f"recomputed {residual:.3e} but report stores null" if stored is None
                  else f"stored {stored:.3e}, recomputed {residual:.3e}")
    if (stored := _stored_number(results, "final_objective")) is None:
        raise CliError(EXIT_DATA, "corrupt report: missing 'final_objective'")
    # the other figures as (field, stored, recomputed, agree)
    table = [("final_objective", stored, objective, _agrees(stored, objective))]
    if config.theory_mode:
        # the audit's kappa1 rests on gamma*, so it comes from X, not the report
        gs = gamma_star(alpha, config.beta_star, X)
        stored = _stored_number(results, "gamma_star")
        # relative alone: gamma* can be 1e-9, where _agrees's 1e-8 floor passes 0
        table.append(("gamma_star", stored, gs,
                      stored is not None and math.isclose(stored, gs, rel_tol=1e-8)))
    stored = _stored(results, "alpha_condition_holds", lambda v: isinstance(v, bool), "a boolean")
    table.append(("alpha_condition_holds", stored, holds, stored is holds))
    # null where solve ran with --no-tev or tev is undefined (X = 0)
    if (stored := _stored_number(results, "tev")) is not None:
        recomputed = _tev(X, Q)
        table.append(("tev", stored, recomputed, _agrees(stored, recomputed)))
    with _fails_as(EXIT_DATA, "cannot read trace", OSError):
        with _fails_as(EXIT_DATA, "corrupt trace", UnicodeDecodeError):
            trace = parse_trace_csv(_read(trace_path, binary=True).decode("utf-8"))
    sweeps, gap = len(trace) - 1, trace.gap[-1]
    # solve stops on the first gap below tol, else after max_iters sweeps
    stop = "tolerance" if gap < config.tol else "max_iters" if sweeps == config.max_iters else None
    for field, recomputed, valid, kind in (
            ("iterations", sweeps, _is_count, "an integer"),
            ("final_gap", gap, _is_number, "a number"),
            ("stop_reason", stop, lambda v: isinstance(v, str), "a string")):
        stored = _stored(results, field, valid, kind)
        table.append((field, stored, recomputed, stored == recomputed))
    table.append(("last trace h", trace.h[-1], h, _agrees(trace.h[-1], h)))
    consistent = consistent and all(agree for *_, agree in table)
    detail += "".join(f"; {field} stored {_shown(stored)}, recomputed {_shown(recomputed)}"
                      for field, stored, recomputed, agree in table if not agree)
    if off := _off_rows(trace, config.beta_star):
        consistent = False
        detail += f"; {len(off)} of {len(trace)} trace rows break solve's formulas, first {off[0]}"

    if not config.theory_mode:
        yield "sufficient decrease", None, "skipped (practical run)"
    yield criticality
    yield "report consistency", consistent, detail
    if config.theory_mode:
        trace.gamma_star = gs
        audit = sufficient_decrease_check(trace, config)
        yield ("sufficient decrease", not audit.violations,
               f"{len(audit.violations)} violations over {audit.checked} steps")


def cmd_check(resolved: dict, out: None) -> None:
    run_dir = resolved["run"]
    payload = _load_report(run_dir)
    stored_config = payload["config"]
    if resolved["data"] is not None:
        stored_config = {**stored_config, "data": resolved["data"], "libsvm": None}
    for key in ("data", "libsvm"):
        # an int path would name a file descriptor, such as stdin
        if not isinstance(stored_config.get(key), (str, type(None))):
            raise CliError(EXIT_DATA, f"corrupt report: {key!r} is not a string")
    if stored_config.get("data") is None and stored_config.get("libsvm") is None:
        raise CliError(EXIT_DATA, "report config names no dataset; pass --data")
    if stored_config.get("data") is not None and stored_config.get("libsvm") is not None:
        raise CliError(EXIT_DATA, "corrupt report: config names both 'data' and 'libsvm'")
    X = load_feature_matrix(stored_config)
    with _fails_as(EXIT_DATA, "corrupt run artifacts",
                   OSError, ParseError, FeasibilityError, ShapeError, NumericError):
        final_Q = StiefelPoint(read_csv_matrix(os.path.join(run_dir, "final_Q.csv")))
        final_P = SignMatrix(_Adopted(read_csv_matrix(os.path.join(run_dir, "final_P.csv"))))
    if final_Q.d != X.d or final_P.values.shape != (X.n, X.d):
        raise CliError(EXIT_DATA, f"run artifacts do not fit the {X.d} x {X.n} dataset")
    with _fails_as(EXIT_DATA, "corrupt report config", CliError, KeyError):
        config = build_solver_config(stored_config)

    failed = False
    trace_path = os.path.join(run_dir, "trace.csv")
    for name, passed, detail in _audit(X, final_P, final_Q, config, payload["results"], trace_path):
        verdict = detail if passed is None else f"{'PASS' if passed else 'FAIL'} ({detail})"
        print(f"{name}: {verdict}")
        failed = failed or passed is False
    if failed:
        raise CliError(EXIT_CHECK, "one or more checks failed")


# ---------------------------------------------------------------------------
# entry point


def _add_option_flags(parser: argparse.ArgumentParser, options) -> None:
    for key, convert, _default in options:
        flag = "--" + key.replace("_", "-")
        if convert is _parse_bool:
            parser.add_argument(
                flag, dest=key, action=argparse.BooleanOptionalAction, default=None
            )
        else:
            parser.add_argument(flag, dest=key, type=convert, default=None)


# command -> (handler, help line, option rows); an option row is
# (key, converter, default), and _REQUIRED marks keys that must be supplied
COMMANDS = {
    "synth": (
        cmd_synth,
        "generate a synthetic dataset with planted subspace",
        [
            ("d", int, _REQUIRED),
            ("n", int, _REQUIRED),
            ("k", int, _REQUIRED),
            ("sigma", float, _REQUIRED),
            ("seed", int, 0),
        ],
    ),
    "solve": (
        cmd_solve,
        "run the solver on a dataset and write report plus trace",
        [
            ("data", str, None),
            ("libsvm", str, None),
            ("k", int, _REQUIRED),
            ("tev", _parse_bool, True),
        ]
        + _SOLVER_OPTS,
    ),
    "bench": (
        cmd_bench,
        "compare solver variants on repeated synthetic datasets",
        [
            ("d", int, _REQUIRED),
            ("n", int, _REQUIRED),
            ("k", int, _REQUIRED),
            ("sigma", float, _REQUIRED),
            ("reps", int, 10),
        ]
        + _SOLVER_OPTS,
    ),
    "cluster": (
        cmd_cluster,
        "subspace projection plus k-means accuracy on labeled data",
        [
            ("libsvm", str, _REQUIRED),
            ("k", int, None),
            ("threshold", float, 0.8),
            ("reps", int, 10),
        ]
        + _SOLVER_OPTS,
    ),
    "reconstruct": (
        cmd_reconstruct,
        "corrupt, stack, and reconstruct a grayscale image",
        [
            ("image", str, None),
            ("corrupted", str, None),
            ("k", int, 2),
        ]
        + [
            (key, conv, {"tol": 1e-3}.get(key, default))
            for key, conv, default in _SOLVER_OPTS
            if key not in ("theory",)
        ],
    ),
    "check": (
        cmd_check,
        "re-verify a finished solve run",
        [
            ("run", str, _REQUIRED),
            ("data", str, None),
        ],
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l1subspace",
        description="Robust L1 subspace estimation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, options) in COMMANDS.items():
        cmd_parser = sub.add_parser(command, help=help_line)
        cmd_parser.add_argument("--config", default=None, help="flat key = value file")
        if command != "check":
            cmd_parser.add_argument("--out", required=True, help="output directory")
        _add_option_flags(cmd_parser, options)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        resolved = resolve_options(args.command, args)
        out = None if args.command == "check" else _ensure_out_dir(args.out)
        COMMANDS[args.command][0](resolved, out)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
