"""End-to-end tests of the command-line interface, run in process."""

import json
import hashlib
import math
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import l1subspace
from l1subspace import (
    DataMatrix,
    GrayImage,
    LabeledDataset,
    read_csv_matrix,
    read_pgm,
    write_csv_matrix,
    write_libsvm,
    write_pgm,
)
from l1subspace.cli import CliError, _audit, _off_rows, main, parse_trace_csv, trace_csv_text
from l1subspace.core import AdaptiveBeta, FixedBeta, SignMatrix, SolverConfig
from l1subspace.data import center_features
from l1subspace.linalg import random_stiefel
from l1subspace.solvers import solve

from traced import traced_peak


def run_cli(*argv):
    return main([str(a) for a in argv])


# indices whose dense array numpy refuses before asking for memory: one
# beyond int64, and one whose 8-byte entries overflow the address space
HUGE_INDICES = [10**30, 2 * 10**18]


def huge_index_libsvm(tmp_path, index):
    path = tmp_path / "huge.txt"
    path.write_text(f"1 1:1.0 2:2.0\n-1 1:3.0 {index}:4.0\n")
    return path


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    # 20 x 60 planted rank-2 data with mild noise, saved once for the module
    rng = np.random.default_rng(42)
    basis = np.linalg.qr(rng.standard_normal((20, 2)))[0]
    X = basis @ rng.standard_normal((2, 60)) + 0.1 * rng.standard_normal((20, 60))
    path = tmp_path_factory.mktemp("data") / "X.csv"
    write_csv_matrix(X, path)
    return path


@pytest.fixture(scope="module")
def blobs_libsvm(tmp_path_factory):
    rng = np.random.default_rng(1)
    centers = np.zeros((10, 2))
    centers[0] = (8.0, -8.0)
    centers[1] = (3.0, 3.0)
    labels = np.repeat([0, 1], 30)
    X = rng.standard_normal((10, 60)) * 0.5 + centers[:, labels]
    path = tmp_path_factory.mktemp("data") / "blobs.txt"
    write_libsvm(LabeledDataset(DataMatrix(X), labels), path)
    return path


# a seed or threshold out of range, or synthetic noise that overflows, is a
# configuration error for every command that takes the setting
BOUNDARY_CASES = {
    "synth-seed": ("synth --d 6 --n 12 --k 2 --sigma 0.5 --seed -1", "seed must be"),
    "solve-seed": ("solve --data {X} --k 2 --beta 20 --seed -1", "seed must be"),
    "bench-seed": ("bench --d 6 --n 12 --k 2 --sigma 0.5 --reps 1 --beta 20 --seed -1",
                   "seed must be"),
    "cluster-seed": ("cluster --libsvm {svm} --beta 20 --seed -1", "seed must be"),
    "reconstruct-seed": ("reconstruct --image {pgm} --seed -1", "seed must be"),
    "synth": ("synth --d 3 --n 4 --k 2 --sigma 1e308", "invalid synthetic settings"),
    "bench --beta 20": ("bench --d 3 --n 4 --k 2 --sigma 1e308 --beta 20",
                        "invalid synthetic settings"),
    "cluster-threshold": ("cluster --libsvm {svm} --beta 20 --threshold 0",
                          "threshold must lie"),
}


@pytest.fixture(scope="module")
def boundary_inputs(tmp_path_factory):
    # valid inputs for the boundary cases, so that only the setting is wrong
    root = tmp_path_factory.mktemp("boundary")
    assert run_cli("synth", "--out", root / "syn", "--d", 6, "--n", 12, "--k", 2,
                   "--sigma", 0.5, "--seed", 1) == 0
    svm = root / "two_class.svm"
    svm.write_text("1 1:1.0 2:0.5\n1 1:1.1 2:0.4\n-1 1:-1.0 2:0.2\n-1 1:-0.9 2:0.3\n")
    pgm = root / "clean.pgm"
    write_pgm(GrayImage(np.arange(576.0).reshape(24, 24) % 256), pgm)
    return {"X": root / "syn" / "X.csv", "svm": svm, "pgm": pgm}


def solve_args(out, data, **overrides):
    options = {"k": 2, "alpha": 1e-6, "beta": 20.0, "seed": 1}
    options.update(overrides)
    argv = ["solve", "--out", out, "--data", data]
    for key, value in options.items():
        argv.extend([f"--{key.replace('_', '-')}", value])
    return argv


def insert_undecodable_byte(src, dest):
    # a copy of src with one 0xff byte, which no ASCII or UTF-8 reader
    # accepts, in the middle of the file
    blob = src.read_bytes()
    dest.write_bytes(blob[: len(blob) // 2] + b"\xff" + blob[len(blob) // 2 :])
    return dest


# ---------------------------------------------------------------------------
# config handling


class TestConfigHandling:
    def test_config_file_supplies_values(self, tmp_path, small_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# solver settings\nk = 2\nalpha = 1e-6\nbeta = 20\nseed = 3\n"
        )
        out = tmp_path / "out"
        code = run_cli("solve", "--config", cfg, "--out", out, "--data", small_csv)
        assert code == 0
        resolved = (out / "config.txt").read_text()
        assert "seed = 3" in resolved
        assert "gamma = 1.0" in resolved  # defaults are written back too

    def test_flags_override_config_file(self, tmp_path, small_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 2\nalpha = 1e-6\nbeta = 20\nseed = 3\n")
        out = tmp_path / "out"
        code = run_cli(
            "solve", "--config", cfg, "--out", out, "--data", small_csv, "--seed", 9
        )
        assert code == 0
        assert "seed = 9" in (out / "config.txt").read_text()

    def test_unknown_config_key_is_config_error(self, tmp_path, small_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 2\nbeta = 20\nwibble = 3\n")
        assert run_cli("solve", "--config", cfg, "--out", tmp_path / "o",
                       "--data", small_csv) == 2

    def test_malformed_config_line(self, tmp_path, small_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k 2\n")
        assert run_cli("solve", "--config", cfg, "--out", tmp_path / "o",
                       "--data", small_csv) == 2

    def test_missing_required_setting(self, tmp_path, small_csv):
        assert run_cli("solve", "--out", tmp_path / "o", "--data", small_csv,
                       "--beta", 20) == 2

    def test_beta_settings_are_exclusive(self, tmp_path, small_csv):
        assert run_cli(*solve_args(tmp_path / "o", small_csv, beta_star=1.0)) == 2

    def test_beta_required(self, tmp_path, small_csv):
        assert run_cli("solve", "--out", tmp_path / "o", "--data", small_csv,
                       "--k", 2) == 2

    @pytest.mark.parametrize("beta", [["--beta", -1],
                                      ["--beta-star", -1, "--beta-sup", 5],
                                      ["--beta-star", 5, "--beta-sup", 1]])
    def test_out_of_range_beta_is_config_error(self, tmp_path, small_csv, beta, capsys):
        assert run_cli("solve", "--out", tmp_path / "o", "--data", small_csv,
                       "--k", 2, *beta) == 2
        assert "invalid solver settings" in capsys.readouterr().err

    def test_undecodable_config_file_is_config_error(self, tmp_path, small_csv, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"k = 2\nbeta = 20\xff\n")
        assert run_cli("solve", "--config", cfg, "--out", tmp_path / "o",
                       "--data", small_csv) == 2
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("line,resolved", [("theory = yes", "theory = true"),
                                               ("tev = off", "tev = false")])
    def test_boolean_config_values(self, tmp_path, small_csv, line, resolved):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"k = 2\nbeta_star = 1\nbeta_sup = 1e9\nmax_iters = 20\n{line}\n")
        out = tmp_path / "out"
        assert run_cli("solve", "--config", cfg, "--out", out, "--data", small_csv) == 0
        assert resolved in (out / "config.txt").read_text()

    def test_non_boolean_config_value_is_config_error(self, tmp_path, small_csv, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 2\nbeta_star = 1\nbeta_sup = 1e9\ntheory = maybe\n")
        assert run_cli("solve", "--config", cfg, "--out", tmp_path / "o",
                       "--data", small_csv) == 2
        assert "not a boolean: 'maybe'" in capsys.readouterr().err


def _seeded_argv(command, tmp_path, small_csv, blobs_libsvm):
    """A valid invocation of a seeded command, writing under tmp_path."""
    out = ["--out", tmp_path / "o"]
    if command == "synth":
        return ["synth", *out, "--d", 6, "--n", 12, "--k", 2, "--sigma", 0.5]
    if command == "solve":
        return ["solve", *out, "--data", small_csv, "--k", 2, "--beta", 20]
    if command == "bench":
        return ["bench", *out, "--d", 6, "--n", 12, "--k", 2, "--sigma", 0.5,
                "--reps", 1, "--beta", 20]
    if command == "cluster":
        return ["cluster", *out, "--libsvm", blobs_libsvm, "--reps", 1, "--beta", 20]
    image = tmp_path / "clean.pgm"
    write_pgm(_structured_image(np.random.default_rng(0)), image)
    return ["reconstruct", *out, "--image", image]


class TestOptionRanges:
    @pytest.mark.parametrize("command", ["synth", "solve", "bench", "cluster", "reconstruct"])
    def test_negative_seed_is_config_error(self, tmp_path, small_csv, blobs_libsvm, command,
                                           capsys):
        argv = _seeded_argv(command, tmp_path, small_csv, blobs_libsvm)
        assert run_cli(*argv, "--seed", -1) == 2
        assert "seed must be a nonnegative integer, got -1" in capsys.readouterr().err

    def test_negative_seed_in_config_file_is_config_error(self, tmp_path, small_csv, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        argv = _seeded_argv("solve", tmp_path, small_csv, None)
        assert run_cli(*argv, "--config", cfg) == 2
        assert "seed must be a nonnegative integer, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", [0, 1.5, "nan"])
    def test_threshold_outside_unit_interval_is_config_error(self, tmp_path, blobs_libsvm,
                                                            threshold, capsys):
        argv = _seeded_argv("cluster", tmp_path, None, blobs_libsvm)
        assert run_cli(*argv, "--threshold", threshold) == 2
        assert "threshold must lie in (0, 1]" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth


class TestSynth:
    def test_writes_dataset_with_manifest(self, tmp_path):
        out = tmp_path / "syn"
        code = run_cli("synth", "--out", out, "--d", 10, "--n", 30, "--k", 2,
                       "--sigma", 0.5, "--seed", 7)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["noiseless"] is False
        digest = hashlib.sha256((out / "X.csv").read_bytes()).hexdigest()
        assert manifest["files"]["X.csv"]["sha256"] == digest
        X = read_csv_matrix(out / "X.csv")
        assert X.shape == (10, 30)
        assert np.max(np.abs(X.mean(axis=1))) <= 1e-12
        assert read_csv_matrix(out / "Q_true.csv").shape == (10, 2)

    def test_same_seed_same_hash(self, tmp_path):
        args = ["--d", 8, "--n", 20, "--k", 2, "--sigma", 0.3, "--seed", 5]
        run_cli("synth", "--out", tmp_path / "a", *args)
        run_cli("synth", "--out", tmp_path / "b", *args)
        ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
        mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert ma["files"] == mb["files"]

    def test_noiseless_flag(self, tmp_path):
        run_cli("synth", "--out", tmp_path / "s", "--d", 6, "--n", 12, "--k", 2,
                "--sigma", 0, "--seed", 0)
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["noiseless"] is True

    def test_bad_parameters_are_config_errors(self, tmp_path):
        assert run_cli("synth", "--out", tmp_path / "s", "--d", 4, "--n", 10,
                       "--k", 9, "--sigma", 0.5) == 2

    def test_overflowing_noise_is_config_error(self, tmp_path, capsys):
        assert run_cli("synth", "--out", tmp_path / "s", "--d", 3, "--n", 4,
                       "--k", 2, "--sigma", 1e308) == 2
        assert "invalid synthetic settings" in capsys.readouterr().err

    @pytest.mark.parametrize("args,message", BOUNDARY_CASES.values(), ids=BOUNDARY_CASES)
    def test_overflowing_noise_prints_no_warning(self, tmp_path, boundary_inputs, args, message):
        # run as a program, so stderr shows what a user sees: the exit-2 line
        # alone, without a traceback or numpy RuntimeWarnings before it
        src = str(Path(l1subspace.__file__).parents[1])
        command, *rest = args.format(**boundary_inputs).split()
        argv = [sys.executable, "-m", "l1subspace.cli", command, "--out", str(tmp_path / "o"),
                *rest]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 2, done.stderr
        assert message in done.stderr
        assert "Traceback" not in done.stderr
        assert "RuntimeWarning" not in done.stderr


# ---------------------------------------------------------------------------
# solve


class TestSolve:
    def test_writes_full_artifact_set(self, tmp_path, small_csv):
        out = tmp_path / "run"
        assert run_cli(*solve_args(out, small_csv)) == 0
        for name in ("report.json", "trace.csv", "final_Q.csv", "final_P.csv",
                     "config.txt"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        results = report["results"]
        assert results["stop_reason"] in ("tolerance", "max_iters")
        assert 0.0 <= results["tev"] <= 1.0 + 1e-9
        assert results["criticality"] >= 0.0
        trace_lines = (out / "trace.csv").read_text().splitlines()
        assert trace_lines[0] == "k,phi,h,dP,dQ,gap"
        assert len(trace_lines) == results["iterations"] + 2  # header + k=0 row
        assert trace_lines[1].endswith(",,,")  # no step fields at k = 0

    def test_reports_validate_against_shipped_schema(self, tmp_path, small_csv):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib.resources import files

        schema = json.loads(
            files("l1subspace").joinpath("schemas/report.schema.json").read_text()
        )
        out = tmp_path / "run"
        run_cli(*solve_args(out, small_csv))
        report = json.loads((out / "report.json").read_text())
        jsonschema.validate(report, schema)

    def test_zero_matrix_stops_immediately(self, tmp_path):
        zeros = tmp_path / "zeros.csv"
        write_csv_matrix(np.zeros((5, 8)), zeros)
        out = tmp_path / "run"
        assert run_cli(*solve_args(out, zeros)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["iterations"] == 1
        assert report["results"]["final_objective"] == 0.0
        assert report["results"]["tev"] is None  # no spectrum to compare against

    def test_huge_tolerance_stops_after_one_sweep(self, tmp_path, small_csv):
        out = tmp_path / "run"
        assert run_cli(*solve_args(out, small_csv, tol=1e9)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["stop_reason"] == "tolerance"
        assert report["results"]["iterations"] == 1

    def test_identical_runs_are_byte_identical(self, tmp_path, small_csv):
        run_cli(*solve_args(tmp_path / "a", small_csv))
        run_cli(*solve_args(tmp_path / "b", small_csv))
        assert (tmp_path / "a" / "trace.csv").read_bytes() == (
            tmp_path / "b" / "trace.csv"
        ).read_bytes()
        ra = json.loads((tmp_path / "a" / "report.json").read_text())
        rb = json.loads((tmp_path / "b" / "report.json").read_text())
        ra.pop("timing")
        rb.pop("timing")
        assert ra == rb

    def test_libsvm_input(self, tmp_path, blobs_libsvm):
        out = tmp_path / "run"
        code = run_cli("solve", "--out", out, "--libsvm", blobs_libsvm, "--k", 2,
                       "--beta", 20)
        assert code == 0

    def test_missing_dataset_is_data_error(self, tmp_path):
        assert run_cli(*solve_args(tmp_path / "o", tmp_path / "nope.csv")) == 3

    @pytest.mark.parametrize("flag", ["--data", "--libsvm"])
    def test_undecodable_byte_is_data_error(self, tmp_path, small_csv, blobs_libsvm,
                                            flag, capsys):
        source = small_csv if flag == "--data" else blobs_libsvm
        bad = insert_undecodable_byte(source, tmp_path / "bad")
        assert run_cli("solve", "--out", tmp_path / "o", flag, bad, "--k", 2,
                       "--beta", 20) == 3
        assert "0xff is not ASCII" in capsys.readouterr().err

    @pytest.mark.parametrize("index", HUGE_INDICES)
    def test_huge_index_is_data_error(self, tmp_path, index, capsys):
        # once an uncaught ValueError from allocating the dense array
        path = huge_index_libsvm(tmp_path, index)
        assert run_cli("solve", "--out", tmp_path / "o", "--libsvm", path, "--k", 2,
                       "--beta", 20) == 3
        assert f"line 2: index {index} is too large" in capsys.readouterr().err

    def test_data_and_libsvm_together_rejected(self, tmp_path, small_csv,
                                               blobs_libsvm):
        argv = solve_args(tmp_path / "o", small_csv) + ["--libsvm", str(blobs_libsvm)]
        assert run_cli(*argv) == 2

    def test_k_larger_than_d_is_config_error(self, tmp_path, small_csv):
        assert run_cli(*solve_args(tmp_path / "o", small_csv, k=50)) == 2

    def test_more_components_than_samples_is_config_error(self, tmp_path, capsys):
        # d >= K > n: a K-column start exists, but K exceeds min(d, n)
        data = tmp_path / "wide.csv"
        write_csv_matrix(np.random.default_rng(4).standard_normal((10, 3)), data)
        assert run_cli(*solve_args(tmp_path / "o", data, k=5)) == 2
        err = capsys.readouterr().err
        assert "solver rejected the setup" in err
        assert "Traceback" not in err

    def test_overflowing_norms_stay_finite(self, tmp_path, capsys):
        # ||X||_F, the criticality residual and the energies behind tev
        # square to beyond the float range at this scale; scaled before
        # squaring they stay finite, so the report stores numbers and check
        # can compare them
        data = tmp_path / "big.csv"
        write_csv_matrix(np.random.default_rng(0).standard_normal((5, 20)) * 1e200, data)
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("solve", "--out", out, "--data", data, "--k", 2, "--beta", 5) == 0
            results = json.loads((out / "report.json").read_text())["results"]
            assert np.isfinite(results["criticality"])
            assert 0.0 < results["tev"] <= 1.0
            capsys.readouterr()
            assert run_cli("check", "--run", out) == 0
        captured = capsys.readouterr()
        assert "report consistency: PASS" in captured.out
        assert "criticality: PASS" in captured.out
        assert "Warning" not in captured.err

    def test_failed_factorization_is_solver_error(self, tmp_path, small_csv,
                                                  monkeypatch, capsys):
        # the starting point factorizes; every SVD inside the solver fails
        real_svd = np.linalg.svd
        calls = []

        def svd_failing_after_first(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                return real_svd(*args, **kwargs)
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", svd_failing_after_first)
        assert run_cli(*solve_args(tmp_path / "o", small_csv)) == 4
        err = capsys.readouterr().err
        assert "solver failed" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_sign_step_is_solver_error(self, tmp_path, capsys):
        # X^T E / alpha overflows at this scale; the sign step's finiteness
        # check still runs on every sweep, so this is exit 4, not a result
        data = tmp_path / "huge.csv"
        write_csv_matrix(np.random.default_rng(26).standard_normal((6, 12)) * 1e303, data)
        assert run_cli(*solve_args(tmp_path / "o", data)) == 4
        err = capsys.readouterr().err
        assert "solver failed" in err
        assert "non-finite" in err

    def test_peak_memory_does_not_grow_with_max_iters(self, tmp_path):
        # solve writes no Q snapshot, so it must not keep one per sweep
        # (48 kB each at d = 3000, K = 2: 9 MB over 190 extra sweeps)
        data = tmp_path / "tall.csv"
        write_csv_matrix(np.random.default_rng(3).standard_normal((3000, 6)), data)
        peaks = []
        for sweeps in (10, 200):
            out = tmp_path / f"run{sweeps}"
            code, peak = traced_peak(run_cli, *solve_args(out, data, tol=1e-300,
                                                           max_iters=sweeps))
            peaks.append(peak)
            assert code == 0
            report = json.loads((out / "report.json").read_text())
            assert report["results"]["iterations"] == sweeps
        assert peaks[1] < peaks[0] + 2 * 2**20


# ---------------------------------------------------------------------------
# bench


class TestBench:
    def test_rows_means_and_pairing(self, tmp_path):
        out = tmp_path / "bench"
        code = run_cli("bench", "--out", out, "--d", 12, "--n", 40, "--k", 2,
                       "--sigma", 0.5, "--reps", 3, "--beta", 20, "--seed", 0)
        assert code == 0
        lines = (out / "bench.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["variant", "rep", "data_seed", "status"]
        body = [line.split(",") for line in lines[1:]]
        run_rows = [row for row in body if row[1] != "mean"]
        mean_rows = {row[0]: row for row in body if row[1] == "mean"}
        assert len(run_rows) == 6  # 3 reps x 2 variants
        assert set(mean_rows) == {"palme", "palm"}
        for variant in ("palme", "palm"):
            tevs = [float(row[4]) for row in run_rows if row[0] == variant]
            assert float(mean_rows[variant][4]) == float(np.mean(tevs))
        paired = (out / "paired.csv").read_text().splitlines()
        assert paired[0] == "rep,data_seed,tev_palme,tev_palm,tev_delta"
        assert len(paired) == 4
        for line in paired[1:]:
            fields = line.split(",")
            assert float(fields[4]) == pytest.approx(
                float(fields[2]) - float(fields[3]), abs=1e-15
            )

    def test_peak_memory_does_not_grow_with_max_iters(self, tmp_path):
        # bench writes no Q snapshot, so it must not keep one per sweep
        # (48 kB each at d = 3000, K = 2: 9 MB over 190 extra sweeps)
        peaks = []
        for sweeps in (10, 200):
            out = tmp_path / f"bench{sweeps}"
            code, peak = traced_peak(run_cli, "bench", "--out", out, "--d", 3000, "--n", 6,
                                     "--k", 2, "--sigma", 0.5, "--reps", 1, "--beta", 20,
                                     "--tol", 1e-300, "--max-iters", sweeps)
            peaks.append(peak)
            assert code == 0
            rows = (out / "bench.csv").read_text().splitlines()
            assert rows[1].split(",")[5] == str(sweeps)
        assert peaks[1] < peaks[0] + 2 * 2**20

    def test_overflowing_noise_is_config_error(self, tmp_path, capsys):
        assert run_cli("bench", "--out", tmp_path / "b", "--d", 3, "--n", 4,
                       "--k", 2, "--sigma", 1e308, "--beta", 20) == 2
        assert "invalid synthetic settings" in capsys.readouterr().err

    def test_variants_setting_is_config_error(self, tmp_path, capsys):
        # bench always runs both variants; a config that still picks them
        # fails instead of being ignored
        config = tmp_path / "bench.cfg"
        config.write_text("variants = palme\n")
        assert run_cli("bench", "--out", tmp_path / "b", "--config", config, "--d", 10,
                       "--n", 30, "--k", 2, "--sigma", 0.5, "--beta", 20) == 2
        assert "not recognized by bench: variants" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cluster


class TestCluster:
    def test_separable_blobs_cluster_perfectly(self, tmp_path, blobs_libsvm):
        out = tmp_path / "clu"
        code = run_cli("cluster", "--out", out, "--libsvm", blobs_libsvm,
                       "--reps", 3, "--beta", 20, "--seed", 0)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["subspace_dim_rule"] == "energy"
        assert report["results"]["clusters"] == 2
        assert report["results"]["mean_accuracy"] >= 0.95

    def test_k_override(self, tmp_path, blobs_libsvm):
        out = tmp_path / "clu"
        code = run_cli("cluster", "--out", out, "--libsvm", blobs_libsvm,
                       "--reps", 2, "--beta", 20, "--k", 3)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["subspace_dim"] == 3
        assert report["results"]["subspace_dim_rule"] == "flag"

    def test_k_below_two_rejected(self, tmp_path, blobs_libsvm):
        assert run_cli("cluster", "--out", tmp_path / "c", "--libsvm",
                       blobs_libsvm, "--beta", 20, "--k", 1) == 2

    @pytest.mark.parametrize("reps", [0, -1])
    def test_reps_below_one_is_config_error(self, tmp_path, blobs_libsvm, reps):
        # no repetition means no accuracy to average: mean_accuracy was NaN,
        # which is not valid JSON
        out = tmp_path / "c"
        assert run_cli("cluster", "--out", out, "--libsvm", blobs_libsvm,
                       "--beta", 20, "--reps", reps) == 2
        assert not (out / "report.json").exists()

    def test_single_class_is_data_error(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "one.txt"
        write_libsvm(
            LabeledDataset(DataMatrix(rng.standard_normal((5, 20))), np.ones(20, int)),
            path,
        )
        assert run_cli("cluster", "--out", tmp_path / "c", "--libsvm", path,
                       "--beta", 20) == 3

    def test_undecodable_byte_is_data_error(self, tmp_path, blobs_libsvm, capsys):
        bad = insert_undecodable_byte(blobs_libsvm, tmp_path / "bad.txt")
        assert run_cli("cluster", "--out", tmp_path / "c", "--libsvm", bad,
                       "--beta", 20) == 3
        assert "0xff is not ASCII" in capsys.readouterr().err

    @pytest.mark.parametrize("index", HUGE_INDICES)
    def test_huge_index_is_data_error(self, tmp_path, index, capsys):
        path = huge_index_libsvm(tmp_path, index)
        assert run_cli("cluster", "--out", tmp_path / "c", "--libsvm", path,
                       "--beta", 20) == 3
        assert f"line 2: index {index} is too large" in capsys.readouterr().err

    def test_two_repetitions_hold_one_data_copy_per_stage(self, tmp_path):
        # 40 x 4000 block text, one n x d float array 1.28 MB: each stage
        # keeps X and at most two n x d blocks of its own (the solve's P and
        # product buffer), so a copy of the parsed features kept past
        # centering, or a report's final_P kept into the next solve, would
        # cross the bound; both did once, for 6.25 blocks at the peak
        rng = np.random.default_rng(9)
        labels = np.arange(4000) % 4
        rate = np.where(np.arange(40)[:, None] // 10 == labels, 1.2, 0.15)
        path = tmp_path / "block.txt"
        write_libsvm(LabeledDataset(DataMatrix(rng.poisson(rate).astype(float)), labels), path)
        argv = ("cluster", "--libsvm", path, "--threshold", 0.3, "--reps", 2, "--beta", 20)
        # a first run loads what the command caches or imports on first use
        assert run_cli(*argv, "--out", tmp_path / "warm") == 0
        code, peak = traced_peak(run_cli, *argv, "--out", tmp_path / "c")
        assert code == 0
        assert peak < 4.5 * 4000 * 40 * 8


# ---------------------------------------------------------------------------
# reconstruct


def _structured_image(rng, side=24):
    # low-rank-plus-noise grayscale content so a 2-dim subspace captures it
    row = np.linspace(0.0, 1.0, side)
    pixels = 120.0 * np.outer(row, row) + 60.0 * np.outer(1 - row, row)
    pixels += rng.random((side, side)) * 20.0
    return GrayImage(np.clip(np.round(pixels), 0.0, 255.0))


class TestReconstruct:
    def test_identical_copies_reconstruct_exactly(self, tmp_path):
        rng = np.random.default_rng(3)
        clean = _structured_image(rng)
        clean_path = tmp_path / "clean.pgm"
        write_pgm(clean, clean_path)
        copies = tmp_path / "copies"
        copies.mkdir()
        for i in range(1, 10):
            write_pgm(clean, copies / f"img_{i}.pgm")
        out = tmp_path / "rec"
        code = run_cli("reconstruct", "--out", out, "--image", clean_path,
                       "--corrupted", copies)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["mean_rmse"] == pytest.approx(0.0, abs=1e-9)

    def test_generated_corruptions_are_deterministic(self, tmp_path):
        rng = np.random.default_rng(4)
        clean_path = tmp_path / "clean.pgm"
        write_pgm(_structured_image(rng), clean_path)
        for name in ("a", "b"):
            assert run_cli("reconstruct", "--out", tmp_path / name, "--image",
                           clean_path, "--seed", 11) == 0
        for i in range(1, 10):
            assert (tmp_path / "a" / f"corrupted_{i}.pgm").read_bytes() == (
                tmp_path / "b" / f"corrupted_{i}.pgm"
            ).read_bytes()
            assert (tmp_path / "a" / f"recon_{i}.pgm").read_bytes() == (
                tmp_path / "b" / f"recon_{i}.pgm"
            ).read_bytes()

    def test_reconstruction_cleans_corrupted_blocks(self, tmp_path):
        rng = np.random.default_rng(5)
        clean = _structured_image(rng)
        clean_path = tmp_path / "clean.pgm"
        write_pgm(clean, clean_path)
        out = tmp_path / "rec"
        assert run_cli("reconstruct", "--out", out, "--image", clean_path,
                       "--seed", 6) == 0
        report = json.loads((out / "report.json").read_text())
        # reconstructions must beat the corrupted images against the clean one
        for i, rmse in enumerate(report["results"]["rmse"], start=1):
            corrupted = read_pgm(out / f"corrupted_{i}.pgm")
            baseline = float(np.sqrt(np.mean((corrupted.pixels - clean.pixels) ** 2)))
            assert rmse < baseline

    def test_wrong_file_count_is_data_error(self, tmp_path):
        rng = np.random.default_rng(6)
        clean = _structured_image(rng)
        copies = tmp_path / "copies"
        copies.mkdir()
        for i in range(4):
            write_pgm(clean, copies / f"img_{i}.pgm")
        assert run_cli("reconstruct", "--out", tmp_path / "r", "--corrupted",
                       copies) == 3

    def test_requires_some_input(self, tmp_path):
        assert run_cli("reconstruct", "--out", tmp_path / "r") == 2

    def test_peak_memory_stays_below_six_stacks(self, tmp_path):
        # a 120 x 120 image: one d x n stack (d = 14400, n = 9) is 1.04 MB.
        # The peak, 5.3 stacks here, is in the solve: X, the sign block, the
        # product buffer, the d x 2K and d x K factors (0.44 and 0.22 of a
        # stack each at n = 9) and the flipped signs of a sweep that turns
        # 44% of them; after it the run holds X, final_P, the projection
        # and the rebuilt stack.  Keeping the corrupted images and their
        # column stack beside X, copying the centered stack into X and the
        # rebuilt one into its clip, peaked at 7.2 stacks
        clean_path = tmp_path / "clean.pgm"
        write_pgm(_structured_image(np.random.default_rng(7), side=120), clean_path)
        argv = ("reconstruct", "--image", clean_path, "--k", 2, "--max-iters", 20)
        # a first run loads what the command caches or imports on first use
        assert run_cli(*argv, "--out", tmp_path / "warm") == 0
        code, peak = traced_peak(run_cli, *argv, "--out", tmp_path / "r")
        assert code == 0
        assert peak < 6.0 * 14400 * 9 * 8

    def test_negative_p2_pixel_is_data_error(self, tmp_path, capsys):
        clean = tmp_path / "clean.pgm"
        clean.write_bytes(b"P2\n6 6\n255\n" + b"7 " * 35 + b"-1\n")
        assert run_cli("reconstruct", "--out", tmp_path / "r", "--image", clean) == 3
        assert "negative pixel value" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check


@pytest.fixture()
def finished_run(tmp_path, small_csv):
    out = tmp_path / "run"
    assert run_cli(*solve_args(out, small_csv)) == 0
    return out


@pytest.fixture()
def theory_run(tmp_path):
    # a theory-mode run that stops on tolerance after 42 sweeps, gamma* about 2.6e-9
    data = tmp_path / "d"
    assert run_cli("synth", "--out", data, "--d", 10, "--n", 40, "--k", 2,
                   "--sigma", 0.5, "--seed", 1) == 0
    out = tmp_path / "r"
    assert run_cli("solve", "--out", out, "--data", data / "X.csv", "--k", 2, "--theory",
                   "--beta-star", 1, "--beta-sup", 1e9, "--tol", 1e-8, "--seed", 1) == 0
    assert json.loads((out / "report.json").read_text())["results"]["iterations"] == 42
    return out


class TestCheck:
    def test_finished_run_passes(self, finished_run, capsys):
        assert run_cli("check", "--run", finished_run) == 0
        printed = capsys.readouterr().out
        assert "criticality: PASS" in printed
        assert "report consistency: PASS" in printed

    def test_theory_run_passes_decrease_audit(self, tmp_path, small_csv, capsys):
        out = tmp_path / "run"
        code = run_cli("solve", "--out", out, "--data", small_csv, "--k", 2,
                       "--alpha", 1e-6, "--beta-star", 1.0, "--beta-sup", 1e9,
                       "--theory", "--max-iters", 500, "--tol", 1e-10, "--seed", 2)
        assert code == 0
        assert run_cli("check", "--run", out) == 0
        assert "sufficient decrease: PASS" in capsys.readouterr().out

    def test_corrupt_report_json(self, finished_run):
        (finished_run / "report.json").write_text("{ not json")
        assert run_cli("check", "--run", finished_run) == 3

    def test_missing_report(self, tmp_path):
        assert run_cli("check", "--run", tmp_path) == 3

    def test_tampered_q_is_corrupt_artifact(self, finished_run):
        Q = read_csv_matrix(finished_run / "final_Q.csv")
        write_csv_matrix(Q * 1.1, finished_run / "final_Q.csv")
        assert run_cli("check", "--run", finished_run) == 3

    def test_tampered_p_fails_checks(self, finished_run, capsys):
        P = read_csv_matrix(finished_run / "final_P.csv")
        P[:, 0] = -P[:, 0]
        write_csv_matrix(P, finished_run / "final_P.csv")
        assert run_cli("check", "--run", finished_run) == 5
        assert "of them above alpha" in capsys.readouterr().out

    def test_stored_criticality_named_when_residual_not_recomputable(self, finished_run, capsys):
        stored = json.loads((finished_run / "report.json").read_text())["results"]["criticality"]
        P = read_csv_matrix(finished_run / "final_P.csv")
        P[:, 0] = -P[:, 0]
        write_csv_matrix(P, finished_run / "final_P.csv")
        assert run_cli("check", "--run", finished_run) == 5
        printed = capsys.readouterr().out
        assert (
            f"report consistency: FAIL (stored {stored:.3e}, "
            "but the residual could not be recomputed"
        ) in printed

    def test_stale_sign_block_is_explained(self, finished_run, capsys):
        # flip P where |X^T Q Q^T| is smallest and put alpha above it: the
        # sign step could have kept that sign, so check must say the alpha
        # condition fails there rather than only that P is inconsistent
        report_path = finished_run / "report.json"
        report = json.loads(report_path.read_text())
        X = read_csv_matrix(report["config"]["data"])
        X = X - X.mean(axis=1, keepdims=True)
        Q = read_csv_matrix(finished_run / "final_Q.csv")
        P = read_csv_matrix(finished_run / "final_P.csv")
        T = np.abs((X.T @ Q) @ Q.T)
        i, j = np.unravel_index(np.argmin(np.where(T > 1e-12, T, np.inf)), T.shape)
        P[i, j] = -P[i, j]
        write_csv_matrix(P, finished_run / "final_P.csv")
        report["config"]["alpha"] = 2.0 * float(T[i, j])
        report_path.write_text(json.dumps(report))
        assert run_cli("check", "--run", finished_run) == 5
        printed = capsys.readouterr().out
        assert "at 1 nonzero entries, all at or below alpha" in printed
        assert "the alpha condition fails" in printed

    def test_unevaluable_decrease_audit_fails(self, theory_run, capsys):
        # blank steps make every comparison with NaN False; the audit must
        # not read that as 42 steps without a violation
        lines = (theory_run / "trace.csv").read_text().splitlines()
        for k in range(1, len(lines) - 1):
            fields = lines[k + 1].split(",")
            fields[1] = repr(float(fields[1]) + 1000.0 * k)
            fields[3:6] = ["", "", ""]
            lines[k + 1] = ",".join(fields)
        (theory_run / "trace.csv").write_text("\n".join(lines) + "\n")
        assert run_cli("check", "--run", theory_run) == 5
        assert "sufficient decrease: FAIL (42 violations over 42 steps)" in (
            capsys.readouterr().out
        )

    def test_gamma_star_is_recomputed_not_trusted(self, theory_run, capsys):
        lines = (theory_run / "trace.csv").read_text().splitlines()
        fields = lines[3].split(",")
        fields[1] = lines[2].split(",")[1]  # Phi of k = 2 equal to k = 1
        lines[3] = ",".join(fields)
        (theory_run / "trace.csv").write_text("\n".join(lines) + "\n")
        assert run_cli("check", "--run", theory_run) == 5
        assert "sufficient decrease: FAIL (1 violations" in capsys.readouterr().out
        # gamma* = 1 makes kappa1 = alpha (1 - gamma*) / 2 zero, which would
        # hide the violation if check took gamma* from the report
        path = theory_run / "report.json"
        report = json.loads(path.read_text())
        report["results"]["gamma_star"] = 1.0
        path.write_text(json.dumps(report))
        assert run_cli("check", "--run", theory_run) == 5
        printed = capsys.readouterr().out
        assert "report consistency: FAIL" in printed
        assert "gamma_star stored 1.000000000e+00, recomputed" in printed
        assert "sufficient decrease: FAIL (1 violations" in printed

    @pytest.mark.parametrize("stored,shown", [(None, "null"), (0.0, "0.000000000e+00")])
    def test_missing_gamma_star_on_theory_run_fails_consistency(self, theory_run, stored,
                                                                 shown, capsys):
        # gamma* here is about 2.6e-9, so 0 is far from it in relative terms
        path = theory_run / "report.json"
        report = json.loads(path.read_text())
        report["results"]["gamma_star"] = stored
        path.write_text(json.dumps(report))
        assert run_cli("check", "--run", theory_run) == 5
        printed = capsys.readouterr().out
        assert f"gamma_star stored {shown}, recomputed" in printed
        assert "sufficient decrease: PASS" in printed

    def test_truncated_trace_on_theory_run(self, tmp_path, small_csv):
        out = tmp_path / "run"
        run_cli("solve", "--out", out, "--data", small_csv, "--k", 2,
                "--alpha", 1e-6, "--beta-star", 1.0, "--beta-sup", 1e9,
                "--theory", "--max-iters", 300, "--seed", 2)
        trace = (out / "trace.csv").read_text()
        (out / "trace.csv").write_text(trace[: len(trace) // 2].rsplit(",", 1)[0])
        assert run_cli("check", "--run", out) == 3

    @pytest.mark.parametrize("damage,message", [
        ("header", "trace file must start with header"),
        ("field", "trace row 1: bad numeric field"),
        ("k", "trace row 1: non-consecutive iteration 5"),
        ("empty", "trace file holds no iterations"),
        ("missing", "cannot read trace"),
    ])
    def test_malformed_trace_on_theory_run(self, tmp_path, small_csv, damage, message,
                                           capsys):
        out = tmp_path / "run"
        assert run_cli("solve", "--out", out, "--data", small_csv, "--k", 2,
                       "--beta-star", 1.0, "--beta-sup", 1e9, "--theory",
                       "--max-iters", 20, "--seed", 2) == 0
        path = out / "trace.csv"
        lines = path.read_text().splitlines()
        if damage == "header":
            lines[0] = lines[0].replace("phi", "psi")
        elif damage == "field":
            lines[2] = lines[2].replace(",", ",x", 1)
        elif damage == "k":
            lines[2] = "5" + lines[2][1:]
        elif damage == "empty":
            lines = lines[:1]
        if damage == "missing":
            path.unlink()
        else:
            path.write_text("\n".join(lines) + "\n")
        assert run_cli("check", "--run", out) == 3
        assert message in capsys.readouterr().err

    def test_theory_run_without_beta_sup_is_corrupt(self, tmp_path, small_csv, capsys):
        out = tmp_path / "run"
        assert run_cli("solve", "--out", out, "--data", small_csv, "--k", 2,
                       "--beta-star", 1.0, "--beta-sup", 1e9, "--theory",
                       "--max-iters", 50, "--seed", 2) == 0
        report = json.loads((out / "report.json").read_text())
        del report["config"]["beta_sup"]
        (out / "report.json").write_text(json.dumps(report))
        assert run_cli("check", "--run", out) == 3
        assert "corrupt report config" in capsys.readouterr().err

    def test_data_override(self, finished_run, small_csv, tmp_path):
        moved = tmp_path / "moved.csv"
        moved.write_bytes((small_csv).read_bytes())
        assert run_cli("check", "--run", finished_run, "--data", moved) == 0

    def test_undecodable_data_override_is_data_error(self, finished_run, small_csv,
                                                     tmp_path, capsys):
        bad = insert_undecodable_byte(small_csv, tmp_path / "bad.csv")
        assert run_cli("check", "--run", finished_run, "--data", bad) == 3
        assert "0xff is not ASCII" in capsys.readouterr().err

    def test_data_override_of_another_shape_is_data_error(self, finished_run, tmp_path,
                                                          capsys):
        other = tmp_path / "other.csv"
        write_csv_matrix(np.random.default_rng(0).standard_normal((7, 60)), other)
        assert run_cli("check", "--run", finished_run, "--data", other) == 3
        assert "do not fit the 7 x 60 dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("data", 0), ("data", True), ("data", ["x"]),
                                           ("libsvm", 0)])
    def test_non_string_dataset_path_is_corrupt(self, finished_run, small_csv, key, value):
        # an int path once named a file descriptor: 0 read X from stdin and
        # True tried to read stdout, so run a child with the dataset on stdin
        path = finished_run / "report.json"
        report = json.loads(path.read_text())
        del report["config"]["data"]
        report["config"][key] = value
        path.write_text(json.dumps(report))
        src = str(Path(l1subspace.__file__).parents[1])
        argv = [sys.executable, "-m", "l1subspace.cli", "check", "--run", str(finished_run)]
        with open(small_csv, "rb") as stdin:
            done = subprocess.run(argv, stdin=stdin, capture_output=True, text=True,
                                  timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 3, done.stderr
        assert done.stderr == f"error: corrupt report: {key!r} is not a string\n"

    @pytest.mark.parametrize("theory", ["false", 1])
    def test_non_boolean_theory_is_corrupt(self, theory_run, theory, capsys):
        # a truthy "false" once ran the decrease audit as if theory were on
        path = theory_run / "report.json"
        report = json.loads(path.read_text())
        report["config"]["theory"] = theory
        path.write_text(json.dumps(report))
        assert run_cli("check", "--run", theory_run) == 3
        assert "theory_mode must be a bool" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["gamma", "max_iters", "alpha"])
    def test_boolean_number_is_corrupt(self, finished_run, key, capsys):
        # true is no number, although Python counts a bool as an int
        path = finished_run / "report.json"
        report = json.loads(path.read_text())
        report["config"][key] = True
        path.write_text(json.dumps(report))
        assert run_cli("check", "--run", finished_run) == 3
        assert "error: corrupt report config" in capsys.readouterr().err

    def test_report_naming_both_datasets_is_corrupt(self, finished_run, small_csv, capsys):
        path = finished_run / "report.json"
        report = json.loads(path.read_text())
        report["config"]["libsvm"] = str(small_csv)
        path.write_text(json.dumps(report))
        assert run_cli("check", "--run", finished_run) == 3
        assert capsys.readouterr().err == (
            "error: corrupt report: config names both 'data' and 'libsvm'\n")

    def test_undecodable_report_is_corrupt(self, finished_run, capsys):
        report = finished_run / "report.json"
        insert_undecodable_byte(report, report)
        assert run_cli("check", "--run", finished_run) == 3
        assert "corrupt report JSON" in capsys.readouterr().err

    def test_undecodable_trace_is_corrupt(self, tmp_path, small_csv, capsys):
        out = tmp_path / "run"
        assert run_cli("solve", "--out", out, "--data", small_csv, "--k", 2,
                       "--beta-star", 1.0, "--beta-sup", 1e9, "--theory",
                       "--max-iters", 50, "--seed", 2) == 0
        insert_undecodable_byte(out / "trace.csv", out / "trace.csv")
        assert run_cli("check", "--run", out) == 3
        assert "corrupt trace" in capsys.readouterr().err

    @pytest.mark.parametrize("entry,value", [("config", [1]), ("results", None),
                                             ("results", "done")])
    def test_non_object_report_entry_is_corrupt(self, finished_run, entry, value, capsys):
        path = finished_run / "report.json"
        report = json.loads(path.read_text())
        report[entry] = value
        path.write_text(json.dumps(report))
        assert run_cli("check", "--run", finished_run) == 3
        assert f"corrupt report: '{entry}' is not a JSON object" in capsys.readouterr().err

    def test_non_object_report_is_corrupt(self, finished_run):
        (finished_run / "report.json").write_text("5\n")
        assert run_cli("check", "--run", finished_run) == 3

    def test_non_numeric_stored_criticality_is_corrupt(self, finished_run, capsys):
        path = finished_run / "report.json"
        report = json.loads(path.read_text())
        report["results"]["criticality"] = "small"
        path.write_text(json.dumps(report))
        assert run_cli("check", "--run", finished_run) == 3
        assert "'criticality' is not a number" in capsys.readouterr().err

    def test_wrong_final_objective_fails_consistency(self, finished_run, capsys):
        path = finished_run / "report.json"
        report = json.loads(path.read_text())
        report["results"]["final_objective"] *= 2.0
        path.write_text(json.dumps(report))
        assert run_cli("check", "--run", finished_run) == 5
        printed = capsys.readouterr().out
        assert "criticality: PASS" in printed
        assert "report consistency: FAIL" in printed
        assert "final_objective stored" in printed

    def test_missing_final_objective_is_corrupt(self, finished_run):
        path = finished_run / "report.json"
        report = json.loads(path.read_text())
        del report["results"]["final_objective"]
        path.write_text(json.dumps(report))
        assert run_cli("check", "--run", finished_run) == 3

    def test_falsified_alpha_condition_fails_consistency(self, finished_run, capsys):
        # check recomputes the alpha test and once only printed it
        path = finished_run / "report.json"
        report = json.loads(path.read_text())
        holds = report["results"]["alpha_condition_holds"]
        report["results"]["alpha_condition_holds"] = not holds
        path.write_text(json.dumps(report))
        assert run_cli("check", "--run", finished_run) == 5
        printed = capsys.readouterr().out
        assert "criticality: PASS" in printed
        assert "report consistency: FAIL" in printed
        assert (f"; alpha_condition_holds stored {json.dumps(not holds)}, "
                f"recomputed {json.dumps(holds)})") in printed

    @pytest.mark.parametrize("value", ["true", 1, None])
    def test_non_boolean_alpha_condition_is_corrupt(self, finished_run, value, capsys):
        path = finished_run / "report.json"
        report = json.loads(path.read_text())
        report["results"]["alpha_condition_holds"] = value
        path.write_text(json.dumps(report))
        assert run_cli("check", "--run", finished_run) == 3
        assert capsys.readouterr().err == (
            "error: corrupt report: 'alpha_condition_holds' is not a boolean\n")

    def test_falsified_tev_fails_consistency(self, finished_run, capsys):
        path = finished_run / "report.json"
        report = json.loads(path.read_text())
        assert 0.5 < report["results"]["tev"] <= 1.0
        report["results"]["tev"] = 0.01
        path.write_text(json.dumps(report))
        assert run_cli("check", "--run", finished_run) == 5
        printed = capsys.readouterr().out
        assert "criticality: PASS" in printed
        assert "report consistency: FAIL" in printed
        assert "; tev stored 1.000000000e-02, recomputed" in printed

    def test_null_tev_is_not_recomputed(self, finished_run, capsys):
        # a run with --no-tev stores null, which check leaves alone
        path = finished_run / "report.json"
        report = json.loads(path.read_text())
        report["results"]["tev"] = None
        path.write_text(json.dumps(report))
        assert run_cli("check", "--run", finished_run) == 0
        assert "report consistency: PASS" in capsys.readouterr().out


    # a falsified iterations, final_gap or stop_reason once passed check
    @pytest.mark.parametrize("field,value,shown", [
        ("iterations", 7, "iterations stored 7, recomputed "),
        ("final_gap", 123.0, "final_gap stored 1.230000000e+02, recomputed "),
        ("stop_reason", "max_iters", 'stop_reason stored "max_iters", recomputed "tolerance"'),
    ])
    def test_falsified_stop_field_fails_consistency(self, finished_run, field, value, shown,
                                                    capsys):
        path = finished_run / "report.json"
        report = json.loads(path.read_text())
        assert report["results"]["stop_reason"] == "tolerance"
        assert report["results"][field] != value
        report["results"][field] = value
        path.write_text(json.dumps(report))
        assert run_cli("check", "--run", finished_run) == 5
        printed = capsys.readouterr().out
        assert "criticality: PASS" in printed
        assert "report consistency: FAIL" in printed
        assert f"; {shown}" in printed

    def test_stop_at_max_iters_needs_max_iters_sweeps(self, tmp_path, small_csv, capsys):
        out = tmp_path / "run"
        assert run_cli(*solve_args(out, small_csv, max_iters=3)) == 0
        path = out / "report.json"
        report = json.loads(path.read_text())
        assert report["results"]["stop_reason"] == "max_iters"
        report["config"]["max_iters"] = 4
        path.write_text(json.dumps(report))
        run_cli("check", "--run", out)
        assert '; stop_reason stored "max_iters", recomputed null' in capsys.readouterr().out

    @pytest.mark.parametrize("column", [1, 2, 3, 4, 5])
    def test_edited_trace_row_fails_consistency(self, finished_run, column, capsys):
        # phi, h, dP, dQ or gap of one row, moved so it no longer follows
        # from the row's other fields as solve computes them
        path = finished_run / "trace.csv"
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[column] = repr(float(fields[column]) * (1.0 + 1e-12) + 1e-300)
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("check", "--run", finished_run) == 5
        # an edited dQ also breaks the next row, whose gap reads it as dQ_prev
        shown = f"{2 if column == 4 else 1} of {len(lines) - 1} trace rows"
        assert f"; {shown} break solve's formulas, first 2)" in capsys.readouterr().out

    def test_edited_last_h_fails_consistency(self, finished_run, capsys):
        # the last row's h and phi moved together, so the row stays
        # self-consistent but no longer matches h(final_P, final_Q)
        path = finished_run / "trace.csv"
        beta = json.loads((finished_run / "report.json").read_text())["config"]["beta"]
        lines = path.read_text().splitlines()
        k, phi, h, dP, dQ, gap = lines[-1].split(",")
        h = float(h) * 1.01
        phi = h + 0.5 * beta * float(dQ) * float(dQ)
        lines[-1] = ",".join([k, repr(phi), repr(h), dP, dQ, gap])
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("check", "--run", finished_run) == 5
        printed = capsys.readouterr().out
        assert f"; last trace h stored {h:.9e}, recomputed" in printed
        assert "formulas" not in printed

    def test_missing_trace_on_practical_run_is_data_error(self, finished_run, capsys):
        (finished_run / "trace.csv").unlink()
        assert run_cli("check", "--run", finished_run) == 3
        assert "cannot read trace" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value,kind", [
        ("iterations", 7.0, "an integer"), ("iterations", True, "an integer"),
        ("final_gap", None, "a number"), ("stop_reason", 0, "a string"),
    ])
    def test_mistyped_stop_field_is_corrupt(self, finished_run, field, value, kind, capsys):
        path = finished_run / "report.json"
        report = json.loads(path.read_text())
        report["results"][field] = value
        path.write_text(json.dumps(report))
        assert run_cli("check", "--run", finished_run) == 3
        assert capsys.readouterr().err == f"error: corrupt report: {field!r} is not {kind}\n"


# ---------------------------------------------------------------------------
# the audit behind check, fed artifacts directly


@pytest.fixture()
def artifacts(tmp_path):
    """(X, final_P, final_Q, config, results, trace path) of a practical run
    made by the library, as check reads them from a run directory."""
    rng = np.random.default_rng(42)
    X = center_features(DataMatrix(rng.standard_normal((12, 50))))
    config = SolverConfig(alpha=1e-6, beta_mode=FixedBeta(20.0), tol=1e-8)
    report = solve(X, config, random_stiefel(12, 2, 1))
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text(trace_csv_text(report.trace))
    results = {
        "final_objective": report.final_objective,
        "iterations": report.iterations,
        "stop_reason": report.stop_reason,
        "final_gap": report.final_gap,
        "criticality": report.criticality,
        "alpha_condition_holds": report.alpha_condition_holds,
        "tev": None,
    }
    return X, report.final_P, report.final_Q, config, results, str(trace_path)


def verdicts(artifacts):
    return {name: (passed, detail) for name, passed, detail in _audit(*artifacts)}


class TestAudit:
    def test_genuine_run_passes_every_row(self, artifacts):
        rows = list(_audit(*artifacts))
        assert [(name, passed) for name, passed, _ in rows] == [
            ("alpha condition", None), ("sufficient decrease", None),
            ("criticality", True), ("report consistency", True)]

    @pytest.mark.parametrize("field,shift", [
        ("iterations", 1), ("final_gap", 1e-3), ("final_objective", -1.0),
        ("criticality", 1.0)])
    def test_shifted_number_fails_consistency(self, artifacts, field, shift):
        X, P, Q, config, results, trace_path = artifacts
        results = {**results, field: results[field] + shift}
        passed, detail = verdicts((X, P, Q, config, results, trace_path))["report consistency"]
        assert passed is False
        lead = f"stored {results[field]:.3e}, recomputed "
        assert detail.startswith(lead) if field == "criticality" else f"; {field} stored " in detail

    def test_flipped_sign_fails_criticality_and_last_h(self, artifacts):
        X, P, Q, config, results, trace_path = artifacts
        flipped = P.values.copy()
        flipped[:, 0] = -flipped[:, 0]
        found = verdicts((X, SignMatrix(flipped), Q, config, results, trace_path))
        assert found["criticality"][0] is False
        assert "sign block inconsistent" in found["criticality"][1]
        assert "; last trace h stored" in found["report consistency"][1]

    def test_row_that_breaks_a_formula_is_named(self, artifacts, tmp_path):
        X, P, Q, config, results, trace_path = artifacts
        trace = parse_trace_csv(Path(trace_path).read_text())
        trace.gap[2] *= 2.0
        path = tmp_path / "edited.csv"
        path.write_text(trace_csv_text(trace))
        passed, detail = verdicts((X, P, Q, config, results, str(path)))["report consistency"]
        assert passed is False
        assert detail.endswith(f"; 1 of {len(trace)} trace rows break solve's formulas, first 2")

    def test_blank_step_breaks_the_formulas(self, artifacts):
        trace = parse_trace_csv(Path(artifacts[5]).read_text())
        assert _off_rows(trace, 20.0) == []
        trace.dQ[1] = math.nan
        assert _off_rows(trace, 20.0) == [1, 2]  # dQ[1] is row 2's dQ_prev
        trace.dP[0] = 0.0
        assert _off_rows(trace, 20.0) == [0, 1, 2]

    def test_flip_counts_must_be_whole(self, artifacts):
        trace = parse_trace_csv(Path(artifacts[5]).read_text())
        row = next(k for k in range(1, len(trace)) if trace.dP[k] > 0.0)
        m = (trace.dP[row] / 2.0) ** 2
        trace.dP[row] = 2.0 * math.sqrt(m + 0.5)
        trace.gap[row] = math.sqrt(trace.dP[row] ** 2 + trace.dQ[row] ** 2
                                   + (trace.dQ[row - 1] if row > 1 else 0.0) ** 2)
        assert _off_rows(trace, 20.0) == [row]

    def test_corrupt_field_ends_the_audit_after_the_alpha_row(self, artifacts):
        X, P, Q, config, results, trace_path = artifacts
        rows = _audit(X, P, Q, config, {**results, "stop_reason": None}, trace_path)
        assert next(rows)[0] == "alpha condition"
        with pytest.raises(CliError) as raised:
            next(rows)
        assert raised.value.code == 3
        assert str(raised.value) == "corrupt report: 'stop_reason' is not a string"

    def test_theory_run_audits_the_decrease(self, artifacts, tmp_path):
        X = artifacts[0]
        config = SolverConfig(alpha=1e-6, beta_mode=AdaptiveBeta(1.0, 1e9), tol=1e-8,
                              theory_mode=True)
        report = solve(X, config, random_stiefel(12, 2, 1))
        (tmp_path / "theory.csv").write_text(trace_csv_text(report.trace))
        results = {"final_objective": report.final_objective,
                   "iterations": report.iterations, "stop_reason": report.stop_reason,
                   "final_gap": report.final_gap, "criticality": report.criticality,
                   "alpha_condition_holds": report.alpha_condition_holds,
                   "tev": None, "gamma_star": report.trace.gamma_star}
        rows = list(_audit(X, report.final_P, report.final_Q, config, results,
                           str(tmp_path / "theory.csv")))
        assert [(name, passed) for name, passed, _ in rows] == [
            ("alpha condition", None), ("criticality", True),
            ("report consistency", True), ("sufficient decrease", True)]


# ---------------------------------------------------------------------------
# library errors mapped to exit codes

# one input per mapped failure that no other test names:
# (argv, exit code, the prefix the error line starts with)
MAPPED_FAILURES = {
    "config-key": ("solve --out {out} --config {bad_k} --data {X} --beta 20", 2,
                   "config key k"),
    "out-dir": ("synth --out {file}/sub --d 6 --n 12 --k 2 --sigma 0.5", 3,
                "cannot create output directory"),
    "features": ("solve --out {out} --data {missing} --k 2 --beta 20", 3,
                 "cannot load features"),
    "k-zero": ("solve --out {out} --data {X} --k 0 --beta 20", 2,
               "invalid subspace dimension"),
    "solve-k-negative": ("solve --out {out} --data {X} --k -1 --beta 20", 2,
                         "invalid subspace dimension"),
    "reconstruct-k-negative": ("reconstruct --out {out} --image {clean} --k -1", 2,
                               "invalid subspace dimension"),
    "dataset": ("cluster --out {out} --libsvm {missing} --beta 20", 3, "cannot load dataset"),
    "energy": ("cluster --out {out} --libsvm {flat} --beta 20", 3, "energy rule failed"),
    "list-corrupted": ("reconstruct --out {out} --corrupted {file}", 3,
                       "cannot list corrupted directory"),
    "corrupted-pgm": ("reconstruct --out {out} --corrupted {one_bad}", 3,
                      "cannot read img_9.pgm"),
    "clean-image": ("reconstruct --out {out} --image {missing}", 3, "cannot read clean image"),
    "clean-unusable": ("reconstruct --out {out} --image {tiny}", 3, "clean image unusable"),
    "disagree": ("reconstruct --out {out} --corrupted {two_sizes}", 3,
                 "corrupted images disagree"),
    "report": ("check --run {empty}", 3, "cannot read report"),
    "artifacts": ("check --run {no_q}", 3, "corrupt run artifacts"),
}


@pytest.fixture(scope="module")
def mapped_inputs(tmp_path_factory, small_csv):
    root = tmp_path_factory.mktemp("mapped")
    names = ("bad_k", "file", "flat", "clean", "tiny", "one_bad", "two_sizes", "empty", "no_q",
             "missing")
    paths = {name: root / name for name in names}
    paths["bad_k"].write_text("k = x\n")
    paths["file"].write_text("a regular file\n")
    paths["flat"].write_text("1 1:1\n2 1:1\n")  # LIBSVM data that centers to zero
    write_pgm(GrayImage(np.arange(144.0).reshape(12, 12)), paths["clean"])
    write_pgm(GrayImage(np.full((5, 5), 7.0)), paths["tiny"])
    for name in ("one_bad", "two_sizes", "empty"):
        paths[name].mkdir()
    for i in range(1, 10):
        write_pgm(GrayImage(np.full((6, 6), 7.0)), paths["one_bad"] / f"img_{i}.pgm")
        write_pgm(GrayImage(np.full((6 + 6 * (i % 2), 6), 7.0)),
                  paths["two_sizes"] / f"img_{i}.pgm")
    (paths["one_bad"] / "img_9.pgm").write_bytes(b"P5\nnot a header\n")
    assert run_cli(*solve_args(paths["no_q"], small_csv)) == 0
    (paths["no_q"] / "final_Q.csv").unlink()
    return {**paths, "X": small_csv}


@pytest.mark.parametrize("args,code,prefix", MAPPED_FAILURES.values(), ids=MAPPED_FAILURES)
def test_library_error_is_mapped_to_its_exit_code(tmp_path, mapped_inputs, args, code,
                                                   prefix, capsys):
    argv = args.format(out=tmp_path / "out", **mapped_inputs).split()
    assert run_cli(*argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prefix}: ")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# SVDs of the data matrix

THEORY = "--beta-star 1 --beta-sup 1e9 --theory --max-iters 50"

# each command's SVDs of its d x n data matrix X, in order: True for a
# factorization with vectors (theory mode's Sigma V^T), False for the
# singular values alone (tev, the energy rule, gamma* in check);
# (argv, shape of X, compute_uv of each SVD of X)
SVD_COUNTS = {
    "solve": ("solve --out {out} --data {X} --k 2 --beta 20", (20, 60), [False]),
    "theory-solve": (f"solve --out {{out}} --data {{X}} --k 2 {THEORY}", (20, 60), [True]),
    "theory-check": ("check --run {theory_run}", (20, 60), [False]),
    "cluster": ("cluster --out {out} --libsvm {svm} --beta 20 --reps 2", (10, 60), [False]),
    "theory-cluster": (f"cluster --out {{out}} --libsvm {{svm}} --reps 10 {THEORY}",
                       (10, 60), [False, True]),
    "theory-bench": (f"bench --out {{out}} --d 6 --n 40 --k 2 --sigma 0.5 --reps 3 {THEORY}",
                     (6, 40), [True, True, True]),
}


@pytest.mark.parametrize("args,shape,want", SVD_COUNTS.values(), ids=SVD_COUNTS)
def test_each_command_factorizes_each_dataset_once(tmp_path, small_csv, blobs_libsvm,
                                                   monkeypatch, args, shape, want):
    # every reader of X's singular values shares X's cached spectrum; the
    # factor with vectors is taken only where theory mode needs Sigma V^T
    theory_run = tmp_path / "theory"
    if "{theory_run}" in args:
        # a run that ends within check's criticality bound, so check passes
        argv = (f"solve --out {theory_run} --data {small_csv} --k 2 {THEORY} "
                "--max-iters 500 --tol 1e-10 --seed 2").split()
        assert run_cli(*argv) == 0
    real_svd = np.linalg.svd
    seen = []

    def counting_svd(a, *rest, **kwargs):
        if np.shape(a) == shape:
            seen.append(kwargs.get("compute_uv", True))
        return real_svd(a, *rest, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    argv = args.format(out=tmp_path / "out", X=small_csv, svm=blobs_libsvm,
                       theory_run=theory_run).split()
    assert run_cli(*argv) == 0
    assert seen == want


# ---------------------------------------------------------------------------
# output files


@pytest.fixture()
def umask_022():
    previous = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(previous)


def test_outputs_get_the_mode_open_gives(tmp_path, umask_022):
    # every file is created as open() would create it, 0o666 less the umask
    syn = tmp_path / "syn"
    assert run_cli("synth", "--out", syn, "--d", 8, "--n", 20, "--k", 2,
                   "--sigma", 0.3, "--seed", 1) == 0
    run = tmp_path / "run"
    assert run_cli(*solve_args(run, syn / "X.csv")) == 0
    library = tmp_path / "library.csv"
    write_csv_matrix(np.eye(2), library)
    written = sorted(syn.iterdir()) + sorted(run.iterdir()) + [library]
    assert len(written) == 10
    modes = [(path.name, oct(stat.S_IMODE(path.stat().st_mode))) for path in written]
    assert modes == [(path.name, "0o644") for path in written]
