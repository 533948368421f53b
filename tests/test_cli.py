"""End-to-end tests of the command-line interface, run in process."""

import json
import hashlib
import os
import stat
import tracemalloc

import numpy as np
import pytest

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
from l1subspace.cli import main


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

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_norms_are_null_and_fail_check(self, tmp_path, capsys):
        # the objective is finite at this scale, but ||X||_F and the
        # criticality residual overflow: the report stores null, not the
        # non-JSON Infinity, and inf <= inf is no pass
        data = tmp_path / "big.csv"
        write_csv_matrix(np.random.default_rng(0).standard_normal((5, 20)) * 1e200, data)
        out = tmp_path / "run"
        assert run_cli("solve", "--out", out, "--data", data, "--k", 2, "--beta", 5) == 0

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert report["results"]["criticality"] is None
        capsys.readouterr()
        assert run_cli("check", "--run", out) == 5
        printed = capsys.readouterr().out
        assert "criticality: PASS" not in printed
        assert "criticality: FAIL" in printed

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
            tracemalloc.start()
            try:
                code = run_cli(*solve_args(out, data, tol=1e-300, max_iters=sweeps))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
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

    def test_single_variant(self, tmp_path):
        out = tmp_path / "bench"
        code = run_cli("bench", "--out", out, "--d", 10, "--n", 30, "--k", 2,
                       "--sigma", 0.5, "--reps", 2, "--beta", 20,
                       "--variants", "palme")
        assert code == 0
        assert not (out / "paired.csv").exists()

    def test_peak_memory_does_not_grow_with_max_iters(self, tmp_path):
        # bench writes no Q snapshot, so it must not keep one per sweep
        # (48 kB each at d = 3000, K = 2: 9 MB over 190 extra sweeps)
        peaks = []
        for sweeps in (10, 200):
            out = tmp_path / f"bench{sweeps}"
            tracemalloc.start()
            try:
                code = run_cli("bench", "--out", out, "--d", 3000, "--n", 6, "--k", 2,
                               "--sigma", 0.5, "--reps", 1, "--variants", "palme",
                               "--beta", 20, "--tol", 1e-300, "--max-iters", sweeps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
            rows = (out / "bench.csv").read_text().splitlines()
            assert rows[1].split(",")[5] == str(sweeps)
        assert peaks[1] < peaks[0] + 2 * 2**20

    def test_unknown_variant_is_config_error(self, tmp_path):
        assert run_cli("bench", "--out", tmp_path / "b", "--d", 10, "--n", 30,
                       "--k", 2, "--sigma", 0.5, "--beta", 20,
                       "--variants", "sgd") == 2


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
