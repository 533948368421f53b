"""Tests for synthetic data generation, text formats, and image handling."""

import contextlib
import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import l1subspace
from l1subspace import (
    DataMatrix,
    GrayImage,
    LabeledDataset,
    center_features,
    corrupt_image,
    gen_synthetic,
    parse_libsvm,
    read_csv_matrix,
    read_pgm,
    unstack_images,
    write_csv_matrix,
    write_libsvm,
    write_pgm,
)
from l1subspace.data import (
    OUTLIER_HIGH,
    OUTLIER_LOW,
    add_block_outliers,
    image_columns,
    _laplace_from_uniform,
    _rescale_to_range,
)
from l1subspace.errors import DomainError, NumericError, ParseError, ShapeError
from l1subspace.linalg import polar_factor

from traced import traced_peak


# ---------------------------------------------------------------------------
# Laplace sampling by the inverse CDF, as gen_synthetic draws its noise


class TestLaplaceSample:
    def test_median_uniform_gives_zero(self):
        assert _laplace_from_uniform(3.0, 0.5) == 0.0

    def test_known_quantile_equals_scale(self):
        # u = 1 - e^{-1}/2 makes 1 - 2|u - 1/2| = e^{-1}, so the sample is
        # exactly -b * ln(e^{-1}) = b
        u = 1.0 - math.exp(-1.0) / 2.0
        assert _laplace_from_uniform(2.5, u) == pytest.approx(2.5, abs=1e-12)

    def test_lower_quartile(self):
        # u = 1/4: sign is -1 and 1 - 2|u - 1/2| = 1/2, giving -b ln 2
        assert _laplace_from_uniform(2.0, 0.25) == pytest.approx(-2.0 * math.log(2.0))

    def test_antisymmetry(self):
        for u in (0.01, 0.3, 0.499, 0.75, 0.99):
            assert _laplace_from_uniform(1.7, u) == pytest.approx(
                -_laplace_from_uniform(1.7, 1.0 - u), abs=1e-12
            )

    def test_array_input_matches_scalar(self):
        us = np.array([0.1, 0.5, 0.9])
        out = _laplace_from_uniform(1.2, us.copy())  # the draw is overwritten
        assert out.shape == (3,)
        for i in range(3):
            assert out[i] == _laplace_from_uniform(1.2, float(us[i]))

    def test_moments_match_closed_form(self):
        # mean 0 and variance 2 b^2, checked against 10^6 seeded uniforms
        rng = np.random.default_rng(7)
        b = 1.5
        samples = _laplace_from_uniform(b, rng.random(1_000_000))
        assert abs(samples.mean()) <= 4.0 * math.sqrt(2.0) * b / 1000.0
        assert samples.var() == pytest.approx(2.0 * b * b, rel=0.02)


# ---------------------------------------------------------------------------
# synthetic generator


class TestGenSynthetic:
    def test_shapes_and_centering(self):
        X, truth = gen_synthetic(12, 40, 3, 0.5, seed=0)
        assert isinstance(X, DataMatrix)
        assert (X.d, X.n) == (12, 40)
        assert X.centered
        row_means = X.values.mean(axis=1)
        assert np.max(np.abs(row_means)) <= 1e-12
        assert truth.Q_true.values.shape == (12, 3)
        assert truth.sigma == 0.5 and truth.seed == 0

    def test_deterministic_per_seed(self):
        X1, t1 = gen_synthetic(8, 20, 2, 1.0, seed=42)
        X2, t2 = gen_synthetic(8, 20, 2, 1.0, seed=42)
        assert np.array_equal(X1.values, X2.values)
        assert np.array_equal(t1.Q_true.values, t2.Q_true.values)
        X3, _ = gen_synthetic(8, 20, 2, 1.0, seed=43)
        assert not np.array_equal(X1.values, X3.values)

    def test_noiseless_columns_lie_in_planted_span(self):
        X, truth = gen_synthetic(10, 30, 4, 0.0, seed=3)
        Q = truth.Q_true.values
        residual = X.values - Q @ (Q.T @ X.values)
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(X.values)
        assert truth.noiseless

    def test_noise_variance_scales_as_sigma_squared(self):
        # entries of Q_true S have mean square k/d, the noise adds sigma^2
        d, n, k, sigma = 100, 1000, 1, 2.0
        X, _ = gen_synthetic(d, n, k, sigma, seed=11)
        expected = k / d + sigma**2
        assert np.mean(X.values**2) == pytest.approx(expected, rel=0.05)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            gen_synthetic(4, 10, 5, 0.1, seed=0)  # k > d
        with pytest.raises(DomainError):
            gen_synthetic(4, 3, 4, 0.1, seed=0)  # k > n
        with pytest.raises(DomainError):
            gen_synthetic(4, 10, 2, -0.1, seed=0)
        with pytest.raises(DomainError):
            gen_synthetic(0, 10, 2, 0.1, seed=0)

    def test_overflowing_noise_raises_without_warnings(self):
        # the overflow is reported once, as DataMatrix's NumericError, not
        # also as numpy RuntimeWarnings from the noise and the centering
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="non-finite"):
                gen_synthetic(3, 4, 2, 1e308, 0)

    @pytest.mark.parametrize("shape", [(12, 40, 3, 0.5), (200, 500, 20, 0.5), (1, 9, 1, 2.0),
                                       (10, 30, 4, 0.0)])
    def test_in_place_build_keeps_the_bits_of_the_formula(self, shape):
        # the out-of-place formula the generator evaluated before it built
        # X in place: X = Q S + laplace(u), minus its row means
        d, n, k, sigma = shape
        rng = np.random.default_rng(5)
        Q = polar_factor(rng.standard_normal((d, k)))
        X = Q @ rng.standard_normal((k, n))
        if sigma > 0.0:
            u = rng.random((d, n))
            u = np.where(u == 0.0, 0.5, u)
            shifted = u - 0.5
            b = sigma / math.sqrt(2.0)
            X = X + -b * np.sign(shifted) * np.log1p(-2.0 * np.abs(shifted))
        X = X - X.mean(axis=1, keepdims=True)
        got, truth = gen_synthetic(d, n, k, sigma, 5)
        assert got.values.tobytes() == X.tobytes()
        assert truth.Q_true.values.tobytes() == Q.tobytes()

    def test_peak_stays_near_three_blocks(self):
        # X, its uniform draw and the noise: building the noise and the
        # centered X out of place, and copying X into the DataMatrix, peaked
        # at 6.08 blocks of 40 x 20000 floats
        (X, _), peak = traced_peak(gen_synthetic, 40, 20000, 3, 0.5, 0)
        assert peak < 3.2 * X.values.nbytes


class TestCenterFeatures:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((4, 7)) + 3.0
        centered = center_features(DataMatrix(raw))
        expected = np.empty_like(raw)
        for i in range(4):
            mean = sum(raw[i, j] for j in range(7)) / 7.0
            for j in range(7):
                expected[i, j] = raw[i, j] - mean
        assert np.allclose(centered.values, expected, atol=1e-12)
        assert centered.centered

    def test_does_not_mutate_input(self):
        raw = np.arange(6.0).reshape(2, 3)
        X = DataMatrix(raw)
        before = X.values.copy()
        center_features(X)
        assert np.array_equal(X.values, before)


# ---------------------------------------------------------------------------
# LIBSVM text


LIBSVM_FIXTURE = "+1 1:0.5 3:-2.25\n-1 2:1e3\n2 1:4.0\n"


class TestParseLibsvm:
    def test_dense_fixture(self):
        ds = parse_libsvm(io.StringIO(LIBSVM_FIXTURE))
        assert isinstance(ds, LabeledDataset)
        expected = np.array([[0.5, 0.0, 4.0], [0.0, 1e3, 0.0], [-2.25, 0.0, 0.0]])
        assert np.array_equal(ds.features.values, expected)
        assert np.array_equal(ds.labels, [1, -1, 2])
        assert not ds.features.centered

    def test_explicit_dimension_pads_zero_rows(self):
        ds = parse_libsvm(io.StringIO("1 1:2.0\n"), n_features=4)
        assert ds.features.values.shape == (4, 1)
        assert np.array_equal(ds.features.values[:, 0], [2.0, 0.0, 0.0, 0.0])

    def test_blank_lines_are_skipped(self):
        ds = parse_libsvm(io.StringIO("\n1 1:1.0\n\n-1 1:2.0\n\n"))
        assert ds.features.n == 2

    def test_feature_free_line_is_allowed(self):
        ds = parse_libsvm(io.StringIO("1\n-1 2:3.0\n"))
        assert ds.features.values.shape == (2, 2)
        assert np.array_equal(ds.features.values[:, 0], [0.0, 0.0])

    def test_real_label_rounds_with_warning(self):
        with pytest.warns(UserWarning, match="rounded"):
            ds = parse_libsvm(io.StringIO("1.5 1:1.0\n"))
        assert ds.labels[0] == 2

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text(LIBSVM_FIXTURE)
        ds = parse_libsvm(path)
        assert ds.features.values.shape == (3, 3)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("abc 1:1.0\n", "label"),
            ("1 1:1.0 1:2.0\n", "line 1"),
            ("1 3:1.0 2:2.0\n", "increase"),
            ("1 0:1.0\n", "1-based"),
            ("1 2\n", "idx:val"),
            ("1 2:xyz\n", "feature token"),
            ("1 2:inf\n", "non-finite"),
            ("", "no samples"),
            ("   \n\n", "no samples"),
        ],
    )
    def test_malformed_input_raises(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_libsvm(io.StringIO(text))

    @pytest.mark.parametrize("n_features", [0, -3, 2.5, True])
    def test_explicit_dimension_must_be_a_positive_integer(self, n_features):
        with pytest.raises(DomainError, match="n_features"):
            parse_libsvm(io.StringIO("1 1:1.0\n"), n_features=n_features)

    def test_index_beyond_given_dimension(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm(io.StringIO("1 1:1.0\n1 7:1.0\n"), n_features=5)

    def test_error_reports_true_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_libsvm(io.StringIO("1 1:1.0\n\n1 0:9\n"))

    @pytest.mark.parametrize("label", ["inf", "-inf", "nan", "1e300", "-1e19"])
    def test_label_beyond_int64_raises(self, label):
        # these once escaped as OverflowError or ValueError from int(round(.))
        with pytest.raises(ParseError, match="line 2: label .* out of range"):
            parse_libsvm(io.StringIO(f"1 1:1.0\n{label} 1:2.0\n"))

    def test_non_ascii_byte_names_its_offset(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"1 1:1.0\n2 1:\xff\n")
        with pytest.raises(ParseError, match="byte 12: 0xff is not ASCII"):
            parse_libsvm(path)

    @pytest.mark.parametrize(
        "index,fragment",
        [
            # beyond int64: once "ValueError: Maximum allowed dimension exceeded"
            (10**30, "is too large"),
            # 8 bytes an entry overflow the address space: once a ValueError
            (2 * 10**18, "is too large: a dense 2000000000000000000 x 2 array"),
        ],
    )
    def test_huge_index_names_its_line(self, index, fragment):
        text = f"1 1:1.0\n\n-1 2:1.0 {index}:1.0\n"
        with pytest.raises(ParseError, match=f"line 3: index {index} {fragment}"):
            parse_libsvm(io.StringIO(text))

    def test_unallocatable_index_names_its_line(self):
        # 7.28 TiB: once an uncaught MemoryError; the child process runs
        # under a 3 GB address-space cap, so no memory overcommit can grant it
        script = (
            "import io, resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))\n"
            "from l1subspace import parse_libsvm\n"
            "from l1subspace.errors import ParseError\n"
            "try:\n"
            "    parse_libsvm(io.StringIO('1 1000000000000:1.0\\n'))\n"
            "except ParseError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(l1subspace.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("line 1: index 1000000000000 is too large")

    def test_parse_memory_stays_below_the_token_lists(self, tmp_path):
        # 4000 x 40 word counts shaped like the benchmark's block text: the
        # per-token loop peaked at 7.7 MB here and the bulk pass over one
        # list of every idx and val string at 6.4 MB; converting slices of
        # about 64 k characters and adopting the dense array, 3.7 MB
        rng = np.random.default_rng(0)
        labels = np.arange(4000) % 4
        rate = np.where(np.arange(40)[:, None] // 10 == labels, 1.2, 0.15)
        path = tmp_path / "block.txt"
        write_libsvm(LabeledDataset(DataMatrix(rng.poisson(rate).astype(float)), labels), path)
        _, peak = traced_peak(parse_libsvm, path)
        assert peak < 4.5e6


class TestWriteLibsvm:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(9)
        vals = rng.standard_normal((6, 11))
        vals[rng.random((6, 11)) < 0.4] = 0.0
        vals[0, 0] = 0.1  # decimal that is not exact in binary
        vals[1, 1] = -3.7e5
        vals[2, 2] = 1e-17
        labels = rng.integers(-1, 2, size=11)
        ds = LabeledDataset(DataMatrix(vals), labels)
        buf = io.StringIO()
        write_libsvm(ds, buf)
        back = parse_libsvm(io.StringIO(buf.getvalue()), n_features=6)
        assert np.array_equal(back.features.values, vals)
        assert np.array_equal(back.labels, labels)

    def test_zero_entries_are_dropped(self):
        ds = LabeledDataset(DataMatrix(np.array([[0.0], [5.0]])), np.array([1]))
        buf = io.StringIO()
        write_libsvm(ds, buf)
        assert buf.getvalue() == "1 2:5.0\n"

    def test_writes_to_path(self, tmp_path):
        ds = LabeledDataset(DataMatrix(np.eye(3)), np.array([1, 2, 3]))
        path = tmp_path / "out.txt"
        write_libsvm(ds, path)
        back = parse_libsvm(path)
        assert np.array_equal(back.features.values, np.eye(3))

    def test_write_memory_stays_below_the_matrix(self, tmp_path):
        # 40 x 20000 word counts (6.4 MB of values): the text of one block
        # of samples at a time peaked at 0.34 times the matrix here, the
        # whole file's entry strings and lines at 4.07 times
        rng = np.random.default_rng(0)
        labels = np.arange(20000) % 4
        rate = np.where(np.arange(40)[:, None] // 10 == labels, 1.2, 0.15)
        ds = LabeledDataset(DataMatrix(rng.poisson(rate).astype(float)), labels)
        _, peak = traced_peak(write_libsvm, ds, tmp_path / "block.txt")
        assert peak < 1.0 * ds.features.values.nbytes


# ---------------------------------------------------------------------------
# PGM images


def _random_image(rng, h, w):
    return GrayImage(rng.integers(0, 256, size=(h, w)).astype(float))


class TestPgmIO:
    def test_binary_round_trip(self, tmp_path):
        img = _random_image(np.random.default_rng(1), 17, 23)
        path = tmp_path / "img.pgm"
        write_pgm(img, path, binary=True)
        back = read_pgm(path)
        assert np.array_equal(back.pixels, img.pixels)

    def test_ascii_round_trip(self):
        img = _random_image(np.random.default_rng(2), 9, 5)
        buf = io.BytesIO()
        write_pgm(img, buf, binary=False)
        back = read_pgm(buf.getvalue())
        assert np.array_equal(back.pixels, img.pixels)

    def test_binary_header_layout(self):
        img = GrayImage(np.array([[0.0, 128.0], [255.0, 1.0]]))
        buf = io.BytesIO()
        write_pgm(img, buf)
        data = buf.getvalue()
        assert data.startswith(b"P5\n2 2\n255\n")
        assert data[len(b"P5\n2 2\n255\n"):] == bytes([0, 128, 255, 1])

    def test_ascii_with_comments(self):
        text = b"P2 # a comment\n# another\n3 2\n255\n1 2 3\n4 5 6\n"
        img = read_pgm(text)
        assert np.array_equal(img.pixels, [[1, 2, 3], [4, 5, 6]])

    def test_fractional_pixels_round_on_write(self):
        img = GrayImage(np.array([[3.6, 2.4]]))
        buf = io.BytesIO()
        write_pgm(img, buf)
        back = read_pgm(buf.getvalue())
        assert np.array_equal(back.pixels, [[4.0, 2.0]])

    @pytest.mark.parametrize(
        "data,fragment",
        [
            (b"P3\n2 2\n255\n1 2 3 4\n", "magic"),
            (b"P2\n2 2\n300\n1 2 3 4\n", "maxval"),
            (b"P2\n2 2\n255\n1 2 3\n", "truncated pixel"),
            (b"P5\n2 2\n255\n" + bytes([1, 2, 3]), "truncated pixel"),
            (b"P2\n0 2\n255\n", "dimensions"),
            (b"P2\n2 2\n255\n1 2 3 999\n", "exceeds maxval"),
            (b"P2\n2\n", "truncated header"),
        ],
    )
    def test_malformed_pgm_raises(self, data, fragment):
        with pytest.raises(ParseError, match=fragment):
            read_pgm(data)

    @pytest.mark.parametrize(
        "data,fragment",
        [
            # once a DomainError from GrayImage and an OverflowError from numpy
            (b"P2\n2 1\n255\n7 -1\n", "negative pixel value -1"),
            (b"P2\n1 1\n255\n" + b"9" * 400 + b"\n", "exceeds maxval"),
            (b"P2\n2 1\n255\n-" + b"9" * 400 + b" 3\n", "negative pixel value"),
        ],
        ids=["negative", "beyond-float", "negative-beyond-float"],
    )
    def test_out_of_range_p2_pixels_are_parse_errors(self, data, fragment):
        with pytest.raises(ParseError, match=fragment):
            read_pgm(data)

    def test_hash_inside_a_token_is_part_of_it(self):
        with pytest.raises(ParseError, match="bad width: b'3#x'"):
            read_pgm(b"P2 3#x 2 255\n")
        with pytest.raises(ParseError, match="expected 1 values, got 0"):
            read_pgm(b"P2 1 1 255 7#c\n")

    def test_comment_at_end_of_input_is_not_a_token(self):
        with pytest.raises(ParseError, match="truncated header"):
            read_pgm(b"P2 1 1 #255")

    def test_pixel_range_is_enforced(self):
        with pytest.raises(DomainError):
            GrayImage(np.array([[0.0, 256.0]]))
        with pytest.raises(DomainError):
            GrayImage(np.array([[-0.5, 1.0]]))


# ---------------------------------------------------------------------------
# block corruption


def _quadrant_mask(h, w, block_index):
    # expected corrupted pixels: top-left and bottom-right quadrants of the
    # chosen block in the row-major 3 x 3 grid
    mask = np.zeros((h, w), dtype=bool)
    bh, bw = h // 3, w // 3
    r, c = divmod(block_index - 1, 3)
    qh, qw = bh // 2, bw // 2
    mask[r * bh : r * bh + qh, c * bw : c * bw + qw] = True
    mask[r * bh + qh : (r + 1) * bh, c * bw + qw : (c + 1) * bw] = True
    return mask


class TestAddBlockOutliers:
    @pytest.mark.parametrize("block_index", [1, 5, 9])
    def test_corrupts_exactly_half_the_block(self, block_index):
        img = GrayImage(np.zeros((12, 18)))
        raw = add_block_outliers(img, block_index, seed=0)
        changed = raw != 0.0
        assert changed.sum() == (12 // 3) * (18 // 3) // 2
        assert np.array_equal(changed, _quadrant_mask(12, 18, block_index))

    def test_outliers_are_integers_in_range(self):
        img = GrayImage(np.zeros((12, 12)))
        raw = add_block_outliers(img, 4, seed=123)
        added = raw[raw != 0.0]
        assert np.array_equal(added, np.rint(added))
        assert added.min() >= OUTLIER_LOW and added.max() <= OUTLIER_HIGH

    def test_deterministic_per_seed(self):
        img = GrayImage(np.full((12, 12), 7.0))
        a = add_block_outliers(img, 2, seed=5)
        b = add_block_outliers(img, 2, seed=5)
        assert np.array_equal(a, b)
        c = add_block_outliers(img, 2, seed=6)
        assert not np.array_equal(a, c)

    def test_crops_non_divisible_image_with_warning(self):
        img = GrayImage(np.zeros((13, 14)))
        with pytest.warns(UserWarning, match="cropping"):
            raw = add_block_outliers(img, 1, seed=0)
        assert raw.shape == (12, 12)

    def test_too_small_image_raises(self):
        with pytest.raises(ShapeError):
            add_block_outliers(GrayImage(np.zeros((5, 7))), 1, seed=0)

    def test_bad_block_index(self):
        img = GrayImage(np.zeros((6, 6)))
        for bad in (0, 10, -1):
            with pytest.raises(DomainError):
                add_block_outliers(img, bad, seed=0)


class TestCorruptImage:
    def test_output_spans_full_range(self):
        img = GrayImage(np.zeros((12, 12)))
        out = corrupt_image(img, 1, seed=0)
        assert out.pixels.min() == 0.0
        assert out.pixels.max() == 255.0

    def test_untouched_pixels_follow_the_affine_map(self):
        rng = np.random.default_rng(8)
        base = GrayImage(rng.integers(0, 200, size=(12, 12)).astype(float))
        raw = add_block_outliers(base, 3, seed=77)
        out = corrupt_image(base, 3, seed=77)
        lo, hi = raw.min(), raw.max()
        expected = (raw - lo) * (255.0 / (hi - lo))
        assert np.allclose(out.pixels, expected, atol=1e-12)
        # preserved pixels keep their relative order
        untouched = ~_quadrant_mask(12, 12, 3)
        order = np.argsort(base.pixels[untouched])
        assert np.all(np.diff(out.pixels[untouched][order]) >= 0.0)

    def test_constant_rescale_is_identity(self):
        vals = np.full((4, 4), 42.0)
        assert np.array_equal(_rescale_to_range(vals), vals)

    def test_rescale_never_leaves_the_range(self):
        # unclipped, the span 11 maps its maximum to 255.00000000000003
        assert _rescale_to_range(np.array([0.0, 11.0])).max() == 255.0
        for span in range(1, 1000):
            out = _rescale_to_range(np.array([0.0, float(span)]))
            assert out.min() >= 0.0 and out.max() <= 255.0, span

    def test_smooth_60x60_image_block_7_stays_valid(self):
        rng = np.random.default_rng(7)
        ramp = np.linspace(0.0, 1.0, 60)
        pixels = 150.0 * np.outer(ramp, ramp) + 80.0 * np.outer(1.0 - ramp, np.sin(np.pi * ramp))
        pixels += rng.random((60, 60)) * 12.0
        clean = GrayImage(np.clip(np.round(pixels), 0.0, 255.0))
        out = corrupt_image(clean, 7, np.random.default_rng([3, 7]))
        assert out.pixels.min() == 0.0 and out.pixels.max() == 255.0


# ---------------------------------------------------------------------------
# stacking images into data matrices


class TestStacking:
    def test_column_major_vectorization(self):
        img = GrayImage(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        cols = image_columns([img])
        assert np.array_equal(cols[:, 0], [1.0, 4.0, 2.0, 5.0, 3.0, 6.0])

    def test_mismatched_sizes_raise(self):
        imgs = [GrayImage(np.zeros((2, 2))), GrayImage(np.zeros((3, 2)))]
        with pytest.raises(ShapeError):
            image_columns(imgs)

    def test_unstack_inverts_image_columns(self):
        rng = np.random.default_rng(10)
        imgs = [_random_image(rng, 5, 4) for _ in range(3)]
        back = unstack_images(image_columns(imgs), 5, 4)
        for orig, rec in zip(imgs, back):
            assert np.array_equal(orig.pixels, rec.pixels)

    def test_unstack_checks_row_count(self):
        with pytest.raises(ShapeError):
            unstack_images(np.zeros((10, 2)), 3, 4)

    @pytest.mark.parametrize("height,width", [(-2, -2), (0, 4), (2.0, 2)])
    def test_unstack_checks_image_sides(self, height, width):
        with pytest.raises(DomainError):
            unstack_images(np.zeros((4, 1)), height, width)


# ---------------------------------------------------------------------------
# CSV matrices


def _reference_csv_text(vals):
    """The per-cell ``repr`` text write_csv_matrix gives every matrix."""
    return "\n".join(",".join(map(repr, row)) for row in vals.tolist()) + "\n"


class TestCsvMatrix:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((5, 8)) * 10.0 ** rng.integers(-12, 12, (5, 8))
        path = tmp_path / "m.csv"
        write_csv_matrix(vals, path)
        assert np.array_equal(read_csv_matrix(path), vals)

    def test_round_trip_through_buffers(self):
        vals = np.array([[0.1, -2.5e-300], [3.0, 7.00000000001]])
        buf = io.StringIO()
        write_csv_matrix(vals, buf)
        assert np.array_equal(read_csv_matrix(io.StringIO(buf.getvalue())), vals)

    def test_ragged_rows_raise(self):
        with pytest.raises(ParseError, match="line 2"):
            read_csv_matrix(io.StringIO("1.0,2.0\n3.0\n"))

    def test_bad_token_raises(self):
        with pytest.raises(ParseError, match="line 1"):
            read_csv_matrix(io.StringIO("1.0,zap\n"))

    def test_empty_input_raises(self):
        with pytest.raises(ParseError, match="no rows"):
            read_csv_matrix(io.StringIO(""))

    def test_read_memory_stays_below_the_token_lists(self, tmp_path):
        # a 200 x 500 file (2.0 MB of text, 0.8 MB of values): feeding its
        # lines to loadtxt as the file is read peaked at 1.1 MB here (numpy
        # 2.4); reading the whole text first, and then handing loadtxt the
        # list of its lines, at 4.9 MB, the per-line float loop at 7.3 MB,
        # a StringIO for loadtxt at 10.8 MB and splitting the joined lines
        # into one token list at 13.6 MB
        X, _ = gen_synthetic(200, 500, 20, 0.5, seed=0)
        path = tmp_path / "X.csv"
        write_csv_matrix(X.values, path)
        back, peak = traced_peak(read_csv_matrix, path)
        assert back.tobytes() == X.values.tobytes()
        assert peak < 1.4e6

    def test_streamed_read_stays_below_twice_the_matrix(self, tmp_path):
        # 400 x 2000 floats (6.4 MB): the result, the row capacity loadtxt
        # grows ahead of it and a batch of lines; the whole text and its
        # lines peaked at 6.1 times the matrix
        vals = np.random.default_rng(4).standard_normal((400, 2000))
        path = tmp_path / "X.csv"
        write_csv_matrix(vals, path)
        back, peak = traced_peak(read_csv_matrix, path)
        assert back.tobytes() == vals.tobytes()
        assert peak < 1.7 * vals.nbytes

    def test_small_file_is_streamed(self, tmp_path, monkeypatch):
        # a file far below one read batch takes the streamed path too; the
        # whole-text reader is only the fallback
        vals = np.array([[0.1, -2.5e-300], [3.0, 7.00000000001]])
        path = tmp_path / "X.csv"
        write_csv_matrix(vals, path)
        assert path.stat().st_size < l1subspace.data._READ_BLOCK

        def whole_text(text):
            raise AssertionError("read whole")

        monkeypatch.setattr(l1subspace.data, "_csv_from_text", whole_text)
        assert read_csv_matrix(path).tobytes() == vals.tobytes()

    def test_float_write_stays_below_the_matrix(self, tmp_path):
        # 40 x 20000 floats (6.4 MB): the strings of one block of about
        # 64 k entries at a time peaked at 0.65 times the matrix here, the
        # whole file's cell strings and text at 6.7 times
        vals = np.random.default_rng(4).standard_normal((40, 20000))
        _, peak = traced_peak(write_csv_matrix, vals, tmp_path / "X.csv")
        assert peak < 1.0 * vals.nbytes

    def test_sign_block_write_stays_below_a_fifth_of_the_block(self, tmp_path):
        # a 40000 x 40 sign block (12.8 MB): one block of rows at a time
        # through the two-entry table peaked at 0.13 of it here; testing
        # the whole block at once with np.abs and indexing the table with
        # it, at 2.5
        signs = np.where(np.random.default_rng(4).random((40000, 40)) < 0.5, -1.0, 1.0)
        path = tmp_path / "P.csv"
        _, peak = traced_peak(write_csv_matrix, signs, path)
        assert peak < 0.2 * signs.nbytes
        assert read_csv_matrix(path).tobytes() == signs.tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (500, 200)])
    def test_sign_block_text_is_repr_of_each_entry(self, shape):
        rng = np.random.default_rng(shape[0] * shape[1])
        signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        for vals in (signs, np.ones(shape), -np.ones(shape)):
            buf = io.StringIO()
            write_csv_matrix(vals, buf)
            assert buf.getvalue() == _reference_csv_text(vals)

    @pytest.mark.parametrize("other", [-0.0, 0.0, np.nan])
    def test_other_value_beside_signs_is_written_by_repr(self, other):
        vals = np.array([[1.0, -1.0, other], [-1.0, 1.0, 1.0]])
        buf = io.StringIO()
        write_csv_matrix(vals, buf)
        assert buf.getvalue() == _reference_csv_text(vals)


    def test_failed_replace_keeps_old_file_and_leaves_no_temporary(self, tmp_path,
                                                                   monkeypatch):
        path = tmp_path / "m.csv"
        write_csv_matrix(np.eye(2), path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise PermissionError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(PermissionError, match="replace refused"):
            write_csv_matrix(np.ones((3, 3)), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv"]


# ---------------------------------------------------------------------------
# parser properties: exact round trips, and only ParseError on bad input

# whitespace bytes PGM allows between tokens
_PGM_SPACE = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\r\n"]


def _pgm_separators(count):
    """``count`` separators, each whitespace then any mix of whitespace and
    whole-line comments (a comment must end before the next token)."""
    part = st.sampled_from(_PGM_SPACE + [b"# note\n", b"#\r", b"# P5 9 9\r\n"])
    sep = st.tuples(st.sampled_from(_PGM_SPACE), st.lists(part, max_size=3))
    return st.lists(
        sep.map(lambda p: p[0] + b"".join(p[1])), min_size=count, max_size=count
    )


@st.composite
def _images(draw):
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pixels = draw(st.lists(st.integers(0, 255), min_size=h * w, max_size=h * w))
    return GrayImage(np.reshape(pixels, (h, w)).astype(float))


def _interleave(tokens, separators):
    return b"".join(sep + tok for sep, tok in zip(separators, tokens[1:]))


@given(img=_images(), data=st.data())
@settings(deadline=None)
def test_p2_round_trip_with_comments_between_tokens(img, data):
    buf = io.BytesIO()
    write_pgm(img, buf, binary=False)
    tokens = buf.getvalue().split()
    seps = data.draw(_pgm_separators(len(tokens) - 1))
    back = read_pgm(tokens[0] + _interleave(tokens, seps) + b"\n")
    assert np.array_equal(back.pixels, img.pixels)


@given(img=_images(), data=st.data())
@settings(deadline=None)
def test_p5_round_trip_with_comments_between_header_tokens(img, data):
    buf = io.BytesIO()
    write_pgm(img, buf, binary=True)
    blob = buf.getvalue()
    head_len = len(b"P5\n%d %d\n255" % (img.width, img.height))
    tokens = blob[:head_len].split()
    seps = data.draw(_pgm_separators(3))
    # exactly one whitespace byte separates maxval from the raster
    back = read_pgm(tokens[0] + _interleave(tokens, seps) + blob[head_len:])
    assert np.array_equal(back.pixels, img.pixels)


def test_int_source_is_a_type_error_not_a_file_descriptor():
    # open() takes an int as a file descriptor; the readers take paths and
    # file objects only, so one end of a pipe holding a valid CSV is refused
    read_end, write_end = os.pipe()
    os.write(write_end, b"1,2\n3,4\n")
    os.close(write_end)
    try:
        with pytest.raises(TypeError):
            read_csv_matrix(read_end)
    finally:
        with contextlib.suppress(OSError):
            os.close(read_end)


@given(
    prefix=st.sampled_from([b"", b"P2 2 2 255 ", b"P5 2 2 255\n", b"P2 1 1 9\n", b"P5\n"]),
    tail=st.binary(max_size=64),
)
@settings(deadline=None, max_examples=300)
def test_read_pgm_on_arbitrary_bytes_gives_image_or_parse_error(prefix, tail):
    try:
        img = read_pgm(prefix + tail)
    except ParseError:
        return
    assert isinstance(img, GrayImage)


_FLOAT_ROWS = st.integers(1, 5).flatmap(
    lambda w: st.lists(
        st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=w, max_size=w),
        min_size=1,
        max_size=5,
    )
)


@given(rows=_FLOAT_ROWS)
@settings(deadline=None)
def test_csv_round_trip_is_bitwise(rows):
    vals = np.array(rows, dtype=float)
    buf = io.StringIO()
    write_csv_matrix(vals, buf)
    back = read_csv_matrix(io.StringIO(buf.getvalue()))
    # -0.0, subnormals and infinities keep their bits; nan is written as
    # "nan", so only its payload is lost
    expected = np.where(np.isnan(vals), np.nan, vals)
    assert back.tobytes() == expected.tobytes()


def test_csv_round_trip_keeps_special_values():
    vals = np.array([[-0.0, 5e-324, np.nan], [np.inf, -np.inf, 2.2250738585072014e-308]])
    buf = io.StringIO()
    write_csv_matrix(vals, buf)
    assert read_csv_matrix(io.StringIO(buf.getvalue())).tobytes() == vals.tobytes()


@st.composite
def _labeled_datasets(draw):
    # indices stay small: parse_libsvm densifies to (largest index) x n
    d, n = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    entries = st.one_of(st.just(0.0), finite)
    values = draw(st.lists(entries, min_size=d * n, max_size=d * n))
    labels = draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n))
    return LabeledDataset(DataMatrix(np.reshape(values, (d, n))), np.asarray(labels))


@given(ds=_labeled_datasets())
@settings(deadline=None)
def test_libsvm_round_trip_is_exact(ds):
    buf = io.StringIO()
    write_libsvm(ds, buf)
    back = parse_libsvm(io.StringIO(buf.getvalue()), n_features=ds.features.d)
    # zeros are dropped on write, so -0.0 comes back as 0.0: compare values
    assert np.array_equal(back.features.values, ds.features.values)
    assert np.array_equal(back.labels, ds.labels)


# text that mixes number syntax with separators, controls and non-ASCII
_NUMBERISH = st.text(alphabet="0123456789.,:+-eEinfa \t\n\r\x0b\x0c\x85 \xe9٣")


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


@given(text=st.one_of(st.text(), _NUMBERISH))
@settings(deadline=None, max_examples=300)
def test_text_readers_on_arbitrary_files_give_result_or_parse_error(scratch_file, text):
    scratch_file.write_bytes(text.encode("utf-8"))
    try:
        read_csv_matrix(scratch_file)
    except ParseError:
        pass
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # real-valued labels are rounded with a warning
        try:
            # a fixed dimension bounds the dense array an index can ask for
            parse_libsvm(scratch_file, n_features=64)
        except ParseError:
            pass


# ---------------------------------------------------------------------------
# LIBSVM bulk reader and writer against per-token references


def _reference_parse_libsvm(text, n_features=None):
    """The per-token LIBSVM parser the bulk one replaced, kept as its oracle."""
    labels, rows, max_index = [], [], 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            raw_label = float(tokens[0])
        except ValueError:
            raise ParseError(f"line {lineno}: bad label {tokens[0]!r}") from None
        if not abs(raw_label) < 2.0**63:
            raise ParseError(f"line {lineno}: label {tokens[0]!r} out of range")
        label = int(round(raw_label))
        if raw_label != label:
            warnings.warn(f"line {lineno}: real-valued label {raw_label} rounded to {label}")
        entries, prev = [], 0
        for tok in tokens[1:]:
            idx_str, sep, val_str = tok.partition(":")
            if not sep:
                raise ParseError(f"line {lineno}: expected idx:val, got {tok!r}")
            try:
                idx, val = int(idx_str), float(val_str)
            except ValueError:
                raise ParseError(f"line {lineno}: bad feature token {tok!r}") from None
            if idx < 1:
                raise ParseError(f"line {lineno}: index {idx} is not 1-based")
            if idx <= prev:
                raise ParseError(
                    f"line {lineno}: index {idx} does not increase (previous {prev})"
                )
            if not math.isfinite(val):
                raise ParseError(f"line {lineno}: non-finite value in {tok!r}")
            entries.append((idx, val))
            prev = idx
        labels.append(label)
        rows.append((lineno, entries))
        max_index = max(max_index, prev)
    if not rows:
        raise ParseError("no samples found in input")
    d = n_features if n_features is not None else max_index
    if d < 1:
        raise ParseError("cannot infer dimension: no feature indices present")
    dense = np.zeros((d, len(rows)))
    for j, (lineno, entries) in enumerate(rows):
        for idx, val in entries:
            if idx > d:
                raise ParseError(f"line {lineno}: index {idx} exceeds dimension {d}")
            dense[idx - 1, j] = val
    return dense, labels


def _reference_write_libsvm(dataset):
    """The per-column LIBSVM writer the bulk one replaced, kept as its oracle."""
    X = dataset.features.values
    lines = []
    for j in range(X.shape[1]):
        col = X[:, j]
        parts = [str(int(dataset.labels[j]))]
        parts += [f"{i + 1}:{float(col[i])!r}" for i in np.flatnonzero(col)]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# number syntax that int() and float() read differently: signs, digit
# separators, exponents, non-ASCII digits, specials and plain junk
_NUMBERS = ["+3", "-0", "007", "1_0", "٣", "1e1", "1.0", ".5", "1_0.5", "2E+2", "-1e-3"]
_JUNK = ["1__0", "_1", "nan", "-inf", "inf", "Infinity", "1e400", "", "x"]
_VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-9, 9).map(str),
    st.sampled_from(_NUMBERS),
)
_INDEX = st.one_of(st.integers(-1, 12).map(str), st.sampled_from(_NUMBERS + _JUNK))
_LABEL = st.one_of(
    st.integers(-3, 3).map(str), st.sampled_from(["1.5", "2.5", "-0.5", "+2", "1_0"])
)
_ANY_LABEL = st.one_of(_LABEL, st.sampled_from(["1e19", "-1e19", "1:2"] + _NUMBERS + _JUNK))
_TOKEN = st.one_of(
    st.tuples(_INDEX, st.one_of(_VALUE, st.sampled_from(_JUNK))).map(":".join),
    st.tuples(_INDEX, _VALUE).map("::".join),  # doubled colon
    st.tuples(_INDEX, _VALUE, _VALUE).map(":".join),  # two colons
    _INDEX,  # no colon
)
# whitespace that separates tokens but ends no line, and every line break
# str.splitlines knows
_GAPS = st.sampled_from([" ", "  ", "\t", "\x1f", "\xa0", " \t "])
_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                           "\x85", "\u2028", "\n\n", "\n \t\n"])


@st.composite
def _libsvm_soup(draw):
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 3)):
            # well-formed: increasing indices, numbers that float() reads
            label = draw(_LABEL)
            indices = sorted(set(draw(st.lists(st.integers(1, 12), max_size=5))))
            tokens = [f"{i}:{draw(_VALUE)}" for i in indices]
        else:
            label = draw(_ANY_LABEL)
            tokens = draw(st.lists(_TOKEN, max_size=5))
        line = draw(st.sampled_from(["", " "])) + label
        for tok in tokens:
            line += draw(_GAPS) + tok
        lines.append(line + draw(st.sampled_from(["", " "])))
    text = "".join(line + draw(_BREAKS) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\n")


def _parse_outcome(parse, text, n_features):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            values, labels = parse(text, n_features)
        except ParseError as exc:
            result = str(exc)
        else:
            result = (values.shape, values.tobytes(), list(labels))
    return result, [(w.category, str(w.message)) for w in caught]


def _bulk_parse(text, n_features):
    ds = parse_libsvm(io.StringIO(text), n_features=n_features)
    return ds.features.values, ds.labels


# n_features below 1 is a DomainError before any text is read
@given(text=_libsvm_soup(), n_features=st.one_of(st.none(), st.integers(1, 14)))
@settings(deadline=None, max_examples=400)
def test_parse_libsvm_matches_per_token_reference(text, n_features):
    # same array bits and labels, the same warnings in the same order, or
    # the same ParseError text
    assert _parse_outcome(_bulk_parse, text, n_features) == _parse_outcome(
        _reference_parse_libsvm, text, n_features
    )


@st.composite
def _sparse_datasets(draw):
    d, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    # a small pool of values, so most repeat; zeros are dropped on write
    pool = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                         max_size=4))
    values = draw(st.lists(st.sampled_from(pool + [0.0, -0.0]), min_size=d * n,
                           max_size=d * n))
    labels = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n))
    return LabeledDataset(DataMatrix(np.reshape(values, (d, n))), np.asarray(labels))


@given(ds=_sparse_datasets(), block=st.integers(1, 40))
@settings(deadline=None, max_examples=300)
def test_write_libsvm_matches_per_column_reference(ds, block):
    # a small block of entries puts a few samples in each chunk of text
    buf = io.StringIO()
    with mock.patch.object(l1subspace.data, "_WRITE_BLOCK", block):
        write_libsvm(ds, buf)
    assert buf.getvalue() == _reference_write_libsvm(ds)


# ---------------------------------------------------------------------------
# CSV reader and writer against per-line and per-cell references


def _reference_read_csv_matrix(text):
    """The per-line float loop the numpy tokenizer fronts, kept as its oracle."""
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = list(map(float, line.split(",")))
        except ValueError:
            raise ParseError(f"line {lineno}: bad numeric value") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"line {lineno}: expected {width} columns, got {len(row)}")
        rows.append(row)
    if not rows:
        raise ParseError("no rows found in input")
    return np.asarray(rows, dtype=float)


# number syntax, the whitespace and line breaks str.splitlines and numpy
# know, comment and quote characters
_CSV_ALPHABET = "0123456789,.+-eE_ \t\r\n\x0b\x0c\x1c\x1d\x1e\x1finfa#\""
_CSV_TOKEN = st.one_of(
    st.floats().map(repr),
    st.integers(-9, 9).map(str),
    st.sampled_from(["-0", "+.5", "1e400", "1_0", "inf", "-nan", "Infinity", "", " 1 ",
                     "\t2", "\x1f3", "4\x1f", "#5", '"6"', "7 8", "e", "."]),
)
_CSV_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                               "\n\n", "\n \t\n"])


@st.composite
def _csv_soup(draw):
    """CSV text with mostly even rows of tokens, some of them malformed."""
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        count = width if draw(st.integers(0, 4)) else draw(st.integers(1, 5))
        lines.append(",".join(draw(st.lists(_CSV_TOKEN, min_size=count, max_size=count))))
    return "".join(line + draw(_CSV_BREAKS) for line in lines)


def _csv_outcome(read, text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            values = read(text)
        except ParseError as exc:
            result = str(exc)
        else:
            result = (values.shape, values.tobytes())
    return result, [(w.category, str(w.message)) for w in caught]


@given(text=st.one_of(st.text(alphabet=_CSV_ALPHABET), _csv_soup()))
# numpy's tokenizer strips "\x1f" around a value; float() rejects it
@example(text="1.0,2.0\x1f\n")
@settings(deadline=None, max_examples=400)
def test_read_csv_matrix_matches_per_line_reference(text):
    # the same array bits, or the same ParseError text
    assert _csv_outcome(lambda t: read_csv_matrix(io.StringIO(t)), text) == _csv_outcome(
        _reference_read_csv_matrix, text
    )


def _whole_text_read_csv_matrix(source):
    """read_csv_matrix as it read every source before it streamed from a
    path: the whole text, split by str.splitlines and handed to np.loadtxt,
    and the per-line loop wherever that fails.  ``source`` is bytes, which
    must be ASCII, or str, which is taken as it is."""
    text = source
    if isinstance(source, bytes):
        try:
            text = source.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"byte {exc.start}: {source[exc.start]:#04x} is not ASCII text"
            ) from None
    lines = text.splitlines()
    if any(lines) and "\x1f" not in text:
        try:
            return np.loadtxt(lines, dtype=float, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    return _reference_read_csv_matrix(text)


@st.composite
def _csv_bytes(draw):
    """CSV soup as bytes, a quarter of it with a non-ASCII byte inserted."""
    data = draw(st.one_of(st.text(alphabet=_CSV_ALPHABET), _csv_soup())).encode("ascii")
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\x80", b"\x85", b"\xc3\xa9", b"\xff"])) + data[at:]
    return data


@given(data=_csv_bytes(), kind=st.sampled_from(["path", "bytes", "text"]),
       batch=st.integers(0, 16))
@example(data=b"\n\r\n\r", kind="path", batch=1)  # blank lines alone
@example(data=b"\n \n", kind="path", batch=1)
@example(data=b"1.0,2.0\x1f\n", kind="path", batch=1)
@example(data=b"1,2\r3,4\r\n5,6\x0c7,8\n", kind="path", batch=1)
@settings(deadline=None, max_examples=400)
def test_read_csv_matrix_matches_whole_text_reference(scratch_file, data, kind, batch):
    # the same array bits, or the same ParseError text, and no warning, from
    # a path read in batches of a few lines (``batch`` 0 reads them all at
    # once) and from file-like sources
    if kind == "path":
        scratch_file.write_bytes(data)
        source = scratch_file
    elif kind == "bytes":
        source = io.BytesIO(data)
    else:
        data = data.decode("latin-1")
        source = io.StringIO(data)
    with mock.patch.object(l1subspace.data, "_READ_BLOCK", batch):
        got = _csv_outcome(read_csv_matrix, source)
    assert got == _csv_outcome(_whole_text_read_csv_matrix, data)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_malformed_csv_from_a_pipe_names_its_line():
    # a pipe, as the shell's <(...) passes one, cannot be read twice, so it
    # is read whole, and the error still names the bad line
    r, w = os.pipe()
    try:
        os.write(w, b"1.0,2.0\n3.0,zap\n")
        os.close(w)
        with pytest.raises(ParseError, match="line 2: bad numeric value"):
            read_csv_matrix(f"/dev/fd/{r}")
    finally:
        os.close(r)


def test_crlf_split_across_the_file_buffer_is_one_line_end(tmp_path):
    # the first line is 8191 bytes, so "\r\n" straddles the first 8 kB
    # read of the file, which is streamed in batches of one line
    first = ",".join(["1.0"] * 2046 + ["1.00000"])
    assert len(first) == 8191
    data = (first + "\r\n" + first + "\r\n").encode("ascii")
    path = tmp_path / "crlf.csv"
    path.write_bytes(data)
    with mock.patch.object(l1subspace.data, "_READ_BLOCK", 1):
        back = read_csv_matrix(path)
    assert back.shape == (2, 2047)
    assert back.tobytes() == _whole_text_read_csv_matrix(data).tobytes()


@st.composite
def _mixed_matrices(draw):
    """Matrices whose rows are sign rows or rows of any floats, so that
    blocks of rows take either path of the writer."""
    d, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rows = []
    for _ in range(d):
        if draw(st.booleans()):
            rows.append(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n)))
        else:
            cells = st.one_of(st.floats(), st.sampled_from([1.0, -1.0, 0.0, -0.0]))
            rows.append(draw(st.lists(cells, min_size=n, max_size=n)))
    return np.array(rows, dtype=float)


@given(vals=_mixed_matrices(), block=st.integers(1, 40))
@settings(deadline=None, max_examples=300)
def test_write_csv_matrix_matches_join_reference(scratch_file, vals, block):
    # a small block of entries puts a few rows in each chunk of text; a
    # path gets the same bytes as a text buffer
    buf = io.StringIO()
    with mock.patch.object(l1subspace.data, "_WRITE_BLOCK", block):
        write_csv_matrix(vals, buf)
        write_csv_matrix(vals, scratch_file)
    assert buf.getvalue() == _reference_csv_text(vals)
    assert scratch_file.read_bytes() == buf.getvalue().encode("ascii")
