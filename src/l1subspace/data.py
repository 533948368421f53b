"""Data pipelines: synthetic subspace data with Laplace noise, LIBSVM text
parsing, PGM image IO, block corruption, and dense CSV import/export.

The synthetic generator draws a planted orthonormal basis, Gaussian
coefficients, and additive Laplace noise through an inverse-CDF transform,
then centers each feature row, all in place in X.  Everything is driven by
numpy's seeded generators, so each artifact is a pure function of its
parameters.

Files are opened, read and written only through the file boundary below.
No CSV or LIBSVM writer and no CSV reader from a path holds a whole file's
text: the writers format and write one block of about 64 k entries at a
time, and the CSV reader hands a path's lines to numpy's tokenizer as it
reads them.  The Cost notes give each one's memory.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .core import DataMatrix, StiefelPoint, _Adopted, _count, _frozen_array, _number
from .errors import DomainError, ParseError, ShapeError
from .linalg import polar_factor

# integer outliers added to corrupted quadrants are uniform on this range
OUTLIER_LOW, OUTLIER_HIGH = 1, 200


@dataclass(frozen=True)
class SyntheticTruth:
    """Planted factors behind a synthetic draw: basis, noise level, seed."""

    Q_true: StiefelPoint
    sigma: float
    seed: int

    @property
    def noiseless(self) -> bool:
        return self.sigma == 0.0


@dataclass(frozen=True)
class LabeledDataset:
    """Dense features (one sample per column) with one integer label each."""

    features: DataMatrix
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        if labels.ndim != 1 or labels.shape[0] != self.features.n:
            raise ShapeError(
                f"need one label per sample: {labels.shape} labels for "
                f"{self.features.n} columns"
            )
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)


@dataclass(frozen=True)
class GrayImage:
    """Grayscale image, pixel values in [0, 255], row-major h x w array."""

    pixels: np.ndarray

    def __post_init__(self):
        px = _frozen_array(self, "pixels", self.pixels)
        if px.min() < 0.0 or px.max() > 255.0:
            raise DomainError(f"pixel range [{px.min():.3f}, {px.max():.3f}] exceeds [0, 255]")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


# ---------------------------------------------------------------------------
# Laplace noise


def _laplace_from_uniform(b, u):
    """Laplace noise -b sign(u - 1/2) ln(1 - 2|u - 1/2|), the inverse CDF of
    the zero-mean Laplace law with scale b (variance 2 b^2), for u in (0, 1).

    An array ``u`` is overwritten: each step works in place, so the noise is
    the one new array.  IEEE products commute, so the bits are those of the
    formula evaluated left to right.
    """
    u = np.asarray(u, dtype=float)
    u -= 0.5
    # np.sign into its own input runs several times slower than into a new
    # array, so the noise starts as the signs and |u - 1/2| goes into u
    noise = np.sign(u)
    noise *= -b
    np.abs(u, out=u)
    u *= -2.0
    np.log1p(u, out=u)
    noise *= u
    return noise


def gen_synthetic(
    d: int, n: int, k: int, sigma: float, seed: int
) -> tuple[DataMatrix, SyntheticTruth]:
    """Planted-subspace data X = Q_true S + N, centered featurewise.

    Q_true is the polar factor of a d x k Gaussian draw, S is k x n standard
    Gaussian, and N has i.i.d. Laplace entries with standard deviation
    ``sigma`` (scale sigma / sqrt 2).  All randomness comes from one
    generator seeded with ``seed``.

    Cost: X is built and centered in place and handed to the DataMatrix
    without a copy; the noise takes two d x n arrays beside it (its uniform
    draw and the noise itself), so the peak is about three d x n arrays.
    """
    _count("d", d)
    _count("n", n)
    _count("k", k, 1, min(d, n))
    _number("sigma", sigma, open_low=False)
    rng = np.random.default_rng(seed)
    Q_true = StiefelPoint(polar_factor(rng.standard_normal((d, k))))
    X = Q_true.values @ rng.standard_normal((k, n))
    # noise that overflows (sigma near 1e308) is reported once, as
    # DataMatrix's NumericError, not also as numpy warnings on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        if sigma > 0.0:
            u = rng.random((d, n))
            u[u == 0.0] = 0.5  # the open-interval guard
            X += _laplace_from_uniform(sigma / math.sqrt(2.0), u)
        X -= X.mean(axis=1, keepdims=True)
    return DataMatrix(_Adopted(X), centered=True), SyntheticTruth(Q_true, float(sigma), seed)


def center_features(X: DataMatrix) -> DataMatrix:
    """Subtract each feature row's mean; returns a centered DataMatrix."""
    vals = X.values - X.values.mean(axis=1, keepdims=True)
    return DataMatrix(_Adopted(vals), centered=True)


# ---------------------------------------------------------------------------
# file boundary: every reader and writer below goes through these three


def _open_read(path, binary: bool = False):
    """A path opened for reading: as bytes if ``binary``, else as ASCII text
    with universal newlines (lines end at \\n, \\r and \\r\\n, read as \\n)."""
    if binary:
        return open(os.fspath(path), "rb")
    return open(os.fspath(path), encoding="ascii")


def _read(source, binary: bool = False):
    """Contents of a file-like object or a path: bytes if ``binary``, else ASCII text."""
    if hasattr(source, "read"):
        data = source.read()
    else:
        with _open_read(source, binary=True) as fh:
            data = fh.read()
    if binary or isinstance(data, str):
        return data
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {exc.start}: {data[exc.start]:#04x} is not ASCII text") from None


def _write(payload, dest) -> None:
    """Write str (as ASCII), bytes, or an iterable of str chunks to a
    file-like object or a path.

    A path is written atomically: the chunks go one by one to a temporary
    file in the same directory, which then replaces the target, so a reader
    never sees a partial file.  The temporary file is created with mode
    0o666 less the umask, the mode ``open()`` gives a new file.
    """
    chunks = [payload] if isinstance(payload, (str, bytes)) else payload
    if hasattr(dest, "write"):
        for chunk in chunks:
            dest.write(chunk)
        return
    directory = os.path.dirname(os.path.abspath(os.fsdecode(dest)))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("ascii") if isinstance(chunk, str) else chunk)
        os.replace(tmp, dest)
    except BaseException:
        os.unlink(tmp)
        raise


# entries formatted into one chunk of text by the CSV and LIBSVM writers:
# a chunk and its strings stay near a few megabytes however large the matrix
_WRITE_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# LIBSVM text format


def parse_libsvm(source, n_features: int | None = None) -> LabeledDataset:
    """Parse LIBSVM text: one sample per line, ``label idx:val ...`` with
    1-based strictly increasing indices.

    A positive integer ``n_features`` fixes the dimension; otherwise the
    largest index seen is used.  Labels must be integers; real-valued labels
    are rounded with a warning.  Any malformed content raises ParseError
    naming the first bad line.  So does an index too large for the dense
    (largest index) x n array: one of 2**63 or more as a fault of its line,
    any other when allocating the array fails (an ``n_features`` too large
    to allocate raises numpy's own error).  Still open: an index that is
    large but not absurd (10**9 asks for 8 GB a sample) can be allocated
    lazily under memory overcommit and exhaust memory later, when used.

    Cost: O(entries) numpy work beyond the dense array, plus one Python
    ``int`` or ``float`` conversion per token.  Beyond the text, its lines
    and the dense array, memory holds a few numbers per entry and the
    strings of one slice of about 64 k characters at a time;
    malformed input is re-read line by line to name its first error.
    """
    if n_features is not None:
        _count("n_features", n_features)
    text = _read(source)
    linenos: list[int] = []
    label_tokens: list[str] = []
    counts: list[int] = []
    features: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if tokens:
            linenos.append(lineno)
            label_tokens.append(tokens[0])
            counts.append(len(tokens) - 1)
            if len(tokens) > 1:
                features.append(" ".join(tokens[1:]))
    joined = " ".join(features)
    del features
    try:
        raw, idx, vals, cols = _libsvm_arrays(label_tokens, counts, joined)
    except (ValueError, OverflowError):
        raise _first_libsvm_error(text) from None
    n = len(linenos)
    if n == 0:
        raise ParseError("no samples found in input")
    labels = np.rint(raw)
    for j in np.flatnonzero(raw != labels).tolist():
        warnings.warn(
            f"line {linenos[j]}: real-valued label {float(raw[j])} rounded to {int(labels[j])}",
            stacklevel=2,
        )
    d = n_features if n_features is not None else int(idx.max(initial=0))
    if d < 1:
        raise ParseError("cannot infer dimension: no feature indices present")
    try:
        dense = np.zeros((d, n))
    except (MemoryError, ValueError):
        if n_features is not None:
            raise
        raise ParseError(
            f"line {linenos[cols[np.argmax(idx)]]}: index {d} is too large: "
            f"a dense {d} x {n} array cannot be allocated"
        ) from None
    beyond = np.flatnonzero(idx > d)
    if beyond.size:
        k = beyond[0]
        raise ParseError(f"line {linenos[cols[k]]}: index {idx[k]} exceeds dimension {d}")
    dense[idx - 1, cols] = vals
    return LabeledDataset(DataMatrix(_Adopted(dense)), labels.astype(int))


# two colons inside one idx:val token (tokens are joined by single spaces)
_TWO_COLONS = re.compile(r":[^ :]*:")
# characters of feature text split into pieces at a time, rounded up to a
# token boundary: a piece string costs about 60 bytes, so the pieces of a
# slice stay near a megabyte however long the file is
_LIBSVM_SLICE = 1 << 16


def _libsvm_arrays(label_tokens, counts, joined):
    """Raw labels, and the index, value and sample of every entry, converted
    in bulk from the label tokens, the feature-token count of each line and
    all feature tokens joined by single spaces.  Raises ValueError or
    OverflowError if any line is malformed, without saying where."""
    raw = np.fromiter(map(float, label_tokens), float, len(label_tokens))
    total = sum(counts)
    # with as many colons as tokens and never two in one token, each token
    # has exactly one
    if joined.count(":") != total or _TWO_COLONS.search(joined):
        raise ValueError("a feature token lacks exactly one colon")
    idx = np.empty(total, np.int64)
    vals = np.empty(total)
    done = start = 0
    while start < len(joined):
        end = joined.find(" ", start + _LIBSVM_SLICE)
        end = len(joined) if end < 0 else end
        m = joined.count(":", start, end)  # the slice's tokens, one colon each
        pieces = joined[start:end].replace(":", " ").split()
        # 2 m pieces means neither side of a colon is empty
        if len(pieces) != 2 * m:
            raise ValueError("a feature token has an empty side")
        idx[done : done + m] = np.fromiter(map(int, islice(pieces, 0, None, 2)), np.int64, m)
        vals[done : done + m] = np.fromiter(map(float, islice(pieces, 1, None, 2)), float, m)
        done, start = done + m, end + 1
    cols = np.repeat(np.arange(len(counts)), counts)
    # each index must exceed the one before it on its line, and 0 at a line start
    prev = np.zeros_like(idx)
    prev[1:] = np.where(cols[1:] == cols[:-1], idx[:-1], 0)
    if not (
        np.all(np.abs(raw) < 2.0**63)  # nan, inf, or beyond an int64 label
        and np.all(idx > prev)
        and np.all(np.isfinite(vals))
    ):
        raise ValueError("a label, index or value is out of range")
    return raw, idx, vals, cols


def _first_libsvm_error(text: str) -> ParseError:
    """The ParseError of the first malformed line, found with per-token
    conversions and checks; warns of rounded labels on the lines before it,
    as parse_libsvm does.  Called once a bulk step has failed, so some line
    is malformed."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            raw_label = float(tokens[0])
        except ValueError:
            return ParseError(f"line {lineno}: bad label {tokens[0]!r}")
        if not abs(raw_label) < 2.0**63:  # nan, inf, or beyond an int64 label
            return ParseError(f"line {lineno}: label {tokens[0]!r} out of range")
        label = int(round(raw_label))
        if raw_label != label:
            warnings.warn(
                f"line {lineno}: real-valued label {raw_label} rounded to {label}",
                stacklevel=3,
            )
        prev = 0
        for tok in tokens[1:]:
            idx_str, sep, val_str = tok.partition(":")
            if not sep:
                return ParseError(f"line {lineno}: expected idx:val, got {tok!r}")
            try:
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                return ParseError(f"line {lineno}: bad feature token {tok!r}")
            if idx < 1:
                return ParseError(f"line {lineno}: index {idx} is not 1-based")
            if idx >= 2**63:  # no dense array has that many rows
                return ParseError(f"line {lineno}: index {idx} is too large")
            if idx <= prev:
                return ParseError(
                    f"line {lineno}: index {idx} does not increase (previous {prev})"
                )
            if not math.isfinite(val):
                return ParseError(f"line {lineno}: non-finite value in {tok!r}")
            prev = idx


def write_libsvm(dataset: LabeledDataset, dest) -> None:
    """Serialize a LabeledDataset to LIBSVM text, dropping zero entries.

    Values are written with full round-trip precision, so parse_libsvm on
    the output reproduces the dense matrix exactly (pass the dimension if a
    trailing feature row can be all zero).

    Cost: O(entries) numpy work plus one ``repr`` per distinct value of a
    block and one string per entry; each line is one join.  The text is
    built and written one block of samples (about 64 k matrix entries) at a
    time, so memory holds the strings of one block, not of the file.
    """
    X = dataset.features.values
    keys = [f"{i}:" for i in range(1, X.shape[0] + 1)]
    step = max(1, _WRITE_BLOCK // X.shape[0])
    blocks = range(0, X.shape[1], step)
    _write(
        (_libsvm_text(X[:, j : j + step], dataset.labels[j : j + step], keys) for j in blocks),
        dest,
    )


def _libsvm_text(X, labels, keys) -> str:
    """The LIBSVM lines of the samples (columns) of X, each ended by a
    newline; ``keys`` holds the "i:" prefix of every feature index."""
    cols, rows = np.nonzero(X.T)  # the entries in column-major order
    distinct, which = np.unique(X[rows, cols], return_inverse=True)
    values = list(map(repr, distinct.tolist()))
    entries = list(
        map(str.__add__, map(keys.__getitem__, rows.tolist()),
            map(values.__getitem__, which.tolist()))
    )
    ends = np.cumsum(np.bincount(cols, minlength=X.shape[1])).tolist()
    lines, start = [], 0
    for label, end in zip(labels.tolist(), ends):
        lines.append(" ".join([str(label), *entries[start:end]]))
        start = end
    lines.append("")  # the last newline
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# PGM images (P2 ASCII and P5 binary, maxval up to 255)

# whitespace and '#' comments before a token; a comment runs to the end of its
# line (the lookahead stops a backtracking match from reading a comment's tail
# as a token), and a '#' inside a token is part of it
_PGM_TOKEN = re.compile(
    rb"(?:[ \t\n\r\x0b\x0c]|#[^\r\n]*(?![^\r\n]))*([^ \t\n\r\x0b\x0c#][^ \t\n\r\x0b\x0c]*)"
)


def _pgm_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """The first token at or after ``pos`` and the offset just past it."""
    m = _PGM_TOKEN.match(data, pos)
    if m is None:
        raise ParseError("truncated header")
    return m[1], m.end()


def read_pgm(source) -> GrayImage:
    """Read a PGM image (magic P2 or P5, maxval at most 255)."""
    data = bytes(source) if isinstance(source, (bytes, bytearray)) else _read(source, binary=True)
    magic, pos = _pgm_token(data, 0)
    if magic not in (b"P2", b"P5"):
        raise ParseError(f"unsupported magic {magic!r}, need P2 or P5")
    header = []
    for what in ("width", "height", "maxval"):
        tok, pos = _pgm_token(data, pos)
        try:
            header.append(int(tok))
        except ValueError:
            raise ParseError(f"bad {what}: {tok!r}") from None
    width, height, maxval = header
    if width < 1 or height < 1:
        raise ParseError(f"bad dimensions {width} x {height}")
    if not (0 < maxval <= 255):
        raise ParseError(f"maxval {maxval} outside (0, 255]")
    count = width * height
    if magic == b"P2":
        values = []
        try:
            for _ in range(count):
                tok, pos = _pgm_token(data, pos)
                values.append(int(tok))
        except (ParseError, ValueError):
            raise ParseError(
                f"truncated pixel data: expected {count} values, got {len(values)}"
            ) from None
        low, high = min(values), max(values)
    else:
        payload = data[pos + 1 : pos + 1 + count]  # one whitespace byte after maxval
        if len(payload) < count:
            raise ParseError(f"truncated pixel data: expected {count} bytes, got {len(payload)}")
        values = np.frombuffer(payload, dtype=np.uint8)
        low, high = 0, int(values.max())
    if high > maxval:
        raise ParseError(f"pixel value exceeds maxval {maxval}")
    if low < 0:
        raise ParseError(f"negative pixel value {low}")
    return GrayImage(np.reshape(values, (height, width)))


def write_pgm(image: GrayImage, dest, binary: bool = True) -> None:
    """Write a PGM file, P5 when binary else P2; pixels round to integers."""
    px = np.rint(image.pixels).astype(np.uint8)
    header = f"P{5 if binary else 2}\n{image.width} {image.height}\n255\n".encode("ascii")
    if binary:
        body = px.tobytes()
    else:
        body = ("\n".join(" ".join(str(v) for v in row) for row in px) + "\n").encode("ascii")
    _write(header + body, dest)


# ---------------------------------------------------------------------------
# block corruption and image stacking


def _crop_to_multiple(pixels, multiple):
    h, w = pixels.shape
    H = (h // multiple) * multiple
    W = (w // multiple) * multiple
    if H < multiple or W < multiple:
        raise ShapeError(f"image {h} x {w} too small to hold a {multiple}-divisible grid")
    if (H, W) != (h, w):
        warnings.warn(
            f"cropping {h} x {w} image to {H} x {W} for an exact 3 x 3 grid",
            stacklevel=3,
        )
    top = (h - H) // 2
    left = (w - W) // 2
    return pixels[top : top + H, left : left + W]


def crop_to_grid(image: GrayImage) -> GrayImage:
    """Center-crop so both sides divide by 6, matching the corruption grid.

    Identity when the image already fits; warns when pixels are dropped.
    """
    return GrayImage(_crop_to_multiple(image.pixels, 6))


def add_block_outliers(image: GrayImage, block_index: int, seed) -> np.ndarray:
    """Raw corruption stage: add integer outliers uniform on
    {OUTLIER_LOW..OUTLIER_HIGH} to the top-left and bottom-right quadrants of
    one block of the 3 x 3 grid (row-major ``block_index`` in 1..9).

    Returns a plain float array; values may exceed 255.  Images whose sides
    are not divisible by 6 are center-cropped with a warning so the grid and
    quadrants split exactly.
    """
    _count("block_index", block_index, 1, 9)
    rng = np.random.default_rng(seed)
    px = _crop_to_multiple(image.pixels, 6).copy()
    bh, bw = px.shape[0] // 3, px.shape[1] // 3
    r, c = divmod(block_index - 1, 3)
    block = px[r * bh : (r + 1) * bh, c * bw : (c + 1) * bw]
    qh, qw = bh // 2, bw // 2
    block[:qh, :qw] += rng.integers(OUTLIER_LOW, OUTLIER_HIGH + 1, size=(qh, qw))
    block[qh:, qw:] += rng.integers(OUTLIER_LOW, OUTLIER_HIGH + 1, size=(bh - qh, bw - qw))
    return px


def _rescale_to_range(values, lo=0.0, hi=255.0):
    vmin = float(values.min())
    vmax = float(values.max())
    if vmax == vmin:
        return values.copy()
    # the affine map can land one rounding step outside [lo, hi]
    return np.clip((values - vmin) * ((hi - lo) / (vmax - vmin)) + lo, lo, hi)


def corrupt_image(image: GrayImage, block_index: int, seed) -> GrayImage:
    """Corrupt half the pixels of one grid block, then affinely rescale the
    whole image back to [0, 255] (identity for a constant image)."""
    raw = add_block_outliers(image, block_index, seed)
    return GrayImage(_rescale_to_range(raw))


def image_columns(images: list[GrayImage]) -> np.ndarray:
    """Column-major vectorization of equally sized images, one per column."""
    if not images:
        raise ShapeError("need at least one image")
    shape = images[0].pixels.shape
    for img in images:
        if img.pixels.shape != shape:
            raise ShapeError(f"image sizes differ: {img.pixels.shape} vs {shape}")
    return np.column_stack([img.pixels.ravel(order="F") for img in images])


def unstack_images(values, height: int, width: int) -> list[GrayImage]:
    """Inverse of image_columns: columns back to height x width images."""
    _count("height", height)
    _count("width", width)
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2 or vals.shape[0] != height * width:
        raise ShapeError(
            f"need {height * width} rows to unstack {height} x {width} images, "
            f"got shape {vals.shape}"
        )
    return [
        GrayImage(vals[:, j].reshape((height, width), order="F"))
        for j in range(vals.shape[1])
    ]


# ---------------------------------------------------------------------------
# dense CSV matrices


def write_csv_matrix(values, dest) -> None:
    """Write a dense matrix as CSV, one feature row per line, full precision.

    Cost: one ``repr`` per entry and one join per row.  The text is built and
    written one block of rows (about 64 k entries) at a time, so memory
    holds the strings of one block, not of the file.  A block whose every
    entry is +1 or -1 (as in a sign block) takes its text from a two-entry
    table instead, with one numpy indexing pass; the output is the same
    bytes.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2 or vals.size == 0:
        raise ShapeError(f"expected a nonempty 2-d array, got shape {np.shape(values)}")
    step = max(1, _WRITE_BLOCK // vals.shape[1])
    _write((_csv_text(vals[i : i + step]) for i in range(0, vals.shape[0], step)), dest)


_SIGN_TEXT = np.array(["-1.0", "1.0"], dtype=object)


def _csv_text(rows) -> str:
    """The CSV lines of a block of rows, each ended by a newline."""
    if np.all(np.abs(rows) == 1.0):
        # the int8 view makes this an index (0 or 1), not a boolean mask
        cells = _SIGN_TEXT[(rows > 0).view(np.int8)].tolist()
    else:
        cells = (map(repr, row.tolist()) for row in rows)
    return "\n".join([*map(",".join, cells), ""])


# characters where str.splitlines ends a line and a file read with universal
# newlines does not, and the unit separator 0x1f, which np.loadtxt strips
# around a value and ``float`` does not
_IRREGULAR = "\x0b\x0c\x1c\x1d\x1e\x1f"
# characters of CSV lines that read_csv_matrix reads and checks at a time
_READ_BLOCK = 1 << 16


def read_csv_matrix(source) -> np.ndarray:
    """Read a dense CSV matrix written by write_csv_matrix.

    Blank lines are skipped.  A ragged row or a token ``float`` rejects
    raises ParseError naming the first bad line, as does an input with no
    rows.

    Cost: the lines go through numpy's C tokenizer (``np.loadtxt``), which
    converts each token with the C routine ``float`` uses, so the values
    are the same bits.  From a regular file the lines are fed to it in
    batches as the file is read, so beyond the result memory holds a batch
    of lines and numpy's buffers, not the text: 1.1 to 1.7 times the
    result.  Any other source (a pipe, a file-like object) is read whole
    and split into lines first, and so is a file that is not ASCII, that
    holds a character where ``str.splitlines`` ends a line and a file read
    does not (0x0b, 0x0c, 0x1c to 0x1e) or the unit separator 0x1f, or that
    the tokenizer rejects.  A whole text that the tokenizer rejects, or
    that holds 0x1f (which the tokenizer strips around a value and
    ``float`` does not), is re-read line by line with one ``float`` per
    token, to name the first error.
    """
    # only a regular file can be read again by the fallback
    if not hasattr(source, "read") and os.path.isfile(source):
        try:
            with _open_read(source) as fh:
                lines = _plain_lines(fh)
                # blank lines alone are the loop's "no rows" error (loadtxt
                # would warn); loadtxt skips blank lines, so those before
                # the first row may go
                first = next((line for line in lines if line != "\n"), None)
                if first is not None:
                    return np.loadtxt(
                        chain([first], lines),
                        dtype=float, delimiter=",", comments=None, ndmin=2,
                    )
        except ValueError:  # UnicodeDecodeError included
            pass
    return _csv_from_text(_read(source))


def _plain_lines(fh):
    """The lines of a text file read with universal newlines, each with its
    newline: the lines ``str.splitlines`` gives of the file's text, as long
    as no character of _IRREGULAR appears.  Lines are read in batches of
    about _READ_BLOCK characters, and ValueError is raised at a batch that
    holds such a character."""
    while batch := fh.readlines(_READ_BLOCK):
        text = "".join(batch)
        if any(c in text for c in _IRREGULAR):
            raise ValueError("a line holds a character loadtxt must not see")
        yield from batch


def _csv_from_text(text: str) -> np.ndarray:
    """read_csv_matrix on the whole text of the input."""
    lines = text.splitlines()
    # blank lines alone are the loop's "no rows" error (loadtxt would warn)
    if any(lines) and "\x1f" not in text:
        try:
            return np.loadtxt(lines, dtype=float, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    rows = []
    width = None
    for lineno, line in enumerate(lines, start=1):
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
