"""Image and label IO, dataset manifests, and a synthetic shapes task.

Images travel as (3, h, w) float32 in [0, 1] (8-bit binary PPM on disk,
value/255). Labels and predictions are (h, w) uint8 label maps (binary
PGM), with 255 reserved for ignored pixels. A loaded dataset holds no
pixels: :func:`load_samples` checks every file once, and each sample
reads its PPM's 8-bit pixels and its PGM's labels again on every access,
serving the image as float32.

A manifest is a text file of ``key = value`` header lines followed by one
``image<TAB>label`` row per sample (the label column may be omitted for
unlabeled data); paths are relative to the manifest's directory.

:class:`BoundedReader` opens every untrusted file the package reads (a
PPM/PGM, manifest or SDNW checkpoint of ``weights_io``), and every byte of
one is read through it. It reads regular files only, whose size it can
check: any other file, such as a pipe, a named FIFO or ``/dev/zero``, is
a :class:`DataError`, raised without waiting for a FIFO's writer. Every
length such a file declares is checked against the bytes it has left
before anything that size is read or allocated, so a corrupt file fails
with :class:`DataError`.
"""
from __future__ import annotations

import io
import math
import os
import re
import stat
from collections import Counter
from typing import NamedTuple

import numpy as np

from .errors import DataError

IGNORE_INDEX = 255
_PNM_FIELD_DIGITS = 9  # longest header number read; larger is corrupt
_U8 = np.dtype(np.uint8)


class BoundedReader:
    """Opens ``path`` as a context manager and reads it no further than
    the size one ``fstat`` gives for it when it is opened.

    Only a regular file is opened for reading: any other kind cannot be
    sized, and raises :class:`DataError`. :meth:`read` and :meth:`array`
    check each declared length against the bytes left before anything is
    read or allocated; a length beyond them, or a file that ends early,
    raises :class:`DataError` naming ``what`` was being read.
    """

    def __init__(self, path):
        self.path = path

    def __enter__(self):
        # os.open, unlike open(), opens a directory too, so that it is
        # refused here as every other file that is not regular is; and
        # O_NONBLOCK keeps the open of a named FIFO from waiting for a writer
        fd = os.open(self.path, os.O_RDONLY | os.O_NONBLOCK)
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            os.close(fd)
            raise DataError(f"{self.path}: not a regular file, so its size "
                            f"cannot be checked")
        os.set_blocking(fd, True)
        self.left = st.st_size
        # a fixed buffer size, so that :meth:`peek` sees the same window on
        # every file system
        self.f = open(fd, "rb", buffering=io.DEFAULT_BUFFER_SIZE)
        return self

    def __exit__(self, *exc):
        self.f.close()

    def _claim(self, n, what):
        if n > self.left:
            raise DataError(f"{self.path}: truncated while reading {what} "
                            f"({n} bytes declared, {self.left} left)")
        self.left -= n

    def read(self, n, what):
        """The next ``n`` bytes."""
        self._claim(n, what)
        raw = self.f.read(n)
        if len(raw) != n:  # the file shrank since it was opened
            raise DataError(f"{self.path}: truncated while reading {what}")
        return raw

    def peek(self):
        """The next bytes, no more than ``io.DEFAULT_BUFFER_SIZE`` or the
        bytes left, not consumed: one buffered read at most."""
        return self.f.peek()[:min(io.DEFAULT_BUFFER_SIZE, self.left)]

    def array(self, shape, dtype, what):
        """A writable C-order array of ``shape`` filled in place from the
        next bytes; ``dtype`` is an ``np.dtype``."""
        n = dtype.itemsize * math.prod(shape)  # Python ints: cannot overflow
        self._claim(n, what)
        try:  # numpy refuses shapes like (2**32-1,)*3 + (0,)
            out = np.empty(shape, dtype)
        except ValueError:
            raise DataError(f"{self.path}: {what} has unusable shape {shape}")
        if self.f.readinto(out) != n:
            raise DataError(f"{self.path}: truncated while reading {what}")
        return out


class Sample:
    """One image with its label map, or None when unlabeled.

    Each of the two is an array held in memory (a synthetic sample, or one
    built from arrays), or, in a sample :func:`load_samples` made, a
    :class:`PnmFile` that is read on every access. ``pixels`` is the image
    as held or read: a loaded sample's (3, h, w) uint8 view of its PPM's
    bytes, or any float image. ``image`` reads it as float32 in [0, 1].
    """

    __slots__ = ("_pixels", "_labels", "name")

    def __init__(self, pixels, labels, name):
        self._pixels, self._labels, self.name = pixels, labels, name

    @property
    def pixels(self):
        return _held(self._pixels)

    @property
    def labels(self):
        return _held(self._labels)

    @property
    def labeled(self):
        """Whether the sample has a label map; no file is opened."""
        return self._labels is not None

    @property
    def image(self):
        """(3, h, w) float32 in [0, 1]: uint8 pixels converted as
        :func:`read_ppm` converts them, on every read; a float image is
        returned as it is."""
        return _as_float(self.pixels)


def _held(value):
    """An array or None as it is; a :class:`PnmFile`'s pixels, read now."""
    return value.read() if isinstance(value, PnmFile) else value


# ---------------------------------------------------------------------------
# PNM files


# magic, then width, height and maxval: each field is preceded by any
# whitespace and whole comment lines, and ended by one whitespace byte.
# Whitespace runs are single-byte repeats, which keep no backtracking
# state per byte. The comment lines are a possessive repeat (Python
# 3.11's ``*+``), which keeps none at all: after the last comment and its
# whitespace only a digit can match, so giving a line back never helps,
# and a peek window full of comment lines parses in ~18 KB.
_PNM_HEADER = re.compile(rb"P[56]" + 3 * (
    rb"\s*(?:#[^\n]*\n\s*)*+(\d{1,%d})\s" % _PNM_FIELD_DIGITS))


class PnmFile(NamedTuple):
    """A PNM file whose header was checked: its path, the header's bytes,
    and the (h, w[, 3]) shape of the uint8 pixels that follow them."""

    path: str
    header: bytes
    shape: tuple

    def read(self):
        """The pixels, read now: (h, w) for a PGM, and for a PPM the
        (3, h, w) transposed view of the (h, w, 3) bytes read. Raises
        :class:`DataError` naming the file if it no longer starts with the
        checked header or is too short for its pixels."""
        with BoundedReader(self.path) as r:
            header = r.read(len(self.header), "header")
            if header != self.header:
                raise DataError(f"{self.path}: header changed to {header!r} "
                                f"since it was checked as {self.header!r}")
            pixels = r.array(self.shape, _U8, "pixel data")
        return pixels.transpose(2, 0, 1) if pixels.ndim == 3 else pixels


def _check_pnm(path, magic, *channels):
    """The :class:`PnmFile` at ``path``, once its magic, header and the
    size of the (h, w, *channels) pixels it declares are checked."""
    with BoundedReader(path) as r:
        head = r.peek()
        if head[:2] != magic:
            raise DataError(f"{path}: expected {magic.decode()} file, "
                            f"found {head[:2]!r}")
        m = _PNM_HEADER.match(head)
        if m is None:  # also a header longer than the peek window
            raise DataError(f"{path}: malformed header {head[:32]!r}")
        w, h, maxval = map(int, m.groups())
        if maxval != 255:
            raise DataError(f"{path}: only maxval 255 supported, got {maxval}")
        if w < 1 or h < 1:
            raise DataError(f"{path}: bad image size {w}x{h}")
        header = r.read(m.end(), "header")
        shape = (h, w, *channels)
        r._claim(math.prod(shape), "pixel data")
    return PnmFile(path, header, shape)


def _as_float(pixels):
    """uint8 pixels as float32 value/255, in their memory order; any other
    array is returned as it is."""
    if pixels.dtype == np.uint8:
        return pixels.astype(np.float32) / 255.0
    return pixels


def read_ppm(path):
    """(3, h, w) float32 in [0, 1]."""
    return _as_float(_check_pnm(path, b"P6", 3).read())


def write_ppm(path, image):
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != 3:
        raise DataError(f"write_ppm: expected (3, h, w), got {image.shape}")
    u8 = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    h, w = image.shape[1:]
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(u8.transpose(1, 2, 0).tobytes())


def read_pgm(path):
    """(h, w) uint8 label maps and prediction maps, writable and
    C-contiguous."""
    return _check_pnm(path, b"P5").read()


def write_pgm(path, labels):
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise DataError(f"write_pgm: expected (h, w), got {labels.shape}")
    if labels.min() < 0 or labels.max() > 255:
        raise DataError(f"write_pgm: values outside [0, 255]: "
                        f"[{labels.min()}, {labels.max()}]")
    h, w = labels.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# manifests


def parse_manifest(path):
    """Returns (meta dict, [(image_path, label_path_or_None), ...]).

    The file must be a regular file of UTF-8 text without NUL bytes,
    read whole through :class:`BoundedReader`; anything else is a
    :class:`DataError`, naming the line where there is one. Spaces are
    stripped from each line's ends, but not TABs: a row whose image
    column is empty is a bad sample row.
    """
    meta = {}
    rows = []
    with BoundedReader(path) as r:
        raw = r.read(r.left, "manifest")
    for lineno, line in enumerate(raw.splitlines(), 1):
        try:
            line = line.decode("utf-8").strip(" ")
        except UnicodeDecodeError as e:
            raise DataError(f"{path}:{lineno}: not UTF-8 text ({e.reason})")
        if "\0" in line:
            raise DataError(f"{path}:{lineno}: NUL byte in {line!r}")
        if not line or line.startswith("#"):
            continue
        if "=" in line and "\t" not in line:
            key, _, value = line.partition("=")
            meta[key.strip()] = value.strip()
            continue
        image, _, label = line.partition("\t")  # no TAB: unlabeled sample
        if not image or "\t" in label:
            raise DataError(f"{path}:{lineno}: bad sample row {line!r}")
        rows.append((image, label or None))
    return meta, rows


def write_manifest(path, meta, rows):
    with open(path, "w", encoding="utf-8") as f:
        for key, value in meta.items():
            f.write(f"{key} = {value}\n")
        for image, label in rows:
            f.write(f"{image}\t{label}\n" if label else f"{image}\n")


def load_samples(manifest_path):
    """The samples a manifest lists, checked now and read when used.

    Every PPM and PGM is opened and checked here: its magic and header,
    that the pixels it declares fit in the file, and that a label map has
    its image's (h, w); so a bad file fails before the first use of any
    sample. No pixels are kept: each sample holds a :class:`PnmFile` per
    file (its path, checked header bytes and shape) and reads the image
    and labels again on every access of ``pixels``, ``image`` or
    ``labels``.
    """
    meta, rows = parse_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    samples = []
    for image_rel, label_rel in rows:
        image = _check_pnm(os.path.join(base, image_rel), b"P6", 3)
        labels = None
        if label_rel is not None:
            labels = _check_pnm(os.path.join(base, label_rel), b"P5")
            if labels.shape != image.shape[:2]:
                raise DataError(
                    f"{image_rel}: image is {image.shape[:2]} but label map "
                    f"{label_rel} is {labels.shape}")
        name = os.path.splitext(os.path.basename(image_rel))[0]
        samples.append(Sample(image, labels, name))
    if not samples:
        raise DataError(f"{manifest_path}: no samples listed")
    return meta, samples


def save_dataset(directory, samples, meta):
    """Write samples as PPM/PGM pairs plus a manifest; returns its path.

    Files are named after ``Sample.name``, so samples that share a name
    raise DataError before anything is written.
    """
    shared = [n for n, k in Counter(s.name for s in samples).items() if k > 1]
    if shared:
        raise DataError(f"two samples share the name {shared[0]!r}; their "
                        "files are named after it")
    os.makedirs(directory, exist_ok=True)
    rows = []
    for sample in samples:
        image_rel = f"{sample.name}.ppm"
        write_ppm(os.path.join(directory, image_rel), sample.image)
        label_rel = None
        if sample.labels is not None:
            label_rel = f"{sample.name}_labels.pgm"
            write_pgm(os.path.join(directory, label_rel), sample.labels)
        rows.append((image_rel, label_rel))
    path = os.path.join(directory, "manifest.txt")
    write_manifest(path, meta, rows)
    return path


# ---------------------------------------------------------------------------
# helpers


def mean_pixel(samples):
    """Per-channel mean over all pixels of all samples, as float32 (3,)."""
    total = np.zeros(3, dtype=np.float64)
    count = 0
    for s in samples:
        image = s.image
        total += image.sum(axis=(1, 2))
        count += image.shape[1] * image.shape[2]
    if count == 0:
        raise DataError("mean_pixel of an empty dataset")
    return (total / count).astype(np.float32)


def pad_bottom_right(image, labels, out_h, out_w, fill):
    """Grow a (3, h, w) image to (3, out_h, out_w) at the bottom and right.

    New image pixels take ``fill`` (per channel, or one value for all);
    new label pixels take the ignore index. Returns (image, labels), with
    labels passed through as None when absent.
    """
    h, w = image.shape[1:]
    out = np.empty((3, out_h, out_w), dtype=image.dtype)
    out[:] = np.broadcast_to(np.asarray(fill, dtype=image.dtype),
                             (3,))[:, None, None]
    out[:, :h, :w] = image
    if labels is None:
        return out, None
    padded = np.full((out_h, out_w), IGNORE_INDEX, dtype=labels.dtype)
    padded[:h, :w] = labels
    return out, padded


def pad_to_multiple(image, multiple, fill=None):
    """Right/bottom-pad a (3, h, w) image so both sides divide
    ``multiple``, with ``fill`` per channel (default the image's own
    mean). Returns ``image`` itself when it is already aligned.
    """
    image = np.asarray(image)
    h, w = image.shape[1:]
    if h % multiple == 0 and w % multiple == 0:
        return image
    if fill is None:
        fill = image.mean(axis=(1, 2))
    return pad_bottom_right(image, None, h + (-h) % multiple,
                            w + (-w) % multiple, fill)[0]


# ---------------------------------------------------------------------------
# synthetic shapes task

BG_COLOR = (0.20, 0.45, 0.20)
RECT_COLOR = (0.75, 0.25, 0.20)
DISK_COLOR = (0.20, 0.30, 0.80)


def synth_sample(rng, size=64, noise=0.08, name="sample"):
    """One textured image with rectangles (class 1) and disks (class 2).

    Later shapes overwrite earlier ones; labels are exact masks.
    """
    h = w = size
    image = np.empty((3, h, w), dtype=np.float32)
    # background: base color, a gentle illumination ramp, and pixel noise
    ramp = np.linspace(-0.06, 0.06, w, dtype=np.float32)[None, :] \
        + np.linspace(-0.04, 0.04, h, dtype=np.float32)[:, None]
    for c, base in enumerate(BG_COLOR):
        image[c] = base + ramp
    labels = np.zeros((h, w), dtype=np.uint8)
    yy, xx = np.mgrid[0:h, 0:w]

    for _ in range(rng.integers(1, 3)):
        rw = int(rng.integers(size // 5, size // 2))
        rh = int(rng.integers(size // 5, size // 2))
        y0 = int(rng.integers(0, h - rh))
        x0 = int(rng.integers(0, w - rw))
        mask = np.zeros((h, w), dtype=bool)
        mask[y0:y0 + rh, x0:x0 + rw] = True
        jitter = rng.normal(0.0, 0.03, 3)
        for c, base in enumerate(RECT_COLOR):
            image[c][mask] = base + jitter[c]
        labels[mask] = 1

    for _ in range(rng.integers(1, 3)):
        r = int(rng.integers(size // 8, size // 4))
        cy = int(rng.integers(r, h - r))
        cx = int(rng.integers(r, w - r))
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        jitter = rng.normal(0.0, 0.03, 3)
        for c, base in enumerate(DISK_COLOR):
            image[c][mask] = base + jitter[c]
        labels[mask] = 2

    image += rng.normal(0.0, noise, image.shape).astype(np.float32)
    np.clip(image, 0.0, 1.0, out=image)
    return Sample(image, labels, name)


def synth_dataset(count, size=64, noise=0.08, seed=0):
    """Deterministic list of synthetic samples; 3 classes."""
    # below 4 px no disk radius fits; NaN noise fails ``>= 0`` as well
    if count < 1 or size < 4 or not noise >= 0 or seed < 0:
        raise DataError(f"synth: need count >= 1, size >= 4, noise >= 0 and "
                        f"seed >= 0, got count={count} size={size} "
                        f"noise={noise} seed={seed}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return [synth_sample(rng, size, noise, name=f"synth{i:04d}")
            for i in range(count)]
