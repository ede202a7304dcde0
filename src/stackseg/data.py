"""Image and label IO, dataset manifests, and a synthetic shapes task.

Images travel as (3, h, w) float32 in [0, 1] (8-bit binary PPM on disk,
value/255). A loaded dataset stores each image as its PPM's own 8-bit
pixels, a quarter of the float bytes, and serves it as float32 on each
read of ``Sample.image``. Labels and predictions are (h, w) uint8 label
maps (binary PGM), with 255 reserved for ignored pixels.

A manifest is a text file of ``key = value`` header lines followed by one
``image<TAB>label`` row per sample (the label column may be omitted for
unlabeled data); paths are relative to the manifest's directory.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError

IGNORE_INDEX = 255
_PNM_FIELD_DIGITS = 9  # longest header number read; larger is corrupt


@dataclass
class Sample:
    """One image with its label map (None when unlabeled).

    ``pixels`` is what the sample was built from: a loaded sample's
    (3, h, w) uint8 view of its PPM's bytes, or any float image, such as a
    synthetic one. ``image`` reads it as float32 in [0, 1].
    """

    pixels: np.ndarray
    labels: np.ndarray | None
    name: str

    @property
    def image(self):
        """(3, h, w) float32 in [0, 1]: uint8 pixels converted as
        :func:`read_ppm` converts them, on every read; a float image is
        returned as it is."""
        return _as_float(self.pixels)


# ---------------------------------------------------------------------------
# PNM files


def _read_pnm_header(f, magic, path):
    got = f.read(2)
    if got != magic:
        raise DataError(f"{path}: expected {magic.decode()} file, "
                        f"found {got!r}")
    fields = []
    while len(fields) < 3:
        tok = b""
        ch = f.read(1)
        while ch.isspace():
            ch = f.read(1)
        if ch == b"#":  # comment runs to end of line
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        while ch and not ch.isspace() and len(tok) <= _PNM_FIELD_DIGITS:
            tok += ch
            ch = f.read(1)
        if not tok.isdigit() or len(tok) > _PNM_FIELD_DIGITS:
            raise DataError(f"{path}: malformed header near {tok!r}")
        fields.append(int(tok))
    return fields  # width, height, maxval


def _read_pnm(path, magic, channels):
    with open(path, "rb") as f:
        w, h, maxval = _read_pnm_header(f, magic, path)
        if maxval != 255:
            raise DataError(f"{path}: only maxval 255 supported, got {maxval}")
        if w < 1 or h < 1:
            raise DataError(f"{path}: bad image size {w}x{h}")
        # bound the read by the file, so a corrupt size allocates nothing
        n_bytes = w * h * channels
        left = os.fstat(f.fileno()).st_size - f.tell()
        if n_bytes > left:
            raise DataError(f"{path}: truncated pixel data "
                            f"({left} of {n_bytes} bytes)")
        pixels = np.empty((h, w, channels), dtype=np.uint8)  # writable
        got = f.readinto(pixels)
    if got != n_bytes:
        raise DataError(f"{path}: truncated pixel data "
                        f"({got} of {n_bytes} bytes)")
    return pixels


def _read_ppm_pixels(path):
    """(3, h, w) uint8: the transposed view of the file's (h, w, 3) bytes."""
    return _read_pnm(path, b"P6", 3).transpose(2, 0, 1)


def _as_float(pixels):
    """uint8 pixels as float32 value/255, in their memory order; any other
    array is returned as it is."""
    if pixels.dtype == np.uint8:
        return pixels.astype(np.float32) / 255.0
    return pixels


def read_ppm(path):
    """(3, h, w) float32 in [0, 1]."""
    return _as_float(_read_ppm_pixels(path))


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
    return _read_pnm(path, b"P5", 1)[:, :, 0]


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

    The file must be UTF-8 text without NUL bytes; anything else is a
    :class:`DataError` naming the line.
    """
    meta = {}
    rows = []
    with open(path, "rb") as f:
        raw = f.read()
    for lineno, line in enumerate(raw.splitlines(), 1):
        try:
            line = line.decode("utf-8").strip()
        except UnicodeDecodeError as e:
            raise DataError(f"{path}:{lineno}: not UTF-8 text ({e.reason})")
        if "\0" in line:
            raise DataError(f"{path}:{lineno}: NUL byte in {line!r}")
        if not line or line.startswith("#"):
            continue
        if "\t" in line:
            parts = line.split("\t")
            if len(parts) > 2 or not parts[0]:
                raise DataError(f"{path}:{lineno}: bad sample row {line!r}")
            rows.append((parts[0], parts[1] or None))
        elif "=" in line:
            key, _, value = line.partition("=")
            meta[key.strip()] = value.strip()
        else:
            rows.append((line, None))  # bare path = unlabeled sample
    return meta, rows


def write_manifest(path, meta, rows):
    with open(path, "w", encoding="utf-8") as f:
        for key, value in meta.items():
            f.write(f"{key} = {value}\n")
        for image, label in rows:
            f.write(f"{image}\t{label}\n" if label else f"{image}\n")


def load_samples(manifest_path):
    """Materialize every sample a manifest points at.

    Each image is kept as the bytes its PPM holds, (3, h, w) uint8, and
    each label map as its PGM's: h·w·3 + h·w bytes per sample.
    """
    meta, rows = parse_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    samples = []
    for image_rel, label_rel in rows:
        pixels = _read_ppm_pixels(os.path.join(base, image_rel))
        labels = None
        if label_rel is not None:
            labels = read_pgm(os.path.join(base, label_rel))
            if labels.shape != pixels.shape[1:]:
                raise DataError(
                    f"{image_rel}: image is {pixels.shape[1:]} but label map "
                    f"{label_rel} is {labels.shape}")
        name = os.path.splitext(os.path.basename(image_rel))[0]
        samples.append(Sample(pixels, labels, name))
    if not samples:
        raise DataError(f"{manifest_path}: no samples listed")
    return meta, samples


def save_dataset(directory, samples, meta):
    """Write samples as PPM/PGM pairs plus a manifest; returns its path."""
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
