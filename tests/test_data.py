import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stackseg import DataError
from stackseg.data import (
    BG_COLOR,
    DISK_COLOR,
    RECT_COLOR,
    Sample,
    load_samples,
    mean_pixel,
    pad_to_multiple,
    parse_manifest,
    read_pgm,
    read_ppm,
    save_dataset,
    synth_dataset,
    synth_sample,
    write_manifest,
    write_pgm,
    write_ppm,
)


# ---------------------------------------------------------------------------
# PNM round trips


def test_ppm_round_trip_exact_on_byte_grid(tmp_path):
    # values on the k/255 grid survive the u8 round trip bit for bit
    vals = (np.arange(3 * 6 * 5) % 256).astype(np.float32) / 255.0
    image = vals.reshape(3, 6, 5)
    path = tmp_path / "img.ppm"
    write_ppm(path, image)
    back = read_ppm(path)
    assert back.dtype == np.float32 and back.shape == (3, 6, 5)
    assert (back == image).all()


def test_ppm_write_quantizes_to_nearest_byte(tmp_path):
    image = np.full((3, 1, 1), 0.4999, dtype=np.float32)
    path = tmp_path / "q.ppm"
    write_ppm(path, image)
    assert_allclose(read_ppm(path), 127 / 255, rtol=1e-6)


def test_pgm_round_trip(tmp_path):
    labels = np.arange(256, dtype=np.int64).reshape(16, 16)
    path = tmp_path / "lab.pgm"
    write_pgm(path, labels)
    back = read_pgm(path)
    assert back.dtype == np.uint8 and (back == labels).all()
    with pytest.raises(DataError):
        write_pgm(tmp_path / "bad.pgm", labels + 1)  # 256 out of byte range


def test_read_pgm_returns_a_writable_contiguous_uint8_map(tmp_path):
    path = tmp_path / "lab.pgm"
    path.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 1, 2, 20, 254, 255]))
    back = read_pgm(path)
    assert back.shape == (2, 3) and back.dtype == np.uint8
    assert back.flags.c_contiguous and back.flags.writeable
    assert back.tolist() == [[0, 1, 2], [20, 254, 255]]
    back[0, 0] = 7  # the caller owns the buffer
    assert back[0, 0] == 7


def test_header_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# comment\n 4  2 # trailing\n255\n" + bytes(8))
    assert read_pgm(path).shape == (2, 4)


@pytest.mark.parametrize("blob, hint", [
    (b"P6\n2 2\n255\n" + bytes(12), "expected P5"),     # wrong magic
    (b"P5\n2 2\n255\n" + bytes(3), "truncated"),        # short payload
    (b"P5\n2 2\n65535\n" + bytes(8), "maxval"),         # 16-bit depth
    (b"P5\nab 2\n255\n" + bytes(4), "malformed"),       # non-numeric size
])
def test_pnm_error_cases(tmp_path, blob, hint):
    path = tmp_path / "junk.pgm"
    path.write_bytes(blob)
    with pytest.raises(DataError, match=hint):
        read_pgm(path)


@pytest.mark.parametrize("blob, hint", [
    (b"P5\n100000 100000\n255\n" + bytes(10), "truncated"),  # 10 GB declared
    (b"P5\n" + b"9" * 40 + b" 2\n255\n" + bytes(10), "malformed"),
    (b"P5\n" + b"9" * 5000 + b" 2\n255\n" + bytes(10), "malformed"),
    (b"P5\n0 2\n255\n", "size"),
], ids=["huge_size", "40_digit_width", "5000_digit_width", "zero_width"])
def test_pnm_size_bounded_by_file(tmp_path, blob, hint):
    path = tmp_path / "corrupt.pgm"
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=hint):
            read_pgm(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# manifests


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "manifest.txt"
    meta = {"num_classes": "3", "note": "x = y"}
    rows = [("a.ppm", "a.pgm"), ("b.ppm", None)]
    write_manifest(path, meta, rows)
    got_meta, got_rows = parse_manifest(path)
    assert got_meta == meta and got_rows == rows


def test_manifest_ignores_blanks_and_comments(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# header\n\nnum_classes = 2\nimg.ppm\tlab.pgm\n")
    meta, rows = parse_manifest(path)
    assert meta == {"num_classes": "2"} and rows == [("img.ppm", "lab.pgm")]


def test_manifest_rejects_extra_columns(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("a.ppm\tb.pgm\tc\n")
    with pytest.raises(DataError, match="bad sample row"):
        parse_manifest(path)


@pytest.mark.parametrize("blob,hint", [
    (b"num_classes = 3\n\xff\xfe.ppm\n", ":2: not UTF-8"),
    (b"a\x00.ppm\tb.pgm\n", ":1: NUL byte"),
    (b"# ok\r\nb.ppm\ta\x00.pgm\n", ":2: NUL byte"),
], ids=["not_utf8", "nul_in_image", "nul_in_label"])
def test_manifest_rejects_binary_content(tmp_path, blob, hint):
    path = tmp_path / "m.txt"
    path.write_bytes(blob)
    with pytest.raises(DataError, match=hint):
        parse_manifest(path)
    with pytest.raises(DataError, match=hint):
        load_samples(path)


def test_manifest_line_endings_and_unicode_paths(tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes("num_classes = 2\r\nbild\u00e4.ppm\tl.pgm\rc.ppm\n"
                     .encode("utf-8"))
    meta, rows = parse_manifest(path)
    assert meta == {"num_classes": "2"}
    assert rows == [("bild\u00e4.ppm", "l.pgm"), ("c.ppm", None)]


def test_dataset_save_and_load(tmp_path):
    samples = synth_dataset(3, size=32, seed=4)
    manifest = save_dataset(tmp_path / "ds", samples, {"num_classes": "3"})
    meta, loaded = load_samples(manifest)
    assert meta["num_classes"] == "3"
    assert [s.name for s in loaded] == [s.name for s in samples]
    for got, want in zip(loaded, samples):
        assert (got.labels == want.labels).all()
        # images went through the byte grid once
        assert np.abs(got.image - want.image).max() <= 0.5 / 255 + 1e-6


def test_load_samples_checks_sizes(tmp_path):
    write_ppm(tmp_path / "a.ppm", np.zeros((3, 8, 8), dtype=np.float32))
    write_pgm(tmp_path / "a.pgm", np.zeros((4, 8), dtype=np.int64))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("a.ppm\ta.pgm\n")
    with pytest.raises(DataError, match="label map"):
        load_samples(manifest)
    manifest.write_text("num_classes = 3\n")
    with pytest.raises(DataError, match="no samples"):
        load_samples(manifest)


def test_load_samples_keeps_the_ppm_bytes(tmp_path):
    n, size = 4, 64
    manifest = save_dataset(tmp_path / "ds", synth_dataset(n, size, seed=4),
                            {"num_classes": "3"})
    tracemalloc.start()
    try:
        _, loaded = load_samples(manifest)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for s in loaded:
        assert s.pixels.dtype == np.uint8 and s.pixels.shape == (3, size, size)
        assert s.pixels.nbytes == 3 * size * size
        # the (h, w, 3) buffer the file was read into, not a copy of it
        assert s.pixels.base.shape == (size, size, 3)
    # h·w·3 image bytes and h·w label bytes per sample, plus small objects;
    # float32 images alone would hold 12·h·w
    assert held < n * 4 * size * size + (16 << 10)


def test_sample_image_is_read_ppm_of_its_file(tmp_path):
    manifest = save_dataset(tmp_path / "ds", synth_dataset(2, 24, seed=5),
                            {"num_classes": "3"})
    _, loaded = load_samples(manifest)
    for s in loaded:
        want = read_ppm(tmp_path / "ds" / f"{s.name}.ppm")
        got = s.image
        assert got.dtype == want.dtype == np.float32
        assert got.shape == want.shape and got.strides == want.strides
        assert got.tobytes() == want.tobytes()
        with pytest.raises(AttributeError):
            s.image = want  # read-only: the sample holds only its pixels


def test_a_float_sample_serves_its_own_array():
    image = np.zeros((3, 4, 5), dtype=np.float32)
    s = Sample(image, None, "f")
    assert s.image is image and s.pixels is image


# ---------------------------------------------------------------------------
# helpers


def test_mean_pixel():
    a = Sample(np.stack([np.full((2, 2), v, dtype=np.float32)
                         for v in (0.0, 0.5, 1.0)]), None, "a")
    b = Sample(np.stack([np.full((1, 2), v, dtype=np.float32)
                         for v in (0.6, 0.5, 0.4)]), None, "b")
    # channel 0: (4*0.0 + 2*0.6) / 6
    assert_allclose(mean_pixel([a, b]), [0.2, 0.5, 0.8], rtol=1e-6)
    with pytest.raises(DataError):
        mean_pixel([])


def test_pad_to_multiple():
    image = np.random.default_rng(0).random((3, 30, 45)).astype(np.float32)
    out = pad_to_multiple(image, 16, fill=(0.1, 0.2, 0.3))
    assert out.shape == (3, 32, 48) and out.dtype == np.float32
    assert (out[:, :30, :45] == image).all()
    assert_allclose(out[:, 31, 0], [0.1, 0.2, 0.3], rtol=1e-6)
    assert_allclose(out[:, 0, 47], [0.1, 0.2, 0.3], rtol=1e-6)


def test_pad_to_multiple_is_identity_when_aligned():
    image = np.zeros((3, 32, 32), dtype=np.float32)
    assert pad_to_multiple(image, 16) is image


def test_pad_default_fill_is_image_mean():
    image = np.full((3, 15, 16), 0.25, dtype=np.float32)
    out = pad_to_multiple(image, 16)
    assert_allclose(out[:, 15, :], 0.25, rtol=1e-6)


# ---------------------------------------------------------------------------
# synthetic task


class ScriptedRng:
    """Replays a fixed list of integer draws; normals come back zero."""

    def __init__(self, ints):
        self.ints = list(ints)

    def integers(self, low, high=None):
        return self.ints.pop(0)

    def normal(self, loc, scale, size=None):
        return np.zeros(() if size is None else size)


def test_synth_sample_masks_match_brute_force():
    # script: one 10x8 rectangle at (4, 6), one radius-5 disk at (16, 12)
    rng = ScriptedRng([1, 10, 8, 4, 6, 1, 5, 16, 12])
    sample = synth_sample(rng, size=32, noise=0.0)
    expected = np.zeros((32, 32), dtype=np.int64)
    for y in range(32):
        for x in range(32):
            if 4 <= y < 12 and 6 <= x < 16:
                expected[y, x] = 1
            if (y - 16) ** 2 + (x - 12) ** 2 <= 25:
                expected[y, x] = 2  # disks paint over rectangles
    assert (sample.labels == expected).all()
    assert (expected == 1).any() and (expected == 2).any()
    # with zero jitter and noise, shape pixels are the palette colors
    for c in range(3):
        assert_allclose(sample.image[c][expected == 1], RECT_COLOR[c],
                        rtol=1e-6)
        assert_allclose(sample.image[c][expected == 2], DISK_COLOR[c],
                        rtol=1e-6)
        bg = sample.image[c][expected == 0]
        assert np.abs(bg - BG_COLOR[c]).max() <= 0.11  # ramp only


def test_synth_dataset_deterministic_and_well_formed():
    a = synth_dataset(3, size=48, seed=5)
    b = synth_dataset(3, size=48, seed=5)
    other = synth_dataset(3, size=48, seed=6)
    for s1, s2 in zip(a, b):
        assert (s1.image == s2.image).all() and (s1.labels == s2.labels).all()
    assert any((s1.image != s3.image).any() for s1, s3 in zip(a, other))
    for s in a:
        assert s.image.dtype == np.float32 and s.labels.dtype == np.uint8
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0
        assert set(np.unique(s.labels)) <= {0, 1, 2}
    with pytest.raises(DataError, match="seed"):
        synth_dataset(3, size=48, seed=-1)
