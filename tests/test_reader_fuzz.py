"""Fuzz tests of the readers of untrusted files.

Whatever bytes a reader is handed, it either returns or raises
``DataError``; any other exception is a bug.
"""
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from stackseg import DataError
from stackseg.data import parse_manifest, read_pgm, read_ppm, write_pgm, \
    write_ppm
from stackseg.network import NetworkConfig, StackedNet, config_from_state, \
    mini_config
from stackseg.weights_io import MAGIC, VERSION, load_weights, save_weights

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# pieces of well-formed manifests, so the fuzzer reaches every branch,
# mixed with arbitrary bytes
PIECES = [b"num_classes = 3", b"a.ppm", b"\t", b"b.pgm", b"=", b"#", b" ",
          b"\n", b"\r", b"\r\n", b"\x00", b"\xff", b"\xc3", b"\xc3\xa4",
          b"\xe2\x80\xa8", b"\x85", b"\x0b"]
MANIFESTS = st.one_of(
    st.binary(max_size=200),
    st.lists(st.one_of(st.sampled_from(PIECES), st.binary(max_size=4)),
             max_size=40).map(b"".join),
)


@FUZZ
@given(blob=MANIFESTS)
def test_parse_manifest_returns_or_raises_data_error(tmp_path, blob):
    path = tmp_path / "manifest.txt"
    path.write_bytes(blob)
    try:
        meta, rows = parse_manifest(path)
    except DataError:
        return
    assert all(isinstance(k, str) and isinstance(v, str)
               for k, v in meta.items())
    for image, label in rows:
        assert image and "\0" not in image
        assert label is None or (label and "\0" not in label)


def _record(name, dims, payload):
    """One tensor entry of the SDNW container, as save_weights writes it."""
    encoded = name.encode("utf-8")
    return (struct.pack("<I", len(encoded)) + encoded
            + struct.pack(f"<I{len(dims)}I", len(dims), *dims) + payload)


def _container(records, count=None):
    count = len(records) if count is None else count
    return MAGIC + struct.pack("<II", VERSION, count) + b"".join(records)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """name -> entry bytes of a real mini checkpoint, checked against the
    writer."""
    state = StackedNet(mini_config(3, 1, supervision_ratios=(4,))).state_dict()
    records = {name: _record(name, value.shape,
                             value.astype("<f4").tobytes())
               for name, value in sorted(state.items())}
    path = tmp_path_factory.mktemp("ckpt") / "mini.sdnw"
    save_weights(path, state)
    assert path.read_bytes() == _container(list(records.values()))
    return records


# zero-payload entries whose names and shapes describe other networks
NAMES = st.one_of(
    st.builds("unit{}.head{}.w".format, st.integers(0, 10**10),
              st.sampled_from([0, 2, 4, 8, 16, 32])),
    st.sampled_from(["encoder.stem.w", "unit1.head4.w", "unit1.head4.b",
                     "meta.config"]),
    st.text(max_size=12),
)
DIMS = st.lists(st.integers(0, 2**32 - 1), max_size=4).map(
    lambda d: d if math.prod(d) <= 64 else [*d[:-1], 0])


@st.composite
def checkpoints(draw, records):
    """Arbitrary bytes, windows spliced from the real file, or the real
    entries with some dropped and some crafted, then a few bytes changed."""
    blob = _container(list(records.values()))
    kind = draw(st.sampled_from(["bytes", "windows", "entries"]))
    if kind == "bytes":
        data = draw(st.binary(max_size=200))
    elif kind == "windows":
        cuts = draw(st.lists(st.tuples(st.integers(0, len(blob)),
                                       st.integers(0, 256)), max_size=8))
        data = blob[:12] + b"".join(blob[a:a + n] for a, n in cuts)
    else:
        entries = dict(records)
        for name in draw(st.lists(st.sampled_from(sorted(records)),
                                  max_size=3)):
            entries.pop(name, None)
        for name, dims in draw(st.lists(st.tuples(NAMES, DIMS), max_size=4)):
            entries[name] = _record(name, dims, bytes(4 * math.prod(dims)))
        count = draw(st.one_of(st.none(), st.integers(0, 2**32 - 1)))
        data = _container(list(entries.values()), count)
    data = bytearray(data)
    # past the magic, which the "bytes" kind already varies
    for pos, byte in draw(st.lists(st.tuples(st.integers(4, len(data) + 4),
                                             st.integers(0, 255)),
                                   max_size=3)):
        if pos < len(data):
            data[pos] = byte
    return bytes(data)


@FUZZ
@given(data=st.data())
def test_config_from_state_returns_or_raises_data_error(tmp_path, checkpoint,
                                                        data):
    path = tmp_path / "net.sdnw"
    path.write_bytes(data.draw(checkpoints(checkpoint)))
    tracemalloc.start()
    try:
        cfg = config_from_state(load_weights(path))
    except DataError:
        cfg = None
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert cfg is None or isinstance(cfg, NetworkConfig)
    assert peak < 16 << 20


# the PNM header grammar the readers accept: magic, then width, height and
# maxval, each of at most 9 digits and ended by one whitespace byte, with
# whitespace and whole comment lines before each of them
_GAP = rb"(?:\s|#[^\n]*\n)*"
PNM_HEADER = re.compile(rb"(P[56])" + (_GAP + rb"(\d{1,9})\s") * 3)
PNM_PIECES = [b"P5", b"P6", b"P3", b" ", b"\n", b"\t", b"\r", b"\x0b",
              b"\x0c", b"#", b"# note\n", b"0", b"1", b"2", b"3", b"255",
              b"0255", b"256", b"999999999", b"1000000000", b"-1", b"+2",
              b"\x00", b"\xff"]


@pytest.fixture(scope="module")
def pnm_files(tmp_path_factory):
    """Bytes of real P6 and P5 files as the writers produce them, and one
    with a comment line in its header."""
    root = tmp_path_factory.mktemp("pnm")
    rng = np.random.default_rng(0)
    write_ppm(root / "a.ppm", rng.random((3, 2, 3), dtype=np.float32))
    write_pgm(root / "a.pgm", rng.integers(0, 256, size=(2, 3)))
    return [(root / "a.ppm").read_bytes(), (root / "a.pgm").read_bytes(),
            b"P5\n# made by hand\n3 2\n255\n" + bytes(range(6))]


PNM_GAPS = st.lists(st.sampled_from([b" ", b"\n", b"\r\n", b"\t", b"#",
                                     b"# note\n"]), max_size=3).map(b"".join)
PNM_SIZES = st.one_of(st.sampled_from([0, 1, 2, 3, 999999999]),
                      st.integers(0, 10**10)).map(lambda v: b"%d" % v)
PNM_MAXVALS = st.sampled_from([b"255", b"0255", b"256", b"0"])
PNM_ENDS = st.sampled_from([b" ", b"\n", b"\r", b"\t", b"#", b""])


@st.composite
def pnm_blobs(draw, files):
    """Arbitrary bytes, header pieces glued together, a header of drawn
    fields, or a real file with windows of the real files spliced in,
    then a few bytes changed."""
    kind = draw(st.sampled_from(["bytes", "pieces", "header", "files"]))
    if kind == "bytes":
        data = draw(st.binary(max_size=200))
    elif kind == "header":
        data = draw(st.sampled_from([b"P5", b"P6", b"P3"]))
        for field in (PNM_SIZES, PNM_SIZES, PNM_MAXVALS):
            data += draw(PNM_GAPS) + draw(field) + draw(PNM_ENDS)
        data += draw(st.binary(max_size=64))
    elif kind == "pieces":
        data = b"".join(draw(st.lists(
            st.one_of(st.sampled_from(PNM_PIECES), st.binary(max_size=4)),
            max_size=16))) + draw(st.binary(max_size=64))
    else:
        blob = draw(st.sampled_from(files))
        data = blob[:draw(st.integers(0, len(blob)))]
        for src, a, n in draw(st.lists(st.tuples(
                st.sampled_from(files), st.integers(0, 40),
                st.integers(0, 40)), max_size=6)):
            data += src[a:a + n]
    data = bytearray(data)
    for pos, byte in draw(st.lists(st.tuples(st.integers(0, len(data) + 4),
                                             st.integers(0, 255)),
                                   max_size=3)):
        if pos < len(data):
            data[pos] = byte
    return bytes(data)


@FUZZ
@given(data=st.data())
def test_read_pnm_returns_or_raises_data_error(tmp_path, pnm_files, data):
    blob = data.draw(pnm_blobs(pnm_files))
    path = tmp_path / "image.pnm"
    path.write_bytes(blob)
    m = PNM_HEADER.match(blob)
    for read, magic, channels in ((read_ppm, b"P6", 3), (read_pgm, b"P5", 1)):
        tracemalloc.start()
        try:
            got = read(path)
        except DataError:
            got = None
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert peak < 1 << 20
        w, h, maxval = (int(v) for v in m.groups()[1:]) if m else (0, 0, 0)
        n = w * h * channels
        readable = (m is not None and m[1] == magic and maxval == 255
                    and n > 0 and len(blob) - m.end() >= n)
        assert (got is not None) == readable
        if got is None:
            continue
        pixels = np.frombuffer(blob[m.end():m.end() + n], np.uint8)
        if channels == 3:
            assert got.shape == (3, h, w) and got.dtype == np.float32
            got = np.rint(got.transpose(1, 2, 0) * 255)
        else:
            assert got.shape == (h, w) and got.dtype == np.uint8
        assert np.array_equal(got.reshape(-1), pixels)
