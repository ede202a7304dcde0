"""Fuzz tests of the readers of untrusted files.

Whatever bytes a reader is handed, it either returns or raises
``DataError``; any other exception is a bug.
"""
import math
import struct
import tracemalloc

import pytest

from stackseg import DataError
from stackseg.data import parse_manifest
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
