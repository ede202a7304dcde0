import struct
import tracemalloc

import numpy as np
import pytest

from stackseg import DataError
from stackseg.weights_io import MAGIC, VERSION, load_weights, save_weights


def sample_state():
    rng = np.random.default_rng(0)
    return {
        "net.w": rng.standard_normal((2, 3, 4, 4)).astype(np.float32),
        "net.b": rng.standard_normal(3).astype(np.float32),
        "bn.count": np.float32(7.0),  # rank-0 entry
    }


def test_round_trip_is_bit_exact(tmp_path):
    path = tmp_path / "w.sdnw"
    state = sample_state()
    save_weights(path, state)
    back = load_weights(path)
    assert sorted(back) == sorted(state)
    for name, value in state.items():
        got = back[name]
        assert got.dtype == np.float32
        assert got.shape == np.shape(value)
        assert (got == np.float32(value)).all(), name


def test_float64_inputs_are_stored_as_float32(tmp_path):
    path = tmp_path / "w.sdnw"
    save_weights(path, {"x": np.array([1.0, np.pi], dtype=np.float64)})
    got = load_weights(path)["x"]
    assert got.dtype == np.float32 and got[1] == np.float32(np.pi)


def test_files_are_deterministic_regardless_of_insertion_order(tmp_path):
    state = sample_state()
    shuffled = {k: state[k] for k in reversed(list(state))}
    save_weights(tmp_path / "a.sdnw", state)
    save_weights(tmp_path / "b.sdnw", shuffled)
    a = (tmp_path / "a.sdnw").read_bytes()
    assert a == (tmp_path / "b.sdnw").read_bytes()
    assert a[:4] == MAGIC


def test_bad_magic(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(DataError, match="bad magic"):
        load_weights(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "v9"
    path.write_bytes(MAGIC + struct.pack("<II", VERSION + 1, 0))
    with pytest.raises(DataError, match="version"):
        load_weights(path)


def test_truncation_detected(tmp_path):
    path = tmp_path / "w.sdnw"
    save_weights(path, sample_state())
    whole = path.read_bytes()
    cut = tmp_path / "cut.sdnw"
    cut.write_bytes(whole[:-3])
    with pytest.raises(DataError, match="truncated"):
        load_weights(cut)


def test_trailing_bytes_detected(tmp_path):
    path = tmp_path / "w.sdnw"
    save_weights(path, sample_state())
    fat = tmp_path / "fat.sdnw"
    fat.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(DataError, match="trailing"):
        load_weights(fat)


def test_duplicate_names_detected(tmp_path):
    entry = struct.pack("<I", 1) + b"w" + struct.pack("<II", 1, 1) \
        + struct.pack("<f", 2.5)
    path = tmp_path / "dup.sdnw"
    path.write_bytes(MAGIC + struct.pack("<II", VERSION, 2) + entry + entry)
    with pytest.raises(DataError, match="duplicate"):
        load_weights(path)


def test_empty_state_round_trips(tmp_path):
    path = tmp_path / "empty.sdnw"
    save_weights(path, {})
    assert load_weights(path) == {}


def _entry_header(name=b"w", dims=(1,), name_len=None, rank=None):
    """One tensor's header: name length, name, rank, dims (no payload)."""
    name_len = len(name) if name_len is None else name_len
    rank = len(dims) if rank is None else rank
    return (struct.pack("<I", name_len) + name + struct.pack("<I", rank)
            + struct.pack(f"<{len(dims)}I", *dims))


def _container(entry):
    return MAGIC + struct.pack("<II", VERSION, 1) + entry


@pytest.mark.parametrize("entry, hint", [
    # 2**96 float32 values: the byte count overflows any fixed-width int
    (_entry_header(dims=(0xFFFFFFFF,) * 3) + bytes(8), "payload"),
    # a 4 GiB payload declared in a file of a few dozen bytes
    (_entry_header(dims=(1 << 30,)) + bytes(16), "payload"),
    (_entry_header(name_len=0xFFFFFFFF), "name"),
    (_entry_header(rank=0xFFFFFFFF), "dims"),
], ids=["dims_overflow", "payload_4gib", "name_length", "rank"])
def test_corrupt_lengths_rejected_before_allocation(tmp_path, entry, hint):
    path = tmp_path / "corrupt.sdnw"
    path.write_bytes(_container(entry))
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=f"truncated while reading {hint}"):
            load_weights(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_empty_tensor_numpy_cannot_shape_rejected(tmp_path):
    # no payload, but the nonzero dims multiply past numpy's index range
    path = tmp_path / "huge_empty.sdnw"
    path.write_bytes(_container(_entry_header(dims=(0xFFFFFFFF,) * 3 + (0,))))
    with pytest.raises(DataError, match="unusable shape"):
        load_weights(path)


def test_name_that_is_not_utf8_rejected(tmp_path):
    path = tmp_path / "latin1.sdnw"
    path.write_bytes(_container(_entry_header(name=b"\xff\xfe")
                                + struct.pack("<f", 1.0)))
    with pytest.raises(DataError, match="UTF-8"):
        load_weights(path)
