"""Binary container for network weights and running statistics.

Little-endian layout: magic ``SDNW``, version u32, tensor count u32; then
per tensor a u32 name length, the UTF-8 name, u32 rank, u32 dims, and the
raw float32 payload in C order. Entries are written in sorted name order
so identical states produce identical files.
"""
from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import DataError

MAGIC = b"SDNW"
VERSION = 1


def save_weights(path, state):
    """Write a name -> ndarray mapping; values are stored as float32."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(state)))
        for name in sorted(state):
            # asarray, not ascontiguousarray: the latter promotes rank-0
            # values to shape (1,), and tobytes() copies to C order anyway
            value = np.asarray(state[name], dtype=np.float32)
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", value.ndim))
            f.write(struct.pack(f"<{value.ndim}I", *value.shape))
            f.write(value.tobytes())


def _read_exactly(f, n, left, path, what):
    """Read n bytes, first checking n against the bytes left in the file
    so a corrupt length fails before anything that size is allocated."""
    if n > left:
        raise DataError(f"{path}: truncated while reading {what} "
                        f"({n} bytes declared, {left} left)")
    raw = f.read(n)
    if len(raw) != n:
        raise DataError(f"{path}: truncated while reading {what}")
    return raw, left - n


def load_weights(path):
    """Read a container back into a name -> float32 ndarray dict."""
    state = {}
    with open(path, "rb") as f:
        left = os.fstat(f.fileno()).st_size
        magic, left = f.read(4), left - 4
        if magic != MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        raw, left = _read_exactly(f, 8, left, path, "header")
        version, count = struct.unpack("<II", raw)
        if version != VERSION:
            raise DataError(f"{path}: unsupported version {version}")
        for i in range(count):
            raw, left = _read_exactly(f, 4, left, path, "name length")
            (name_len,) = struct.unpack("<I", raw)
            raw, left = _read_exactly(f, name_len, left, path, "name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"{path}: tensor {i} name is not UTF-8")
            if name in state:
                raise DataError(f"{path}: duplicate tensor {name!r}")
            raw, left = _read_exactly(f, 4, left, path, "rank")
            (rank,) = struct.unpack("<I", raw)
            raw, left = _read_exactly(f, 4 * rank, left, path, "dims")
            dims = struct.unpack(f"<{rank}I", raw)
            n_bytes = 4 * math.prod(dims)  # Python ints: cannot overflow
            raw, left = _read_exactly(f, n_bytes, left, path,
                                      f"payload of {name!r}")
            state[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
        if f.read(1):
            raise DataError(f"{path}: trailing bytes after {count} tensors")
    return state
