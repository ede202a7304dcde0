"""Binary container for network weights and running statistics.

Little-endian layout: magic ``SDNW``, version u32, tensor count u32; then
per tensor a u32 name length, the UTF-8 name, u32 rank, u32 dims, and the
raw float32 payload in C order. Entries are written in sorted name order
so identical states produce identical files.
"""
from __future__ import annotations

import math
import os
import secrets
import struct

import numpy as np

from .errors import DataError

MAGIC = b"SDNW"
VERSION = 1


def save_weights(path, state):
    """Write a name -> ndarray mapping; values are stored as float32.

    The container is written to a new file beside ``path`` and renamed
    over it, so a write that fails midway leaves any file already at
    ``path`` as it was.
    """
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    # O_EXCL: never write into a file already there; 0o666 less the umask
    # is the mode open() would give
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as f:
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
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _take(n, left, path, what):
    """``left`` less n, the bytes left in the file after n more are read.
    Checking n against them first makes a corrupt length fail before
    anything that size is allocated."""
    if n > left:
        raise DataError(f"{path}: truncated while reading {what} "
                        f"({n} bytes declared, {left} left)")
    return left - n


def _read_exactly(f, n, left, path, what):
    left = _take(n, left, path, what)
    raw = f.read(n)
    if len(raw) != n:
        raise DataError(f"{path}: truncated while reading {what}")
    return raw, left


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
            what = f"payload of {name!r}"
            left = _take(n_bytes, left, path, what)
            try:  # numpy refuses shapes like (2**32-1,)*3 + (0,)
                value = np.empty(dims, "<f4")
            except ValueError:
                raise DataError(f"{path}: {name!r} has unusable shape {dims}")
            if f.readinto(value) != n_bytes:
                raise DataError(f"{path}: truncated while reading {what}")
            state[name] = value
        if f.read(1):
            raise DataError(f"{path}: trailing bytes after {count} tensors")
    return state
