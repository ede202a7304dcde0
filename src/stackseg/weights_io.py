"""Binary container for network weights and running statistics.

Little-endian layout: magic ``SDNW``, version u32, tensor count u32; then
per tensor a u32 name length, the UTF-8 name, u32 rank, u32 dims, and the
raw float32 payload in C order. Entries are written in sorted name order
so identical states produce identical files.

This module keeps only that layout. :class:`stackseg.data.BoundedReader`
opens the file, reads regular files only, and reads every byte of it, the
magic included, so every length the reader meets is bounded by the file's
size.
"""
from __future__ import annotations

import os
import secrets
import struct

import numpy as np

from .data import BoundedReader
from .errors import DataError

MAGIC = b"SDNW"
VERSION = 1
_U32 = struct.Struct("<I")
_F32 = np.dtype("<f4")


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


def load_weights(path):
    """Read a container back into a name -> float32 ndarray dict."""
    state = {}
    with BoundedReader(path) as r:
        magic = r.read(len(MAGIC), "magic")
        if magic != MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        version, count = struct.unpack("<II", r.read(8, "header"))
        if version != VERSION:
            raise DataError(f"{path}: unsupported version {version}")
        for i in range(count):
            (name_len,) = _U32.unpack(r.read(4, "name length"))
            try:
                name = r.read(name_len, "name").decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"{path}: tensor {i} name is not UTF-8")
            if name in state:
                raise DataError(f"{path}: duplicate tensor {name!r}")
            (rank,) = _U32.unpack(r.read(4, "rank"))
            dims = struct.unpack(f"<{rank}I", r.read(4 * rank, "dims"))
            state[name] = r.array(dims, _F32, f"payload of {name!r}")
        if r.left:
            raise DataError(f"{path}: trailing bytes after {count} tensors")
    return state
