"""Every reader of an untrusted file is bounded by the file's own size.

``/dev/zero`` reports size 0 but never ends: a reader that reads to EOF,
or trusts a length it has not checked against the file, grows until it
runs out of memory. Each reader is run on it in a child process that caps
its own address space, so such a reader fails there with a
``MemoryError`` instead of taking the machine's memory.

A pipe cannot be sized either. One made with ``os.pipe()`` is read as a
path through ``/dev/fd/N``: its write end is closed before the read, so
even a reader that reads to EOF ends. A named FIFO with no writer is
read in a child process under a timeout: a blocking open of one waits
for a writer forever, so a reader whose open blocks fails the test
instead of hanging the suite.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stackseg
from stackseg import DataError
from stackseg.data import load_samples, parse_manifest, read_pgm, read_ppm, \
    write_manifest, write_pgm, write_ppm
from stackseg.weights_io import load_weights, save_weights

pytest.importorskip("resource")  # the child caps its address space

CAP = 512 << 20  # bytes of address space: numpy and the package fit in it

CHILD = f"""
import resource
from stackseg import DataError
from stackseg.data import load_samples, read_pgm, read_ppm
from stackseg.weights_io import load_weights

resource.setrlimit(resource.RLIMIT_AS,
                   ({CAP}, resource.getrlimit(resource.RLIMIT_AS)[1]))
for reader in (read_ppm, read_pgm, load_weights, load_samples):
    try:
        reader("/dev/zero")
    except DataError as e:
        print(reader.__name__, "DataError", e)
    else:
        print(reader.__name__, "returned")
"""


FIFO_CHILD = """
import sys
from stackseg import DataError
from stackseg.data import load_samples, parse_manifest, read_pgm, read_ppm
from stackseg.weights_io import load_weights

fifo, manifest = sys.argv[1:]
for reader, path in ((read_ppm, fifo), (read_pgm, fifo), (load_weights, fifo),
                     (parse_manifest, fifo), (load_samples, manifest)):
    try:
        reader(path)
    except DataError as e:
        print(reader.__name__, e)
    else:
        print(reader.__name__, "returned")
"""


def run_child(*args, timeout):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(stackseg.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", *args], capture_output=True,
                          text=True, env=env, timeout=timeout)


@pytest.mark.skipif(not os.path.exists("/dev/zero"),
                    reason="no /dev/zero here")
def test_readers_on_dev_zero_raise_data_error():
    proc = run_child(CHILD, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = [line.split(" ", 2)[:2] for line in proc.stdout.splitlines()]
    assert got == [[name, "DataError"] for name in
                   ("read_ppm", "read_pgm", "load_weights", "load_samples")]


def valid_file(tmp_path, reader):
    """Bytes of a file ``reader`` reads when it is a regular file."""
    path = tmp_path / "file"
    if reader is read_ppm:
        write_ppm(path, np.zeros((3, 4, 5), dtype=np.float32))
    elif reader is read_pgm:
        write_pgm(path, np.ones((4, 5), dtype=np.uint8))
    elif reader is load_weights:
        save_weights(path, {"w": np.ones((2, 3), dtype=np.float32)})
    else:
        write_ppm(tmp_path / "a.ppm", np.zeros((3, 4, 5), dtype=np.float32))
        write_manifest(path, {"num_classes": "3"}, [("a.ppm", None)])
    reader(path)
    return path.read_bytes()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd here")
@pytest.mark.parametrize("reader", [read_ppm, read_pgm, load_weights,
                                    parse_manifest, load_samples],
                         ids=lambda f: f.__name__)
def test_readers_on_a_pipe_raise_data_error(tmp_path, reader):
    r, w = os.pipe()
    os.write(w, valid_file(tmp_path, reader))  # fits in the pipe's buffer
    os.close(w)
    path = f"/dev/fd/{r}"
    try:
        with pytest.raises(DataError, match=re.escape(path)
                           + ": not a regular file, so its size cannot"):
            reader(path)
    finally:
        os.close(r)
    with pytest.raises(DataError, match="not a regular file"):
        reader(tmp_path)  # a directory cannot be sized either


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named FIFOs here")
def test_readers_on_a_named_fifo_raise_data_error_without_waiting(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)  # and no process ever opens it for writing
    manifest = tmp_path / "manifest.txt"
    write_manifest(manifest, {"num_classes": "3"}, [("fifo", None)])
    # a reader that waits for a writer raises TimeoutExpired here
    proc = run_child(FIFO_CHILD, str(fifo), str(manifest), timeout=30)
    assert proc.returncode == 0, proc.stderr
    refused = f"{fifo}: not a regular file, so its size cannot be checked"
    assert proc.stdout.splitlines() == [
        f"{name} {refused}" for name in
        ("read_ppm", "read_pgm", "load_weights", "parse_manifest",
         "load_samples")]
