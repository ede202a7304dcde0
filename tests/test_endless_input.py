"""Every reader of an untrusted file is bounded by the file's own size.

``/dev/zero`` reports size 0 but never ends: a reader that reads to EOF,
or trusts a length it has not checked against the file, grows until it
runs out of memory. Each reader is run on it in a child process that caps
its own address space, so such a reader fails there with a
``MemoryError`` instead of taking the machine's memory. FIFOs are not
tested: opening one blocks until a writer appears.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stackseg

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


@pytest.mark.skipif(not os.path.exists("/dev/zero"),
                    reason="no /dev/zero here")
def test_readers_on_dev_zero_raise_data_error():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(stackseg.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = [line.split(" ", 2)[:2] for line in proc.stdout.splitlines()]
    assert got == [[name, "DataError"] for name in
                   ("read_ppm", "read_pgm", "load_weights", "load_samples")]
