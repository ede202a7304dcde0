"""numpy stays the only runtime dependency."""
import json
import os
import subprocess
import sys

import stackseg

# sys.stdlib_module_names arrived in Python 3.11; on 3.10 this list stands
# in for it, covering what importing stackseg and numpy can pull in
STDLIB_FALLBACK = frozenset("""
    __future__ _abc _ast _bisect _blake2 _bz2 _codecs _collections
    _collections_abc _compat_pickle _compression _contextvars _ctypes
    _datetime _frozen_importlib _frozen_importlib_external _functools
    _hashlib _heapq _imp _io _json _locale _lzma _opcode _operator _pickle
    _posixsubprocess _random _sha512 _signal _sitebuiltins _sre _stat
    _string _struct _thread _typing _warnings _weakref _weakrefset abc
    argparse ast atexit base64 binascii bisect builtins bz2 codecs
    collections contextlib contextvars copy copyreg ctypes dataclasses
    datetime dis encodings enum errno fcntl fnmatch functools genericpath
    gettext glob hashlib heapq hmac importlib inspect io ipaddress
    itertools json keyword linecache locale lzma marshal math mmap ntpath
    numbers opcode operator os pathlib pickle pkgutil platform posix
    posixpath random re reprlib secrets select selectors shutil signal site
    sre_compile sre_constants sre_parse stat string struct subprocess sys
    sysconfig tempfile textwrap threading time token tokenize traceback
    types typing urllib warnings weakref zipfile zipimport zlib
""".split())

# prints the top-level modules that importing every stackseg module added
# to those the interpreter had loaded at startup (site hooks included)
PROBE = """
import importlib, json, pkgutil, sys
before = {name.split(".")[0] for name in sys.modules}
import stackseg
for info in pkgutil.iter_modules(stackseg.__path__):
    importlib.import_module("stackseg." + info.name)
added = {name.split(".")[0] for name in sys.modules} - before
print(json.dumps(sorted(added)))
"""


def test_importing_stackseg_loads_only_numpy_and_the_stdlib():
    src = os.path.dirname(os.path.dirname(os.path.abspath(stackseg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout))
    assert "stackseg" in added
    stdlib = getattr(sys, "stdlib_module_names", STDLIB_FALLBACK)
    assert sorted(added - stdlib - {"stackseg", "numpy"}) == []
