"""numpy stays the only runtime dependency."""
import json
import os
import subprocess
import sys

import stackseg

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
    assert sorted(added - sys.stdlib_module_names
                  - {"stackseg", "numpy"}) == []
