"""Record the probe outputs of every workload in ``reference.json``, under
this process's BLAS thread count. Run from the repository root, once per
thread count the benchmark should recognise, on code known to be right:

    OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py
    OPENBLAS_NUM_THREADS=2 python3 perfbench/make_reference.py
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run


def main():
    root = os.getcwd()
    if run.import_stackseg(root) is None:
        sys.exit("make_reference: run from the repository root")
    import workloads
    threads = run.blas_threads()
    path = os.path.join(run.HERE, "reference.json")
    table = {}
    if os.path.exists(path):
        with open(path) as f:
            table = json.load(f)
    entry = {}
    os.makedirs(os.path.join(root, run.WORK_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(root, run.WORK_DIR))
    try:
        for name, wl in workloads.WORKLOADS.items():
            seed = workloads.PROBE_SEED
            inputs = wl.make_inputs(workdir, seed)
            state = wl.setup(inputs, seed)
            probe = wl.probe(workdir, inputs, seed, state)
            entry[name] = {k: [float(f"{v:.9g}") for v in values]
                           for k, values in probe.items()}
            state = None
            print(f"{name}: {', '.join(f'{k}[{len(v)}]' for k, v in entry[name].items())}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    table[str(threads)] = entry
    with open(path, "w") as f:
        json.dump(table, f, sort_keys=True)
        f.write("\n")
    print(f"wrote the {threads}-thread reference to {path}")


if __name__ == "__main__":
    main()
