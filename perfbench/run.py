"""stackseg benchmark: one workload per process, timed end to end, or
traced per op and per section.

Run from the repository root:

    python3 perfbench/run.py --workload train-mini2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload once untraced and once under the tracer on the same inputs,
prints the per-op and per-section tables and the trace overhead, and
checks that outputs are bitwise equal. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs each workload in its own process.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
NAMES = ("train-mini2", "infer-mini", "infer-full1")
WORK_DIR = ".perfbench_work"  # scratch inputs, inside the checkout

# metric names and units: BENCHMARK.json at the checkout root
CONTRACT = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def import_stackseg(root):
    """Import the package from ``root/src``, never from anywhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "stackseg", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import stackseg
    if os.path.dirname(os.path.dirname(os.path.abspath(stackseg.__file__))) \
            != os.path.abspath(src):
        return None
    return stackseg


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_ms():
    """Median ms of a fixed numpy kernel (small GEMMs, elementwise, copies).

    On a shared host the CPU's speed drifts between runs; workload times
    move with this figure, so two results compare only when it agrees.
    """
    import numpy as np
    a = np.random.default_rng(0).random((4, 64, 1024), dtype=np.float32)
    w = np.random.default_rng(1).random((64, 64), dtype=np.float32)
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        for _ in range(10):
            b = np.maximum(np.matmul(w, a), 0.5)
            np.concatenate([a, b], axis=1)
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def environment(load_1m):
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "load_1m": load_1m, "host_ms": host_ms()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile_line(name, values_s):
    """Median, p90 when at least ten samples lie beyond it, and minimum."""
    ms = [v * 1000.0 for v in values_s]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= 100 else None
    return [(f"{name}.p50", statistics.median(ms), "ms", len(ms)),
            (f"{name}.p90", p90, "ms", len(ms)),
            (f"{name}.min", min(ms), "ms", len(ms))]


def load_reference(threads):
    with open(os.path.join(HERE, "reference.json")) as f:
        table = json.load(f)
    if str(threads) in table:
        return str(threads), table[str(threads)]
    nearest = min(table, key=lambda k: abs(int(k) - (threads or 1)))
    return nearest, table[nearest]


def check_probe(wl, got, threads):
    key, ref = load_reference(threads)
    want = ref.get(wl.name)
    if want is None:
        return [f"no reference for {wl.name}"], key
    from workloads import compare
    return compare(got, want, wl.rtol), key


def emit(lines):
    for name, value, unit, n in lines:
        shown = "n/a (needs 100 samples)" if value is None else f"{value:.6g}"
        extra = "" if n is None else f"  n={n}"
        print(f"  {name:<34} {shown:>14} {unit}{extra}")


def run_untraced(wl, seed, seconds, workdir):
    from workloads import deadline_stop
    inputs = wl.make_inputs(workdir, seed)
    setup_s = []

    def set_up():
        t0 = time.perf_counter()
        made = wl.setup(inputs, seed)
        setup_s.append(time.perf_counter() - t0)
        return made

    for _ in range(wl.setups):
        state = None  # drop the previous set-up before timing the next
        state = set_up()
    probe = wl.probe(workdir, inputs, seed, state)
    deadline = deadline_stop(seconds, wl.warmup)

    def stop(steps, now):
        # set up again every few steps, between two timed steps, so that the
        # median spans the whole run of a shared host, not only its two ends
        if wl.setup_every and steps > wl.warmup and steps % wl.setup_every == 0:
            set_up()
        return deadline(steps, now)

    p = wl.run(state, seed, stop)
    for _ in range(wl.setups):
        set_up()
    lines = [("setup_s", statistics.median(setup_s), "s", len(setup_s)),
             ("peak_rss_mb", peak_rss_mb(), "MB", None),
             ("failed_frac", p.failed / max(p.attempted, 1), "share",
              p.attempted)]
    if p.images:
        lines.append(("train_img_per_s", p.images / p.wall, "images/s",
                      p.images))
    for name, values in wl.timings(p):
        lines += quantile_line(name, values)
    steps = p.measured(p.step_s)
    lines.append(("step_ms.min", min(steps) * 1000.0, "ms", len(steps)))
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
        "step_ms.min": min(steps) * 1000.0,
    }
    return p, probe, lines, metrics


def run_traced(wl, seed, seconds, workdir):
    from tracer import Tracer
    from workloads import count_stop, deadline_stop
    inputs = wl.make_inputs(workdir, seed)
    tr = Tracer()
    tr.install()
    try:
        state = wl.setup(inputs, seed)
    finally:
        tr.uninstall()
    probe = wl.probe(workdir, inputs, seed, state)
    a = wl.run(state, seed, deadline_stop(seconds / 2.0, wl.warmup))
    a_final = [v.copy() for v in wl.final_state(state)]
    state_b = wl.fresh(state, seed)
    tr.attach(state_b[0])
    tr.install()
    try:
        b = wl.run(state_b, seed, count_stop(a.attempted))
    finally:
        tr.uninstall()
    b_final = wl.final_state(state_b)
    same = len(a.outputs) == len(b.outputs) and all(
        _same(x, y) for x, y in zip(a.outputs + a_final, b.outputs + b_final))
    untraced = min(a.measured(a.step_s))
    traced = min(b.measured(b.step_s))
    layer = tr.metrics(len(b.step_s))
    layer["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    b.failed += a.failed
    b.attempted += a.attempted
    b.errors += a.errors
    return b, probe, same, layer, (untraced, traced)


def _same(x, y):
    import numpy as np
    return np.array_equal(np.asarray(x), np.asarray(y))


def print_table(layer):
    print("  per op, per step (fwd/bwd ms, calls, GFLOP):")
    import tracer
    for op in tracer.OPS:
        print(f"    {op:<16} fwd {layer[f'ops.{op}.fwd_ms']:10.3f}  "
              f"bwd {layer[f'ops.{op}.bwd_ms']:10.3f}  "
              f"calls {layer[f'ops.{op}.calls']:8.1f}")
    print("  per section, per step:")
    for key in sorted(k for k in layer if k.startswith("section.")
                      and k.endswith(".fwd_ms")):
        s = key[len("section."):-len(".fwd_ms")]
        print(f"    {s:<16} fwd {layer[key]:10.3f}  "
              f"bwd {layer[f'section.{s}.bwd_ms']:10.3f}  "
              f"GFLOP {layer[f'section.{s}.gflop']:.4f}")
    print("  spans and counters:")
    for key in sorted(layer):
        if not key.startswith(("ops.", "section.")) or key in (
                "ops.conv2d.gflop", "ops.deconv2d.gflop",
                "ops.conv2d.im2col_mb", "ops.conv2d.gflop_per_s"):
            print(f"    {key:<40} {layer[key]:.6g}")


def run_one(args, root):
    load_1m = os.getloadavg()[0]
    if import_stackseg(root) is None:
        print(f"perfbench: no stackseg package under {os.path.join(root, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads
    env = environment(load_1m)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                               dir=os.path.join(root, WORK_DIR))
    try:
        if args.trace:
            p, probe, same, layer, (untraced, traced) = \
                run_traced(wl, args.seed, args.seconds, workdir)
        else:
            p, probe, lines, metrics = \
                run_untraced(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bad, ref_key = check_probe(wl, probe, env["blas_threads"])
    print(f"check: probe seed {workloads.PROBE_SEED} against the "
          f"{ref_key}-thread reference: {'ok' if not bad else '; '.join(bad)}")
    for err in p.errors[:3]:
        print(err, file=sys.stderr)
    correct = not bad and p.failed == 0
    if args.trace:
        print(f"  trace overhead: fastest step {traced * 1e3:.3f} ms traced vs "
              f"{untraced * 1e3:.3f} ms untraced "
              f"({layer['trace.overhead_pct']:+.1f}%)")
        print(f"  traced outputs bitwise equal to untraced: {same}")
        print_table(layer)
        correct = correct and same
        values, kind = layer, "per_layer"
    else:
        emit(lines)
        values, kind = metrics, "end_to_end"
    with open(CONTRACT) as f:
        names = json.load(f)[kind]
    result = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
              for m in names}
    print(json.dumps({"correct": bool(correct), "attempted": int(p.attempted),
                      "failed": int(p.failed), "metrics": result}))
    return 0


def run_all(args):
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        out = proc.stdout.rstrip("\n").split("\n")
        for line in out[:-1]:
            print(line)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(out[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, os.getcwd())


if __name__ == "__main__":
    sys.exit(main())
