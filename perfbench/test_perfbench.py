"""Tests of the benchmark itself. From the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

assert run.import_stackseg(ROOT) is not None

from stackseg import network, tensor  # noqa: E402

from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    CONTRACT = json.load(f)

# the end-to-end metrics each workload's report prints, by report name
NAMED = {
    "train-mini2": ("setup_s", "peak_rss_mb", "failed_frac", "train_img_per_s",
                    "train_iter_ms.p50", "train_iter_ms.p90", "step_ms.min"),
    "infer-mini": ("setup_s", "peak_rss_mb", "failed_frac", "predict_ms.p50",
                   "predict_ms.p90", "msflip_ms.p50", "step_ms.min"),
    "infer-full1": ("setup_s", "peak_rss_mb", "failed_frac", "predict_ms.p50",
                    "step_ms.min"),
}

# spatial divisor of each conv's output in the mini profile, by name
_STAGES = {"down1": 8, "down2": 16, "up1": 8, "up2": 4,
           "head16": 16, "head8": 8, "head4": 4}
_PREFIXES = {"encoder.stem.": 2, "encoder.block1.": 4, "encoder.trans1.": 4,
             "encoder.block2.": 8, "encoder.trans2.": 8, "encoder.block3.": 16,
             "skip4.": 4, "skip8.": 8, "entry.": 16}


def _divisor(name):
    for prefix, d in _PREFIXES.items():
        if name.startswith(prefix):
            return d
    return _STAGES[name.split(".")[1]]


@pytest.mark.parametrize("units", [1, 2])
def test_conv_gflop_matches_hand_sum(units):
    size = 64
    net = network.StackedNet(network.mini_config(3, num_units=units), seed=0)
    want = 0
    convs = 0
    for p in net.params():
        if p.value.ndim != 4 or p.name.endswith(".up.w"):
            continue  # BN vectors, biases, and the deconvs
        co, ci, k, _ = p.value.shape
        side = size // _divisor(p.name)
        want += 2 * co * ci * k * k * side * side
        convs += 1
    tr = Tracer()
    tr.attach(net)
    tr.install()
    try:
        net.forward(np.zeros((1, 3, size, size), np.float32))
    finally:
        tr.uninstall()
    assert tr.calls["ops.conv2d.fwd"] == convs
    assert tr.flop["conv2d"] == want
    assert tr.metrics(1)["ops.conv2d.gflop"] == want / 1e9


def _stackseg_bindings():
    """Every attribute of every stackseg module and class, by identity."""
    out = {}
    for mod_name, mod in sys.modules.items():
        if mod is None or not mod_name.startswith("stackseg"):
            continue
        for name, value in vars(mod).items():
            out[(mod_name, name)] = id(value)
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    out[(mod_name, name, attr)] = id(member)
    return out


def test_wrappers_are_removed_after_a_traced_run():
    net = network.StackedNet(network.mini_config(3, num_units=2), seed=0)
    before = _stackseg_bindings()
    tr = Tracer()
    tr.attach(net)
    tr.install()
    try:
        assert _stackseg_bindings() != before
        maps = net.forward(np.zeros((2, 3, 32, 32), np.float32), training=True,
                           rng=np.random.default_rng(0))
        named = net.losses(maps, np.zeros((2, 32, 32), np.int64))
        tensor.backward([loss for _, loss, _ in named])
    finally:
        tr.uninstall()
    assert _stackseg_bindings() == before
    assert tr.inclusive["ops.conv2d.bwd"] > 0
    assert tr.inclusive["tensor.backward"] > 0


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", list(NAMED))
def test_every_named_metric_is_printed(workload):
    lines, result = _run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert {(k, v["unit"]) for k, v in result["metrics"].items()} == \
        {(m["name"], m["unit"]) for m in CONTRACT["end_to_end"]}
    for name in NAMED[workload]:
        row = [ln.split() for ln in lines if ln.split()[:1] == [name]]
        assert len(row) == 1, name
        assert "n=" in " ".join(row[0][2:]) or name == "peak_rss_mb", row
    env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
    assert {"python", "numpy", "blas", "blas_threads", "nproc",
            "load_1m", "host_ms"} <= set(env)


@pytest.mark.parametrize("workload", list(NAMED))
def test_traced_run_prints_layer_metrics(workload):
    lines, result = _run(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in CONTRACT["per_layer"]]
    assert all(v["value"] > 0 for v in result["metrics"].values()
               if v["unit"] != "%")
    assert "  traced outputs bitwise equal to untraced: True" in lines
    assert any(ln.startswith("  trace overhead:") for ln in lines)
