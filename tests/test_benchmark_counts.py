"""The benchmark's code, run inside this suite.

``perfbench/test_perfbench.py`` requires every ``per_layer`` figure of
``BENCHMARK.json`` to be above 0 and every step to succeed, but it runs
whole workloads and lies outside this suite. These tests import
``perfbench/tracer.py`` and ``perfbench/workloads.py`` as they are: one
runs the tracer over one mini 2-unit training step, so an op the network
stops calling by its traced name shows up here first; the other runs a
few steps of each gated workload, so a change to what the workloads call
(``Sample.image``, ``load_samples``, ``predict_ms_flip``, ...) that breaks
them shows up here too.
"""
import importlib.util
import json
import os

import pytest

from stackseg import network, trainer
from stackseg.data import synth_dataset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _perfbench_module(name):
    path = os.path.join(ROOT, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmarked_op_is_called_in_a_training_step():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [m["name"] for m in json.load(f)["per_layer"]
                 if m["name"].startswith("ops.") and m["name"].endswith(".calls")]
    net = network.StackedNet(network.mini_config(3, num_units=2), seed=0)
    samples = synth_dataset(4, size=64, seed=0)
    tr = _perfbench_module("tracer").Tracer()
    tr.attach(net)
    tr.install()
    try:
        trainer.train(net, samples, trainer.TrainConfig(max_iter=1, seed=0))
    finally:
        tr.uninstall()
    metrics = tr.metrics(1)
    assert names and [n for n in names if not metrics[n] > 0] == []
    # the encoder's 6 dense-layer inputs and the units' 20 concatenations
    assert metrics["ops.concat_channels.calls"] == 26


@pytest.mark.parametrize("name", ["infer-mini", "train-mini2"])
def test_gated_workload_runs_without_a_failed_step(name, tmp_path):
    workloads = _perfbench_module("workloads")
    w = workloads.WORKLOADS[name]
    seed = 7
    inputs = w.make_inputs(str(tmp_path), seed)
    p = w.run(w.setup(inputs, seed), seed, workloads.count_stop(3))
    assert p.errors == [] and p.failed == 0
    assert p.attempted == len(p.step_s) == 3
