"""The benchmark's per-op call counts, read in one traced training step.

``perfbench/test_perfbench.py`` requires every ``per_layer`` figure of
``BENCHMARK.json`` to be above 0, but it runs whole workloads and lies
outside this suite. This test runs ``perfbench/tracer.py`` (imported as
it is) over one mini 2-unit training step, so an op the network stops
calling by its traced name shows up here first.
"""
import importlib.util
import json
import os

from stackseg import network, trainer
from stackseg.data import synth_dataset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracer_class():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_every_benchmarked_op_is_called_in_a_training_step():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [m["name"] for m in json.load(f)["per_layer"]
                 if m["name"].startswith("ops.") and m["name"].endswith(".calls")]
    net = network.StackedNet(network.mini_config(3, num_units=2), seed=0)
    samples = synth_dataset(4, size=64, seed=0)
    tr = _tracer_class()()
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
