"""The three stackseg workloads.

Each workload writes its inputs from the seed (untimed), then sets up the
way a user's process does (timed, repeated), then runs a closed loop: one
caller, the next step only after the previous one returns. A step is one
training iteration (``train-mini2``) or one image (``infer-*``).

Outputs are checked twice: every step's outputs must be finite, and a
probe on the fixed ``PROBE_SEED`` inputs must match ``reference.json``
for this BLAS thread count. The probe runs in every run because the
seeds a run is given are not known in advance.
"""
from __future__ import annotations

import hashlib
import math
import os
import time
import traceback

import numpy as np

from stackseg import data, network, trainer, weights_io
from stackseg.metrics import EvalAccumulator

NUM_CLASSES = 3
PROBE_SEED = 0
MODEL_SEED = 0     # inference checkpoints are one fixed model; images vary
MIN_STEPS = 4      # a pass measures at least this many steps


class Pass:
    """One closed-loop pass over a workload's steps."""

    def __init__(self, warmup):
        self.warmup = warmup  # leading steps left out of the figures
        self.step_s = []      # whole steps: an iteration, or one image scored
        self.predict_s = []   # plain predict per image (infer-*)
        self.msflip_s = []    # predict_ms_flip per image (infer-mini)
        self.outputs = []     # per step, compared traced vs untraced
        self.images = 0       # training images past warm-up (train-mini2)
        self.wall = 0.0       # seconds of the training steps past warm-up
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def measured(self, values):
        return values[self.warmup:] if len(values) > self.warmup else values


def deadline_stop(seconds, warmup):
    deadline = time.perf_counter() + seconds

    def stop(steps, now):
        return steps >= warmup + MIN_STEPS and now >= deadline
    return stop


def count_stop(count):
    return lambda steps, now: steps >= count


def _digest(*arrays):
    """Bitwise identity of a step's outputs, without keeping them alive."""
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        if a is not None:
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _fingerprint(a, stride):
    return [float(v) for v in np.asarray(a)[..., ::stride, ::stride].ravel()]


def compare(got, want, rtol):
    """Keys whose worst |got - want| exceeds ``rtol`` times max(|want|)."""
    bad = []
    for key, ref in want.items():
        g, r = np.asarray(got[key], np.float64), np.asarray(ref, np.float64)
        if g.shape != r.shape:
            bad.append(f"{key}: shape {g.shape} != {r.shape}")
            continue
        scale = max(float(np.abs(r).max()), 1e-12)
        err = float(np.abs(g - r).max()) / scale
        if not err <= rtol:
            bad.append(f"{key}: rel err {err:.2e} > {rtol:.0e}")
    return bad


# ---------------------------------------------------------------------------
# training


class _Stop(Exception):
    pass


class _LossLog:
    """Records each iteration's exact head losses. Resolves ``losses`` on
    the class at call time, so a traced run still goes through the tracer."""

    def __init__(self, net):
        self.net = net
        self.rows = []

    def __call__(self, maps, labels, ignore_index=255):
        named = type(self.net).losses(self.net, maps, labels, ignore_index)
        self.rows.append([(float(loss.data), w) for _, loss, w in named])
        return named


class TrainMini2:
    """Seeded ``trainer.train`` of the mini 2-unit stack, batch 4, crop 64,
    on 200 synthetic 64px images read back through ``data.load_samples``."""

    name = "train-mini2"
    setups = 5       # before and again after the timed loop
    setup_every = 10  # and once every this many steps inside it
    warmup = 1       # lazy momentum buffers are allocated by the first step
    samples = 200
    horizon = 1000   # poly-LR horizon, as in the acceptance suite's toy runs
    check_iters = 20
    rtol = 1e-3

    def make_inputs(self, workdir, seed):
        samples = data.synth_dataset(self.samples, size=64, seed=seed)
        return data.save_dataset(os.path.join(workdir, f"train-{seed}"),
                                 samples, {"num_classes": NUM_CLASSES})

    def setup(self, manifest, seed):
        _, samples = data.load_samples(manifest)
        net = network.StackedNet(network.mini_config(NUM_CLASSES, num_units=2),
                                 seed=seed)
        return net, samples

    def fresh(self, state, seed):
        net = network.StackedNet(network.mini_config(NUM_CLASSES, num_units=2),
                                 seed=seed)
        return net, state[1]

    def run(self, state, seed, stop):
        net, samples = state
        cfg = trainer.TrainConfig(max_iter=self.horizon, seed=seed,
                                  log_every=1)
        log = _LossLog(net)
        net.losses = log
        p = Pass(self.warmup)
        mark = [time.perf_counter()]

        def log_fn(_row):
            now = time.perf_counter()
            p.step_s.append(now - mark[0])
            if stop(len(p.step_s), now):
                raise _Stop
            mark[0] = time.perf_counter()

        try:
            trainer.train(net, samples, cfg, log_fn)
        except _Stop:
            pass
        except Exception:  # a failed iteration ends the pass; count it
            p.failed += 1
            p.errors.append(traceback.format_exc())
        finally:
            del net.losses
        p.attempted = len(p.step_s) + p.failed
        for row in log.rows[:len(p.step_s)]:
            p.outputs.append(sum(w * v for v, w in row))
        p.images = cfg.batch_size * len(p.measured(p.step_s))
        p.wall = sum(p.measured(p.step_s))
        return p

    def final_state(self, state):
        return [prm.value for prm in state[0].params()]

    def probe(self, workdir, inputs, seed, state):
        manifest = inputs if seed == PROBE_SEED else \
            self.make_inputs(workdir, PROBE_SEED)
        net, samples = self.setup(manifest, PROBE_SEED)
        groups = net.param_groups()
        before = {k: [p.value.copy() for p in g] for k, g in groups.items()}
        p = self.run((net, samples), PROBE_SEED, count_stop(self.check_iters))
        norms = {k: math.sqrt(sum(float(((p_.value - b) ** 2).sum())
                                  for p_, b in zip(g, before[k])))
                 for k, g in groups.items()}
        return {"losses": p.outputs, "update_norm": [norms[k] for k in sorted(norms)]}

    def timings(self, p):
        """(report name, seconds per call) of each timed op."""
        return [("train_iter_ms", p.measured(p.step_s))]


# ---------------------------------------------------------------------------
# inference


class Infer:
    """Plain predict (and optionally ``predict_ms_flip``) of synthetic
    images, with a checkpoint loaded through ``weights_io.load_weights`` and
    ``StackedNet.load_state``."""

    def make_inputs(self, workdir, seed):
        samples = data.synth_dataset(self.images, size=self.size, seed=seed)
        manifest = data.save_dataset(os.path.join(workdir, f"{self.name}-{seed}"),
                                     samples, {"num_classes": NUM_CLASSES})
        ckpt = os.path.join(workdir, f"{self.name}.sdnw")
        if not os.path.exists(ckpt):
            net = network.StackedNet(self.config(), seed=MODEL_SEED)
            weights_io.save_weights(ckpt, net.state_dict())
        return manifest, ckpt

    def setup(self, inputs, seed):
        manifest, ckpt = inputs
        _, samples = data.load_samples(manifest)
        state = weights_io.load_weights(ckpt)
        net = network.StackedNet(self.config(), seed=MODEL_SEED)
        net.load_state(state)
        return net, samples

    def fresh(self, state, seed):
        return state

    def final_state(self, state):
        return []

    def run(self, state, seed, stop):
        net, samples = state
        p = Pass(self.warmup)
        plain = EvalAccumulator(NUM_CLASSES)
        multi = EvalAccumulator(NUM_CLASSES)
        while not stop(p.attempted, time.perf_counter()):
            sample = samples[p.attempted % len(samples)]
            p.attempted += 1
            try:
                t0 = time.perf_counter()
                # StackedNet.predict, keeping the logits for the checks
                logits = net.predict_logits(sample.image[None])
                pred = np.argmax(logits, axis=1)[0]
                t1 = time.perf_counter()
                probs = None
                if self.msflip:
                    pred_ms, probs = network.predict_ms_flip(
                        net, sample.image, return_probs=True)
                t2 = time.perf_counter()
            except Exception:  # a failed image is counted; the loop goes on
                p.failed += 1
                p.errors.append(traceback.format_exc())
                continue
            p.step_s.append(t2 - t0)
            p.predict_s.append(t1 - t0)
            if self.msflip:
                p.msflip_s.append(t2 - t1)
            ok = bool(np.isfinite(logits).all())
            plain.update(sample.labels, pred)
            if self.msflip:
                ok = ok and bool(np.isfinite(probs).all()) and \
                    float(np.abs(probs.sum(axis=0) - 1.0).max()) < 1e-4
                multi.update(sample.labels, pred_ms)
            if not ok:
                p.failed += 1
            p.outputs.append(_digest(logits, probs))
        return p

    def probe(self, workdir, inputs, seed, state):
        net, _ = state
        if seed == PROBE_SEED:
            image = state[1][0].image
        else:
            manifest = data.save_dataset(
                os.path.join(workdir, "probe"),
                data.synth_dataset(1, size=self.size, seed=PROBE_SEED),
                {"num_classes": NUM_CLASSES})
            image = data.load_samples(manifest)[1][0].image
        out = {"logits": _fingerprint(net.predict_logits(image[None])[0],
                                      self.stride)}
        if self.msflip:
            _, probs = network.predict_ms_flip(net, image, return_probs=True)
            out["msflip_probs"] = _fingerprint(probs, self.stride)
        return out

    def timings(self, p):
        out = [("predict_ms", p.measured(p.predict_s))]
        if self.msflip:
            out.append(("msflip_ms", p.measured(p.msflip_s)))
        return out


class InferMini(Infer):
    """Mini 2-unit stack on 64px images: plain predict and 5-scale + mirror
    ``predict_ms_flip`` (10 forwards at 32-96px)."""

    name = "infer-mini"
    setups = 5       # before and again after the timed loop
    setup_every = 10  # and once every this many steps inside it
    warmup = 1
    images = 16
    size = 64
    msflip = True
    stride = 4
    rtol = 1e-4

    def config(self):
        return network.mini_config(NUM_CLASSES, num_units=2)


class InferFull1(Infer):
    """Full 1-unit stack (86.6M parameters), batch 1, 320px plain predict."""

    name = "infer-full1"
    setups = 2
    setup_every = None  # a set-up takes as long as a step here
    warmup = 2       # the allocator settles over the first few large forwards
    images = 2
    size = 320
    msflip = False
    stride = 16
    rtol = 1e-4

    def config(self):
        return network.full_config(NUM_CLASSES, num_units=1)


WORKLOADS = {w.name: w for w in (TrainMini2(), InferMini(), InferFull1())}
