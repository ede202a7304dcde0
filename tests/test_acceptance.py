"""Acceptance suite: ten go/no-go checks, one test (and one pytest
pass/fail line) per criterion.

The training-backed criteria share a module-scoped fixture so the nine
toy runs (three stack configurations, three seeds each) execute once.
The whole module takes a few minutes on a desktop CPU; everything is
seeded, so reruns are bit-identical.
"""
import time

import numpy as np
import pytest

from scoring import evaluate
from stackseg.analyzer import architecture_report
from stackseg.data import synth_dataset
from stackseg.gradcheck import (
    numeric_grad,
    primitive_sweep,
    rel_error,
    spread_values,
)
from stackseg.metrics import EvalAccumulator
from stackseg.network import (
    StackedNet,
    full_config,
    mini_config,
    predict_ms_flip,
)
from stackseg.ops import conv2d, deconv2d
from stackseg.tensor import Tensor, backward
from stackseg.trainer import TrainConfig, poly_lr, train
from stackseg.weights_io import load_weights, save_weights

TRAIN_SEEDS = (0, 1, 2)
NUM_CLASSES = 3


def report(criterion, ok, detail):
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient suite


def network_spot_check(seed, num_coords=12, step=2e-4):
    """FD-probe sampled weight coordinates of a small two-unit stack.

    Builds the mini segmentation network, casts its parameters to
    float64, and compares one backward pass against central differences
    of the summed head losses at ``num_coords`` randomly chosen parameter
    entries. Inference-mode forward keeps the loss deterministic (the
    train-mode branches of batch norm and dropout have their own checks).
    Returns the worst relative error over the probes.
    """
    rng = np.random.default_rng(seed)
    net = StackedNet(mini_config(3, num_units=2), seed=seed)
    params = net.params()
    for p in params:
        p.value = p.value.astype(np.float64)
    x = spread_values(rng, (1, 3, 16, 16))
    labels = rng.integers(0, 3, size=(1, 16, 16))
    labels[0, :3, :] = 255

    def total_loss():
        maps = net.forward(x)
        named = net.losses(maps, labels)
        return sum(w * float(loss.data) for _, loss, w in named)

    maps = net.forward(x)
    named = net.losses(maps, labels)
    backward([loss for _, loss, _ in named])

    worst = 0.0
    for p in rng.choice(len(params), size=num_coords, replace=False):
        param = params[p]
        i = int(rng.integers(param.value.size))
        numeric = numeric_grad(total_loss, param.value.reshape(-1)[i:i + 1],
                               step)
        worst = max(worst, rel_error(param.grad.reshape(-1)[i:i + 1],
                                     numeric))
        param.grad = None
    return worst


def test_criterion_01_gradient_suite():
    t0 = time.time()
    worst = primitive_sweep()
    net_errs = [network_spot_check(seed) for seed in (0, 1)]
    elapsed = time.time() - t0
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    ok = not bad and max(net_errs) < 1e-3 and elapsed < 300
    report(1, ok,
           f"primitives worst {max(worst.values()):.2e} over 20 seeds "
           f"(tol 1e-4), whole-net spot checks {max(net_errs):.2e} "
           f"(tol 1e-3), {elapsed:.0f}s" + (f"; over tol: {bad}" if bad else ""))


# ---------------------------------------------------------------------------
# 2. deconv is conv's adjoint


def test_criterion_02_deconv_adjoint():
    rng = np.random.default_rng(0)
    worst = 0.0
    # input sizes chosen so the conv windows tile exactly, making the
    # transposed output land back on the input shape
    cases = [(1, 2, 3, 2, 1, 9), (2, 3, 4, 2, 1, 10), (3, 1, 2, 2, 0, 10),
             (2, 2, 3, 1, 1, 9), (1, 1, 4, 4, 0, 12), (2, 4, 5, 3, 2, 10)]
    for ci, co, k, stride, pad, size in cases:
        x = rng.standard_normal((2, ci, size, size))
        w = rng.standard_normal((co, ci, k, k))
        fx = conv2d(Tensor(x), Tensor(w), stride=stride, pad=pad).data
        y = rng.standard_normal(fx.shape)
        fty = deconv2d(Tensor(y), Tensor(w), stride=stride, pad=pad).data
        lhs = float((fx * y).sum())      # <conv(x, w), y>
        rhs = float((x * fty).sum())     # <x, deconv(y, w)>
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    report(2, worst < 1e-6,
           f"<conv(x,w),y> vs <x,deconv(y,w)> worst rel {worst:.2e} over "
           f"{len(cases)} shape/stride/pad cases (tol 1e-6)")


# ---------------------------------------------------------------------------
# 3. parameter/depth arithmetic of the full profile


def test_criterion_03_parameter_table():
    reports = {m: architecture_report(full_config(21, num_units=m))
               for m in (1, 2, 3)}
    totals = {m: r.params_total for m, r in reports.items()}
    depths = {m: r.depth for m, r in reports.items()}
    delta_equal = totals[2] - totals[1] == totals[3] - totals[2]
    depth_ok = depths == {1: 169, 2: 185, 3: 201}
    # expected size of the one-unit full stack, checked to +-5%
    m1_dev = abs(totals[1] - 84.9e6) / 84.9e6
    ok = delta_equal and depth_ok and m1_dev <= 0.05
    report(3, ok,
           f"totals {totals[1]}/{totals[2]}/{totals[3]} "
           f"(unit deltas {totals[2] - totals[1]} == {totals[3] - totals[2]}), "
           f"depths {depths[1]}/{depths[2]}/{depths[3]}, "
           f"M1 within {m1_dev * 100:.2f}% of 84.9M (tol 5%)")


# ---------------------------------------------------------------------------
# 4. resolution contract


def test_criterion_04_shape_contract():
    net = StackedNet(mini_config(NUM_CLASSES, num_units=2), seed=0)
    checked = []
    ok = True
    for h, w in ((32, 48), (64, 64)):
        x = np.random.default_rng(1).random((1, 3, h, w), dtype=np.float32)
        maps = net.forward(x)
        for unit in range(2):
            ok &= maps[(unit, 16)].shape[2:] == (h // 16, w // 16)
            ok &= maps[(unit, 8)].shape[2:] == (h // 8, w // 8)
            ok &= maps[(unit, 4)].shape[2:] == (h // 4, w // 4)
        pred = net.predict(x)
        ok &= pred.shape == (1, h, w)
        checked.append(f"{h}x{w}")
    report(4, ok, f"1/16 bottleneck, 1/4 decoder, full-size prediction "
                  f"for inputs {', '.join(checked)}")


# ---------------------------------------------------------------------------
# 5. LR schedule endpoints and midpoint


def test_criterion_05_poly_schedule():
    start = poly_lr(2.5e-4, 0, 30000)
    end = poly_lr(2.5e-4, 30000, 30000)
    mid = poly_lr(2.5e-4, 15000, 30000)
    mid_err = abs(mid - 2.5e-4 * 0.5 ** 0.9)
    ok = start == 2.5e-4 and end == 0.0 and mid_err < 1e-9
    report(5, ok, f"lr(0)={start}, lr(max)={end}, midpoint off by "
                  f"{mid_err:.1e} (tol 1e-9)")


# ---------------------------------------------------------------------------
# toy-task fixture shared by criteria 6 and 7


@pytest.fixture(scope="module")
def toy_runs():
    train_set = synth_dataset(200, size=64, seed=100)
    held_out = synth_dataset(50, size=64, seed=200)
    results = {}
    for key, units, ratios in (("m2", 2, (16, 8, 4)),
                               ("m1", 1, (16, 8, 4)),
                               ("m1_r4", 1, (4,))):
        runs = []
        for seed in TRAIN_SEEDS:
            cfg = mini_config(NUM_CLASSES, num_units=units,
                              supervision_ratios=ratios)
            net = StackedNet(cfg, seed=seed)
            t0 = time.time()
            hist = train(net, train_set,
                         TrainConfig(max_iter=1000, seed=seed))
            wall = time.time() - t0
            miou = evaluate(net, held_out).mean_iou()
            runs.append({
                "seed": seed,
                "miou": miou,
                "initial_loss": hist[0]["total_loss"],
                "final_loss": float(np.mean([h["total_loss"]
                                             for h in hist[-10:]])),
                "wall": wall,
            })
        results[key] = runs
    return results


# ---------------------------------------------------------------------------
# 6. the two-unit stack learns the toy task


@pytest.mark.slow
def test_criterion_06_toy_learning(toy_runs):
    runs = toy_runs["m2"]
    good = [r for r in runs
            if r["miou"] >= 0.85 and r["final_loss"] <= 0.5 * r["initial_loss"]]
    wall = sum(r["wall"] for r in runs)
    details = ", ".join(
        f"seed {r['seed']}: mIoU {r['miou']:.4f} loss "
        f"{r['initial_loss']:.3f}->{r['final_loss']:.3f}" for r in runs)
    ok = len(good) >= 2 and wall < 1200
    report(6, ok, f"{len(good)}/3 seeds reach mIoU >= 0.85 with >= 2x loss "
                  f"drop in {wall:.0f}s ({details})")


# ---------------------------------------------------------------------------
# 7. more units help; hierarchical supervision helps


@pytest.mark.slow
def test_criterion_07_ablation_directions(toy_runs):
    means = {k: float(np.mean([r["miou"] for r in v]))
             for k, v in toy_runs.items()}
    ok = means["m2"] >= means["m1"] >= means["m1_r4"]
    report(7, ok,
           f"held-out mIoU means: two units {means['m2']:.4f} >= one unit "
           f"{means['m1']:.4f} >= ratio-4-only supervision "
           f"{means['m1_r4']:.4f}")


# ---------------------------------------------------------------------------
# 8. metric arithmetic on fixed matrices


def _accumulate(pairs):
    truth = np.array([t for t, _ in pairs])
    pred = np.array([p for _, p in pairs])
    valid = truth[truth != 255]
    acc = EvalAccumulator(int(max(valid.max(), pred.max())) + 1)
    acc.update(truth, pred)
    return acc


def test_criterion_08_metrics_hand_values():
    checks = []

    # [[3,1],[1,3]]: IoU 3/5 both classes, accuracy 6/8
    a = _accumulate([(0, 0)] * 3 + [(0, 1)] + [(1, 0)] + [(1, 1)] * 3)
    checks.append(abs(a.mean_iou() - 0.6) < 1e-12)
    checks.append(a.global_accuracy() == 0.75)

    # [[2,1,0],[0,3,1],[1,0,2]]: IoUs 1/2, 3/5, 1/2 -> 8/15; accuracy 7/10
    b = _accumulate([(0, 0)] * 2 + [(0, 1)] + [(1, 1)] * 3 + [(1, 2)]
                    + [(2, 0)] + [(2, 2)] * 2)
    checks.append(abs(b.mean_iou() - 8 / 15) < 1e-12)
    checks.append(abs(b.global_accuracy() - 0.7) < 1e-12)

    # [[4,2],[1,3]]: IoUs 4/7 and 1/2 -> 15/28; accuracy 7/10
    c = _accumulate([(0, 0)] * 4 + [(0, 1)] * 2 + [(1, 0)] + [(1, 1)] * 3)
    checks.append(abs(c.mean_iou() - 15 / 28) < 1e-12)
    checks.append(abs(c.global_accuracy() - 0.7) < 1e-12)

    # sprinkling ignored pixels must not move the matrix
    d = _accumulate([(0, 0)] * 4 + [(0, 1)] * 2 + [(1, 0)] + [(1, 1)] * 3
                    + [(255, 0)] * 5 + [(255, 1)] * 4)
    checks.append((c.matrix == d.matrix).all())

    report(8, all(checks),
           f"3 hand matrices exact to 1e-12 and ignore-invariant "
           f"({sum(checks)}/{len(checks)} checks)")


# ---------------------------------------------------------------------------
# 9. bitwise determinism


def test_criterion_09_determinism(tmp_path):
    samples = synth_dataset(20, size=64, seed=42)
    cfg = TrainConfig(max_iter=30, batch_size=2, crop=32, seed=7)
    paths = []
    for run in (0, 1):
        net = StackedNet(mini_config(NUM_CLASSES, num_units=1,
                                     supervision_ratios=(4,)), seed=9)
        train(net, samples, cfg)
        path = tmp_path / f"run{run}.sdnw"
        save_weights(path, net.state_dict())
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()

    state = load_weights(paths[0])
    save_weights(tmp_path / "copy.sdnw", state)
    lossless = (tmp_path / "copy.sdnw").read_bytes() == paths[0].read_bytes()
    ok = identical and lossless
    report(9, ok, f"two seeded runs byte-identical: {identical}; "
                  f"container round trip byte-identical: {lossless}")


# ---------------------------------------------------------------------------
# 10. multi-scale mirrored inference


def test_criterion_10_ms_flip_pipeline():
    net = StackedNet(mini_config(NUM_CLASSES, num_units=2), seed=3)
    image = synth_dataset(1, size=64, seed=77)[0].image

    plain = net.predict(image[None])[0]
    single = predict_ms_flip(net, image, scales=(1.0,), mirror=False)
    bitwise = np.array_equal(plain, single)

    _, probs = predict_ms_flip(net, image, scales=(0.5, 1.0, 1.4),
                               mirror=True, return_probs=True)
    sum_err = float(np.abs(probs.sum(axis=0) - 1.0).max())
    ok = bitwise and sum_err < 1e-6
    report(10, ok, f"single-scale equals plain predict: {bitwise}; averaged "
                   f"probabilities off unity by {sum_err:.1e} (tol 1e-6)")
