"""Finite-difference gradient checking.

Analytic gradients from :func:`stackseg.tensor.backward` are compared
against central differences computed in float64. Callers are responsible
for choosing inputs away from relu/maxpool kinks (element gaps well above
2 * step) and for making stochastic builds (dropout) reseed their rng on
every invocation, since the loss closure is evaluated many times.
"""
from __future__ import annotations

import numpy as np

from . import ops
from .tensor import Tensor, backward

DEFAULT_STEP = 1e-3
# the fixed sweeps that `stackseg gradcheck` and the test suite run
SEEDS = 20  # seeded draws of every primitive check
COMPOSITE_SEEDS = 5  # seeds of the composite graph
# finer than DEFAULT_STEP: dense mixing can park a relu input close to
# zero, where the coarse step straddles the kink
COMPOSITE_STEP = 2e-4
TOL = 1e-4  # worst relative error a primitive may reach
COMPOSITE_TOL = 1e-3  # and the composite graph


def numeric_grad(f, x, step=DEFAULT_STEP):
    """Central-difference gradient of scalar ``f`` w.r.t. array ``x``.

    ``x`` is perturbed in place element by element; ``f`` must recompute
    from the current contents on every call.
    """
    x = np.asarray(x)
    grad = np.zeros(x.shape, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + step
        f_plus = f()
        flat_x[i] = orig - step
        f_minus = f()
        flat_x[i] = orig
        flat_g[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def rel_error(a, b):
    """max|a - b| / max(max|a|, max|b|, 1e-8); 0 for two empty arrays,
    and inf when either holds a NaN or inf, so that no max() drops it."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0:
        return 0.0
    err = np.abs(a - b).max() / max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return float(err) if np.isfinite(err) else np.inf


def max_rel_error(build, arrays, step=DEFAULT_STEP):
    """Worst relative error between analytic and numeric input gradients.

    ``build(*tensors)`` must return a scalar loss tensor and be pure in
    its tensor arguments. Arrays are promoted to float64 copies.
    """
    arrays = [np.array(a, dtype=np.float64) for a in arrays]

    leaves = [Tensor(a.copy()) for a in arrays]
    loss = build(*leaves)
    backward([loss])
    analytic = [leaf.grad if leaf.grad is not None else np.zeros(a.shape)
                for leaf, a in zip(leaves, arrays)]

    def run():
        return float(build(*[Tensor(a) for a in arrays]).data)

    return max(rel_error(g, numeric_grad(run, a, step))
               for g, a in zip(analytic, arrays))


# ---------------------------------------------------------------------------
# canned sweeps shared by the CLI and the acceptance suite


def spread_values(rng, shape):
    """Permuted even grid: distinct values, every one far from zero.

    Keeps relu/maxpool kinks well outside the FD step: gaps are 0.37,
    and the 0.171 offset guarantees no element lands near zero.
    """
    n = int(np.prod(shape))
    return ((rng.permutation(n) - n / 2) * 0.37 + 0.171).reshape(shape)


def weighted_sum(t, r):
    """Random-weighted reduction to scalar so FD probes the full Jacobian."""
    return Tensor((t.data * r).sum(), (t,), lambda g: (g * r,), op="wsum")


def primitive_checks(rng):
    """(name, build, arrays) triples, one per primitive op."""
    checks = []

    x = rng.standard_normal((2, 3, 6, 5))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    r = rng.standard_normal((2, 4, 6, 5))
    checks.append(("conv2d", lambda xt, wt, bt:
                   weighted_sum(ops.conv2d(xt, wt, bt, pad=1), r), [x, w, b]))

    xs = rng.standard_normal((1, 2, 9, 8))
    ws = rng.standard_normal((3, 2, 3, 3))
    rs = rng.standard_normal((1, 3, 5, 4))
    checks.append(("conv2d_strided_dilated", lambda xt, wt: weighted_sum(
        ops.conv2d(xt, wt, stride=2, pad=2, dilation=2), rs), [xs, ws]))

    xd = rng.standard_normal((2, 3, 4, 3))
    wd = rng.standard_normal((3, 2, 4, 4))
    rd = rng.standard_normal((2, 2, 8, 6))
    checks.append(("deconv2d", lambda xt, wt: weighted_sum(
        ops.deconv2d(xt, wt, stride=2, pad=1), rd), [xd, wd]))

    xp = spread_values(rng, (2, 3, 6, 6))
    rp = rng.standard_normal((2, 3, 3, 3))
    checks.append(("maxpool2d", lambda xt: weighted_sum(
        ops.maxpool2d(xt, kernel=2), rp), [xp]))

    xb = rng.standard_normal((2, 2, 5, 4))
    rb = rng.standard_normal((2, 2, 9, 7))
    checks.append(("bilinear_resize", lambda xt: weighted_sum(
        ops.bilinear_resize(xt, 9, 7), rb), [xb]))

    xn = rng.standard_normal((3, 4, 5, 5))
    gamma = rng.standard_normal(4) + 1.5
    beta = rng.standard_normal(4)
    rn = rng.standard_normal(xn.shape)
    run_mean = rng.standard_normal(4)
    run_var = rng.random(4) + 0.5

    def bn_build(training):
        def build(xt, gt, bt):
            return weighted_sum(ops.batch_norm(
                xt, gt, bt, run_mean.copy(), run_var.copy(), training), rn)
        return build

    checks.append(("batch_norm_train", bn_build(True), [xn, gamma, beta]))
    checks.append(("batch_norm_infer", bn_build(False), [xn, gamma, beta]))

    xr = spread_values(rng, (2, 3, 5, 4))
    rr = rng.standard_normal(xr.shape)
    checks.append(("relu", lambda xt: weighted_sum(ops.relu(xt), rr), [xr]))

    xo = rng.standard_normal((2, 3, 6, 6))
    ro = rng.standard_normal(xo.shape)
    mask_seed = int(rng.integers(2 ** 31))
    checks.append(("dropout", lambda xt: weighted_sum(
        ops.dropout(xt, 0.8, True, np.random.default_rng(mask_seed)), ro),
        [xo]))

    ca = rng.standard_normal((2, 2, 3, 3))
    cb = rng.standard_normal((2, 3, 3, 3))
    cc = rng.standard_normal((2, 5, 3, 3))
    rc = rng.standard_normal((2, 5, 3, 3))

    def concat_add(at, bt, ct):
        buf = np.concatenate([at.data, bt.data], axis=1)
        return weighted_sum(
            ops.eltwise_add(ops.concat_channels([at, bt], buf), ct), rc)

    checks.append(("concat_add", concat_add, [ca, cb, cc]))

    z = rng.standard_normal((2, 4, 3, 3))
    labels = rng.integers(0, 4, size=(2, 3, 3))
    labels[0, 0, 0] = 255
    targets = ops.ce_targets(labels, 4)
    checks.append(("softmax_ce", lambda zt: ops.softmax_ce_loss(zt, targets),
                   [z]))
    return checks


def primitive_sweep():
    """Worst FD relative error per primitive over ``SEEDS`` seeded draws."""
    worst = {}
    for seed in range(SEEDS):
        rng = np.random.default_rng(seed)
        for name, build, arrays in primitive_checks(rng):
            err = max_rel_error(build, arrays)
            worst[name] = max(err, worst.get(name, 0.0))
    return worst


def composite_check(seed):
    """FD error of a conv-bn-relu-pool-deconv-add-resize-CE graph, at
    ``COMPOSITE_STEP``."""
    rng = np.random.default_rng(seed)
    x = spread_values(rng, (2, 2, 8, 8))
    w1 = rng.standard_normal((4, 2, 3, 3)) * 0.5
    gamma = rng.standard_normal(4) + 1.5
    beta = rng.standard_normal(4)
    wd = rng.standard_normal((4, 3, 4, 4)) * 0.5
    skip = rng.standard_normal((2, 3, 8, 8))
    labels = rng.integers(0, 3, size=(2, 16, 16))
    labels[0, :2] = 255
    targets = ops.ce_targets(labels, 3)

    def build(xt, w1t, gt, bt, wdt, st):
        h = ops.conv2d(xt, w1t, pad=1)
        h = ops.batch_norm(h, gt, bt, np.zeros(4), np.ones(4), training=True)
        h = ops.relu(h)
        h = ops.maxpool2d(h, kernel=2)
        h = ops.deconv2d(h, wdt, stride=2, pad=1)
        h = ops.eltwise_add(h, st)
        h = ops.bilinear_resize(h, 16, 16)
        return ops.softmax_ce_loss(h, targets)

    return max_rel_error(build, [x, w1, gamma, beta, wd, skip], COMPOSITE_STEP)
