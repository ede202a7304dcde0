import types
from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference
from stackseg import ConfigError, DataError, Tensor, backward
from stackseg import ops
from stackseg.ops import (
    batch_norm,
    bilinear_resize,
    ce_targets,
    concat_channels,
    conv2d,
    deconv2d,
    dropout,
    eltwise_add,
    maxpool2d,
    relu,
    resize_bilinear_array,
    resize_matrix,
    softmax_ce_loss,
)


def to_scalar(t):
    return Tensor(t.data.sum(), (t,), lambda g: (np.ones_like(t.data) * g,), op="sum")


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_hand_example():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    w = np.array([[1.0, 0.0], [0.0, 1.0]]).reshape(1, 1, 2, 2)
    out = conv2d(Tensor(x), Tensor(w))
    # cross-correlation, not flipped-kernel convolution
    assert_allclose(out.data, [[[[5.0]]]])
    out_b = conv2d(Tensor(x), Tensor(w), b=Tensor(np.array([0.5])))
    assert_allclose(out_b.data, [[[[5.5]]]])


def test_conv2d_padding_hand_example():
    x = np.full((1, 1, 1, 1), 2.0)
    w = np.ones((1, 1, 3, 3))
    out = conv2d(Tensor(x), Tensor(w), pad=1)
    assert out.shape == (1, 1, 1, 1)
    assert_allclose(out.data, [[[[2.0]]]])


@pytest.mark.parametrize("k,s,p,d", [
    (3, 1, 1, 1), (1, 1, 0, 1), (3, 2, 1, 1), (4, 2, 1, 1),
    (3, 1, 2, 2), (5, 1, 2, 1), (2, 2, 0, 1), (3, 1, 1, 2),
])
def test_conv2d_matches_direct_loops(k, s, p, d):
    rng = np.random.default_rng(k * 100 + s * 10 + p + d)
    x = rng.standard_normal((2, 3, 7, 8))
    w = rng.standard_normal((4, 3, k, k))
    b = rng.standard_normal(4)
    got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=s, pad=p, dilation=d)
    want = reference.conv2d_forward(x, w, b, stride=s, pad=p, dilation=d)
    assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)


def test_conv2d_1x1_uses_input_as_patch_matrix():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 5, 6, 7))
    w = rng.standard_normal((3, 5, 1, 1))
    b = rng.standard_normal(3)
    g = rng.standard_normal((2, 3, 6, 7))
    assert np.shares_memory(ops._im2col(x, 1, 1, 1, 2, 6, 7), x)
    assert not np.shares_memory(ops._im2col(x, 1, 1, 2, 1, 3, 4), x)
    padded = ops._pad(x, 1, 1)
    assert not np.shares_memory(ops._im2col(padded, 1, 1, 1, 1, 8, 9), x)

    out = conv2d(Tensor(x), Tensor(w), Tensor(b))
    assert_allclose(out.data, reference.conv2d_forward(x, w, b),
                    rtol=1e-12, atol=1e-12)
    gx, gw, gb = out.backward_fn(g)
    # the input gradient is the transposed conv of g with the same kernel
    assert_allclose(gx, reference.deconv2d_forward(g, w, stride=1, pad=0),
                    rtol=1e-12, atol=1e-12)
    # conv is linear in w, so gw[o, i] = <conv(x, e_oi), g>
    want_gw = np.zeros_like(w)
    for o in range(3):
        for i in range(5):
            e = np.zeros_like(w)
            e[o, i] = 1.0
            want_gw[o, i] = (reference.conv2d_forward(x, e) * g).sum()
    assert_allclose(gw, want_gw, rtol=1e-12, atol=1e-12)
    assert_allclose(gb, g.sum(axis=(0, 2, 3)), rtol=1e-12)


def test_conv2d_rejects_bad_shapes():
    x = Tensor(np.zeros((1, 3, 8, 8)))
    with pytest.raises(ConfigError):
        conv2d(x, Tensor(np.zeros((4, 5, 3, 3))))  # channel mismatch
    with pytest.raises(ConfigError):
        conv2d(x, Tensor(np.zeros((4, 3, 9, 9))))  # kernel larger than input
    with pytest.raises(ConfigError):
        conv2d(x, Tensor(np.zeros((4, 3, 3, 3))), stride=0)
    with pytest.raises(ConfigError):
        conv2d(x, Tensor(np.zeros((4, 3, 3, 3))), b=Tensor(np.zeros(5)))
    with pytest.raises(ConfigError, match=r"input .*\(3, 8, 8\)"):
        conv2d(Tensor(np.zeros((3, 8, 8))), Tensor(np.zeros((4, 3, 3, 3))))
    with pytest.raises(ConfigError, match=r"weight .*\(4, 3, 3\)"):
        conv2d(x, Tensor(np.zeros((4, 3, 3))))


# ---------------------------------------------------------------------------
# deconv2d


def test_deconv2d_hand_example():
    x = np.full((1, 1, 1, 1), 2.0)
    w = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    out = deconv2d(Tensor(x), Tensor(w), stride=2, pad=0)
    assert_allclose(out.data, 2.0 * w)


def test_deconv2d_output_size_doubles_with_4x4_s2_p1():
    x = Tensor(np.zeros((1, 6, 5, 9)))
    w = Tensor(np.zeros((6, 6, 4, 4)))
    assert deconv2d(x, w, stride=2, pad=1).shape == (1, 6, 10, 18)


@pytest.mark.parametrize("k,s,p", [(4, 2, 1), (2, 2, 0), (3, 1, 1), (4, 2, 0)])
def test_deconv2d_matches_direct_loops(k, s, p):
    rng = np.random.default_rng(k * 100 + s * 10 + p)
    x = rng.standard_normal((2, 3, 5, 4))
    w = rng.standard_normal((3, 2, k, k))
    got = deconv2d(Tensor(x), Tensor(w), stride=s, pad=p)
    want = reference.deconv2d_forward(x, w, stride=s, pad=p)
    assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_deconv2d_is_adjoint_of_conv2d(seed):
    # <conv(x, w), y> == <x, deconv(y, w)> for the shared weight array,
    # which pins the transposed conv to exactly the right linear map.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 3, 8, 6))
    w = rng.standard_normal((5, 3, 4, 4))
    y = rng.standard_normal((2, 5, 4, 3))
    lhs = (conv2d(Tensor(x), Tensor(w), stride=2, pad=1).data * y).sum()
    rhs = (x * deconv2d(Tensor(y), Tensor(w), stride=2, pad=1).data).sum()
    assert_allclose(lhs, rhs, rtol=1e-12)


def test_deconv2d_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        deconv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 3, 4, 4))))
    with pytest.raises(ConfigError):
        # (1-1)*2 - 2*1 + 2 = 0: empty output
        deconv2d(Tensor(np.zeros((1, 2, 1, 1))), Tensor(np.zeros((2, 2, 2, 2))),
                 stride=2, pad=1)
    for attrs in ({"stride": 0}, {"pad": -1}):
        with pytest.raises(ConfigError):
            deconv2d(Tensor(np.zeros((1, 2, 3, 3))),
                     Tensor(np.zeros((2, 2, 4, 4))), **attrs)
    with pytest.raises(ConfigError, match=r"input .*\(1, 1, 2, 3, 3\)"):
        deconv2d(Tensor(np.zeros((1, 1, 2, 3, 3))),
                 Tensor(np.zeros((2, 2, 4, 4))))
    with pytest.raises(ConfigError, match=r"weight .*\(2, 2, 4\)"):
        deconv2d(Tensor(np.zeros((1, 2, 3, 3))), Tensor(np.zeros((2, 2, 4))))


# ---------------------------------------------------------------------------
# maxpool2d


def test_maxpool2d_hand_example_and_backward_routing():
    x = Tensor(np.array([[1.0, 2.0], [4.0, 3.0]]).reshape(1, 1, 2, 2))
    out = maxpool2d(x, kernel=2)
    assert_allclose(out.data, [[[[4.0]]]])
    backward([to_scalar(out)])
    assert_allclose(x.grad, [[[[0.0, 0.0], [1.0, 0.0]]]])


def test_maxpool2d_tie_takes_first():
    x = Tensor(np.array([[5.0, 5.0], [1.0, 2.0]]).reshape(1, 1, 2, 2))
    out = maxpool2d(x, kernel=2)
    backward([to_scalar(out)])
    assert x.grad[0, 0, 0, 0] == 1.0 and x.grad[0, 0, 0, 1] == 0.0


@pytest.mark.parametrize("k,s,p", [(2, 2, 0), (3, 2, 1), (3, 1, 1), (2, 1, 0)])
def test_maxpool2d_matches_direct_loops(k, s, p):
    rng = np.random.default_rng(k * 10 + s + p)
    # all-negative input: -inf padding must never win
    x = -np.abs(rng.standard_normal((2, 3, 9, 8))) - 0.1
    got = maxpool2d(Tensor(x), kernel=k, stride=s, pad=p)
    want = reference.maxpool2d_forward(x, kernel=k, stride=s, pad=p)
    assert_allclose(got.data, want)


def test_maxpool2d_rejects_bad_config():
    x = Tensor(np.zeros((1, 1, 4, 4)))
    with pytest.raises(ConfigError):
        maxpool2d(x, kernel=2, pad=2)
    with pytest.raises(ConfigError):
        maxpool2d(Tensor(np.zeros((1, 1, 1, 1))), kernel=3)
    for attrs in ({"stride": 0}, {"pad": -1}):
        with pytest.raises(ConfigError):
            maxpool2d(x, kernel=2, **attrs)
    with pytest.raises(ConfigError, match=r"input .*\(4, 4\)"):
        maxpool2d(Tensor(np.zeros((4, 4))), kernel=2)


# ---------------------------------------------------------------------------
# bilinear_resize


def test_resize_matrix_rows_are_convex_combinations():
    m = resize_matrix(5, 13)
    assert_allclose(m.sum(axis=1), np.ones(13), rtol=1e-12)
    assert (m >= 0).all()


def test_resize_matrix_is_cached_and_read_only():
    m = resize_matrix(7, 19, np.dtype(np.float32))
    assert resize_matrix(7, 19, np.dtype(np.float32)) is m
    assert m.dtype == np.float32 and not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, 0] = 2.0
    assert resize_matrix(7, 19) is not m  # float64 is its own entry


def test_resize_bilinear_array_refuses_integer_dtypes():
    # an integer resize matrix truncates every weight to 0 or 1
    image = np.arange(24, dtype=np.uint8).reshape(1, 4, 6)
    for dtype in (np.uint8, np.int64, np.bool_):
        with pytest.raises(ConfigError, match=np.dtype(dtype).name):
            resize_bilinear_array(image.astype(dtype), 6, 9)
    for dtype in (np.float32, np.float64):
        out = resize_bilinear_array(image.astype(dtype), 6, 9)
        assert out.dtype == dtype and out.shape == (1, 6, 9)


def test_bilinear_resize_1d_hand_example():
    x = Tensor(np.array([1.0, 3.0]).reshape(1, 1, 1, 2))
    out = bilinear_resize(x, 1, 4)
    assert_allclose(out.data.ravel(), [1.0, 1.5, 2.5, 3.0], rtol=1e-12)


def test_bilinear_resize_identity_and_constants():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 5, 7))
    assert_allclose(bilinear_resize(Tensor(x), 5, 7).data, x, rtol=1e-12)
    const = np.full((1, 1, 3, 3), 2.5)
    out = bilinear_resize(Tensor(const), 11, 4)
    assert_allclose(out.data, np.full((1, 1, 11, 4), 2.5), rtol=1e-12)


def test_bilinear_resize_halving_equals_2x2_average_pool():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 4, 6, 8))
    out = bilinear_resize(Tensor(x), 3, 4).data
    want = x.reshape(2, 4, 3, 2, 4, 2).mean(axis=(3, 5))
    assert_allclose(out, want, rtol=1e-12)


@pytest.mark.parametrize("hw,out_hw", [((7, 5), (13, 9)), ((4, 4), (2, 2)),
                                       ((3, 7), (6, 21)), ((5, 5), (5, 5))])
def test_bilinear_resize_matches_direct_loops(hw, out_hw):
    rng = np.random.default_rng(hw[0] * 10 + out_hw[0])
    x = rng.standard_normal((2, 3) + hw)
    got = bilinear_resize(Tensor(x), *out_hw)
    want = reference.bilinear_resize_forward(x, *out_hw)
    assert_allclose(got.data, want, rtol=1e-12)


def test_bilinear_resize_rejects_empty_target():
    with pytest.raises(ConfigError):
        bilinear_resize(Tensor(np.zeros((1, 1, 2, 2))), 0, 4)


def test_resize_nearest_labels_round_trip():
    labels = np.arange(12, dtype=np.int64).reshape(3, 4)
    up = ops.resize_nearest_labels(labels, 6, 8)
    assert up.shape == (6, 8)
    assert set(np.unique(up)) == set(range(12))
    assert_allclose(ops.resize_nearest_labels(up, 3, 4), labels)


# ---------------------------------------------------------------------------
# batch_norm


def test_batch_norm_training_normalizes_and_tracks_stats():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 3, 5, 6)) * 3.0 + 7.0
    mean, var = np.zeros(3), np.ones(3)
    gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
    out = batch_norm(Tensor(x), gamma, beta, mean, var, training=True)
    assert_allclose(out.data.mean(axis=(0, 2, 3)), np.zeros(3), atol=1e-10)
    assert_allclose(out.data.var(axis=(0, 2, 3)), np.ones(3), atol=1e-4)
    assert_allclose(mean, (1 - ops.BN_MOMENTUM) * x.mean(axis=(0, 2, 3)),
                    rtol=1e-12)
    assert_allclose(var, ops.BN_MOMENTUM * 1.0
                    + (1 - ops.BN_MOMENTUM) * x.var(axis=(0, 2, 3)),
                    rtol=1e-12)


def test_batch_norm_running_var_is_biased_batch_var():
    # float32 with a large mean: a one-pass E[x^2] - E[x]^2 loses ~1e-5
    rng = np.random.default_rng(5)
    x = (rng.standard_normal((4, 5, 6, 7)) * 3.0 + 50.0).astype(np.float32)
    var = rng.uniform(0.5, 2.0, 5).astype(np.float32)
    old = var.astype(np.float64)
    batch_norm(Tensor(x), Tensor(np.ones(5, np.float32)),
               Tensor(np.zeros(5, np.float32)), np.zeros(5, np.float32), var,
               training=True)
    want = ops.BN_MOMENTUM * old + (1 - ops.BN_MOMENTUM) \
        * x.astype(np.float64).var(axis=(0, 2, 3))
    assert var.dtype == np.float32
    assert_allclose(var, want, rtol=1e-6)


def test_batch_norm_inference_uses_running_stats():
    x = np.full((1, 2, 1, 1), 5.0)
    mean, var = np.array([1.0, 5.0]), np.array([4.0, 1.0])
    gamma = Tensor(np.array([2.0, 3.0]))
    beta = Tensor(np.array([0.5, -1.0]))
    out = batch_norm(Tensor(x), gamma, beta, mean, var, training=False)
    # channel 0: 2 * (5-1)/sqrt(4 + eps) + 0.5; channel 1: 3 * 0 - 1
    assert_allclose(out.data.ravel(),
                    [8.0 / np.sqrt(4.0 + ops.BN_EPS) + 0.5, -1.0], rtol=1e-12)
    assert_allclose(mean, [1.0, 5.0])  # inference must not touch stats
    assert_allclose(var, [4.0, 1.0])


def test_batch_norm_rejects_mismatched_affine():
    with pytest.raises(ConfigError):
        batch_norm(Tensor(np.zeros((1, 3, 2, 2))), Tensor(np.ones(2)),
                   Tensor(np.zeros(3)), np.zeros(3), np.ones(3), training=True)


@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_rejects_bad_shapes(training):
    with pytest.raises(ConfigError, match=r"input .*\(1, 3, 4\)"):
        batch_norm(Tensor(np.zeros((1, 3, 4))), Tensor(np.ones(3)),
                   Tensor(np.zeros(3)), np.zeros(3), np.ones(3), training)


# ---------------------------------------------------------------------------
# relu / dropout / glue


def test_relu_values_and_grad_mask():
    x = Tensor(np.array([-2.0, 0.0, 3.0]))
    out = relu(x)
    assert_allclose(out.data, [0.0, 0.0, 3.0])
    backward([to_scalar(out)])
    assert_allclose(x.grad, [0.0, 0.0, 1.0])


def test_dropout_training_scales_survivors():
    rng = np.random.default_rng(3)
    x = np.ones((1, 4, 16, 16))
    out = dropout(Tensor(x), keep_prob=0.8, training=True, rng=rng)
    vals = np.unique(out.data)
    assert_allclose(sorted(vals), [0.0, 1.25], rtol=1e-6)
    kept = (out.data != 0).mean()
    assert 0.7 < kept < 0.9


def test_dropout_deterministic_per_seed():
    x = np.ones((1, 2, 8, 8))
    a = dropout(Tensor(x), 0.8, True, np.random.default_rng(42)).data
    b = dropout(Tensor(x), 0.8, True, np.random.default_rng(42)).data
    c = dropout(Tensor(x), 0.8, True, np.random.default_rng(43)).data
    assert_allclose(a, b)
    assert not np.allclose(a, c)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_bool_mask_is_bitwise_the_float_mask(dtype):
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 3, 5, 4)).astype(dtype)  # half negative
    x[0, 0, 0, :3] = np.nan
    g = rng.standard_normal(x.shape).astype(dtype)
    g[1, 2, 4, :3] = np.nan
    out = dropout(Tensor(x), 0.8, True, np.random.default_rng(9))
    (gx,) = out.backward_fn(g)
    # the same mask as a float array, scaled up front
    mask = (np.random.default_rng(9).random(x.shape) < 0.8).astype(dtype) \
        * dtype(1.0 / 0.8)
    assert out.data.dtype == gx.dtype == dtype
    np.testing.assert_array_equal(out.data, x * mask)
    np.testing.assert_array_equal(gx, g * mask)
    kept = [c.cell_contents for c in out.backward_fn.__closure__
            if isinstance(c.cell_contents, np.ndarray)]
    assert [a.dtype for a in kept] == [np.bool_]


def test_dropout_identity_cases_and_errors():
    t = Tensor(np.ones((1, 1, 2, 2)))
    assert dropout(t, 0.8, training=False) is t
    assert dropout(t, 1.0, training=True) is t
    with pytest.raises(ConfigError):
        dropout(t, 0.0, training=True, rng=np.random.default_rng(0))
    with pytest.raises(ConfigError):
        dropout(t, 0.5, training=True)


def test_concat_channels_values_and_grads():
    a = Tensor(np.ones((1, 2, 2, 2)))
    b = Tensor(np.full((1, 3, 2, 2), 2.0))
    buf = np.empty((1, 5, 2, 2))
    buf[:, :2], buf[:, 2:] = a.data, b.data
    out = concat_channels([a, b], buf)
    assert out.shape == (1, 5, 2, 2)
    assert_allclose(out.data[:, :2], 1.0)
    assert_allclose(out.data[:, 2:], 2.0)
    backward([to_scalar(out)])
    assert a.grad.shape == (1, 2, 2, 2) and (a.grad == 1).all()
    assert b.grad.shape == (1, 3, 2, 2) and (b.grad == 1).all()


def test_eltwise_add():
    a = Tensor(np.array([1.0, 2.0]))
    b = Tensor(np.array([10.0, 20.0]))
    out = eltwise_add(a, b)
    assert_allclose(out.data, [11.0, 22.0])
    backward([to_scalar(out)])
    assert_allclose(a.grad, [1.0, 1.0])
    assert_allclose(b.grad, [1.0, 1.0])
    with pytest.raises(ConfigError):
        eltwise_add(a, Tensor(np.zeros(3)))


# ---------------------------------------------------------------------------
# softmax cross-entropy


def test_softmax_ce_hand_example():
    logits = Tensor(np.array([0.0, np.log(3.0)]).reshape(1, 2, 1, 1))
    loss = softmax_ce_loss(logits, ce_targets(np.array([[[1]]]), 2))
    assert loss.shape == ()
    assert_allclose(float(loss.data), np.log(4.0 / 3.0), rtol=1e-12)
    backward([loss])
    # softmax is [1/4, 3/4]; grad = p - onehot
    assert_allclose(logits.grad.ravel(), [0.25, -0.25], rtol=1e-12)


def test_softmax_ce_means_over_valid_pixels_only():
    logits = np.zeros((1, 2, 1, 2))
    logits[0, :, 0, 0] = [0.0, np.log(3.0)]
    logits[0, :, 0, 1] = [5.0, -5.0]
    t = Tensor(logits)
    loss = softmax_ce_loss(t, ce_targets(np.array([[[1, 255]]]), 2))
    assert_allclose(float(loss.data), np.log(4.0 / 3.0), rtol=1e-12)
    backward([loss])
    assert_allclose(t.grad[0, :, 0, 1], [0.0, 0.0])


def test_softmax_ce_all_ignored_is_zero_with_zero_grad():
    t = Tensor(np.ones((1, 3, 2, 2)))
    loss = softmax_ce_loss(t, ce_targets(np.full((1, 2, 2), 255), 3))
    assert float(loss.data) == 0.0
    backward([loss])
    assert_allclose(t.grad, np.zeros_like(t.data))


def test_softmax_ce_is_stable_for_huge_logits():
    t = Tensor(np.array([1000.0, 0.0, -1000.0]).reshape(1, 3, 1, 1))
    loss = softmax_ce_loss(t, ce_targets(np.array([[[0]]]), 3))
    assert np.isfinite(float(loss.data))
    assert_allclose(float(loss.data), 0.0, atol=1e-12)


def test_softmax_ce_rejects_bad_labels():
    with pytest.raises(DataError, match="outside"):
        ce_targets(np.full((1, 2, 2), 7), 3)
    with pytest.raises(DataError, match="outside"):
        ce_targets(np.full((1, 2, 2), -2), 3)
    with pytest.raises(DataError, match="shape"):
        ce_targets(np.zeros((3, 3), dtype=int), 3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_ce_rejects_float_labels(dtype):
    with pytest.raises(DataError, match="integers"):
        ce_targets(np.array([[[0.5, 1.0]]], dtype=dtype), 3)


def test_softmax_ce_rejects_targets_unlike_the_logits():
    t = Tensor(np.zeros((1, 3, 2, 2)))
    for labels, c in [(np.zeros((1, 3, 3), dtype=int), 3),
                      (np.zeros((2, 2, 2), dtype=int), 3),
                      (np.zeros((1, 2, 2), dtype=int), 4)]:
        with pytest.raises(DataError, match="do not match"):
            softmax_ce_loss(t, ce_targets(labels, c))


def test_softmax_ce_mean_semantics():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((1, 3, 1, 1))
    one = softmax_ce_loss(Tensor(z), ce_targets(np.array([[[2]]]), 3))
    four = softmax_ce_loss(Tensor(np.tile(z, (1, 1, 2, 2))),
                           ce_targets(np.full((1, 2, 2), 2), 3))
    assert_allclose(float(one.data), float(four.data), rtol=1e-12)


# ---------------------------------------------------------------------------
# lean closures: a training node keeps no activation-sized array of its own


def held_arrays(fn):
    """Every ndarray reachable from a function's closure, through nested
    functions, tuples and lists (Tensors are graph nodes and not entered)."""
    found, todo = [], [fn]
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, types.FunctionType):
            for cell in obj.__closure__ or ():
                try:
                    todo.append(cell.cell_contents)
                except ValueError:  # empty cell
                    pass
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
    return found


def bits(a):
    a = np.ascontiguousarray(a)
    return a.view(np.dtype(f"u{a.itemsize}"))


def test_training_nodes_keep_no_activation_sized_array():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))
    nodes = [relu(x), maxpool2d(x, kernel=2),
             maxpool2d(x, kernel=3, stride=2, pad=1)]
    for node in nodes:
        assert held_arrays(node.backward_fn) == [], node
    # batch norm keeps its per-channel mean and inv_std, not xhat
    bn = batch_norm(x, Tensor(np.ones(3, np.float32)),
                    Tensor(np.zeros(3, np.float32)), np.zeros(3, np.float32),
                    np.ones(3, np.float32), training=True)
    assert [a.shape for a in held_arrays(bn.backward_fn)] == [(3,), (3,)]
    # the loss keeps the shared targets' label-sized arrays and its own
    # log-probabilities, one array of the logits' shape and dtype
    labels = rng.integers(0, 3, size=(2, 6, 6))
    labels[0, 0, 0] = 255
    targets = ce_targets(labels, 3)
    held = held_arrays(softmax_ce_loss(x, targets).backward_fn)
    big = [a for a in held if a.shape != labels.shape]
    assert [(a.shape, a.dtype) for a in big] == [(x.shape, x.data.dtype)]
    # the check itself does see an array kept by a closure
    assert len(held_arrays(dropout(x, 0.5, True,
                                   np.random.default_rng(1)).backward_fn)) == 1


def special_input(dtype, shape, seed):
    """Random values with NaN, 0.0 and -0.0 planted in the first channel."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(dtype)
    x[0, 0, 0, :3] = [np.nan, 0.0, -0.0]
    x[-1, 0, -1, -3:] = [-0.0, -0.0, 0.0]
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_gradient_is_bitwise_the_kept_mask_formula(dtype):
    x = special_input(dtype, (2, 3, 4, 5), 1)
    g = np.random.default_rng(2).standard_normal(x.shape).astype(dtype)
    g[1, 2, 3, :2] = [np.nan, -0.0]
    (gx,) = relu(Tensor(x)).backward_fn(g)
    np.testing.assert_array_equal(bits(gx), bits(g * (x > 0)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_norm_gradient_is_bitwise_the_kept_xhat_formula(dtype):
    x = special_input(dtype, (3, 4, 5, 6), 3)  # channel 0 turns NaN
    x[:, 2] = -0.0  # a constant channel: xhat is all zero
    rng = np.random.default_rng(4)
    gamma = rng.uniform(0.5, 2.0, 4).astype(dtype)
    beta = rng.standard_normal(4).astype(dtype)
    g = rng.standard_normal(x.shape).astype(dtype)
    out = batch_norm(Tensor(x), Tensor(gamma), Tensor(beta),
                     np.zeros(4, dtype), np.ones(4, dtype), training=True)
    got = out.backward_fn(g)

    # the formulas of a node that keeps xhat from its forward
    c, m = (1, 4, 1, 1), x.size // 4
    mean = x.mean(axis=(0, 2, 3))
    xhat = x - mean.reshape(c)
    var = np.einsum("nchw,nchw->c", xhat, xhat) / m
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv_std.reshape(c)
    a = gamma * inv_std
    np.testing.assert_array_equal(
        bits(out.data), bits(xhat * gamma.reshape(c) + beta.reshape(c)))
    dgamma = np.einsum("nchw,nchw->c", g, xhat)
    dbeta = g.sum(axis=(0, 2, 3))
    gx = g * a.reshape(c)
    gx -= (a * dbeta / m).reshape(c)
    gx -= xhat * (a * dgamma / m).reshape(c)
    assert np.isnan(gx[:, 0]).all() and not np.isnan(gx[:, 1:]).any()
    for have, want in zip(got, (gx, dgamma, dbeta)):
        np.testing.assert_array_equal(bits(have), bits(want))


@pytest.mark.parametrize("ignored", [0.25, 1.0])
@pytest.mark.parametrize("c", [3, 21])
@pytest.mark.parametrize("label_dtype", [np.uint8, np.int64])
def test_softmax_ce_is_bitwise_the_along_axis_formula(label_dtype, c, ignored):
    rng = np.random.default_rng(c)
    z = rng.standard_normal((2, c, 5, 7)).astype(np.float32)
    labels = rng.integers(0, c, (2, 5, 7)).astype(label_dtype)
    labels[rng.random(labels.shape) < ignored] = 255
    g = np.float32(0.75)
    targets = ce_targets(labels, c)
    loss = softmax_ce_loss(Tensor(z), targets)
    (gz,) = loss.backward_fn(g)
    keep = labels != 255
    count = int(keep.sum())
    if count == 0:  # everything ignored: zero loss, zero gradient
        want_loss, want_gz = np.float32(0.0), np.zeros_like(z)
    else:
        logp = ops.log_softmax(z)
        safe = np.where(keep, labels, 0)[:, None]
        picked = np.take_along_axis(logp, safe, axis=1)[:, 0]
        want_loss = np.asarray(-(picked * keep).sum() / count, np.float32)
        want_gz = np.exp(logp)
        np.put_along_axis(
            want_gz, safe, np.take_along_axis(want_gz, safe, axis=1) - 1.0,
            axis=1)
        want_gz *= keep[:, None].astype(np.float32) / count
        want_gz *= g
    np.testing.assert_array_equal(bits(loss.data), bits(want_loss))
    np.testing.assert_array_equal(bits(gz), bits(want_gz))
    # logits in another memory order index the same entries
    (gf,) = softmax_ce_loss(Tensor(np.asfortranarray(z)),
                            targets).backward_fn(g)
    np.testing.assert_array_equal(bits(gf), bits(want_gz))


def zero_planted(shape, rng):
    """float32 normals with rows of 0.0 and -0.0 planted in channel 0."""
    a = rng.standard_normal(shape).astype(np.float32)
    a[:, 0, 0] = 0.0
    a[:, 0, -1] = -0.0
    return a


# float32 at the network's shapes (n, ci, co, size); a GEMM of one output
# row runs as a matrix-vector product and may round differently, and the
# network never runs one, so co = 1 is left out
@pytest.mark.parametrize("n,ci,co,size,pad,dilation", [
    (1, 16, 8, 24, 1, 1), (4, 40, 8, 16, 1, 1), (2, 88, 32, 8, 1, 1),
    (4, 24, 3, 4, 1, 1), (2, 64, 16, 12, 2, 2), (4, 48, 24, 6, 2, 2),
])
def test_conv2d_tap_slices_are_bitwise_the_per_tap_loop(n, ci, co, size, pad,
                                                        dilation):
    rng = np.random.default_rng(ci * co + size)
    x = zero_planted((n, ci, size, size + 1), rng)
    w = zero_planted((co, ci, 3, 3), rng)
    out = conv2d(Tensor(x), Tensor(w), pad=pad, dilation=dilation).data
    # the kept formula: one GEMM per tap, added in row-major tap order
    xf = np.pad(x, ((0, 0), (0, 0), (pad, pad + 1), (pad, pad)))
    wp = xf.shape[3]
    xf = xf.reshape(n, ci, -1)
    oh, ow = out.shape[2:]
    span = oh * wp
    w_taps = w.transpose(2, 3, 0, 1).reshape(9, co, ci)
    taps = [(i * wp + j) * dilation for i, j in product(range(3), range(3))]
    want = np.matmul(w_taps[0], xf[:, :, :span])
    for t, o in enumerate(taps[1:], 1):
        want += np.matmul(w_taps[t], xf[:, :, o:o + span])
    want = want.reshape(n, co, oh, wp)[:, :, :, :ow]
    np.testing.assert_array_equal(bits(out), bits(want))


@pytest.mark.parametrize("n,ci,co,size,k,p", [
    (1, 32, 32, 4, 4, 1), (2, 24, 24, 8, 4, 1), (4, 88, 16, 6, 4, 1),
    (4, 16, 3, 24, 4, 1), (2, 64, 8, 12, 4, 1), (3, 40, 32, 5, 2, 0),
])
def test_deconv2d_phases_are_bitwise_the_col2im_scatter(n, ci, co, size, k,
                                                        p):
    rng = np.random.default_rng(ci * co + size)
    x = zero_planted((n, ci, size, size + 2), rng)
    w = zero_planted((ci, co, k, k), rng)
    out = deconv2d(Tensor(x), Tensor(w), stride=2, pad=p).data
    want = ops._correlate_gx(x, w, out.shape, 2, p, 1)
    np.testing.assert_array_equal(bits(out), bits(want))


def test_maxpool2d_routes_to_the_first_max_of_tied_overlapping_windows():
    rng = np.random.default_rng(5)
    # four values, signed zeros among them: most windows hold a tie
    x = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(2, 3, 9, 8))
    g = rng.integers(-4, 5, size=(2, 3, 5, 4)).astype(np.float64)
    out = maxpool2d(Tensor(x), kernel=3, stride=2, pad=1)
    # the forward keeps the first of tied values, as the loops do
    np.testing.assert_array_equal(
        bits(out.data), bits(reference.maxpool2d_forward(x, 3, 2, 1)))
    (gx,) = out.backward_fn(g)
    # integer gradients: overlapping windows sum exactly in any order
    np.testing.assert_array_equal(gx, reference.maxpool2d_backward(x, g, 3, 2, 1))


def test_maxpool2d_routes_a_nan_window_to_its_first_nan():
    x = Tensor(np.array([[1.0, np.nan], [np.nan, 2.0]]).reshape(1, 1, 2, 2))
    out = maxpool2d(x, kernel=2)
    assert np.isnan(out.data).all()
    (gx,) = out.backward_fn(np.full((1, 1, 1, 1), 3.0))
    np.testing.assert_array_equal(gx.ravel(), [0.0, 3.0, 0.0, 0.0])


def test_concat_channels_over_a_buffer_views_it_and_slices_grads():
    rng = np.random.default_rng(6)
    parts = [Tensor(rng.standard_normal((2, c, 3, 4))) for c in (3, 1, 2)]
    buf = np.concatenate([t.data for t in parts] + [np.zeros((2, 5, 3, 4))],
                         axis=1)
    node = concat_channels(parts, buf)
    assert np.shares_memory(node.data, buf) and node.shape == (2, 6, 3, 4)
    assert node.op == "concat" and node.parents == tuple(parts)
    g = rng.standard_normal(node.shape)
    grads = node.backward_fn(g)
    c = 0
    for t, gt in zip(parts, grads, strict=True):
        width = t.shape[1]
        np.testing.assert_array_equal(node.data[:, c:c + width], t.data)
        np.testing.assert_array_equal(gt, g[:, c:c + width])
        c += width
