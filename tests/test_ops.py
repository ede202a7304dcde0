import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference
from stackseg import ConfigError, DataError, Tensor, backward
from stackseg import ops
from stackseg.ops import (
    BnState,
    batch_norm,
    bilinear_resize,
    concat_channels,
    conv2d,
    deconv2d,
    dropout,
    eltwise_add,
    maxpool2d,
    relu,
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
    assert np.shares_memory(ops._im2col(x, 1, 1, 1, 1, 0, 0, 2, 2, 6, 7), x)
    assert not np.shares_memory(ops._im2col(x, 1, 1, 2, 2, 0, 0, 1, 1, 3, 4), x)
    assert not np.shares_memory(ops._im2col(x, 1, 1, 1, 1, 1, 1, 1, 1, 8, 9), x)

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


# ---------------------------------------------------------------------------
# maxpool2d


def test_maxpool2d_hand_example_and_backward_routing():
    x = Tensor(np.array([[1.0, 2.0], [4.0, 3.0]]).reshape(1, 1, 2, 2))
    out = maxpool2d(x, kernel=2)
    assert_allclose(out.data, [[[[4.0]]]])
    assert out.indices[0, 0, 0, 0] == 2  # flat offset of (1, 0) in the window
    backward([to_scalar(out)])
    assert_allclose(x.grad, [[[[0.0, 0.0], [1.0, 0.0]]]])


def test_maxpool2d_tie_takes_first():
    x = Tensor(np.array([[5.0, 5.0], [1.0, 2.0]]).reshape(1, 1, 2, 2))
    out = maxpool2d(x, kernel=2)
    assert out.indices[0, 0, 0, 0] == 0
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


# ---------------------------------------------------------------------------
# bilinear_resize


def test_resize_matrix_rows_are_convex_combinations():
    m = resize_matrix(5, 13)
    assert_allclose(m.sum(axis=1), np.ones(13), rtol=1e-12)
    assert (m >= 0).all()


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
    state = BnState(3, dtype=np.float64)
    gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
    out = batch_norm(Tensor(x), gamma, beta, state, training=True)
    assert_allclose(out.data.mean(axis=(0, 2, 3)), np.zeros(3), atol=1e-10)
    assert_allclose(out.data.var(axis=(0, 2, 3)), np.ones(3), atol=1e-4)
    assert_allclose(state.mean, 0.1 * x.mean(axis=(0, 2, 3)), rtol=1e-12)
    assert_allclose(state.var, 0.9 * 1.0 + 0.1 * x.var(axis=(0, 2, 3)), rtol=1e-12)


def test_batch_norm_running_var_is_biased_batch_var():
    # float32 with a large mean: a one-pass E[x^2] - E[x]^2 loses ~1e-5
    rng = np.random.default_rng(5)
    x = (rng.standard_normal((4, 5, 6, 7)) * 3.0 + 50.0).astype(np.float32)
    state = BnState(5)
    state.var[:] = rng.uniform(0.5, 2.0, 5)
    old = state.var.astype(np.float64)
    batch_norm(Tensor(x), Tensor(np.ones(5, np.float32)),
               Tensor(np.zeros(5, np.float32)), state, training=True,
               momentum=0.7)
    want = 0.7 * old + 0.3 * x.astype(np.float64).var(axis=(0, 2, 3))
    assert state.var.dtype == np.float32
    assert_allclose(state.var, want, rtol=1e-6)


def test_batch_norm_inference_uses_running_stats():
    x = np.full((1, 2, 1, 1), 5.0)
    state = BnState(2, dtype=np.float64)
    state.mean[:] = [1.0, 5.0]
    state.var[:] = [4.0, 1.0]
    gamma = Tensor(np.array([2.0, 3.0]))
    beta = Tensor(np.array([0.5, -1.0]))
    out = batch_norm(Tensor(x), gamma, beta, state, training=False, eps=0.0)
    # channel 0: 2 * (5-1)/2 + 0.5; channel 1: 3 * 0 - 1
    assert_allclose(out.data.ravel(), [4.5, -1.0], rtol=1e-12)
    assert_allclose(state.mean, [1.0, 5.0])  # inference must not touch stats


def test_batch_norm_rejects_mismatched_affine():
    with pytest.raises(ConfigError):
        batch_norm(Tensor(np.zeros((1, 3, 2, 2))), Tensor(np.ones(2)),
                   Tensor(np.zeros(3)), BnState(3), training=True)


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
    out = concat_channels([a, b])
    assert out.shape == (1, 5, 2, 2)
    assert_allclose(out.data[:, :2], 1.0)
    assert_allclose(out.data[:, 2:], 2.0)
    backward([to_scalar(out)])
    assert a.grad.shape == (1, 2, 2, 2) and (a.grad == 1).all()
    assert b.grad.shape == (1, 3, 2, 2) and (b.grad == 1).all()
    assert concat_channels([a]) is a
    with pytest.raises(ConfigError):
        concat_channels([a, Tensor(np.ones((1, 2, 3, 2)))])
    with pytest.raises(ConfigError):
        concat_channels([])


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
    labels = np.array([[[1]]])
    loss = softmax_ce_loss(logits, labels)
    assert loss.shape == ()
    assert_allclose(float(loss.data), np.log(4.0 / 3.0), rtol=1e-12)
    backward([loss])
    # softmax is [1/4, 3/4]; grad = p - onehot
    assert_allclose(logits.grad.ravel(), [0.25, -0.25], rtol=1e-12)


def test_softmax_ce_means_over_valid_pixels_only():
    logits = np.zeros((1, 2, 1, 2))
    logits[0, :, 0, 0] = [0.0, np.log(3.0)]
    logits[0, :, 0, 1] = [5.0, -5.0]
    labels = np.array([[[1, 255]]])
    t = Tensor(logits)
    loss = softmax_ce_loss(t, labels)
    assert_allclose(float(loss.data), np.log(4.0 / 3.0), rtol=1e-12)
    backward([loss])
    assert_allclose(t.grad[0, :, 0, 1], [0.0, 0.0])


def test_softmax_ce_all_ignored_is_zero_with_zero_grad():
    t = Tensor(np.ones((1, 3, 2, 2)))
    loss = softmax_ce_loss(t, np.full((1, 2, 2), 255))
    assert float(loss.data) == 0.0
    backward([loss])
    assert_allclose(t.grad, np.zeros_like(t.data))


def test_softmax_ce_is_stable_for_huge_logits():
    t = Tensor(np.array([1000.0, 0.0, -1000.0]).reshape(1, 3, 1, 1))
    loss = softmax_ce_loss(t, np.array([[[0]]]))
    assert np.isfinite(float(loss.data))
    assert_allclose(float(loss.data), 0.0, atol=1e-12)


def test_softmax_ce_rejects_bad_labels():
    t = Tensor(np.zeros((1, 3, 2, 2)))
    with pytest.raises(DataError):
        softmax_ce_loss(t, np.full((1, 2, 2), 7))
    with pytest.raises(DataError):
        softmax_ce_loss(t, np.full((1, 2, 2), -2))
    with pytest.raises(DataError):
        softmax_ce_loss(t, np.zeros((1, 3, 3), dtype=int))


def test_softmax_ce_mean_semantics():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((1, 3, 1, 1))
    one = softmax_ce_loss(Tensor(z), np.array([[[2]]]))
    four = softmax_ce_loss(Tensor(np.tile(z, (1, 1, 2, 2))),
                           np.full((1, 2, 2), 2))
    assert_allclose(float(one.data), float(four.data), rtol=1e-12)
