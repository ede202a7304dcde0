import numpy as np
import pytest
from numpy.testing import assert_allclose

from stackseg import ConfigError, Tensor, backward, toposort
from stackseg.gradcheck import weighted_sum
from stackseg.layers import (
    BnActConv,
    BnRelu,
    ConvLayer,
    DenseBlock,
    Module,
    TransitionDown,
    UpsampleLayer,
    WeightStream,
    avg_pool_half,
    he_normal,
)
from stackseg.ops import batch_norm, concat_channels, relu


def test_he_normal_scale():
    rng = np.random.default_rng(0)
    w = he_normal(rng, (1000, 10, 3, 3), fan_in=90)
    assert w.dtype == np.float32
    assert abs(w.std() - np.sqrt(2.0 / 90)) < 0.01


def test_avg_pool_half_matches_block_means():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 4, 6)).astype(np.float32)
    out = avg_pool_half(Tensor(x))
    want = x.reshape(2, 3, 2, 2, 3, 2).mean(axis=(3, 5))
    assert_allclose(out.data, want, rtol=1e-6)
    with pytest.raises(ConfigError):
        avg_pool_half(Tensor(np.zeros((1, 1, 3, 4))))


def test_conv_layer_same_padding_and_bias():
    init = WeightStream(np.random.default_rng(2))
    layer = ConvLayer("c", 3, 8, 3, init, bias=True)
    out = layer(Tensor(np.zeros((1, 3, 10, 12), dtype=np.float32)))
    assert out.shape == (1, 8, 10, 12)
    assert layer.w.value.shape == (8, 3, 3, 3)
    assert layer.b.decay_exempt and not layer.w.decay_exempt
    assert [p.name for p in layer.params()] == ["c.w", "c.b"]

    dilated = ConvLayer("d", 3, 4, 3, init, dilation=2)
    assert dilated(Tensor(np.zeros((1, 3, 9, 9), dtype=np.float32))).shape \
        == (1, 4, 9, 9)
    assert dilated.params() == [dilated.w]


def test_batch_norm_layer_param_and_buffer_names():
    bn = BnRelu("block.bn", 5)
    assert [p.name for p in bn.params()] == ["block.bn.gamma", "block.bn.beta"]
    assert [n for n, _ in bn.buffers()] == ["block.bn.running_mean",
                                            "block.bn.running_var"]
    assert all(p.decay_exempt for p in bn.params())
    x = np.random.default_rng(0).standard_normal((2, 5, 3, 3)) + 4.0
    out = bn(Tensor(x.astype(np.float32)), training=True)
    assert bn.running_mean.max() > 0  # stats moved off their init
    # the layer is batch_norm then relu, in that order, nothing else
    assert out.op == "relu" and out.parents[0].op == "batch_norm"
    want = relu(batch_norm(Tensor(x.astype(np.float32)),
                           Tensor(np.ones(5, np.float32)),
                           Tensor(np.zeros(5, np.float32)),
                           np.zeros(5, np.float32), np.ones(5, np.float32),
                           training=True))
    assert np.array_equal(out.data, want.data)


def test_walk_descends_into_dicts_in_insertion_order():
    class Holder(Module):
        def __init__(self):
            init = WeightStream(np.random.default_rng(0))
            self.head = {"z": ConvLayer("z", 2, 3, 1, init),
                         "a": [BnRelu("a", 3)]}

    holder = Holder()
    assert [p.name for p in holder.params()] == ["z.w", "a.gamma", "a.beta"]
    bn = holder.head["a"][0]
    assert holder.buffers() == [("a.running_mean", bn.running_mean),
                                ("a.running_var", bn.running_var)]


def test_bn_act_conv_composition():
    init = WeightStream(np.random.default_rng(3))
    unit = BnActConv("u", 4, 6, 3, init, keep_prob=0.5)
    x = Tensor(np.random.default_rng(1).standard_normal((2, 4, 8, 8))
               .astype(np.float32))
    out = unit(x, training=True, rng=np.random.default_rng(7))
    assert out.shape == (2, 6, 8, 8)
    assert (out.data == 0).mean() > 0.2  # dropout took effect
    infer = unit(x, training=False)
    assert (infer.data == unit(x, training=False).data).all()
    assert len(unit.params()) == 3  # gamma, beta, conv weight
    assert len(unit.buffers()) == 2


def test_upsample_layer_doubles():
    init = WeightStream(np.random.default_rng(4))
    up = UpsampleLayer("up", 6, init)
    out = up(Tensor(np.zeros((1, 6, 5, 7), dtype=np.float32)))
    assert out.shape == (1, 6, 10, 14)
    assert up.w.value.shape == (6, 6, 4, 4)


@pytest.mark.parametrize("bottleneck", [False, True])
def test_dense_block_growth(bottleneck):
    init = WeightStream(np.random.default_rng(5))
    block = DenseBlock("b", 10, 3, 4, init, bottleneck=bottleneck)
    assert block.out_channels == 22
    x = Tensor(np.random.default_rng(2).standard_normal((1, 10, 8, 8))
               .astype(np.float32))
    out = block([x], training=False)
    assert out.shape == (1, 22, 8, 8)
    # the input channels ride through unchanged
    assert_allclose(out.data[:, :10], x.data)
    # each conv carries bn gamma/beta plus its weight; BC layers have two
    assert len(block.params()) == 3 * (6 if bottleneck else 3)
    if bottleneck:
        assert block.layers[0][0].conv.w.value.shape == (16, 10, 1, 1)
    with pytest.raises(ConfigError):
        DenseBlock("bad", 10, 0, 4, init)


def copy_concat(parts):
    """A concatenation into a fresh buffer of its own."""
    return concat_channels(parts, np.concatenate([t.data for t in parts],
                                                 axis=1))


def concat_block(block, x, training, rng):
    """The dense block written with a full copy per layer."""
    for steps in block.layers:
        h = x
        for step in steps:
            h = step(h, training, rng)
        x = copy_concat([x, h])
    return x


@pytest.mark.parametrize("bottleneck", [False, True])
def test_dense_block_shares_one_buffer_and_equals_plain_concat(bottleneck):
    """One input part (an encoder block) or two (a stage's resampled
    feature and its lateral input): every concatenation is a view of the
    block's one buffer, and values and gradients are bitwise those of
    copying concatenations."""
    block = DenseBlock("b", 5, 4, 3, WeightStream(np.random.default_rng(9)),
                       bottleneck=bottleneck, keep_prob=0.8)
    data = np.random.default_rng(10).standard_normal((2, 5, 6, 6)) \
        .astype(np.float32)
    r = np.random.default_rng(11).standard_normal((2, 17, 6, 6)) \
        .astype(np.float32)
    for split in ([5], [3, 2]):
        grads = []
        for buffered in (True, False):
            parts = [Tensor(np.ascontiguousarray(a))
                     for a in np.split(data, split[:-1], axis=1)]
            if buffered:
                out = block(parts, True, np.random.default_rng(12))
                concats = [t for t in toposort([out]) if t.op == "concat"]
                assert sorted(t.shape[1] for t in concats) == \
                    [5] * (len(parts) > 1) + [8, 11, 14, 17]
                assert all(np.shares_memory(t.data, out.data)
                           for t in concats)
                shared = out.data
            else:
                x = copy_concat(parts) if len(parts) > 1 else parts[0]
                out = concat_block(block, x, True, np.random.default_rng(12))
                np.testing.assert_array_equal(out.data, shared)  # bitwise
            for p in block.params():
                p.grad = None
            backward([weighted_sum(out, r)])
            grads.append([t.grad for t in parts]
                         + [p.grad for p in block.params()])
        for have, want in zip(*grads):
            np.testing.assert_array_equal(have, want)


def test_dense_block_dilation_keeps_size():
    init = WeightStream(np.random.default_rng(6))
    block = DenseBlock("b", 4, 2, 4, init, dilation=2)
    out = block([Tensor(np.zeros((1, 4, 9, 9), dtype=np.float32))])
    assert out.shape == (1, 12, 9, 9)


def test_transition_down_pool_and_no_pool():
    init = WeightStream(np.random.default_rng(7))
    x = Tensor(np.random.default_rng(3).standard_normal((1, 8, 6, 6))
               .astype(np.float32))
    pooled = TransitionDown("t", 8, 4, init, pool=True)(x)
    assert pooled.shape == (1, 4, 3, 3)
    kept = TransitionDown("t2", 8, 4, init, pool=False)(x)
    assert kept.shape == (1, 4, 6, 6)


def test_param_names_unique_within_block():
    init = WeightStream(np.random.default_rng(8))
    block = DenseBlock("blk", 6, 4, 3, init, bottleneck=True)
    names = [p.name for p in block.params()]
    assert len(names) == len(set(names))
