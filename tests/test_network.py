import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stackseg import ConfigError, DataError, UsageError, backward
from stackseg.network import (
    StackedNet,
    full_config,
    mini_config,
    predict_ms_flip,
)
from stackseg.ops import bilinear_resize
from stackseg.weights_io import load_weights, save_weights


def small_input(n=1, size=64, seed=0):
    return np.random.default_rng(seed).random((n, 3, size, size),
                                              dtype=np.float32)


def test_config_validation():
    with pytest.raises(ConfigError):
        mini_config(1).validate()
    with pytest.raises(ConfigError):
        mini_config(3, num_units=0).validate()
    with pytest.raises(ConfigError):
        mini_config(3, entry_width=64).validate()  # breaks unit chaining
    with pytest.raises(ConfigError):
        mini_config(3, supervision_ratios=(8,)).validate()  # no final map
    with pytest.raises(ConfigError):
        mini_config(3, supervision_ratios=(4, 4)).validate()
    with pytest.raises(ConfigError):
        mini_config(3, keep_prob=0.0).validate()
    with pytest.raises(ConfigError):
        mini_config(3, loss_weights={2: 1.0}).validate()
    mini_config(3, num_units=3).validate()  # fine


def test_forward_map_shapes_and_ratios():
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    maps = net.forward(small_input(n=2))
    assert set(maps) == {(u, r) for u in (0, 1) for r in (16, 8, 4)}
    assert maps[(0, 16)].shape == (2, 3, 4, 4)
    assert maps[(1, 8)].shape == (2, 3, 8, 8)
    assert maps[(1, 4)].shape == (2, 3, 16, 16)


def test_supervision_subset_controls_heads():
    net = StackedNet(mini_config(3, num_units=2, supervision_ratios=(4,)),
                     seed=0)
    maps = net.forward(small_input())
    assert set(maps) == {(0, 4), (1, 4)}
    assert all("head4" in p.name for p in net.heads[(0, 4)].params())


def test_last_unit_final_stage_stays_uncompressed():
    one = StackedNet(mini_config(3, num_units=1), seed=0)
    # up2 dense output: deconv 24 + skip 16 + 2 layers of growth 8
    assert one.heads[(0, 4)].w.value.shape == (3, 56, 3, 3)
    two = StackedNet(mini_config(3, num_units=2), seed=0)
    assert two.heads[(0, 4)].w.value.shape == (3, 16, 3, 3)
    assert two.heads[(1, 4)].w.value.shape == (3, 56, 3, 3)


def test_score_fusion_is_running_sum_across_units():
    cfg_on = mini_config(3, num_units=2)
    cfg_off = mini_config(3, num_units=2, fuse_scores=False)
    x = small_input()
    fused = StackedNet(cfg_on, seed=5).forward(x)
    raw = StackedNet(cfg_off, seed=5).forward(x)  # same init, no summing
    for r in (16, 8, 4):
        assert_allclose(fused[(0, r)].data, raw[(0, r)].data, rtol=1e-6)
        assert_allclose(fused[(1, r)].data,
                        raw[(0, r)].data + raw[(1, r)].data, rtol=1e-5)


def test_losses_names_weights_and_order():
    net = StackedNet(mini_config(3, num_units=2, loss_weights={4: 2.0}),
                     seed=0)
    labels = np.random.default_rng(1).integers(0, 3, size=(1, 64, 64))
    named = net.losses(net.forward(small_input()), labels)
    assert [n for n, _, _ in named] == [
        "unit1.r16", "unit1.r8", "unit1.r4",
        "unit2.r16", "unit2.r8", "unit2.r4"]
    weights = {n: w for n, _, w in named}
    assert weights["unit1.r4"] == 2.0 and weights["unit2.r16"] == 1.0
    assert all(np.isfinite(float(l.data)) for _, l, _ in named)


def test_training_backward_reaches_every_param():
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    labels = np.random.default_rng(2).integers(0, 3, size=(2, 64, 64))
    maps = net.forward(small_input(n=2), training=True,
                       rng=np.random.default_rng(3))
    named = net.losses(maps, labels)
    backward([l for _, l, _ in named], [w for _, _, w in named])
    untouched = [p.name for p in net.params()
                 if p._grad is None or not np.any(p._grad)]
    assert untouched == []


def test_param_names_globally_unique():
    net = StackedNet(mini_config(3, num_units=3), seed=0)
    names = [p.name for p in net.params()] + [n for n, _ in net.buffers()]
    assert len(names) == len(set(names))


def test_forward_input_validation():
    net = StackedNet(mini_config(3), seed=0)
    with pytest.raises(ConfigError):
        net.forward(np.zeros((1, 3, 60, 64), dtype=np.float32))
    with pytest.raises(ConfigError):
        net.forward(np.zeros((1, 1, 64, 64), dtype=np.float32))
    with pytest.raises(UsageError):
        net.forward(small_input(), training=True)  # dropout needs an rng


def test_training_forward_updates_running_stats():
    net = StackedNet(mini_config(3), seed=0)
    before = net.encoder.stem_bn.state.mean.copy()
    net.forward(small_input(), training=True, rng=np.random.default_rng(0))
    assert not np.allclose(net.encoder.stem_bn.state.mean, before)


def _section_order(names):
    """Second dotted component of each name, consecutive repeats merged."""
    order = []
    for name in names:
        part = name.split(".")[1]
        if not order or order[-1] != part:
            order.append(part)
    return order


def test_encoder_walk_follows_construction_order():
    encoder = StackedNet(mini_config(3), seed=0).encoder
    stages = ["block1", "trans1", "block2", "trans2", "block3", "final_bn"]
    assert _section_order(p.name for p in encoder.params()) == \
        ["stem", "stem_bn"] + stages
    assert _section_order(n for n, _ in encoder.buffers()) == \
        ["stem_bn"] + stages


def test_buffers_read_running_stats_after_training_forward():
    # batch_norm rebinds the running arrays, so buffers must be read live
    net = StackedNet(mini_config(3), seed=0)
    net.forward(small_input(), training=True, rng=np.random.default_rng(0))
    state = net.encoder.stem_bn.state
    assert dict(net.buffers())["encoder.stem_bn.running_mean"] is state.mean
    assert net.state_dict()["encoder.stem_bn.running_var"] is state.var


def test_predict_shape_and_determinism():
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    x = small_input(n=2)
    pred = net.predict(x)
    assert pred.shape == (2, 64, 64)
    assert pred.dtype.kind == "i"
    assert (pred == net.predict(x)).all()


@pytest.mark.parametrize("units", [1, 2])
def test_predict_logits_equals_taped_forward(units):
    net = StackedNet(mini_config(3, num_units=units), seed=0)
    x = small_input(n=2, seed=5)
    final = net.forward(x)[(units - 1, 4)]
    assert final.backward_fn is not None  # a plain forward still records
    taped = bilinear_resize(final, 64, 64).data
    got = net.predict_logits(x)
    assert got.dtype == taped.dtype and np.array_equal(got, taped)


def test_predict_logits_peak_memory_is_bounded():
    # a taped forward keeps every activation and im2col buffer alive until
    # the logits are out (7.5 MiB here); tape-free, each is freed early
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    x = small_input()
    net.predict_logits(x)
    tracemalloc.start()
    try:
        net.predict_logits(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_state_round_trip_through_container(tmp_path):
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    net.forward(small_input(), training=True, rng=np.random.default_rng(1))
    path = tmp_path / "weights.sdnw"
    save_weights(path, net.state_dict())

    other = StackedNet(mini_config(3, num_units=2), seed=99)
    x = small_input(seed=4)
    assert not np.array_equal(other.predict_logits(x), net.predict_logits(x))
    other.load_state(load_weights(path))
    assert_allclose(other.predict_logits(x), net.predict_logits(x))
    for name, value in other.state_dict().items():
        assert_allclose(value, net.state_dict()[name],
                        err_msg=name)


def test_load_state_rejects_mismatches(tmp_path):
    net = StackedNet(mini_config(3), seed=0)
    state = net.state_dict()
    missing = dict(state)
    dropped = next(iter(missing))
    del missing[dropped]
    with pytest.raises(DataError):
        net.load_state(missing)
    wrong = {k: v for k, v in state.items()}
    wrong["entry.w"] = np.zeros((1, 2, 3, 3), dtype=np.float32)
    with pytest.raises(DataError):
        net.load_state(wrong)


def test_full_profile_config_builds_report_sizes():
    cfg = full_config(21, num_units=2)
    cfg.validate()
    assert cfg.encoder.bottleneck
    assert cfg.down_widths == (768, 1024) and cfg.up_widths == (768, 576)


def test_ms_flip_skips_tiny_scales_and_predicts():
    net = StackedNet(mini_config(3), seed=0)
    image = small_input()[0]
    with pytest.warns(UserWarning, match="below"):
        pred = predict_ms_flip(net, image, scales=(0.1, 0.5, 1.0))
    assert pred.shape == (64, 64)
    assert set(np.unique(pred)) <= {0, 1, 2}
    with pytest.raises(DataError), pytest.warns(UserWarning):
        predict_ms_flip(net, image, scales=(0.01,))


def test_ms_flip_single_scale_no_mirror_equals_plain_predict():
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    image = small_input()[0]
    plain = net.predict(image[None])[0]
    ms = predict_ms_flip(net, image, scales=(1.0,), mirror=False)
    assert (plain == ms).all()
