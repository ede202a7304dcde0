import dataclasses
import gc
import hashlib
import math
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stackseg import ConfigError, DataError, Tensor, UsageError, backward
from stackseg import layers
from stackseg.analyzer import architecture_report, count_network_params
from stackseg.data import pad_to_multiple
from stackseg.layers import he_normal
from stackseg.network import (
    MS_SCALES,
    PROFILES,
    NetworkConfig,
    StackedNet,
    config_from_state,
    full_config,
    mini_config,
    predict_ms_flip,
)
from stackseg.ops import bilinear_resize, resize_bilinear_array, \
    softmax_probs
from stackseg.tensor import toposort
from stackseg.weights_io import load_weights, save_weights


def small_input(n=1, size=64, seed=0):
    return np.random.default_rng(seed).random((n, 3, size, size),
                                              dtype=np.float32)


def test_config_validation():
    # a config checks itself as it is built, so no invalid one exists
    with pytest.raises(ConfigError):
        mini_config(1)
    with pytest.raises(ConfigError):
        mini_config(3, num_units=0)
    with pytest.raises(ConfigError):
        mini_config(3, supervision_ratios=(8,))  # no final map
    with pytest.raises(ConfigError):
        mini_config(3, supervision_ratios=(4, 4))
    cfg = mini_config(3, num_units=3)  # fine
    with pytest.raises(ConfigError, match="num_units"):
        dataclasses.replace(cfg, num_units=0)
    with pytest.raises(ConfigError, match="seed"):
        StackedNet(mini_config(3), seed=-1)


def test_config_names_a_profile_of_the_table():
    # config_from_state finds a profile again by its stem width alone, so
    # a config holds a key of the table, never a Profile of its own
    assert NetworkConfig(3, 1, "mini") == mini_config(3)
    for profile in ("tiny", PROFILES["mini"]):
        with pytest.raises(ConfigError, match="PROFILES"):
            NetworkConfig(3, 1, profile)


@pytest.mark.parametrize("field,value", [
    ("growth", 4), ("down_widths", (24, 24)), ("up_widths", (16, 16)),
    ("skip_width", 8),
])
def test_config_rejects_widths_off_the_encoder_profile(field, value):
    # every width takes part in the table lookup
    for make in (mini_config, full_config):
        cfg = make(3)
        odd = dataclasses.replace(PROFILES[cfg.profile], **{field: value})
        with pytest.raises(ConfigError, match="PROFILES"):
            dataclasses.replace(cfg, profile=odd)


def test_config_off_the_profile_is_refused_before_it_can_save():
    # such a network would write a checkpoint config_from_state rejects,
    # so the config itself is refused and no StackedNet can be built
    odd = dataclasses.replace(PROFILES["mini"], growth=4)
    with pytest.raises(ConfigError, match="PROFILES"):
        StackedNet(NetworkConfig(3, 1, odd))


def test_forward_map_shapes_and_ratios():
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    maps = net.forward(small_input(n=2))
    assert set(maps) == {(u, r) for u in (0, 1) for r in (16, 8, 4)}
    assert maps[(0, 16)].shape == (2, 3, 4, 4)
    assert maps[(1, 8)].shape == (2, 3, 8, 8)
    assert maps[(1, 4)].shape == (2, 3, 16, 16)


def test_forward_scores_only_the_ratios_asked_for():
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    x = small_input(n=2)
    every = net.forward(x)
    for ratios in ((4,), (16, 4), (8,)):
        maps = net.forward(x, ratios=ratios)
        assert set(maps) == {(u, r) for u in (0, 1) for r in ratios}
        for key, score in maps.items():
            assert np.array_equal(score.data, every[key].data)
    for bad in ((), (2,), (4, 32)):
        with pytest.raises(ConfigError, match="ratios"):
            net.forward(x, ratios=bad)
    only4 = StackedNet(mini_config(3, supervision_ratios=(4,)), seed=0)
    with pytest.raises(ConfigError, match="ratios"):
        only4.forward(x, ratios=(8, 4))  # no ratio-8 heads to score


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
    net = StackedNet(mini_config(3, num_units=2), seed=5)
    raw = {}  # each head's own output, before any summing

    def recording(key, head):
        def call(x):
            raw[key] = head(x)
            return raw[key]
        return call

    net.heads = {key: recording(key, head) for key, head in net.heads.items()}
    maps = net.forward(small_input())
    for r in (16, 8, 4):
        assert np.array_equal(maps[(0, r)].data, raw[(0, r)].data)
        assert np.array_equal(maps[(1, r)].data,
                              raw[(0, r)].data + raw[(1, r)].data)


def test_losses_names_weights_and_order():
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    labels = np.random.default_rng(1).integers(0, 3, size=(1, 64, 64))
    named = net.losses(net.forward(small_input()), labels)
    assert [n for n, _, _ in named] == [
        "unit1.r16", "unit1.r8", "unit1.r4",
        "unit2.r16", "unit2.r8", "unit2.r4"]
    assert all(w == 1.0 for _, _, w in named)
    assert all(np.isfinite(float(l.data)) for _, l, _ in named)


def test_the_api_perfbench_calls():
    # perfbench/ is outside the Tier-1 run, so a changed signature would
    # break the benchmark without failing a test here
    assert mini_config(3, num_units=2).num_units == 2
    assert full_config(3, num_units=1).profile == "full"
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    labels = np.random.default_rng(1).integers(0, 3, size=(1, 64, 64))
    named = net.losses(net.forward(small_input()), labels, 255)
    assert len(named) == 6
    for name, loss, weight in named:
        assert isinstance(name, str) and isinstance(loss, Tensor)
        assert weight == 1.0 and isinstance(weight, float)
    pred, probs = predict_ms_flip(net, small_input()[0], return_probs=True)
    assert pred.shape == (64, 64) and probs.shape == (3, 64, 64)
    assert np.allclose(probs.sum(axis=0), 1.0)


def test_training_backward_reaches_every_param():
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    labels = np.random.default_rng(2).integers(0, 3, size=(2, 64, 64))
    maps = net.forward(small_input(n=2), training=True,
                       rng=np.random.default_rng(3))
    named = net.losses(maps, labels)
    backward([l for _, l, _ in named])
    untouched = [p.name for p in net.params()
                 if p.grad is None or not np.any(p.grad)]
    assert untouched == []


def test_every_concatenation_is_a_view_of_a_dense_block_buffer():
    # 6 in the encoder's blocks; per stage of the two units, its lateral
    # concatenation and one per dense layer: 6 in unit1, 14 in unit2
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    maps = net.forward(small_input(n=2), training=True,
                       rng=np.random.default_rng(3))
    concats = [t for t in toposort(list(maps.values())) if t.op == "concat"]
    assert len(concats) == 26
    assert all(t.data.base is not None for t in concats)
    # one buffer per dense block, none of whose concatenations owns it
    per_buffer = Counter(id(t.data.base) for t in concats)
    assert sorted(per_buffer.values()) == [2, 2, 2, 3, 3, 3, 3, 3, 5]


def test_training_step_peak_memory_is_bounded():
    # forward, losses and backward of one mini 2-unit step at batch 4, 64px:
    # 17.9 MiB when every node kept xhat, masks and O(L^2) dense concats and
    # backward kept the whole graph to the end; 10.0 MiB lean
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    rng = np.random.default_rng(0)
    x = small_input(n=4)
    labels = rng.integers(0, 3, size=(4, 64, 64))

    def step():
        maps = net.forward(x, training=True, rng=np.random.default_rng(1))
        named = net.losses(maps, labels)
        backward([l for _, l, _ in named])
        return maps

    step()  # gradient buffers are allocated by the first step
    tracemalloc.start()
    try:
        maps = step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 13 << 20
    # the caller's score maps outlive backward; what fed them does not
    assert all(m.parents == () for m in maps.values())


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
    with pytest.raises(ConfigError, match="n >= 1"):
        net.forward(np.zeros((0, 3, 64, 64), dtype=np.float32))


def test_training_forward_updates_running_stats():
    net = StackedNet(mini_config(3), seed=0)
    before = net.encoder.stem_bn.running_mean.copy()
    net.forward(small_input(), training=True, rng=np.random.default_rng(0))
    assert not np.allclose(net.encoder.stem_bn.running_mean, before)


def test_training_forward_updates_buffers_in_place():
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    before = net.buffers()
    values = [a.copy() for _, a in before]
    net.forward(small_input(), training=True, rng=np.random.default_rng(0))
    after = net.buffers()
    assert [n for n, _ in after] == [n for n, _ in before]
    assert all(a is b for (_, a), (_, b) in zip(after, before))
    assert not any(np.array_equal(a, v) for (_, a), v in zip(after, values))


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
    # buffers and the state dict hand out the layer's own running arrays
    net = StackedNet(mini_config(3), seed=0)
    net.forward(small_input(), training=True, rng=np.random.default_rng(0))
    bn = net.encoder.stem_bn
    assert dict(net.buffers())["encoder.stem_bn.running_mean"] \
        is bn.running_mean
    assert net.state_dict()["encoder.stem_bn.running_var"] is bn.running_var


def test_predict_shape_and_determinism():
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    x = small_input(n=2)
    pred = net.predict(x)
    assert pred.shape == (2, 64, 64)
    assert pred.dtype.kind == "i"
    assert (pred == net.predict(x)).all()


def test_predict_pads_each_image_with_its_mean_and_crops():
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    x = np.random.default_rng(3).random((2, 3, 30, 30), dtype=np.float32)
    x[1] += 0.5  # a different mean pixel from the first image
    pred = net.predict(x)
    assert pred.shape == (2, 30, 30)
    for image, got in zip(x, pred):
        padded = np.empty((3, 32, 32), dtype=np.float32)
        padded[:] = image.mean(axis=(1, 2))[:, None, None]
        padded[:, :30, :30] = image
        want = net.predict_logits(padded[None]).argmax(axis=1)[0, :30, :30]
        assert np.array_equal(got, want)
    with pytest.raises(ConfigError):
        net.predict(x[0])


def test_predict_rejects_an_empty_batch():
    net = StackedNet(mini_config(3), seed=0)
    for call in (net.predict, net.predict_logits):
        with pytest.raises(ConfigError, match="n >= 1"):
            call(np.zeros((0, 3, 64, 64), dtype=np.float32))


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
    # a taped forward keeps every activation alive until the logits are
    # out (2.18 MiB here); tape-free, each is freed early (0.35 MiB)
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    x = small_input()
    net.predict_logits(x)
    tracemalloc.start()
    try:
        net.predict_logits(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


def _state_hash(state):
    h = hashlib.blake2b(digest_size=8)
    for name in sorted(state):
        value = np.asarray(state[name])
        h.update(f"{name} {value.dtype} {value.shape};".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("units,seed,digest", [
    (1, 0, "c1db6434e22e6407"), (1, 5, "797e3160fb1e29d4"),
    (2, 0, "a5f0acd3f989be17"), (2, 5, "3b9f30eaa30ee2d8"),
])
def test_fresh_state_dict_is_pinned(units, seed, digest):
    # taken when every weight was drawn at construction: deferring the
    # draws to the first read must not change a bit
    net = StackedNet(mini_config(3, num_units=units), seed=seed)
    assert _state_hash(net.state_dict()) == digest


def test_weights_equal_draws_at_construction_in_param_order():
    net = StackedNet(mini_config(3, num_units=2), seed=5)
    rng = np.random.default_rng(np.random.SeedSequence(5))
    drawn = [p for p in net.params() if len(p.shape) == 4]
    assert len(drawn) == 41  # every conv and deconv weight, heads included
    for p in drawn:
        shape = p.shape
        want = he_normal(rng, shape, math.prod(shape[1:]))
        assert p.value.dtype == want.dtype and np.array_equal(p.value, want)


def _count_draws(monkeypatch):
    calls = []
    real = layers.he_normal

    def spy(rng, shape, fan_in):
        calls.append(shape)
        return real(rng, shape, fan_in)

    monkeypatch.setattr(layers, "he_normal", spy)
    return calls


def test_a_loaded_network_draws_no_weights(monkeypatch):
    state = StackedNet(mini_config(3, num_units=2), seed=1).state_dict()
    calls = _count_draws(monkeypatch)
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    pending = [p for p in net.params() if p.pending]
    assert len(pending) == 41  # every conv and deconv weight
    wrong = dict(state, **{"entry.w": np.zeros((1, 2, 3, 3), np.float32)})
    with pytest.raises(DataError, match="entry.w"):
        net.load_state(wrong)
    assert all(p.pending for p in pending)  # a refused load sets none
    assert count_network_params(net) == \
        architecture_report(net.config).params_by_section
    repr(net.entry.w)
    net.load_state(state)
    image = small_input()[0]
    net.predict_logits(image[None])
    predict_ms_flip(net, image)
    assert calls == []
    assert _state_hash(net.state_dict()) == _state_hash(state)
    # the network holds copies: changing the loaded dict changes nothing
    state["entry.w"][:] = 0
    assert np.any(net.entry.w.value)


def test_a_weight_read_before_load_state_is_drawn_then_copied_over(
        monkeypatch):
    state = StackedNet(mini_config(3, num_units=2), seed=1).state_dict()
    calls = _count_draws(monkeypatch)
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    early = net.heads[(1, 4)].w.value
    # one read draws every weight at once, each bitwise as before
    assert len(calls) == 41 and not any(p.pending for p in net.params())
    assert _state_hash(net.state_dict()) == "a5f0acd3f989be17"
    net.load_state(state)
    assert len(calls) == 41
    assert net.heads[(1, 4)].w.value is early  # copied in place
    assert np.array_equal(early, state["unit2.head4.w"])
    assert _state_hash(net.state_dict()) == _state_hash(state)


def test_load_is_load_weights_then_load_state_without_draws(
        tmp_path, monkeypatch):
    trained = StackedNet(mini_config(3, num_units=2), seed=1)
    trained.forward(small_input(), training=True,
                    rng=np.random.default_rng(1))  # moves the running stats
    path = tmp_path / "w.sdnw"
    save_weights(path, trained.state_dict())
    calls = _count_draws(monkeypatch)
    want = StackedNet(config_from_state(load_weights(path)))
    want.load_state(load_weights(path))
    a, b = StackedNet.load(path), StackedNet.load(path)
    x = small_input(2, seed=4)
    assert a.predict_logits(x).tobytes() == want.predict_logits(x).tobytes()
    assert _state_hash(a.state_dict()) == _state_hash(want.state_dict())
    assert calls == []
    # each load reads its own arrays: two networks never share a weight
    other = b.state_dict()
    for name, value in a.state_dict().items():
        assert not np.shares_memory(value, other[name]), name


def test_load_holds_one_copy_of_the_weights(tmp_path):
    path = tmp_path / "w.sdnw"
    state = StackedNet(mini_config(3, num_units=2), seed=1).state_dict()
    save_weights(path, state)
    weights = sum(v.nbytes for v in state.values())
    StackedNet.load(path)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        net = StackedNet.load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # ~1.2x here; a second copy of every weight, as load_state makes, ~2.2x
    assert peak < 1.5 * weights
    assert _state_hash(net.state_dict()) == _state_hash(state)


def test_config_refuses_more_classes_than_8_bit_labels_hold(tmp_path):
    """255 marks ignored pixels in a label map, so a 256th class could
    only be written as "ignore"."""
    with pytest.raises(ConfigError, match="256-class"):
        NetworkConfig(256, 1, "mini")
    StackedNet(mini_config(255))  # the largest that fits still builds
    state = StackedNet(mini_config(3)).state_dict()
    for name in [n for n in state if ".head" in n]:
        state[name] = np.zeros((256, *state[name].shape[1:]), np.float32)
    path = tmp_path / "w.sdnw"
    save_weights(path, state)
    with pytest.raises(DataError, match="256-class"):
        StackedNet.load(path)


def test_load_refuses_a_file_whose_names_do_not_match(tmp_path):
    state = StackedNet(mini_config(3, num_units=2), seed=1).state_dict()
    state["entry.bogus"] = state.pop("entry.b")
    path = tmp_path / "w.sdnw"
    save_weights(path, state)
    with pytest.raises(DataError, match="entry.bogus"):
        StackedNet.load(path)


@pytest.mark.parametrize("use", [
    lambda net, state: None,
    lambda net, state: net.load_state(state),
    lambda net, state: net.entry.w.value,
    lambda net, state: net.predict_logits(small_input()),
], ids=["built", "loaded", "read", "predicted"])
def test_a_network_is_freed_without_the_cycle_collector(use):
    state = StackedNet(mini_config(3, num_units=2), seed=1).state_dict()
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    use(net, state)
    refs = [weakref.ref(obj) for obj in (net, *net.params())]
    gc.disable()
    try:
        del net
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("make,units,ratios", [
    *((mini_config, units, ratios) for units in (1, 2, 3)
      for ratios in ((16, 8, 4), (8, 4), (16, 4), (4,))),
    (full_config, 1, (16, 8, 4)),
])
def test_config_from_state_inverts_state_dict(make, units, ratios):
    cfg = make(5, units, supervision_ratios=ratios)
    assert config_from_state(StackedNet(cfg).state_dict()) == cfg


def test_full_profile_config_builds_report_sizes():
    profile = PROFILES[full_config(21, num_units=2).profile]
    assert profile.bottleneck
    assert profile.down_widths == (768, 1024)
    assert profile.up_widths == (768, 576)


def test_ms_flip_skips_tiny_scales_and_predicts():
    net = StackedNet(mini_config(3), seed=0)
    image = small_input()[0]
    with pytest.warns(UserWarning, match="below"):
        pred = predict_ms_flip(net, image, scales=(0.1, 0.5, 1.0))
    assert pred.shape == (64, 64)
    assert set(np.unique(pred)) <= {0, 1, 2}
    with pytest.raises(DataError), pytest.warns(UserWarning):
        predict_ms_flip(net, image, scales=(0.01,))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_ms_flip_rejects_non_finite_or_non_positive_scales(bad):
    net = StackedNet(mini_config(3), seed=0)
    with pytest.raises(ConfigError, match="scales"):
        predict_ms_flip(net, small_input()[0], scales=(1.0, bad))


def test_ms_flip_single_scale_no_mirror_equals_plain_predict():
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    image = small_input()[0]
    plain = net.predict(image[None])[0]
    ms = predict_ms_flip(net, image, scales=(1.0,), mirror=False)
    assert (plain == ms).all()


def test_ms_flip_scores_each_mirror_pair_as_one_batch():
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    image = np.random.default_rng(7).random((3, 40, 56), dtype=np.float32)
    batch_sizes = []
    whole = net.predict_logits

    def split_checked(x):
        # batching must not change a bit against one image per forward
        out = whole(x)
        batch_sizes.append(len(x))
        for i in range(len(x)):
            assert np.array_equal(out[i], whole(x[i:i + 1])[0])
        return out

    net.predict_logits = split_checked
    predict_ms_flip(net, image, scales=(0.5, 1.0, 1.4))
    predict_ms_flip(net, image, scales=(1.0,), mirror=False)
    assert batch_sizes == [2, 2, 2, 1]
    # at 64px, 0.8 (51px) and 1.0 both pad to 64px: one forward of four
    batch_sizes.clear()
    predict_ms_flip(net, small_input()[0], scales=MS_SCALES)
    assert batch_sizes == [2, 4, 2, 2]


def _ms_flip_one_variant_at_a_time(net, image, scales, mirror=True):
    """predict_ms_flip's probabilities with every variant scored alone."""
    h, w = image.shape[1:]
    fill = image.mean(axis=(1, 2))
    acc = np.zeros((net.config.num_classes, h, w))
    used = 0
    for s in scales:
        sh, sw = int(round(h * s)), int(round(w * s))
        scaled = resize_bilinear_array(image, sh, sw)
        for flipped in (False, True) if mirror else (False,):
            view = scaled[:, :, ::-1] if flipped else scaled
            padded = pad_to_multiple(view, 16, fill)
            logits = net.predict_logits(padded[None])
            probs = softmax_probs(logits[:, :, :sh, :sw])[0]
            probs = resize_bilinear_array(probs, h, w)
            acc += probs[:, :, ::-1] if flipped else probs
            used += 1
    return acc / used


@pytest.mark.parametrize("scales,mirror", [
    (MS_SCALES, True),
    ((1.0, 0.5, 0.8), True),  # 1.0 and 0.8 pad alike but are not adjacent
    ((0.8, 0.8, 1.0, 0.5), True),  # a repeated scale, then a third alike
    ((0.8, 1.0), False),
])
def test_ms_flip_probabilities_equal_one_variant_at_a_time(scales, mirror):
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    image = small_input(seed=11)[0]
    pred, probs = predict_ms_flip(net, image, scales=scales, mirror=mirror,
                                  return_probs=True)
    want = _ms_flip_one_variant_at_a_time(net, image, scales, mirror)
    assert probs.dtype == want.dtype and np.array_equal(probs, want)
    assert np.array_equal(pred, np.argmax(want, axis=0))


@pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.bool_])
def test_ms_flip_refuses_integer_images(dtype):
    # resizing an integer image truncates the interpolation weights to 0
    # and 1: uint8 images scored up to 0.73 away in probability from the
    # same values as float32
    net = StackedNet(mini_config(3), seed=0)
    image = (small_input()[0] * 255).astype(dtype)
    with pytest.raises(DataError, match=np.dtype(dtype).name):
        predict_ms_flip(net, image)


@pytest.mark.parametrize("predict", [
    lambda net, x: net.predict(x),
    lambda net, x: net.predict_logits(x),
], ids=["predict", "predict_logits"])
def test_prediction_refuses_integer_batches(predict):
    # a uint8 batch's 0-255 values used to be scored as they were: on this
    # input a fresh net's logits came out ~530 away from the float image's
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    x = (small_input() * 255).astype(np.uint8)
    with pytest.raises(DataError, match="uint8 is not floating"):
        predict(net, x)


@pytest.mark.parametrize("predict", [
    lambda net, image: net.predict(image[None]),
    lambda net, image: predict_ms_flip(net, image),
], ids=["plain", "ms_flip"])
def test_prediction_refuses_non_finite_scores(predict):
    # np.argmax returns the first NaN's index: a NaN in one head weight
    # used to give an all-zero label map
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    net.heads[(1, 4)].w.value[0, 0, 0, 0] = np.nan
    with pytest.raises(DataError, match="not finite"), \
            np.errstate(invalid="ignore"):
        predict(net, small_input()[0])
