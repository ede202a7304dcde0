import dataclasses
import re
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import stackseg
from scoring import evaluate
from stackseg import ConfigError, DataError, DivergenceError, Param, data, \
    trainer
from stackseg.data import Sample, load_samples, read_ppm, save_dataset, \
    synth_dataset
from stackseg.network import StackedNet, mini_config
from stackseg.trainer import (
    MOMENTUM,
    POLY_POWER,
    WEIGHT_DECAY,
    TrainConfig,
    augment,
    poly_lr,
    sgd_step,
    train,
)


# ---------------------------------------------------------------------------
# schedule


def test_poly_lr_endpoints_and_midpoint():
    assert POLY_POWER == 0.9
    assert poly_lr(2.5e-4, 0, 1000) == 2.5e-4
    # 2.5e-4 * (1 - 0.5)^0.9, evaluated independently
    assert poly_lr(2.5e-4, 500, 1000) == \
        pytest.approx(1.3397168281703665e-04, rel=1e-12)
    assert poly_lr(2.5e-4, 1000, 1000) == 0.0
    assert poly_lr(2.5e-4, 5000, 1000) == 0.0  # clamped past the horizon
    assert poly_lr(0.1, 3, 10) == pytest.approx(0.1 * 0.7 ** POLY_POWER)
    with pytest.raises(ConfigError):
        poly_lr(0.1, 0, 0)


# ---------------------------------------------------------------------------
# optimizer


def test_sgd_two_steps_match_hand_value():
    # decay-exempt, so only momentum acts
    p = Param(np.array([1.0, 2.0], dtype=np.float32), name="b",
              decay_exempt=True)
    g = np.array([0.5, -1.0], dtype=np.float32)
    for _ in range(2):
        p.grad = g
        sgd_step([p], lr=0.1)
    assert MOMENTUM == 0.9
    # w2 = w0 - lr*g*(1 + (1 + momentum)) = w0 - lr*g*2.9
    assert_allclose(p.value, [1.0 - 0.1 * 0.5 * 2.9, 2.0 + 0.1 * 1.0 * 2.9],
                    rtol=1e-6)


def test_sgd_weight_decay_and_exemption():
    decayed = Param(np.array([2.0], dtype=np.float32), name="w")
    exempt = Param(np.array([2.0], dtype=np.float32), name="b",
                   decay_exempt=True)
    for p in (decayed, exempt):
        p.grad = np.zeros(1, dtype=np.float32)
    sgd_step([decayed, exempt], lr=0.1)
    assert WEIGHT_DECAY == 5e-4
    assert_allclose(decayed.value, [2.0 - 0.1 * WEIGHT_DECAY * 2.0],
                    rtol=1e-6)
    assert exempt.value[0] == 2.0


def test_sgd_consumes_grads_and_skips_untouched_params():
    touched = Param(np.array([1.0], dtype=np.float32), name="a")
    untouched = Param(np.array([3.0], dtype=np.float32), name="b")
    touched.grad = np.array([1.0], dtype=np.float32)
    sgd_step([touched, untouched], lr=0.1)
    assert touched.grad is None and touched.momentum is not None
    assert untouched.value[0] == 3.0
    assert untouched.grad is None and untouched.momentum is None


# ---------------------------------------------------------------------------
# augmentation


CROP32 = TrainConfig(crop=32, max_iter=10)


@pytest.fixture
def recipe(monkeypatch):
    """Sets augment's scales, aspects and mirror probability; starts as
    scale 1, aspect 1 and no mirroring."""
    def pin(scales=(1.0,), aspects=(1.0,), hflip_prob=0.0):
        monkeypatch.setattr(trainer, "SCALES", scales)
        monkeypatch.setattr(trainer, "ASPECTS", aspects)
        monkeypatch.setattr(trainer, "HFLIP_PROB", hflip_prob)
    pin()
    return pin


def asym_sample(size=64):
    rng = np.random.default_rng(0)
    image = rng.random((3, size, size), dtype=np.float32)
    labels = np.arange(size * size, dtype=np.int64).reshape(size, size) % 3
    return Sample(image, labels, "s")


def test_augment_is_deterministic_per_seed():
    s = asym_sample()  # under the shipped recipe
    a_img, a_lab = augment(s, CROP32, np.random.default_rng(7),
                           fill=[0.5] * 3)
    b_img, b_lab = augment(s, CROP32, np.random.default_rng(7),
                           fill=[0.5] * 3)
    assert (a_img == b_img).all() and (a_lab == b_lab).all()
    assert a_img.shape == (3, 32, 32) and a_lab.shape == (32, 32)


def test_augment_pads_small_scales_with_fill_and_ignore(recipe):
    s = asym_sample(64)
    recipe(scales=(0.25,))  # resize to 16, crop 32 forces padding
    img, lab = augment(s, CROP32, np.random.default_rng(0),
                       fill=[0.1, 0.2, 0.3])
    assert img.shape == (3, 32, 32)
    assert (lab == 255).sum() == 32 * 32 - 16 * 16
    assert_allclose(img[:, 20, 20], [0.1, 0.2, 0.3], rtol=1e-6)


def test_augment_mirror(recipe):
    s = asym_sample()
    recipe(hflip_prob=1.0)
    flipped_img, flipped_lab = augment(s, CROP32, np.random.default_rng(3),
                                       fill=[0] * 3)
    recipe(hflip_prob=0.0)
    plain_img, plain_lab = augment(s, CROP32, np.random.default_rng(3),
                                   fill=[0] * 3)
    assert (flipped_lab == plain_lab[:, ::-1]).all()
    assert_allclose(flipped_img, plain_img[:, :, ::-1])


def test_augment_keeps_uint8_labels_and_pads_them_with_ignore(recipe):
    wide = asym_sample(64)
    narrow = Sample(wide.image, wide.labels.astype(np.uint8), "s")
    recipe(scales=(0.25,), hflip_prob=1.0)  # pads, then mirrors
    img, lab = augment(narrow, CROP32, np.random.default_rng(0),
                       fill=[0.5] * 3)
    want_img, want_lab = augment(wide, CROP32, np.random.default_rng(0),
                                 fill=[0.5] * 3)
    assert lab.dtype == np.uint8 and lab.flags.c_contiguous
    assert (lab == 255).sum() == 32 * 32 - 16 * 16
    assert (lab == want_lab).all() and (img == want_img).all()


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(crop=30)
    with pytest.raises(ConfigError):
        TrainConfig(max_iter=0)
    for lr in (float("nan"), float("inf"), 0.0, -1e-3):
        with pytest.raises(ConfigError, match="base_lr"):
            TrainConfig(base_lr=lr)
    for crop in (0, -16):
        with pytest.raises(ConfigError, match="crop"):
            TrainConfig(crop=crop)
    with pytest.raises(ConfigError, match="seed"):
        TrainConfig(seed=-1)
    # frozen, so a value set later cannot skip the checks
    with pytest.raises(dataclasses.FrozenInstanceError):
        CROP32.max_iter = 0
    with pytest.raises(ConfigError, match="log_every"):
        dataclasses.replace(CROP32, log_every=0)


# ---------------------------------------------------------------------------
# the loop


def tiny_net():
    return StackedNet(mini_config(3, num_units=1, supervision_ratios=(4,)),
                      seed=0)


def test_train_smoke_history_and_log_format():
    net = tiny_net()
    samples = synth_dataset(6, size=64, seed=11)
    rows = []
    cfg = TrainConfig(max_iter=3, batch_size=2, crop=32, log_every=1, seed=1)
    history = train(net, samples, cfg, log_fn=rows.append)
    assert len(history) == 3 and len(rows) == 3
    pattern = re.compile(r"^\d+\t[\d.eE+-]+\t[\d.eE+-]+\t"
                         r"\S+=[\d.eE+-]+(,\S+=[\d.eE+-]+)*$")
    for row in rows:
        assert pattern.match(row), row
    assert list(history[0]["head_losses"]) == ["unit1.r4"]
    assert history[0]["lr"] == pytest.approx(2.5e-4)
    assert all(np.isfinite(h["total_loss"]) for h in history)


def test_train_is_reproducible_for_fixed_seed():
    samples = synth_dataset(6, size=64, seed=11)
    cfg = TrainConfig(max_iter=3, batch_size=2, crop=32, seed=5)
    n1, n2 = tiny_net(), tiny_net()
    h1 = train(n1, samples, cfg)
    h2 = train(n2, samples, cfg)
    assert h1[-1]["total_loss"] == h2[-1]["total_loss"]
    for a, b in zip(n1.params(), n2.params()):
        assert (a.value == b.value).all(), a.name


def test_train_on_uint8_labels_is_bitwise_the_int64_run():
    samples = synth_dataset(4, size=40, seed=12)  # crops 32: some pad
    assert all(s.labels.dtype == np.uint8 for s in samples)
    wide = [Sample(s.image, s.labels.astype(np.int64), s.name)
            for s in samples]
    cfg = TrainConfig(max_iter=3, batch_size=2, crop=32, seed=8)
    nets = [StackedNet(mini_config(3, num_units=2), seed=0) for _ in range(2)]
    train(nets[0], samples, cfg)
    train(nets[1], wide, cfg)
    a, b = (n.state_dict() for n in nets)
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].tobytes() == b[name].tobytes(), name


def test_training_on_loaded_samples_is_bitwise_training_on_read_ppm(tmp_path):
    manifest = save_dataset(tmp_path / "ds", synth_dataset(4, 40, seed=12),
                            {"num_classes": "3"})
    _, loaded = load_samples(manifest)
    floats = [Sample(read_ppm(tmp_path / "ds" / f"{s.name}.ppm"), s.labels,
                     s.name) for s in loaded]
    cfg = TrainConfig(max_iter=3, batch_size=2, crop=32, seed=8)
    nets = [StackedNet(mini_config(3, num_units=2), seed=0) for _ in range(2)]
    h1 = train(nets[0], loaded, cfg)
    h2 = train(nets[1], floats, cfg)
    assert h1 == h2
    a, b = (n.state_dict() for n in nets)
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].tobytes() == b[name].tobytes(), name


def test_train_opens_no_label_file_before_the_first_augment(tmp_path,
                                                           monkeypatch):
    manifest = save_dataset(tmp_path / "ds", synth_dataset(3, 32, seed=2),
                            {"num_classes": "3"})
    _, loaded = load_samples(manifest)
    events = []
    enter = data.BoundedReader.__enter__

    def opened(reader):
        events.append(str(reader.path))
        return enter(reader)

    def augmented(*args):
        events.append("augment")
        return augment(*args)

    monkeypatch.setattr(data.BoundedReader, "__enter__", opened)
    monkeypatch.setattr(trainer, "augment", augmented)
    train(tiny_net(), loaded, TrainConfig(max_iter=1, batch_size=1, crop=32))
    first = events.index("augment")
    # the mean pixel reads every image; whether a sample is labeled is
    # known without opening its label file
    assert sorted(events[:first]) == sorted(
        str(tmp_path / "ds" / f"{s.name}.ppm") for s in loaded)
    # the one augment reads its sample's image, then its labels
    assert [e[-4:] for e in events[first + 1:]] == [".ppm", ".pgm"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf weights on purpose
def test_train_aborts_on_non_finite_loss():
    net = tiny_net()
    net.params()[0].value[:] = np.inf
    samples = synth_dataset(4, size=64, seed=11)
    with pytest.raises(DivergenceError, match="unit1.r4"):
        train(net, samples, TrainConfig(max_iter=2, batch_size=2, crop=32))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on purpose
def test_train_checks_the_parameters_after_the_last_update():
    # the only update whose loss is never computed is the last one
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    samples = synth_dataset(4, size=64, seed=11)
    cfg = TrainConfig(base_lr=1e38, max_iter=1, batch_size=1, crop=32)
    with pytest.raises(DivergenceError, match="last update") as err:
        train(net, samples, cfg)
    bad = [p.name for p in net.params() if not np.isfinite(p.value).all()]
    assert bad and str(err.value).split(": ", 1)[1].split(", ") == bad


def test_divergence_error_is_exported_beside_the_other_errors():
    assert stackseg.DivergenceError is stackseg.errors.DivergenceError


def test_train_rejects_bad_datasets():
    net = tiny_net()
    with pytest.raises(DataError):
        train(net, [], TrainConfig(max_iter=1))
    unlabeled = [Sample(np.zeros((3, 64, 64), dtype=np.float32), None, "u")]
    with pytest.raises(DataError):
        train(net, unlabeled, TrainConfig(max_iter=1))


class StubNet:
    config = SimpleNamespace(num_classes=2)

    def predict(self, x):
        return np.zeros((x.shape[0], x.shape[2], x.shape[3]), dtype=np.int64)


def test_evaluate_scores_predictions_against_labels():
    labels = np.zeros((30, 30), dtype=np.int64)
    labels[:3] = 255  # ignored strip must not count against the stub
    sample = Sample(np.full((3, 30, 30), 0.5, dtype=np.float32), labels, "s")
    acc = evaluate(StubNet(), [sample])
    assert acc.mean_iou() == 1.0
    assert acc.excluded_classes() == [1]
    assert acc.matrix[0, 0] == 27 * 30
    with pytest.raises(DataError):
        evaluate(StubNet(), [Sample(sample.image, None, "x")])
