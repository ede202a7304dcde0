"""Stacked encoder-decoder segmentation network.

A densely connected encoder runs once per image and bottoms out at 1/16
resolution. The first stacked unit climbs back to 1/4 through two
deconv+dense stages; every later unit first re-descends (max pool +
dense) before climbing again. Units exchange features three ways: the
previous unit's two up-stage outputs seed the next unit's down stages,
the previous decoder entry seeds the deepest merge, and two slim
projections of encoder features are concatenated into every up stage.

Each unit carries small score heads at the configured resolutions
(ratios 16/8/4 of the input). Scores of the same ratio are summed across
units before upsampling; losses read the running sums, and the final
prediction is the last unit's fused ratio-4 map.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import pad_to_multiple
from .errors import ConfigError, DataError, UsageError
from .layers import BatchNormLayer, BnActConv, ConvLayer, DenseBlock, \
    Module, TransitionDown, UpsampleLayer
from .ops import bilinear_resize, concat_channels, eltwise_add, maxpool2d, \
    relu, resize_bilinear_array, softmax_ce_loss, softmax_probs
from .tensor import Tensor, no_grad

SIZE_MULTIPLE = 16  # inputs must divide evenly down to the deepest scale


@dataclass(frozen=True)
class EncoderConfig:
    stem_channels: int
    stem_kernel: int
    stem_pool: int  # stem max-pool kernel (2 or 3), stride always 2
    block_layers: tuple
    growth: int
    bottleneck: bool
    compression: float = 0.5


@dataclass(frozen=True)
class NetworkConfig:
    num_classes: int
    num_units: int = 1
    encoder: EncoderConfig = None
    growth: int = 8
    down_widths: tuple = (24, 32)
    up_widths: tuple = (24, 16)
    down_layers: tuple = (2, 4)
    up_layers: tuple = (2, 2)
    skip_width: int = 16
    entry_width: int = 32
    supervision_ratios: tuple = (16, 8, 4)
    loss_weights: dict = field(default_factory=dict)
    fuse_scores: bool = True
    keep_prob: float = 0.8

    def validate(self):
        if self.num_classes < 2:
            raise ConfigError(f"num_classes={self.num_classes}, need >= 2")
        if self.num_units < 1:
            raise ConfigError(f"num_units={self.num_units}, need >= 1")
        if self.encoder is None:
            raise ConfigError("missing encoder config")
        ratios = tuple(self.supervision_ratios)
        if not ratios or set(ratios) - {4, 8, 16} or len(set(ratios)) != len(ratios):
            raise ConfigError(f"supervision_ratios {ratios} must be distinct "
                              "values from {16, 8, 4}")
        if 4 not in ratios:
            raise ConfigError("supervision_ratios must include 4: the final "
                              "prediction reads the fused ratio-4 map")
        if self.entry_width != self.down_widths[1]:
            raise ConfigError(
                f"entry_width {self.entry_width} != down_widths[1] "
                f"{self.down_widths[1]}: every unit must hand the next one a "
                "decoder entry of the same width")
        if set(self.loss_weights) - {4, 8, 16}:
            raise ConfigError(f"loss_weights keys {sorted(self.loss_weights)} "
                              "must be supervision ratios")
        for name in ("growth", "skip_width"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ConfigError(f"keep_prob {self.keep_prob} not in (0, 1]")

    def weight_for(self, ratio):
        return float(self.loss_weights.get(ratio, 1.0))


MINI_ENCODER = EncoderConfig(stem_channels=16, stem_kernel=3, stem_pool=2,
                             block_layers=(2, 2, 2), growth=8,
                             bottleneck=False)
FULL_ENCODER = EncoderConfig(stem_channels=96, stem_kernel=7, stem_pool=3,
                             block_layers=(6, 12, 36, 24), growth=48,
                             bottleneck=True)


def mini_config(num_classes, num_units=1, **overrides):
    """Desk-scale profile: same wiring as the full model, ~1000x smaller."""
    base = dict(num_classes=num_classes, num_units=num_units,
                encoder=MINI_ENCODER, growth=8, down_widths=(24, 32),
                up_widths=(24, 16), skip_width=16, entry_width=32)
    base.update(overrides)
    return NetworkConfig(**base)


def full_config(num_classes, num_units=1, **overrides):
    """Benchmark-scale profile on the 161-layer densely connected encoder."""
    base = dict(num_classes=num_classes, num_units=num_units,
                encoder=FULL_ENCODER, growth=48, down_widths=(768, 1024),
                up_widths=(768, 576), skip_width=192, entry_width=1024)
    base.update(overrides)
    return NetworkConfig(**base)


class DenseEncoder(Module):
    """Densely connected feature extractor ending at 1/16 resolution.

    The stem halves twice (conv stride 2, then max pool); transitions
    after the first two stages pool again, later ones keep resolution and
    the last stage dilates its 3x3 convs instead, so the deepest features
    stay at 1/16. Forward also returns the raw stage outputs at 1/4 and
    1/8 for use as skips.
    """

    def __init__(self, name, cfg, rng):
        c = cfg.stem_channels
        self.stem = ConvLayer(f"{name}.stem", 3, c, cfg.stem_kernel, rng,
                              stride=2)
        self.stem_bn = BatchNormLayer(f"{name}.stem_bn", c)
        self.stem_pool = cfg.stem_pool
        self.stages = []  # (dense block, transition or None)
        self.skip_channels = {}
        n_stages = len(cfg.block_layers)
        for i, depth in enumerate(cfg.block_layers):
            last = i == n_stages - 1
            block = DenseBlock(f"{name}.block{i + 1}", c, depth, cfg.growth,
                               rng, bottleneck=cfg.bottleneck,
                               dilation=2 if last else 1)
            c = block.out_channels
            if i == 0:
                self.skip_channels[4] = c
            elif i == 1:
                self.skip_channels[8] = c
            trans = None
            if not last:
                out = int(c * cfg.compression)
                trans = TransitionDown(f"{name}.trans{i + 1}", c, out, rng,
                                       pool=i < 2)
                c = out
            self.stages.append((block, trans))
        self.final_bn = BatchNormLayer(f"{name}.final_bn", c)
        self.out_channels = c

    def __call__(self, x, training=False, rng=None):
        h = self.stem(x)
        h = relu(self.stem_bn(h, training))
        h = maxpool2d(h, kernel=self.stem_pool, stride=2,
                      pad=1 if self.stem_pool == 3 else 0)
        skips = {}
        for i, (block, trans) in enumerate(self.stages):
            h = block(h, training, rng)
            if i == 0:
                skips[4] = h
            elif i == 1:
                skips[8] = h
            if trans is not None:
                h = trans(h, training, rng)
        return relu(self.final_bn(h, training)), skips


class DownStage(Module):
    """Halve resolution by max pooling, merge the same-scale lateral skip,
    grow dense features, compress to the stage width."""

    def __init__(self, name, in_c, skip_c, num_layers, growth, out_c, rng,
                 keep_prob):
        self.block = DenseBlock(f"{name}.block", in_c + skip_c, num_layers,
                                growth, rng, keep_prob=keep_prob)
        self.comp = BnActConv(f"{name}.comp", self.block.out_channels, out_c,
                              3, rng, bias=True, keep_prob=keep_prob)
        self.out_channels = out_c

    def __call__(self, x, skip, training=False, rng=None):
        h = maxpool2d(x, kernel=2)
        h = concat_channels([h, skip])
        h = self.block(h, training, rng)
        return self.comp(h, training, rng)


class UpStage(Module):
    """Double resolution with a width-preserving transposed conv, merge
    the encoder skip projection, grow dense features, and compress;
    the last unit's final stage skips compression and stays wide."""

    def __init__(self, name, in_c, skip_c, num_layers, growth, out_c, rng,
                 keep_prob):
        self.up = UpsampleLayer(f"{name}.up", in_c, in_c, rng)
        self.block = DenseBlock(f"{name}.block", in_c + skip_c, num_layers,
                                growth, rng, keep_prob=keep_prob)
        self.comp = None
        if out_c is not None:
            self.comp = BnActConv(f"{name}.comp", self.block.out_channels,
                                  out_c, 3, rng, bias=True,
                                  keep_prob=keep_prob)
        self.out_channels = out_c if out_c is not None else self.block.out_channels

    def __call__(self, x, skip, training=False, rng=None):
        h = self.up(x, training)
        h = concat_channels([h, skip])
        h = self.block(h, training, rng)
        if self.comp is not None:
            h = self.comp(h, training, rng)
        return h


class StackUnit(Module):
    """One hourglass pass. The first unit rides the encoder down, so it
    has no down stages of its own; later units pool twice before their up
    stages. Stage widths are shared across units, which is what lets the
    stack grow to any depth."""

    def __init__(self, name, cfg, rng, first, last):
        kp = cfg.keep_prob
        self.first = first
        self.down1 = self.down2 = None
        if not first:
            self.down1 = DownStage(f"{name}.down1", cfg.up_widths[1],
                                   cfg.up_widths[0], cfg.down_layers[0],
                                   cfg.growth, cfg.down_widths[0], rng, kp)
            self.down2 = DownStage(f"{name}.down2", cfg.down_widths[0],
                                   cfg.entry_width, cfg.down_layers[1],
                                   cfg.growth, cfg.down_widths[1], rng, kp)
        self.up1 = UpStage(f"{name}.up1", cfg.entry_width, cfg.skip_width,
                           cfg.up_layers[0], cfg.growth, cfg.up_widths[0],
                           rng, kp)
        self.up2 = UpStage(f"{name}.up2", cfg.up_widths[0], cfg.skip_width,
                           cfg.up_layers[1], cfg.growth,
                           None if last else cfg.up_widths[1], rng, kp)


class StackedNet:
    """See the module docstring for the wiring story."""

    def __init__(self, config, seed=0):
        config.validate()
        self.config = config
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.encoder = DenseEncoder("encoder", config.encoder, rng)
        self.skip4 = BnActConv("skip4", self.encoder.skip_channels[4],
                               config.skip_width, 3, rng)
        self.skip8 = BnActConv("skip8", self.encoder.skip_channels[8],
                               config.skip_width, 3, rng)
        # encoder output is already BN+ReLU normalized; a bare conv suffices
        self.entry = ConvLayer("entry", self.encoder.out_channels,
                               config.entry_width, 3, rng, bias=True)
        self.units = [StackUnit(f"unit{i + 1}", config, rng,
                                first=i == 0,
                                last=i == config.num_units - 1)
                      for i in range(config.num_units)]
        self.heads = {}
        for i, unit in enumerate(self.units):
            widths = {16: config.entry_width, 8: config.up_widths[0],
                      4: unit.up2.out_channels}
            for r in config.supervision_ratios:
                self.heads[(i, r)] = ConvLayer(f"unit{i + 1}.head{r}",
                                               widths[r], config.num_classes,
                                               3, rng, bias=True)

    # -- parameter plumbing ------------------------------------------------

    def param_groups(self):
        groups = {
            "encoder": self.encoder.params(),
            "skips": self.skip4.params() + self.skip8.params(),
            "entry": self.entry.params(),
        }
        for i, unit in enumerate(self.units):
            groups[f"unit{i + 1}"] = unit.params()
        groups["heads"] = [p for key in sorted(self.heads)
                           for p in self.heads[key].params()]
        return groups

    def params(self):
        return [p for group in self.param_groups().values() for p in group]

    def buffers(self):
        return [b for m in (self.encoder, self.skip4, self.skip8, *self.units)
                for b in m.buffers()]

    def state_dict(self):
        state = {p.name: p.value for p in self.params()}
        state.update(dict(self.buffers()))
        return state

    def load_state(self, state):
        """Copy values in place; names and shapes must match exactly."""
        own = self.state_dict()
        missing = sorted(set(own) - set(state))
        extra = sorted(set(state) - set(own))
        if missing or extra:
            raise DataError(
                f"state mismatch: missing {missing[:3]}{'...' if len(missing) > 3 else ''}, "
                f"unexpected {extra[:3]}{'...' if len(extra) > 3 else ''}")
        for name, dst in own.items():
            src = state[name]
            if src.shape != dst.shape:
                raise DataError(f"{name}: stored shape {src.shape} != "
                                f"model shape {dst.shape}")
            np.copyto(dst, src)

    # -- forward / losses / prediction -------------------------------------

    def forward(self, x, training=False, rng=None):
        """Run the stack; returns {(unit_index, ratio): fused score Tensor}."""
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x))
        if x.data.ndim != 4 or x.shape[1] != 3:
            raise ConfigError(f"expected (n, 3, h, w) input, got {x.shape}")
        n, _, h, w = x.shape
        if h % SIZE_MULTIPLE or w % SIZE_MULTIPLE:
            raise ConfigError(
                f"input {h}x{w} not a multiple of {SIZE_MULTIPLE}; pad first")
        if training and rng is None and self.config.keep_prob < 1.0:
            raise UsageError("training forward needs an rng for dropout")

        feat, raw_skips = self.encoder(x, training, rng)
        s4 = self.skip4(raw_skips[4], training, rng)
        s8 = self.skip8(raw_skips[8], training, rng)
        entry = self.entry(feat)

        maps = {}
        fused = {}
        prev = None
        for i, unit in enumerate(self.units):
            if unit.first:
                d = entry
            else:
                h1 = unit.down1(prev["up2"], prev["up1"], training, rng)
                d = unit.down2(h1, prev["entry"], training, rng)
            u1 = unit.up1(d, s8, training, rng)
            u2 = unit.up2(u1, s4, training, rng)
            taps = {16: d, 8: u1, 4: u2}
            for r in self.config.supervision_ratios:
                score = self.heads[(i, r)](taps[r])
                if self.config.fuse_scores and r in fused:
                    score = eltwise_add(score, fused[r])
                fused[r] = score
                maps[(i, r)] = score
            prev = {"entry": d, "up1": u1, "up2": u2}
        return maps

    def losses(self, maps, labels, ignore_index=255):
        """(name, loss, weight) per head, upsampled to the label size."""
        labels = np.asarray(labels)
        if labels.ndim != 3:
            raise DataError(f"labels must be (n, h, w), got {labels.shape}")
        h, w = labels.shape[1:]
        out = []
        for i, r in sorted(maps, key=lambda k: (k[0], -k[1])):
            up = bilinear_resize(maps[(i, r)], h, w)
            loss = softmax_ce_loss(up, labels, ignore_index)
            out.append((f"unit{i + 1}.r{r}", loss, self.config.weight_for(r)))
        return out

    def predict_logits(self, x):
        """Fused final score map, upsampled to input resolution (ndarray).

        Runs under :func:`no_grad`, so no graph outlives each op.
        """
        x = np.asarray(x)
        with no_grad():
            maps = self.forward(x, training=False)
            final = maps[(len(self.units) - 1, 4)]
            return bilinear_resize(final, x.shape[2], x.shape[3]).data

    def predict(self, x):
        return np.argmax(self.predict_logits(x), axis=1)


def predict_ms_flip(net, image, scales=(0.5, 0.8, 1.0, 1.2, 1.4),
                    mirror=True, mean_pixel=None, min_side=16,
                    return_probs=False):
    """Average class probabilities over scales (and mirrors) of one image.

    ``image`` is (3, h, w); returns the (h, w) label map, or the pair
    (labels, averaged probabilities) when ``return_probs`` is set. Scales
    whose resized short side would fall below ``min_side`` are skipped
    with a warning. Each variant is padded to the size multiple, scored,
    cropped back, softmaxed, and resized to the original resolution
    before averaging.
    """
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != 3:
        raise DataError(f"expected (3, h, w) image, got {image.shape}")
    h, w = image.shape[1:]
    if mean_pixel is None:
        mean_pixel = image.mean(axis=(1, 2))
    acc = np.zeros((net.config.num_classes, h, w), dtype=np.float64)
    used = 0
    for s in scales:
        sh, sw = int(round(h * s)), int(round(w * s))
        if min(sh, sw) < min_side:
            warnings.warn(f"skipping scale {s}: {sh}x{sw} is below "
                          f"{min_side}px")
            continue
        scaled = resize_bilinear_array(image, sh, sw)
        for flipped in (False, True) if mirror else (False,):
            view = scaled[:, :, ::-1] if flipped else scaled
            padded, _ = pad_to_multiple(view, None, SIZE_MULTIPLE, mean_pixel)
            logits = net.predict_logits(padded[None])[0]
            probs = softmax_probs(logits[None, :, :sh, :sw])[0]
            probs = resize_bilinear_array(probs, h, w)
            acc += probs[:, :, ::-1] if flipped else probs
            used += 1
    if used == 0:
        raise DataError(f"no usable scales for {h}x{w} input among {scales}")
    pred = np.argmax(acc, axis=0)
    if return_probs:
        return pred, acc / used
    return pred
