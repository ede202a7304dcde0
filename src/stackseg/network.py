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

import itertools
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .data import IGNORE_INDEX, pad_to_multiple
from .errors import ConfigError, DataError, UsageError
from .layers import BnActConv, BnRelu, ConvLayer, DenseBlock, \
    Module, TransitionDown, UpsampleLayer, WeightStream
from .ops import bilinear_resize, ce_targets, eltwise_add, maxpool2d, \
    resize_bilinear_array, softmax_ce_loss, softmax_probs
from .tensor import Tensor, no_grad
from .weights_io import load_weights

SIZE_MULTIPLE = 16  # inputs must divide evenly down to the deepest scale
KEEP_PROB = 0.8  # dropout keep probability of every stacked-unit conv
DOWN_LAYERS = (2, 4)  # dense layers of a unit's two down stages
UP_LAYERS = (2, 2)  # and of its two up stages, in both profiles
SKIP_BLOCKS = {0: 4, 1: 8}  # encoder blocks 1, 2 feed the ratio-4, -8 skips
MS_SCALES = (0.5, 0.8, 1.0, 1.2, 1.4)  # predict_ms_flip's default scales


@dataclass(frozen=True)
class Profile:
    """Every fixed value of one model size: the dense encoder, the growth
    of every dense block, and the widths of the stacked units."""
    stem_channels: int
    stem_kernel: int
    stem_pool: int  # stem max-pool kernel (2 or 3), stride always 2
    block_layers: tuple
    bottleneck: bool
    growth: int
    down_widths: tuple
    up_widths: tuple
    skip_width: int

    @property
    def entry_width(self):
        """Every unit hands the next one a decoder entry of this width."""
        return self.down_widths[1]


PROFILES = {
    # desk scale: same wiring as the full model, ~1000x smaller
    "mini": Profile(stem_channels=16, stem_kernel=3, stem_pool=2,
                    block_layers=(2, 2, 2), bottleneck=False, growth=8,
                    down_widths=(24, 32), up_widths=(24, 16), skip_width=16),
    # benchmark scale, on the 161-layer densely connected encoder
    "full": Profile(stem_channels=96, stem_kernel=7, stem_pool=3,
                    block_layers=(6, 12, 36, 24), bottleneck=True, growth=48,
                    down_widths=(768, 1024), up_widths=(768, 576),
                    skip_width=192),
}


@dataclass(frozen=True)
class NetworkConfig:
    """What may vary around a profile, named by its ``PROFILES`` key.

    Every field is checked as the config is built, so any config that
    exists is valid, and ``dataclasses.replace`` checks its copy again.
    """
    num_classes: int
    num_units: int
    profile: str
    supervision_ratios: tuple = (16, 8, 4)

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError(f"num_classes={self.num_classes}, need >= 2")
        # label maps are 8-bit, and IGNORE_INDEX marks ignored pixels
        if self.num_classes > IGNORE_INDEX:
            raise ConfigError(
                f"a {self.num_classes}-class network cannot write 8-bit "
                f"label maps: need <= {IGNORE_INDEX} classes, as "
                f"{IGNORE_INDEX} marks ignored pixels")
        if self.num_units < 1:
            raise ConfigError(f"num_units={self.num_units}, need >= 1")
        ratios = tuple(self.supervision_ratios)
        if not ratios or set(ratios) - {4, 8, 16} or len(set(ratios)) != len(ratios):
            raise ConfigError(f"supervision_ratios {ratios} must be distinct "
                              "values from {16, 8, 4}")
        if 4 not in ratios:
            raise ConfigError("supervision_ratios must include 4: the final "
                              "prediction reads the fused ratio-4 map")
        # config_from_state reads only the stem width back, so a profile
        # outside the table would write checkpoints that cannot be loaded
        if self.profile not in PROFILES:
            raise ConfigError(f"profile {self.profile!r} is not a key of "
                              f"PROFILES {sorted(PROFILES)}")


def mini_config(num_classes, num_units=1, supervision_ratios=(16, 8, 4)):
    return NetworkConfig(num_classes, num_units, "mini", supervision_ratios)


def full_config(num_classes, num_units=1, supervision_ratios=(16, 8, 4)):
    return NetworkConfig(num_classes, num_units, "full", supervision_ratios)


class DenseEncoder(Module):
    """Densely connected feature extractor ending at 1/16 resolution.

    The stem halves twice (conv stride 2, then max pool); transitions
    after the first two stages pool again, later ones keep resolution and
    the last stage dilates its 3x3 convs instead, so the deepest features
    stay at 1/16. Forward also returns the raw stage outputs at 1/4 and
    1/8 for use as skips.
    """

    def __init__(self, name, p, init):
        c = p.stem_channels
        self.stem = ConvLayer(f"{name}.stem", 3, c, p.stem_kernel, init,
                              stride=2)
        self.stem_bn = BnRelu(f"{name}.stem_bn", c)
        self.stem_pool = p.stem_pool
        self.stages = []  # (dense block, transition or None)
        self.skip_channels = {}
        n_stages = len(p.block_layers)
        for i, depth in enumerate(p.block_layers):
            last = i == n_stages - 1
            block = DenseBlock(f"{name}.block{i + 1}", c, depth, p.growth,
                               init, bottleneck=p.bottleneck,
                               dilation=2 if last else 1)
            c = block.out_channels
            if i in SKIP_BLOCKS:
                self.skip_channels[SKIP_BLOCKS[i]] = c
            trans = None
            if not last:
                out = c // 2
                trans = TransitionDown(f"{name}.trans{i + 1}", c, out, init,
                                       pool=i < 2)
                c = out
            self.stages.append((block, trans))
        self.final_bn = BnRelu(f"{name}.final_bn", c)
        self.out_channels = c

    def __call__(self, x, training=False, rng=None):
        h = self.stem(x)
        h = self.stem_bn(h, training)
        h = maxpool2d(h, kernel=self.stem_pool, stride=2,
                      pad=1 if self.stem_pool == 3 else 0)
        skips = {}
        for i, (block, trans) in enumerate(self.stages):
            h = block([h], training, rng)
            if i in SKIP_BLOCKS:
                skips[SKIP_BLOCKS[i]] = h
            if trans is not None:
                h = trans(h, training, rng)
        return self.final_bn(h, training), skips


class Stage(Module):
    """One step of a stacked unit: halve resolution by 2x2 max pooling, or
    double it with a width-preserving transposed conv when ``up``; hand
    the resampled feature and the same-scale lateral input to the dense
    block, which concatenates them in its own buffer as it grows dense
    features; and compress to ``out_c`` (None keeps the block width: the
    last unit's final stage stays wide)."""

    def __init__(self, name, in_c, skip_c, num_layers, growth, out_c, init,
                 up):
        self.up = UpsampleLayer(f"{name}.up", in_c, init) if up else None
        self.block = DenseBlock(f"{name}.block", in_c + skip_c, num_layers,
                                growth, init, keep_prob=KEEP_PROB)
        self.comp = None
        self.out_channels = self.block.out_channels
        if out_c is not None:
            self.comp = BnActConv(f"{name}.comp", self.block.out_channels,
                                  out_c, 3, init, bias=True,
                                  keep_prob=KEEP_PROB)
            self.out_channels = out_c

    def __call__(self, x, skip, training=False, rng=None):
        h = self.up(x, training) if self.up else maxpool2d(x, kernel=2)
        h = self.block([h, skip], training, rng)
        return self.comp(h, training, rng) if self.comp else h


class StackUnit(Module):
    """One hourglass pass. The first unit rides the encoder down, so it
    has no down stages of its own; later units pool twice before their up
    stages. Stage widths are shared across units, which is what lets the
    stack grow to any depth. ``out_channels`` maps each tap ratio to the
    width of that tap."""

    def __init__(self, name, p, init, descend, last):
        g = p.growth
        self.down1 = self.down2 = None
        if descend:
            self.down1 = Stage(f"{name}.down1", p.up_widths[1],
                               p.up_widths[0], DOWN_LAYERS[0], g,
                               p.down_widths[0], init, up=False)
            self.down2 = Stage(f"{name}.down2", p.down_widths[0],
                               p.entry_width, DOWN_LAYERS[1], g,
                               p.down_widths[1], init, up=False)
        self.up1 = Stage(f"{name}.up1", p.entry_width, p.skip_width,
                         UP_LAYERS[0], g, p.up_widths[0], init, up=True)
        self.up2 = Stage(f"{name}.up2", p.up_widths[0], p.skip_width,
                         UP_LAYERS[1], g, None if last else p.up_widths[1],
                         init, up=True)
        self.out_channels = {16: p.entry_width, 8: self.up1.out_channels,
                             4: self.up2.out_channels}

    def __call__(self, prev, skips, training=False, rng=None):
        """Taps {16, 8, 4} of this unit from the previous unit's taps (for
        the first unit, ``{16: entry}``) and the encoder skip projections
        ``{4, 8}``."""
        d = prev[16]
        if self.down1 is not None:
            h = self.down1(prev[4], prev[8], training, rng)
            d = self.down2(h, d, training, rng)
        u1 = self.up1(d, skips[8], training, rng)
        return {16: d, 8: u1, 4: self.up2(u1, skips[4], training, rng)}


def _check_floating(dtype):
    if not np.issubdtype(dtype, np.floating):
        raise DataError(f"image dtype {dtype} is not floating; "
                        "scale it to [0, 1] floats as read_ppm does")


def _check_batch(x):
    """A batch is a floating (n, 3, h, w) array with n >= 1."""
    if len(x.shape) != 4 or x.shape[1] != 3 or not x.shape[0]:
        raise ConfigError(f"expected (n, 3, h, w) input with n >= 1, "
                          f"got {x.shape}")
    _check_floating(x.dtype)


class StackedNet(Module):
    """See the module docstring for the wiring story."""

    def __init__(self, config, seed=0):
        if seed < 0:
            raise ConfigError(f"seed {seed} must be >= 0")
        self.config = config
        p = PROFILES[config.profile]
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        init = WeightStream(rng)
        self.encoder = DenseEncoder("encoder", p, init)
        self.skip4 = BnActConv("skip4", self.encoder.skip_channels[4],
                               p.skip_width, 3, init)
        self.skip8 = BnActConv("skip8", self.encoder.skip_channels[8],
                               p.skip_width, 3, init)
        # encoder output is already BN+ReLU normalized; a bare conv suffices
        self.entry = ConvLayer("entry", self.encoder.out_channels,
                               p.entry_width, 3, init, bias=True)
        self.units = [StackUnit(f"unit{i + 1}", p, init,
                                descend=i > 0,
                                last=i == config.num_units - 1)
                      for i in range(config.num_units)]
        self.heads = {(i, r): ConvLayer(f"unit{i + 1}.head{r}",
                                        unit.out_channels[r],
                                        config.num_classes, 3, init,
                                        bias=True)
                      for i, unit in enumerate(self.units)
                      for r in config.supervision_ratios}

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

    def state_dict(self):
        state = {p.name: p.value for p in self.params()}
        state.update(dict(self.buffers()))
        return state

    def load_state(self, state):
        """Set every parameter and running statistic from ``state``.

        Names and shapes must match exactly, and nothing is set unless they
        all do. A parameter still pending its He-normal draw takes a
        float32 copy and is never drawn; one already drawn, and every
        running statistic, is copied into in place.
        """
        self._set_state(state, np.array)

    @classmethod
    def load(cls, path):
        """The network a checkpoint file holds, with its weights.

        :func:`load_weights` reads the file, :func:`config_from_state`
        names the network from the tensors' names and shapes, and the
        network built from it is set as :meth:`load_state` sets it, after
        the same checks: the same values bit for bit, and no weight drawn.
        Each weight array read from the file becomes its parameter's value
        as it is, so the load holds one copy of the weights, not two. The
        arrays were read for this network alone, so no other network or
        dict shares them. Running statistics are copied in place.
        """
        state = load_weights(path)
        state.pop("meta.config", None)  # the config copy earlier versions wrote
        net = cls(config_from_state(state))
        net._set_state(state, np.asarray)
        return net

    def _set_state(self, state, take):
        """:meth:`load_state`, giving each pending parameter
        ``take(array, dtype=np.float32)``."""
        params = {p.name: p for p in self.params()}
        buffers = dict(self.buffers())
        own = {**params, **buffers}  # Params and arrays: both have a shape
        missing = sorted(set(own) - set(state))
        extra = sorted(set(state) - set(own))
        if missing or extra:
            raise DataError(
                f"state mismatch: missing {missing[:3]}{'...' if len(missing) > 3 else ''}, "
                f"unexpected {extra[:3]}{'...' if len(extra) > 3 else ''}")
        for name, dst in own.items():
            if state[name].shape != dst.shape:
                raise DataError(f"{name}: stored shape {state[name].shape} "
                                f"!= model shape {dst.shape}")
        for name, p in params.items():
            if p.pending:
                p.value = take(state[name], dtype=np.float32)
            else:
                np.copyto(p.value, state[name])
        for name, b in buffers.items():
            np.copyto(b, state[name])

    # -- forward / losses / prediction -------------------------------------

    def forward(self, x, training=False, rng=None, ratios=None):
        """Run the stack; returns {(unit_index, ratio): fused score Tensor}.

        ``x`` is a floating (n, 3, h, w) array, which becomes the graph's
        input leaf; any other dtype raises ``DataError``, since a uint8
        image's 0-255 values are not the [0, 1] floats the network takes.

        ``ratios`` picks which supervision ratios are scored (None: all of
        them). Every unit still computes all its taps, since the next unit
        reads them, but a ratio left out costs no head conv and no add.
        """
        if ratios is None:
            ratios = self.config.supervision_ratios
        elif not ratios or set(ratios) - set(self.config.supervision_ratios):
            raise ConfigError(f"ratios {ratios} must be a non-empty subset "
                              f"of {self.config.supervision_ratios}")
        x = np.asarray(x)
        _check_batch(x)
        n, _, h, w = x.shape
        if h % SIZE_MULTIPLE or w % SIZE_MULTIPLE:
            raise ConfigError(
                f"input {h}x{w} not a multiple of {SIZE_MULTIPLE}; pad first")
        if training and rng is None:
            raise UsageError("training forward needs an rng for dropout")

        feat, raw = self.encoder(Tensor(x), training, rng)
        skips = {4: self.skip4(raw[4], training, rng),
                 8: self.skip8(raw[8], training, rng)}
        taps = {16: self.entry(feat)}

        maps = {}
        for i, unit in enumerate(self.units):
            taps = unit(taps, skips, training, rng)
            for r in ratios:
                score = self.heads[(i, r)](taps[r])
                if i:
                    score = eltwise_add(score, maps[(i - 1, r)])
                maps[(i, r)] = score
        return maps

    def losses(self, maps, labels, ignore_index=IGNORE_INDEX):
        """(name, loss, weight) per head, upsampled to the label size; the
        heads add at equal weight, so every weight is 1.0."""
        targets = ce_targets(labels, self.config.num_classes, ignore_index)
        h, w = targets.valid.shape[1:]
        out = []
        for i, r in sorted(maps, key=lambda k: (k[0], -k[1])):
            up = bilinear_resize(maps[(i, r)], h, w)
            loss = softmax_ce_loss(up, targets)
            out.append((f"unit{i + 1}.r{r}", loss, 1.0))
        return out

    def predict_logits(self, x):
        """Fused final score map, upsampled to input resolution (ndarray).

        Runs under :func:`no_grad`, so no graph outlives each op, and scores
        ratio 4 only: the 1/16 and 1/8 heads and their cross-unit adds only
        train the network, so prediction skips them. Each image's logits
        are bitwise those of its own n=1 call, whatever the batch.
        """
        x = np.asarray(x)
        with no_grad():
            maps = self.forward(x, training=False, ratios=(4,))
            final = maps[(len(self.units) - 1, 4)]
            return bilinear_resize(final, x.shape[2], x.shape[3]).data

    def predict(self, x):
        """(n, h, w) label maps of (n, 3, h, w) images of any size. Each
        image is padded to ``SIZE_MULTIPLE`` with its own mean pixel, as
        ``evaluate`` and ``stackseg infer`` need, and the labels are
        cropped back."""
        x = np.asarray(x)
        _check_batch(x)
        h, w = x.shape[2:]
        padded = np.stack([pad_to_multiple(im, SIZE_MULTIPLE) for im in x])
        return _labels(self.predict_logits(padded)[:, :, :h, :w], axis=1)


def _labels(scores, axis):
    """The argmax of class scores over ``axis``. Raises DataError if any
    score is not finite, where ``np.argmax`` would return the index of
    the first NaN."""
    bad = np.count_nonzero(~np.isfinite(scores))
    if bad:
        raise DataError(f"{bad} of {scores.size} class scores are not "
                        "finite; the weights may have diverged")
    return np.argmax(scores, axis=axis)


_HEAD_NAME = re.compile(r"unit([1-9]\d{0,8})\.head(\d{1,2})\.w")


def config_from_state(state):
    """The NetworkConfig whose ``state_dict()`` has these names and shapes.

    The ``encoder.stem.w`` width picks the profile, which fixes every
    width and depth; the ``unitN.headR.w`` tensors give the units, the
    ratios and (first dimension) the classes. Those four are all a config
    holds that the forward pass reads. Raises DataError, before anything
    is built, unless the config's closed-form parameter count equals the
    number of values stored.
    """
    stem = state.get("encoder.stem.w")
    width = stem.shape[0] if stem is not None and stem.ndim else None
    profile = next((name for name, p in PROFILES.items()
                    if p.stem_channels == width), None)
    if profile is None:
        raise DataError(f"encoder.stem.w width {width} matches no profile")
    heads = {}
    for name, value in state.items():
        m = _HEAD_NAME.fullmatch(name)
        if m and value.ndim:
            heads[int(m[1]), int(m[2])] = value.shape[0]
    units = max((u for u, _ in heads), default=0)
    ratios = tuple(sorted({r for _, r in heads}, reverse=True))
    classes = set(heads.values())
    # keys lie in units x ratios, so equal counts mean every unit has every
    # ratio; this also bounds units by the number of tensors in the file
    if len(heads) != units * len(ratios) or len(classes) != 1:
        raise DataError("score heads missing or unlike across units")
    from .analyzer import architecture_report  # it imports this module

    try:
        cfg = NetworkConfig(classes.pop(), units, profile, ratios)
    except ConfigError as e:
        raise DataError(f"stored tensors describe no valid network: {e}")
    expected = architecture_report(cfg).params_total
    stored = sum(v.size for name, v in state.items()
                 if not name.endswith((".running_mean", ".running_var")))
    if expected != stored:
        raise DataError(f"a {units}-unit, {cfg.num_classes}-class network "
                        f"has {expected} parameters but {stored} are stored")
    return cfg


def _padded_size(size):
    return tuple(n + (-n) % SIZE_MULTIPLE for n in size)


def predict_ms_flip(net, image, scales=MS_SCALES, mirror=True,
                    return_probs=False):
    """Average class probabilities over scales (and mirrors) of one image.

    ``image`` is a floating (3, h, w) array (else ``DataError``); returns
    the (h, w) label map, or the pair (labels, averaged probabilities)
    when ``return_probs`` is set. Every scale must be finite and > 0 (else
    ``ConfigError``); scales whose resized short side would fall below
    ``SIZE_MULTIPLE`` are skipped with a warning. Each variant is padded
    to the size multiple with the image's mean pixel, scored, cropped
    back, softmaxed, and resized to the original resolution before
    averaging, in scale-then-mirror order.

    Consecutive variants that pad to the same size share one
    ``predict_logits`` call: a scale's mirror pair always does, and so do
    neighbouring scales whose sizes collide after padding to
    ``SIZE_MULTIPLE``. That happens on small images (a 64px image at the
    default scales runs 4 forwards of 2, 4, 2 and 2 images, not 5) but
    rarely on large ones (500x375 pads every default scale differently).
    Batching changes no bit of the result.
    """
    if not all(math.isfinite(s) and s > 0 for s in scales):
        raise ConfigError(f"scales {scales} must be finite and > 0")
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != 3:
        raise DataError(f"expected (3, h, w) image, got {image.shape}")
    _check_floating(image.dtype)
    h, w = image.shape[1:]
    fill = image.mean(axis=(1, 2))
    sizes = []
    for s in scales:
        sh, sw = int(round(h * s)), int(round(w * s))
        if min(sh, sw) < SIZE_MULTIPLE:
            warnings.warn(f"skipping scale {s}: {sh}x{sw} is below "
                          f"{SIZE_MULTIPLE}px")
        else:
            sizes.append((sh, sw))
    if not sizes:
        raise DataError(f"no usable scales for {h}x{w} input among {scales}")
    acc = np.zeros((net.config.num_classes, h, w), dtype=np.float64)
    for _, run in itertools.groupby(sizes, key=_padded_size):
        views = []  # (view, flipped), scale then mirror
        for sh, sw in run:
            scaled = resize_bilinear_array(image, sh, sw)
            views.append((scaled, False))
            if mirror:
                views.append((scaled[:, :, ::-1], True))
        batch = np.stack([pad_to_multiple(v, SIZE_MULTIPLE, fill)
                          for v, _ in views])
        logits = net.predict_logits(batch)
        for lg, (v, flipped) in zip(logits, views):
            sh, sw = v.shape[1:]
            probs = softmax_probs(lg[None, :, :sh, :sw])[0]
            probs = resize_bilinear_array(probs, h, w)
            acc += probs[:, :, ::-1] if flipped else probs
    pred = _labels(acc, axis=0)
    if return_probs:
        return pred, acc / (len(sizes) * (2 if mirror else 1))
    return pred
