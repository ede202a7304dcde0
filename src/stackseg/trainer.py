"""Training loop: polynomial LR decay, heavy-ball SGD with weight decay,
and random scale/aspect/crop/mirror augmentation.

One trainer seed drives two independent streams (batch/augmentation
draws and dropout masks), so a fixed seed reproduces a run bit for bit
on the same thread count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import mean_pixel, pad_bottom_right
from .errors import ConfigError, DataError, DivergenceError
from .network import SIZE_MULTIPLE
from .ops import resize_bilinear_array, resize_nearest_labels
from .tensor import backward

# one fixed recipe: poly decay, momentum and weight decay as in DeepLab
# (Chen et al. 2016, arXiv 1606.00915), random scale, aspect and mirror
POLY_POWER = 0.9
MOMENTUM = 0.9
WEIGHT_DECAY = 5e-4
SCALES = (0.6, 0.8, 1.0, 1.2, 1.4)
ASPECTS = (0.7, 0.85, 1.0, 1.15, 1.3)
HFLIP_PROB = 0.5


@dataclass(frozen=True)
class TrainConfig:
    """One run's settings. Like NetworkConfig, each is checked as the
    config is built, and the config is frozen, so none is set unchecked."""
    base_lr: float = 2.5e-4
    batch_size: int = 4
    crop: int = 64
    max_iter: int = 1000
    seed: int = 0
    log_every: int = 10

    def __post_init__(self):
        if not (self.base_lr > 0 and math.isfinite(self.base_lr)):
            raise ConfigError(f"base_lr {self.base_lr} must be finite and > 0")
        if self.max_iter < 1 or self.batch_size < 1:
            raise ConfigError(
                f"bad schedule: max_iter={self.max_iter} "
                f"batch_size={self.batch_size}")
        if self.log_every < 1:
            raise ConfigError(f"log_every {self.log_every} must be >= 1")
        if self.crop < SIZE_MULTIPLE or self.crop % SIZE_MULTIPLE:
            raise ConfigError(f"crop {self.crop} must be a positive multiple "
                              f"of {SIZE_MULTIPLE}")
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} must be >= 0")


def poly_lr(base_lr, iteration, max_iter):
    """base * (1 - it/max_iter)^POLY_POWER, clamped to 0 past the horizon."""
    if max_iter <= 0:
        raise ConfigError(f"max_iter={max_iter}")
    frac = min(iteration / max_iter, 1.0)
    return base_lr * (1.0 - frac) ** POLY_POWER


def sgd_step(params, lr):
    """v <- MOMENTUM*v + grad + WEIGHT_DECAY*value; value <- value - lr*v.

    Decay-exempt parameters (biases, BN affine) skip the L2 term. A
    parameter whose ``grad`` is None is not stepped; every other one gets
    its ``momentum`` (zeros on its first step) updated and its ``grad``
    consumed, set back to None.
    """
    for p in params:
        g = p.grad
        if g is None:
            continue
        if not p.decay_exempt:
            g = g + WEIGHT_DECAY * p.value
        if p.momentum is None:
            p.momentum = np.zeros_like(p.value)
        p.momentum *= MOMENTUM
        p.momentum += g
        p.value -= lr * p.momentum
        p.grad = None


def augment(sample, cfg, rng, fill):
    """Random resize by scale*sqrt(aspect) (one of SCALES and ASPECTS each),
    crop to ``cfg.crop`` (padding short sides with the dataset mean /
    ignore), and mirror with probability HFLIP_PROB."""
    s = SCALES[rng.integers(len(SCALES))]
    a = ASPECTS[rng.integers(len(ASPECTS))]
    image = sample.image
    h, w = image.shape[1:]
    nh = max(1, int(round(h * s * math.sqrt(a))))
    nw = max(1, int(round(w * s / math.sqrt(a))))
    image = resize_bilinear_array(image.astype(np.float32, copy=False),
                                  nh, nw)
    labels = resize_nearest_labels(sample.labels, nh, nw)

    crop = cfg.crop
    if nh < crop or nw < crop:
        nh, nw = max(nh, crop), max(nw, crop)
        image, labels = pad_bottom_right(image, labels, nh, nw, fill)
    y0 = int(rng.integers(nh - crop + 1))
    x0 = int(rng.integers(nw - crop + 1))
    image = image[:, y0:y0 + crop, x0:x0 + crop]
    labels = labels[y0:y0 + crop, x0:x0 + crop]
    if rng.random() < HFLIP_PROB:
        image = image[:, :, ::-1]
        labels = labels[:, ::-1]
    return np.ascontiguousarray(image), np.ascontiguousarray(labels)


def train(net, samples, cfg, log_fn=None):
    """Run the loop; returns one history dict per iteration.

    Raises :class:`DivergenceError` on a non-finite loss, and after the
    last iteration if any parameter is not finite.

    Log rows are ``iter<TAB>lr<TAB>total_loss<TAB>name=value,...`` with
    one name=value per supervision head.
    """
    if not samples:
        raise DataError("no training samples")
    for s in samples:
        if not s.labeled:
            raise DataError(f"sample {s.name} has no labels")
    fill = mean_pixel(samples)
    aug_seq, drop_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    aug_rng = np.random.default_rng(aug_seq)
    drop_rng = np.random.default_rng(drop_seq)
    params = net.params()

    history = []
    for it in range(cfg.max_iter):
        lr = poly_lr(cfg.base_lr, it, cfg.max_iter)
        batch = [augment(samples[int(aug_rng.integers(len(samples)))],
                         cfg, aug_rng, fill)
                 for _ in range(cfg.batch_size)]
        x = np.stack([im for im, _ in batch])
        y = np.stack([lb for _, lb in batch])

        maps = net.forward(x, training=True, rng=drop_rng)
        named = net.losses(maps, y)
        head_losses = {name: float(loss.data) for name, loss, _ in named}
        total = sum(head_losses.values())
        for name, value in head_losses.items():
            if not np.isfinite(value):
                raise DivergenceError(
                    f"non-finite loss at iteration {it}: head {name} = "
                    f"{value} (lr was {lr:.3g})")

        backward([loss for _, loss, _ in named])
        sgd_step(params, lr)

        history.append({"iteration": it, "lr": lr, "total_loss": total,
                        "head_losses": head_losses})
        if log_fn and (it % cfg.log_every == 0 or it == cfg.max_iter - 1):
            heads = ",".join(f"{k}={v:.4g}" for k, v in head_losses.items())
            log_fn(f"{it}\t{lr:.6g}\t{total:.6g}\t{heads}")
    # a diverged update shows in the next loss; only the last one has none
    bad = [p.name for p in params if not np.isfinite(p.value).all()]
    if bad:
        raise DivergenceError(
            f"{len(bad)} parameters are not finite after the last update "
            f"(lr was {lr:.3g}): {', '.join(bad)}")
    return history

