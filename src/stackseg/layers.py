"""Composite layers the encoders and decoder units are assembled from.

Everything follows the pre-activation convention: each weight layer sees
BN -> ReLU of its input. Every layer and container derives from
:class:`Module`, whose ``params()`` (trainable tensors) and ``buffers()``
(named running statistics) come from one walk over the instance
attributes in assignment order, descending into sub-modules, lists and
tuples but not into dicts. Construction order is therefore parameter
order; a container that needs another order, or keeps layers in a dict,
lists them explicitly (as ``StackedNet.param_groups`` does). Parameter
names are dotted paths rooted at the owning network.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .ops import (
    BnState,
    batch_norm,
    bilinear_resize,
    concat_channels,
    conv2d,
    deconv2d,
    dropout,
    relu,
)
from .tensor import Param


def he_normal(rng, shape, fan_in, dtype=np.float32):
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)


def avg_pool_half(x):
    """Exact 2x2 mean pooling, expressed as a bilinear halving."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ConfigError(f"avg_pool_half: odd spatial size {h}x{w}")
    return bilinear_resize(x, h // 2, w // 2)


def _collect(obj, params, buffers):
    """Append the Params and BN buffers under a module, list or tuple."""
    items = obj if isinstance(obj, (list, tuple)) else vars(obj).values()
    for value in items:
        if isinstance(value, Param):
            params.append(value)
        elif isinstance(value, (Module, list, tuple)):
            _collect(value, params, buffers)
    if isinstance(obj, BatchNormLayer):
        # read at call time: batch_norm rebinds the running arrays
        buffers += [(f"{obj.name}.running_mean", obj.state.mean),
                    (f"{obj.name}.running_var", obj.state.var)]


class Module:
    """Base class: parameters and buffers found by walking attributes."""

    def _walk(self):
        params, buffers = [], []
        _collect(self, params, buffers)
        return params, buffers

    def params(self):
        return self._walk()[0]

    def buffers(self):
        return self._walk()[1]


class ConvLayer(Module):
    """Bare convolution; pad defaults to size-preserving for odd kernels."""

    def __init__(self, name, in_c, out_c, kernel, rng, stride=1, pad=None,
                 dilation=1, bias=False):
        if pad is None:
            pad = dilation * (kernel - 1) // 2
        self.stride, self.pad, self.dilation = stride, pad, dilation
        fan_in = in_c * kernel * kernel
        self.w = Param(he_normal(rng, (out_c, in_c, kernel, kernel), fan_in),
                       f"{name}.w")
        self.b = None
        if bias:
            self.b = Param(np.zeros(out_c, dtype=np.float32), f"{name}.b",
                           decay_exempt=True)

    def __call__(self, x):
        b = self.b.as_tensor() if self.b is not None else None
        return conv2d(x, self.w.as_tensor(), b, stride=self.stride,
                      pad=self.pad, dilation=self.dilation)


class BatchNormLayer(Module):
    def __init__(self, name, channels, eps=1e-5, momentum=0.9):
        self.name = name
        self.eps, self.momentum = eps, momentum
        self.gamma = Param(np.ones(channels, dtype=np.float32),
                           f"{name}.gamma", decay_exempt=True)
        self.beta = Param(np.zeros(channels, dtype=np.float32),
                          f"{name}.beta", decay_exempt=True)
        self.state = BnState(channels)

    def __call__(self, x, training=False):
        return batch_norm(x, self.gamma.as_tensor(), self.beta.as_tensor(),
                          self.state, training, self.eps, self.momentum)


class BnActConv(Module):
    """BN -> ReLU -> conv, with optional dropout on the conv output."""

    def __init__(self, name, in_c, out_c, kernel, rng, stride=1, pad=None,
                 dilation=1, bias=False, keep_prob=1.0):
        self.bn = BatchNormLayer(f"{name}.bn", in_c)
        self.conv = ConvLayer(f"{name}.conv", in_c, out_c, kernel, rng,
                              stride, pad, dilation, bias)
        self.keep_prob = keep_prob

    def __call__(self, x, training=False, rng=None):
        h = self.conv(relu(self.bn(x, training)))
        return dropout(h, self.keep_prob, training, rng)


class UpsampleLayer(Module):
    """BN -> ReLU -> 4x4 stride-2 transposed conv; doubles height/width."""

    def __init__(self, name, in_c, out_c, rng, kernel=4, stride=2, pad=1):
        self.bn = BatchNormLayer(f"{name}.bn", in_c)
        self.stride, self.pad = stride, pad
        fan_in = in_c * kernel * kernel
        self.w = Param(he_normal(rng, (in_c, out_c, kernel, kernel), fan_in),
                       f"{name}.w")

    def __call__(self, x, training=False):
        return deconv2d(relu(self.bn(x, training)), self.w.as_tensor(),
                        stride=self.stride, pad=self.pad)


class DenseBlock(Module):
    """Stack of layers that each concatenate ``growth`` new channels.

    Bottlenecked layers squeeze to 4*growth with a 1x1 conv before the
    3x3; the plain variant runs the 3x3 directly on the running feature.
    """

    def __init__(self, name, in_c, num_layers, growth, rng, bottleneck=False,
                 dilation=1, keep_prob=1.0):
        if num_layers < 1:
            raise ConfigError(f"DenseBlock {name}: num_layers={num_layers}")
        self.layers = []
        c = in_c
        for i in range(num_layers):
            steps = []
            if bottleneck:
                steps.append(BnActConv(f"{name}.layer{i}.squeeze", c,
                                       4 * growth, 1, rng,
                                       keep_prob=keep_prob))
                steps.append(BnActConv(f"{name}.layer{i}.grow", 4 * growth,
                                       growth, 3, rng, dilation=dilation,
                                       keep_prob=keep_prob))
            else:
                steps.append(BnActConv(f"{name}.layer{i}.grow", c, growth, 3,
                                       rng, dilation=dilation,
                                       keep_prob=keep_prob))
            self.layers.append(steps)
            c += growth
        self.in_channels = in_c
        self.out_channels = c

    def __call__(self, x, training=False, rng=None):
        for steps in self.layers:
            h = x
            for step in steps:
                h = step(h, training, rng)
            x = concat_channels([x, h])
        return x


class TransitionDown(Module):
    """Between-stage compression: BN-ReLU-1x1 conv, then optional 2x2 mean
    pool (stages that dilate instead keep their resolution)."""

    def __init__(self, name, in_c, out_c, rng, pool=True):
        self.proj = BnActConv(f"{name}.proj", in_c, out_c, 1, rng)
        self.pool = pool

    def __call__(self, x, training=False, rng=None):
        h = self.proj(x, training, rng)
        return avg_pool_half(h) if self.pool else h
