"""Composite layers the encoders and decoder units are assembled from.

Everything follows the pre-activation convention: each weight layer sees
BN -> ReLU of its input. Every layer and container, the whole network
included, derives from :class:`Module`, whose ``params()`` (trainable
tensors) and ``buffers()`` (named running statistics) come from one walk
over the instance attributes in assignment order, descending into
sub-modules, lists, tuples and dict values (in insertion order).
Construction order is therefore parameter order, and it is also the
order in which a network's conv and deconv weights are drawn from its one
:class:`WeightStream`. The draws happen on the first read of any weight,
not at construction: a network whose weights are all loaded draws none,
and one that trains or saves them gets exactly what drawing each at
construction would give. Parameters and running statistics are both
updated in place, so the arrays the walk returns stay the network's own.
Parameter names are dotted paths rooted at the owning network.
"""
from __future__ import annotations

import math
import weakref

import numpy as np

from .errors import ConfigError
from .ops import (
    batch_norm,
    bilinear_resize,
    concat_channels,
    conv2d,
    deconv2d,
    dropout,
    relu,
)
from .tensor import Owed, Param


def he_normal(rng, shape, fan_in):
    return (rng.standard_normal(shape)
            * np.sqrt(2.0 / fan_in)).astype(np.float32)


class WeightStream:
    """He-normal weights drawn from one seeded Generator, in the order they
    were asked for, when the first of them is read.

    ``param`` hands out pending Params. Reading the value of any of them
    calls :meth:`fill`, which draws every weight still owed, one
    :func:`he_normal` call each in the order asked for, so each weight
    equals what an immediate draw would have given. A Param whose value was
    assigned meanwhile (``StackedNet.load_state`` does so) or that is gone
    still takes its share of the stream, which keeps every later weight the
    same; its draw is discarded. The stream refers to its Params weakly, so
    no Param and its stream form a reference cycle.
    """

    def __init__(self, rng):
        self._rng = rng
        self._owed = []  # (weak reference to the Param, shape)

    def param(self, name, shape):
        """A pending (out, in, kh, kw) weight; its fan-in is in·kh·kw."""
        p = Param(Owed(self, shape), name)
        self._owed.append((weakref.ref(p), shape))
        return p

    def fill(self):
        owed, self._owed = self._owed, []
        for ref, shape in owed:
            value = he_normal(self._rng, shape, math.prod(shape[1:]))
            p = ref()
            if p is not None and p.pending:
                p.value = value


def avg_pool_half(x):
    """Exact 2x2 mean pooling, expressed as a bilinear halving."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ConfigError(f"avg_pool_half: odd spatial size {h}x{w}")
    return bilinear_resize(x, h // 2, w // 2)


def _collect(obj, params, buffers):
    """Append the Params and BN buffers under a module, list, tuple or dict."""
    items = vars(obj) if isinstance(obj, Module) else obj
    for value in items.values() if isinstance(items, dict) else items:
        if isinstance(value, Param):
            params.append(value)
        elif isinstance(value, (Module, list, tuple, dict)):
            _collect(value, params, buffers)
    if isinstance(obj, BnRelu):
        buffers += [(f"{obj.name}.running_mean", obj.running_mean),
                    (f"{obj.name}.running_var", obj.running_var)]


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
    """Bare convolution, padded to keep the size for odd kernels."""

    def __init__(self, name, in_c, out_c, kernel, init, stride=1, dilation=1,
                 bias=False):
        self.stride, self.dilation = stride, dilation
        self.pad = dilation * (kernel - 1) // 2
        self.w = init.param(f"{name}.w", (out_c, in_c, kernel, kernel))
        self.b = None
        if bias:
            self.b = Param(np.zeros(out_c, dtype=np.float32), f"{name}.b",
                           decay_exempt=True)

    def __call__(self, x):
        b = self.b.as_tensor() if self.b is not None else None
        return conv2d(x, self.w.as_tensor(), b, stride=self.stride,
                      pad=self.pad, dilation=self.dilation)


class BnRelu(Module):
    """Batch norm followed by ReLU: every batch norm in the network feeds
    one."""

    def __init__(self, name, channels):
        self.name = name
        self.gamma = Param(np.ones(channels, dtype=np.float32),
                           f"{name}.gamma", decay_exempt=True)
        self.beta = Param(np.zeros(channels, dtype=np.float32),
                          f"{name}.beta", decay_exempt=True)
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def __call__(self, x, training=False):
        return relu(batch_norm(x, self.gamma.as_tensor(),
                               self.beta.as_tensor(), self.running_mean,
                               self.running_var, training))


class BnActConv(Module):
    """BN -> ReLU -> conv, with optional dropout on the conv output."""

    def __init__(self, name, in_c, out_c, kernel, init, dilation=1,
                 bias=False, keep_prob=1.0):
        self.bn = BnRelu(f"{name}.bn", in_c)
        self.conv = ConvLayer(f"{name}.conv", in_c, out_c, kernel, init,
                              dilation=dilation, bias=bias)
        self.keep_prob = keep_prob

    def __call__(self, x, training=False, rng=None):
        h = self.conv(self.bn(x, training))
        return dropout(h, self.keep_prob, training, rng)


class UpsampleLayer(Module):
    """BN -> ReLU -> 4x4 transposed conv at ``deconv2d``'s default stride 2
    and pad 1; doubles height/width and keeps the ``c`` channels."""

    def __init__(self, name, c, init):
        self.bn = BnRelu(f"{name}.bn", c)
        self.w = init.param(f"{name}.w", (c, c, 4, 4))

    def __call__(self, x, training=False):
        return deconv2d(self.bn(x, training), self.w.as_tensor())


class DenseBlock(Module):
    """Stack of layers that each concatenate ``growth`` new channels.

    Bottlenecked layers squeeze to 4*growth with a 1x1 conv before the
    3x3; the plain variant runs the 3x3 directly on the running feature.

    The block takes its input as a list of parts (one feature, or a
    stage's resampled feature and its lateral input), allocates its
    output once, at full width, and writes the parts and then each
    layer's new channels into it. Every concatenation is a
    :func:`concat_channels` node over a channel prefix of that buffer:
    first the parts' own (when there are several), then layer k's input
    ``buf[:, :c_k]``, whose parents are the first concatenation (or the
    one part) and the earlier layers' outputs. So neither the input nor
    the running feature is ever copied again: O(L) bytes per block
    instead of O(L^2) (Pleiss et al. 2017, "Memory-Efficient
    Implementation of DenseNets", arXiv 1707.06990). Later writes never
    touch an earlier prefix.
    """

    def __init__(self, name, in_c, num_layers, growth, init,
                 bottleneck=False, dilation=1, keep_prob=1.0):
        if num_layers < 1:
            raise ConfigError(f"DenseBlock {name}: num_layers={num_layers}")
        self.layers = []
        c = in_c
        for i in range(num_layers):
            steps, width = [], c
            if bottleneck:
                width = 4 * growth
                steps.append(BnActConv(f"{name}.layer{i}.squeeze", c, width,
                                       1, init, keep_prob=keep_prob))
            steps.append(BnActConv(f"{name}.layer{i}.grow", width, growth, 3,
                                   init, dilation=dilation,
                                   keep_prob=keep_prob))
            self.layers.append(steps)
            c += growth
        self.out_channels = c

    def __call__(self, parts, training=False, rng=None):
        n, _, height, width = parts[0].shape
        buf = np.empty((n, self.out_channels, height, width),
                       dtype=parts[0].data.dtype)
        c = 0
        for h in parts:
            buf[:, c:c + h.shape[1]] = h.data
            c += h.shape[1]
        feat = concat_channels(parts, buf) if len(parts) > 1 else parts[0]
        parts = [feat]
        for steps in self.layers:
            h = feat
            for step in steps:
                h = step(h, training, rng)
            buf[:, c:c + h.shape[1]] = h.data
            c += h.shape[1]
            parts.append(h)
            feat = concat_channels(parts, buf)
        return feat


class TransitionDown(Module):
    """Between-stage transition: BN-ReLU-1x1 conv, then optional 2x2 mean
    pool (stages that dilate instead keep their resolution)."""

    def __init__(self, name, in_c, out_c, init, pool=True):
        self.proj = BnActConv(f"{name}.proj", in_c, out_c, 1, init)
        self.pool = pool

    def __call__(self, x, training=False, rng=None):
        h = self.proj(x, training, rng)
        return avg_pool_half(h) if self.pool else h
