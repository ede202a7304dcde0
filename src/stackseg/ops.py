"""Primitive differentiable operations on rank-4 tensors.

Convolution and its transpose are lowered to patch matrices (im2col) and
batched GEMMs; ``tests/reference.py`` keeps direct-loop versions of both
as independent oracles. All ops follow the dtype of their inputs, so
the same code runs in float32 for training and float64 for gradient
checks.

Layout conventions:
  activations  (n, c, h, w)
  conv weights (out_c, in_c, kh, kw), cross-correlation semantics
  deconv weights (in_c, out_c, kh, kw); ``deconv2d(y, w)`` is the exact
  adjoint of ``conv2d(x, w)`` for a shared weight array
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError
from .tensor import Tensor


def _pair(v):
    if isinstance(v, (tuple, list)):
        if len(v) != 2:
            raise ConfigError(f"expected scalar or pair, got {v!r}")
        return int(v[0]), int(v[1])
    return int(v), int(v)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _conv_out_size(size, k, s, p, d):
    eff = (k - 1) * d + 1
    return (size + 2 * p - eff) // s + 1


# ---------------------------------------------------------------------------
# patch-matrix lowering

def _im2col(x, kh, kw, sh, sw, ph, pw, dh, dw, oh, ow):
    """(n, c, h, w) -> (n, c*kh*kw, oh*ow) patch matrix.

    A 1x1, stride-1, unpadded kernel's patch matrix is ``x`` itself, so
    that case returns a reshaped view instead of a copy.
    """
    n, c, h, w = x.shape
    if kh == kw == 1 and sh == sw == 1 and ph == pw == 0:
        return x.reshape(n, c, h * w)
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        y0 = i * dh
        for j in range(kw):
            x0 = j * dw
            cols[:, :, i, j] = x[:, :, y0:y0 + sh * oh:sh, x0:x0 + sw * ow:sw]
    return cols.reshape(n, c * kh * kw, oh * ow)


def _col2im(cols, x_shape, kh, kw, sh, sw, ph, pw, dh, dw, oh, ow):
    """Adjoint of :func:`_im2col`: scatter-add patches back onto the image."""
    n, c, h, w = x_shape
    buf = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        y0 = i * dh
        for j in range(kw):
            x0 = j * dw
            buf[:, :, y0:y0 + sh * oh:sh, x0:x0 + sw * ow:sw] += cols[:, :, i, j]
    if ph or pw:
        return buf[:, :, ph:ph + h, pw:pw + w]
    return buf


# ---------------------------------------------------------------------------
# convolution and friends

def conv2d(x, w, b=None, stride=1, pad=0, dilation=1):
    """2-D cross-correlation with stride, zero padding, and dilation."""
    x, w = as_tensor(x), as_tensor(w)
    sh, sw = _pair(stride)
    ph, pw = _pair(pad)
    dh, dw = _pair(dilation)
    if min(sh, sw, dh, dw) < 1 or min(ph, pw) < 0:
        raise ConfigError(
            f"conv2d: invalid attrs stride={stride} pad={pad} dilation={dilation}"
        )
    n, ci, h, iw = x.shape
    co, wci, kh, kw = w.shape
    if ci != wci:
        raise ConfigError(
            f"conv2d: input has {ci} channels but weight expects {wci} "
            f"(input shape {x.shape}, weight shape {w.shape})"
        )
    oh = _conv_out_size(h, kh, sh, ph, dh)
    ow = _conv_out_size(iw, kw, sw, pw, dw)
    if oh < 1 or ow < 1:
        raise ConfigError(
            f"conv2d: kernel {kh}x{kw} (dilation {dh}x{dw}) does not fit input "
            f"{h}x{iw} with pad {ph}x{pw}"
        )

    cols = _im2col(x.data, kh, kw, sh, sw, ph, pw, dh, dw, oh, ow)
    w_mat = w.data.reshape(co, -1)
    out = np.matmul(w_mat, cols).reshape(n, co, oh, ow)
    parents = [x, w]
    if b is not None:
        b = as_tensor(b)
        if b.data.shape != (co,):
            raise ConfigError(
                f"conv2d: bias shape {b.data.shape} != ({co},)"
            )
        out += b.data.reshape(1, co, 1, 1)
        parents.append(b)

    # With stride 1 the input gradient is a correlation of g, padded by
    # d*(k-1) - p, with the flipped kernel (Dumoulin & Visin 2016): im2col
    # over co*k*k rows instead of col2im over ci*k*k, and dense growth
    # layers have co << ci. A negative pad would crop, so that case and
    # strided convs scatter through col2im.
    qh, qw = dh * (kh - 1) - ph, dw * (kw - 1) - pw
    via_gcols = sh == 1 and sw == 1 and qh >= 0 and qw >= 0

    def backward_fn(g):
        g_mat = g.reshape(n, co, oh * ow)
        gw = np.matmul(g_mat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.data.shape)
        if via_gcols:
            w_flip = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(ci, -1)
            gcols = _im2col(g, kh, kw, 1, 1, qh, qw, dh, dw, h, iw)
            gx = np.matmul(w_flip, gcols).reshape(x.data.shape)
        else:
            gcols = np.matmul(w_mat.T, g_mat)
            gx = _col2im(gcols, x.data.shape, kh, kw, sh, sw, ph, pw, dh, dw,
                         oh, ow)
        if len(parents) == 3:
            return gx, gw, g.sum(axis=(0, 2, 3))
        return gx, gw

    return Tensor(out, parents, backward_fn, op="conv2d")


def deconv2d(x, w, stride=2, pad=1):
    """Transposed convolution; output spatial size (h-1)*s - 2p + k."""
    x, w = as_tensor(x), as_tensor(w)
    sh, sw = _pair(stride)
    ph, pw = _pair(pad)
    n, ci, h, iw = x.shape
    wci, co, kh, kw = w.shape
    if ci != wci:
        raise ConfigError(
            f"deconv2d: input has {ci} channels but weight expects {wci} "
            f"(input shape {x.shape}, weight shape {w.shape})"
        )
    oh = (h - 1) * sh - 2 * ph + kh
    ow = (iw - 1) * sw - 2 * pw + kw
    if oh < 1 or ow < 1:
        raise ConfigError(
            f"deconv2d: output size {oh}x{ow} <= 0 for input {h}x{iw}, "
            f"kernel {kh}x{kw}, stride {sh}x{sw}, pad {ph}x{pw}"
        )

    w_mat = w.data.reshape(wci, co * kh * kw)
    x_mat = x.data.reshape(n, ci, h * iw)
    cols = np.matmul(w_mat.T, x_mat)
    out = _col2im(cols, (n, co, oh, ow), kh, kw, sh, sw, ph, pw, 1, 1, h, iw)

    def backward_fn(g):
        gcols = _im2col(g, kh, kw, sh, sw, ph, pw, 1, 1, h, iw)
        gx = np.matmul(w_mat, gcols).reshape(x.data.shape)
        gw = np.matmul(x_mat, gcols.transpose(0, 2, 1)).sum(axis=0).reshape(w.data.shape)
        return gx, gw

    return Tensor(out, (x, w), backward_fn, op="deconv2d")


def maxpool2d(x, kernel=2, stride=None, pad=0):
    """Max pooling; backward routes each gradient to its argmax position.

    The recorded argmax indices are exposed on the result as ``.indices``
    (flat index into the kh*kw window, first maximum on ties).
    """
    x = as_tensor(x)
    kh, kw = _pair(kernel)
    sh, sw = _pair(kernel if stride is None else stride)
    ph, pw = _pair(pad)
    if ph >= kh or pw >= kw:
        raise ConfigError(f"maxpool2d: pad {ph}x{pw} must be < kernel {kh}x{kw}")
    n, c, h, iw = x.shape
    if h + 2 * ph < kh or iw + 2 * pw < kw:
        raise ConfigError(
            f"maxpool2d: window {kh}x{kw} larger than padded input "
            f"{h + 2 * ph}x{iw + 2 * pw}"
        )
    oh = _conv_out_size(h, kh, sh, ph, 1)
    ow = _conv_out_size(iw, kw, sw, pw, 1)

    xp = x.data
    if ph or pw:
        xp = np.pad(xp, ((0, 0), (0, 0), (ph, ph), (pw, pw)),
                    constant_values=-np.inf)
    windows = np.empty((n, c, kh * kw, oh * ow), dtype=x.data.dtype)
    for i in range(kh):
        for j in range(kw):
            windows[:, :, i * kw + j] = xp[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw] \
                .reshape(n, c, oh * ow)
    idx = windows.argmax(axis=2)
    out = np.take_along_axis(windows, idx[:, :, None], axis=2)[:, :, 0] \
        .reshape(n, c, oh, ow)

    def backward_fn(g):
        # one strided add per window tap; overlapping windows accumulate
        tap = idx.reshape(n, c, oh, ow)
        gx = np.zeros((n, c, h + 2 * ph, iw + 2 * pw), dtype=g.dtype)
        for i in range(kh):
            for j in range(kw):
                gx[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw] += g * (tap == i * kw + j)
        return (gx[:, :, ph:ph + h, pw:pw + iw],)

    t = Tensor(out, (x,), backward_fn, op="maxpool2d")
    t.indices = idx.reshape(n, c, oh, ow)
    return t


def resize_matrix(src, dst, dtype=np.float64):
    """Row-stochastic 1-D bilinear interpolation matrix (dst, src).

    Half-pixel-center convention (align-corners off): output sample i maps
    to source coordinate (i + 0.5) * src/dst - 0.5, clamped to the valid
    range.
    """
    coords = (np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5
    coords = np.clip(coords, 0.0, src - 1.0)
    lo = np.floor(coords).astype(np.int64)
    hi = np.minimum(lo + 1, src - 1)
    frac = coords - lo
    m = np.zeros((dst, src), dtype=np.float64)
    rows = np.arange(dst)
    np.add.at(m, (rows, lo), 1.0 - frac)
    np.add.at(m, (rows, hi), frac)
    return m.astype(dtype, copy=False)


def bilinear_resize(x, out_h, out_w):
    """Bilinear interpolation to (out_h, out_w); linear in x."""
    x = as_tensor(x)
    if out_h < 1 or out_w < 1:
        raise ConfigError(f"bilinear_resize: bad target size {out_h}x{out_w}")
    n, c, h, w = x.shape
    ry = resize_matrix(h, out_h, x.data.dtype)
    rx = resize_matrix(w, out_w, x.data.dtype)
    out = np.matmul(np.matmul(ry, x.data), rx.T)

    def backward_fn(g):
        return (np.matmul(np.matmul(ry.T, g), rx),)

    return Tensor(out, (x,), backward_fn, op="bilinear_resize")


def resize_bilinear_array(a, out_h, out_w):
    """Plain-ndarray bilinear resize of (..., h, w); no graph node."""
    ry = resize_matrix(a.shape[-2], out_h, a.dtype)
    rx = resize_matrix(a.shape[-1], out_w, a.dtype)
    return np.matmul(np.matmul(ry, a), rx.T)


def resize_nearest_labels(labels, out_h, out_w):
    """Nearest-neighbor resize for integer label maps (h, w)."""
    h, w = labels.shape
    ys = np.minimum(((np.arange(out_h) + 0.5) * h / out_h).astype(np.int64), h - 1)
    xs = np.minimum(((np.arange(out_w) + 0.5) * w / out_w).astype(np.int64), w - 1)
    return labels[ys[:, None], xs[None, :]]


# ---------------------------------------------------------------------------
# normalization / regularization / glue

class BnState:
    """Running statistics owned by a batch-norm layer."""

    __slots__ = ("mean", "var")

    def __init__(self, channels, dtype=np.float32):
        self.mean = np.zeros(channels, dtype=dtype)
        self.var = np.ones(channels, dtype=dtype)


def batch_norm(x, gamma, beta, state, training, eps=1e-5, momentum=0.9):
    """Per-channel batch normalization over (n, h, w).

    Training mode normalizes with batch statistics and folds them into
    ``state`` as running = momentum * running + (1 - momentum) * batch;
    inference mode normalizes with ``state`` as-is.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    n, c, h, w = x.shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ConfigError(
            f"batch_norm: gamma/beta shapes {gamma.data.shape}/{beta.data.shape} "
            f"do not match {c} channels"
        )
    cshape = (1, c, 1, 1)
    if training:
        mean = x.data.mean(axis=(0, 2, 3))
        xhat = x.data - mean.reshape(cshape)
        var = np.einsum("nchw,nchw->c", xhat, xhat) / (n * h * w)
        state.mean = (momentum * state.mean + (1.0 - momentum) * mean) \
            .astype(state.mean.dtype, copy=False)
        state.var = (momentum * state.var + (1.0 - momentum) * var) \
            .astype(state.var.dtype, copy=False)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat *= inv_std.reshape(cshape)
        a = gamma.data * inv_std
        out = xhat * gamma.data.reshape(cshape)
        out += beta.data.reshape(cshape)
    else:
        mean = state.mean.astype(x.data.dtype, copy=False)
        inv_std = 1.0 / np.sqrt(state.var.astype(x.data.dtype, copy=False) + eps)
        xhat = None  # built only if a backward pass runs
        a = gamma.data * inv_std
        out = x.data * a.reshape(cshape)
        out += (beta.data - mean * a).reshape(cshape)

    def backward_fn(g):
        xh = xhat if training else \
            (x.data - mean.reshape(cshape)) * inv_std.reshape(cshape)
        dgamma = np.einsum("nchw,nchw->c", g, xh)
        dbeta = g.sum(axis=(0, 2, 3))
        gx = g * a.reshape(cshape)
        if training:
            # the batch statistics' own gradient, through dgamma and dbeta
            m = n * h * w
            gx -= (a * dbeta / m).reshape(cshape)
            gx -= xh * (a * dgamma / m).reshape(cshape)
        return gx, dgamma, dbeta

    return Tensor(out, (x, gamma, beta), backward_fn, op="batch_norm")


def relu(x):
    x = as_tensor(x)
    mask = x.data > 0
    # np.maximum rather than where(mask, ...): NaN must stay NaN so a
    # diverged run is caught instead of silently zeroed
    out = np.maximum(x.data, x.data.dtype.type(0))

    def backward_fn(g):
        return (g * mask,)

    return Tensor(out, (x,), backward_fn, op="relu")


def dropout(x, keep_prob, training, rng=None):
    """Inverted dropout: train-time survivors scale by 1/keep_prob."""
    x = as_tensor(x)
    if not 0.0 < keep_prob <= 1.0:
        raise ConfigError(f"dropout: keep_prob {keep_prob} not in (0, 1]")
    if not training or keep_prob == 1.0:
        return x
    if rng is None:
        raise ConfigError("dropout: training mode requires an rng")
    scale = x.data.dtype.type(1.0 / keep_prob)
    mask = (rng.random(x.data.shape) < keep_prob).astype(x.data.dtype) * scale
    out = x.data * mask

    def backward_fn(g):
        return (g * mask,)

    return Tensor(out, (x,), backward_fn, op="dropout")


def concat_channels(xs):
    xs = [as_tensor(t) for t in xs]
    if not xs:
        raise ConfigError("concat_channels: empty input list")
    base = xs[0].shape
    for t in xs[1:]:
        if (t.shape[0],) + t.shape[2:] != (base[0],) + base[2:]:
            raise ConfigError(
                f"concat_channels: shape {t.shape} incompatible with {base} "
                "(batch/height/width must match)"
            )
    if len(xs) == 1:
        return xs[0]
    widths = [t.shape[1] for t in xs]
    out = np.concatenate([t.data for t in xs], axis=1)
    bounds = np.cumsum([0] + widths)

    def backward_fn(g):
        return tuple(g[:, bounds[i]:bounds[i + 1]] for i in range(len(xs)))

    return Tensor(out, xs, backward_fn, op="concat")


def eltwise_add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ConfigError(f"eltwise_add: shapes {a.shape} != {b.shape}")

    def backward_fn(g):
        return g, g

    return Tensor(a.data + b.data, (a, b), backward_fn, op="add")


# ---------------------------------------------------------------------------
# loss

def log_softmax(z):
    """Numerically stable log-softmax over the channel axis of (n, c, h, w)."""
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def softmax_probs(z):
    return np.exp(log_softmax(z))


def softmax_ce_loss(logits, labels, ignore_index=255):
    """Mean pixel-wise cross-entropy over non-ignored pixels.

    Returns a scalar tensor; with every pixel ignored the loss is 0 with
    zero gradient.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels)
    n, c, h, w = logits.shape
    if labels.shape != (n, h, w):
        raise DataError(
            f"softmax_ce_loss: labels shape {labels.shape} != {(n, h, w)}"
        )
    valid = labels != ignore_index
    bad = valid & ((labels < 0) | (labels >= c))
    if bad.any():
        raise DataError(
            f"softmax_ce_loss: label values {sorted(np.unique(labels[bad]))} "
            f"outside [0, {c}) and != ignore_index {ignore_index}"
        )
    count = int(valid.sum())
    dtype = logits.data.dtype
    if count == 0:
        def backward_zero(g):
            return (np.zeros_like(logits.data),)
        return Tensor(np.asarray(0.0, dtype=dtype), (logits,), backward_zero,
                      op="softmax_ce")

    logp = log_softmax(logits.data)
    safe = np.where(valid, labels, 0)
    picked = np.take_along_axis(logp, safe[:, None], axis=1)[:, 0]
    loss = -(picked * valid).sum() / count

    def backward_fn(g):
        grad = np.exp(logp)
        label = safe[:, None]
        np.put_along_axis(grad, label,
                          np.take_along_axis(grad, label, axis=1) - 1.0, axis=1)
        grad *= valid[:, None].astype(dtype) / count
        grad *= g
        return (grad,)

    return Tensor(np.asarray(loss, dtype=dtype), (logits,), backward_fn,
                  op="softmax_ce")
