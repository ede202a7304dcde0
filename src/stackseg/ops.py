"""Primitive differentiable operations on rank-4 tensors.

Convolution is lowered to batched GEMMs by three array functions: the
forward correlation, its input gradient and its weight gradient. Stride-1
convs with a narrow output run as one GEMM call over a read-only tap
view of the padded input, with one axis per kernel tap axis, summed over
the taps, and their weight gradient is one GEMM call against the same
view; strided, 1x1 and wide convs go through patch matrices (im2col).
Every stride-1 conv with a kernel larger than 1x1 and a pad no wider than
the dilated kernel copies its input gradient's patch matrix from the tap
view of the padded output gradient. The transposed conv is the adjoint
of the conv, so its input gradient is the correlation and its weight
gradient the correlation's weight gradient, with input and output
swapped. Its forward is the correlation's input gradient: for a narrow
output and a stride that divides the kernel, the s*s output phases are
stride-1 correlations over one backward-stepping tap view, one GEMM
call in all; otherwise a col2im scatter. ``tests/reference.py`` keeps
direct-loop versions of both ops as independent oracles. Every op takes
its inputs as :class:`Tensor` nodes; the network's only leaves are its
input batch, made by ``StackedNet.forward``, and its weights, made by
``Param.as_tensor``. All ops follow the dtype of their inputs, so the
same code runs in float32 for training and float64 for gradient checks.

A training node keeps no activation-sized array the graph does not
already hold (its parents), unless recomputing it would cost more than
keeping it: batch norm recomputes ``xhat`` from its per-channel
statistics, ReLU its mask and max pooling its window maxima, each from
the parents and with the forward's own expressions, so gradients are
bitwise those of kept copies. Still kept: the patch matrix of a strided,
1x1 or wide conv (or of the transposed conv's gradient), dropout's bool
mask, and cross-entropy's log-probabilities, which cost less to keep
than to recompute for every loss head; the heads of one batch share one
label preparation (:func:`ce_targets`). A channel concatenation is one
:func:`concat_channels` node, a view of the buffer its caller wrote the
parts into (in the network, the one a dense block writes its input parts
and layer outputs into), so none copies.

Layout conventions:
  activations  (n, c, h, w)
  conv weights (out_c, in_c, kh, kw), cross-correlation semantics
  deconv weights (in_c, out_c, kh, kw); ``deconv2d(y, w)`` is the exact
  adjoint of ``conv2d(x, w)`` for a shared weight array
Stride, padding and dilation are scalars, shared by both spatial axes.
"""
from __future__ import annotations

import functools
from itertools import accumulate, product
from typing import NamedTuple

import numpy as np

from .data import IGNORE_INDEX
from .errors import ConfigError, DataError
from .tensor import Tensor


def _check_rank4(op, **tensors):
    """ConfigError naming the shape of any tensor that is not rank 4."""
    for name, t in tensors.items():
        if t.data.ndim != 4:
            raise ConfigError(
                f"{op}: {name} must be rank 4, got shape {t.shape}")


def _conv_out_size(size, k, s, p, d):
    eff = (k - 1) * d + 1
    return (size + 2 * p - eff) // s + 1


def _tap(a, i, j, s, oh, ow):
    """The (oh, ow) view of ``a`` whose entry (y, x) is ``a[:, :, i + s*y,
    j + s*x]``: one kernel tap's input at every output position."""
    return a[:, :, i:i + s * oh:s, j:j + s * ow:s]


def _pad(x, ph, pw, fill=0):
    """(n, c, h, w) -> (n, c, h + 2ph, w + 2pw), the border set to ``fill``;
    ``x`` itself when there is no border.

    One filled buffer and a slice write: a fraction of ``np.pad``'s cost
    on the small arrays of the mini profile.
    """
    if ph == pw == 0:
        return x
    n, c, h, w = x.shape
    shape = (n, c, h + 2 * ph, w + 2 * pw)
    xp = np.zeros(shape, x.dtype) if fill == 0 else np.full(shape, fill, x.dtype)
    _tap(xp, ph, pw, 1, h, w)[...] = x
    return xp


# ---------------------------------------------------------------------------
# patch-matrix lowering

def _im2col(x, kh, kw, s, d, oh, ow):
    """Padded (n, c, h, w) -> (n, c*kh*kw, oh*ow) patch matrix.

    A 1x1 stride-1 kernel's patch matrix is ``x`` itself, so that case
    returns a reshaped view instead of a copy.
    """
    n, c = x.shape[:2]
    if kh * kw == 1 and s == 1:
        return x.reshape(n, c, oh * ow)
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i, j in product(range(kh), range(kw)):
        cols[:, :, i, j] = _tap(x, i * d, j * d, s, oh, ow)
    return cols.reshape(n, c * kh * kw, oh * ow)


def _col2im(cols, shape, kh, kw, s, d, oh, ow):
    """Adjoint of :func:`_im2col`: scatter-add patches onto a zero padded
    image of ``shape``."""
    n, c = shape[:2]
    buf = np.zeros(shape, dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    for i, j in product(range(kh), range(kw)):
        _tap(buf, i * d, j * d, s, oh, ow)[...] += cols[:, :, i, j]
    return buf


def _patch_gemm(x, w, s, ph, pw, d, oh, ow):
    """Correlate (n, c, h, w) ``x`` with ``w``, padded by ``ph`` rows and
    ``pw`` columns, as one GEMM over its patch matrix: (out, cols)."""
    cols = _im2col(_pad(x, ph, pw), w.shape[2], w.shape[3], s, d, oh, ow)
    out = np.matmul(w.reshape(len(w), -1), cols)
    return out.reshape(len(x), len(w), oh, ow), cols


# ---------------------------------------------------------------------------
# convolution and friends

# Widest output for which a stride-1 k>1 conv takes the tap-view route, and
# a deconv whose stride divides its kernel the phase route.
# Measured crossover (float32, 2 BLAS threads; forward and gw ms, im2col ->
# tap view; n=1 unless noted; gw is the fastest of 4 runs of 7-9 calls,
# the kept patch matrix's GEMM against the batched per-tap GEMM):
#   ci->co   size  forward        gw
#   40->8    16    0.70 -> 0.27   0.22 -> 0.19   (n=4, mini growth conv)
#   192->48  80    25.3 -> 10.4   8.2 -> 10.4    (full growth conv)
#   512->128 40    21.0 -> 16.3   9.8 -> 11.4
#   384->192 80    96.2 -> 62.5   40.1 -> 45.4   (full skip4)
#   1536->192 20   25.1 -> 24.4   15.5 -> 17.3
#   2048->256 20   31.1 -> 39.6   21.8 -> 24.2
#   1024->1024 20  48.0 -> 82.1   43.4 -> 48.2   (full entry)
# Slices copy the weights per call (co*ci*k^2) where im2col copies the
# input k^2 times (ci*k^2*h*w), and their per-tap GEMMs are co rows tall,
# so wide outputs at small sizes lose; the same holds for the gw's per-tap
# GEMMs, which the forward's gain outweighs on the rows above 1536->192
# (where forward plus gw comes out ~1 ms slower than im2col). The
# tap view copies no input, but its k^2 products (n, k^2, co, oh*Wp) are
# all written out before the sum, so at 384->192 80px it takes 15-20%
# longer than adding each tap's product as it comes; that is the price of
# one GEMM call per conv.
# The 4x4/2/1 deconv forward (ms, col2im -> phases, the same threshold):
#   ci->co     size    forward
#   32->32     4->8    0.21 -> 0.10   (n=4, mini up1)
#   24->24     8->16   0.18 -> 0.09   (n=2, mini up2)
#   192->192   40->80  19.2 -> 17.4
#   384->384   20->40  15.2 -> 14.8
#   768->768   40->80  196 -> 235     (full up2)
#   1024->1024 20->40  99.8 -> 141    (full up1)
_SLICE_MAX_CO = 192


def _pad_flat(x, ph, pw):
    """Zero-pad (n, c, h, w) by ph rows above, ph + 1 below and pw columns
    each side; return it flattened to (n, c, Hp*Wp), and Wp.

    The extra row lets a tap's window run past the bottom-right corner by
    up to Wp - 1 elements without leaving the buffer.
    """
    n, c, h, w = x.shape
    wp = w + 2 * pw
    xp = np.zeros((n, c, h + 2 * ph + 1, wp), dtype=x.dtype)
    _tap(xp, ph, pw, 1, h, w)[...] = x
    return xp.reshape(n, c, -1), wp


def _tap_view(xf, start, rows, cols, span):
    """Read-only (n, kh, kw, c, span) view of ``xf`` from :func:`_pad_flat`
    with one axis per kernel tap axis: for ``rows`` = (kh, row_step) and
    ``cols`` = (kw, col_step), entry [b, t, u, ch, e] is ``xf[b, ch, start
    + t*row_step + u*col_step + e]``. A negative step runs the taps
    backwards.

    Built over ``xf``'s buffer with the ndarray constructor, which is what
    ``np.lib.stride_tricks.as_strided`` does, at a fifth of its ~5 us per
    call: the mini profile builds ~250 of these per image.
    """
    (kh, sh), (kw, sw) = rows, cols
    reach_h, reach_w = (kh - 1) * sh, (kw - 1) * sw
    assert start + min(reach_h, 0) + min(reach_w, 0) >= 0
    assert start + max(reach_h, 0) + max(reach_w, 0) + span <= xf.shape[2]
    n, c = xf.shape[:2]
    sn, sc, item = xf.strides
    view = np.ndarray((n, kh, kw, c, span), xf.dtype, xf, start * item,
                      (sn, sh * item, sw * item, sc, item))
    view.flags.writeable = False
    return view


def _tap_sum(w_taps, view):
    """``sum_t w_taps[t] @ view[:, t]`` over the tap axes: one batched GEMM
    call and one reduction, (n, rows, span). numpy reduces a non-inner
    axis one slice after another, so the taps add in row-major order."""
    out = np.matmul(w_taps, view)
    return out.reshape(len(out), -1, *out.shape[-2:]).sum(axis=1)


def _correlate(x, w, s, p, d):
    """Forward of :func:`conv2d` on arrays, without bias: (out, cols).

    ``cols`` is the patch matrix the weight gradient reuses, or None when
    the output came from tap slices.
    """
    n, _, h, iw = x.shape
    co, _, kh, kw = w.shape
    oh, ow = _conv_out_size(h, kh, s, p, d), _conv_out_size(iw, kw, s, p, d)
    if s == 1 and kh * kw > 1 and co <= _SLICE_MAX_CO:
        xf, wp = _pad_flat(x, p, p)
        view = _tap_view(xf, 0, (kh, d * wp), (kw, d), oh * wp)
        out = _tap_sum(np.ascontiguousarray(w.transpose(2, 3, 0, 1)), view)
        return out.reshape(n, co, oh, wp)[:, :, :, :ow], None
    return _patch_gemm(x, w, s, p, p, d, oh, ow)


def _correlate_gx(g, w, x_shape, s, p, d):
    """Input gradient of :func:`_correlate`: ``g`` (n, co, oh, ow) mapped
    back to an array of ``x_shape``.

    With stride 1 it is a correlation of ``g``, padded by q = d*(k-1) - p
    per axis (kernels may be non-square), with the flipped kernel (Dumoulin
    & Visin 2016): a GEMM over co*k*k patch rows instead of a col2im over
    ci*k*k, and dense growth layers have co << ci. For a kernel larger
    than 1x1 the patch matrix is copied from the tap view of the padded
    ``g``, so each (co, tap) row is one contiguous run of h*Wp values; the
    K order (co, i, j) is that of im2col, and the last Wp - w columns of
    the product are dropped. A 1x1 kernel's patch matrix is ``g`` itself.
    A negative q would crop, so that case and strided convs scatter
    through col2im.
    """
    n, co, oh, ow = g.shape
    ci, kh, kw = w.shape[1:]
    h, iw = x_shape[2:]
    qh, qw = d * (kh - 1) - p, d * (kw - 1) - p
    if s == 1 and qh >= 0 and qw >= 0:
        w_flip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        if kh * kw == 1:
            return _patch_gemm(g, w_flip, 1, 0, 0, 1, h, iw)[0]
        gf, wp = _pad_flat(g, qh, qw)
        cols = np.empty((n, co, kh, kw, h * wp), dtype=g.dtype)
        cols[...] = _tap_view(gf, 0, (kh, d * wp), (kw, d), h * wp) \
            .transpose(0, 3, 1, 2, 4)
        out = np.matmul(w_flip.reshape(ci, -1), cols.reshape(n, -1, h * wp))
        return out.reshape(n, ci, h, wp)[:, :, :, :iw]
    gcols = np.matmul(w.reshape(co, -1).T, g.reshape(n, co, oh * ow))
    buf = _col2im(gcols, (n, ci, h + 2 * p, iw + 2 * p), kh, kw, s, d, oh, ow)
    return _tap(buf, p, p, 1, h, iw)


def _correlate_gw(g, x, cols, w_shape, s, p, d):
    """Weight gradient of :func:`_correlate`: one GEMM against the kept
    patch matrix ``cols`` or, after tap slices (``cols`` None), one
    batched GEMM against the forward's tap view.

    The tap route zero-extends ``g`` to the padded width Wp once, so its
    (co, oh*Wp) rows line up with every tap's slice of the re-padded
    input; tap (i, j)'s gradient is that row block times the slice
    transposed, summed over the batch. The zero columns cancel the
    slices' wrap-around, and no copy of ``g`` per tap is made.
    """
    n, co, oh, ow = g.shape
    if cols is not None:
        return np.matmul(g.reshape(n, co, oh * ow), cols.transpose(0, 2, 1)) \
            .sum(axis=0).reshape(w_shape)
    kh, kw = w_shape[2:]
    xf, wp = _pad_flat(x, p, p)
    span = oh * wp
    g_ext = np.zeros((n, co, oh, wp), dtype=g.dtype)
    g_ext[:, :, :, :ow] = g
    view = _tap_view(xf, 0, (kh, d * wp), (kw, d), span)
    gw = np.matmul(g_ext.reshape(n, 1, 1, co, span), view.swapaxes(-1, -2))
    return gw.sum(axis=0).transpose(2, 3, 0, 1)


def _phase_correlate(x, w, s, p, oh, ow):
    """Forward of :func:`deconv2d` for a stride that divides the kernel.

    Output row ``Y = r + s*m`` of the uncropped map takes kernel rows
    ``i = r + s*t`` from input row ``m - t``, and likewise for columns, so
    each of the s*s phases (r, c) is a (kh/s)x(kw/s) stride-1 correlation
    of the input padded by kh/s - 1 rows and kw/s - 1 columns. The tap
    axes step backwards, which adds each output's taps in increasing
    (i, j) order, as :func:`_col2im` does. All phases share the view, so
    their weights stack into one (s*s*co)-row GEMM per tap; one strided
    write interleaves the phases and the pad is cropped as a view.
    """
    n, ci, h, iw = x.shape
    co, kh, kw = w.shape[1:]
    th, tw = kh // s, kw // s
    xf, wp = _pad_flat(x, th - 1, tw - 1)
    mh, mw = h + th - 1, iw + tw - 1  # rows and columns of one phase
    view = _tap_view(xf, (th - 1) * wp + tw - 1, (th, -wp), (tw, -1),
                     mh * wp)
    # w_taps[t, u, (r, c, o)] = w[:, o, r + s*t, c + s*u], each tap's
    # matrix a transposed view as in the col2im GEMM: BLAS adds over ci in
    # another order for a row-major one
    w_taps = w.reshape(ci, co, th, s, tw, s).transpose(2, 4, 0, 3, 5, 1)
    w_taps = np.ascontiguousarray(w_taps).reshape(th, tw, ci, -1)
    phases = _tap_sum(w_taps.swapaxes(2, 3), view)
    full = np.empty((n, co, mh, s, mw, s), dtype=phases.dtype)
    full[...] = phases.reshape(n, s, s, co, mh, wp)[..., :mw] \
        .transpose(0, 3, 4, 1, 5, 2)
    return full.reshape(n, co, mh * s, mw * s)[:, :, p:p + oh, p:p + ow]


def conv2d(x, w, b=None, stride=1, pad=0, dilation=1):
    """2-D cross-correlation with stride, zero padding, and dilation.

    Two forward routes give the same map up to summation order:

    - **Tap slices** (stride 1, kernel larger than 1x1, ``co <=
      _SLICE_MAX_CO``). ``x`` is padded once and flattened to ``xf`` of
      shape (n, ci, Hp*Wp); tap (i, j) is then the contiguous slice
      starting at ``i*d*Wp + j*d``. A read-only view holds every tap's
      slice, (n, kh, kw, ci, oh*Wp), so one matmul of the (kh, kw, co,
      ci) weight taps against it gives each tap's product, and a sum over
      the tap axes, in row-major order, gives ``out = sum_ij W[:, :, i,
      j] @ slice_ij`` at width Wp, of which the last ``Wp - ow`` columns
      are dropped. Backward re-pads ``x`` and reads the same view: the
      weight gradient is one matmul of ``g``, zero-extended to width Wp,
      against each tap's slice, so nothing but the parents outlives the
      forward (the kn2row/MEC family: Vasudevan et al. 2017, arXiv
      1704.04428; Cho & Brand 2017, arXiv 1706.06873).
    - **im2col** (everything else: strided, 1x1 and wide convs). A patch
      matrix of k^2 shifted views, kept for the weight gradient; for an
      unpadded stride-1 1x1 kernel it is a view of ``x``.

    The input gradient does not depend on the forward's route: for
    stride 1 and a pad of at most d*(k-1) it correlates ``g`` with the
    flipped kernel, its patch matrix copied from the tap view of the
    padded ``g``; otherwise it scatters through col2im (see
    :func:`_correlate_gx`). The crossover table sits beside
    ``_SLICE_MAX_CO``.
    """
    _check_rank4("conv2d", input=x, weight=w)
    if stride < 1 or dilation < 1 or pad < 0:
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
    if min(_conv_out_size(h, kh, stride, pad, dilation),
           _conv_out_size(iw, kw, stride, pad, dilation)) < 1:
        raise ConfigError(
            f"conv2d: kernel {kh}x{kw} (dilation {dilation}) does not fit "
            f"input {h}x{iw} with pad {pad}"
        )

    out, cols = _correlate(x.data, w.data, stride, pad, dilation)
    parents = [x, w]
    if b is not None:
        if b.data.shape != (co,):
            raise ConfigError(
                f"conv2d: bias shape {b.data.shape} != ({co},)"
            )
        out += b.data.reshape(1, co, 1, 1)
        parents.append(b)

    def backward_fn(g):
        gw = _correlate_gw(g, x.data, cols, w.data.shape, stride, pad, dilation)
        gx = _correlate_gx(g, w.data, x.data.shape, stride, pad, dilation)
        if len(parents) == 3:
            return gx, gw, g.sum(axis=(0, 2, 3))
        return gx, gw

    return Tensor(out, parents, backward_fn, op="conv2d")


def deconv2d(x, w, stride=2, pad=1):
    """Transposed convolution; output spatial size (h-1)*s - 2p + k.

    It is the adjoint of :func:`conv2d` with the same weights, so its
    forward is the conv's input gradient, and its input and weight
    gradients are the conv's forward and weight gradient, with ``x`` in
    the role of the conv's output gradient.

    Two forward routes give the same map, bitwise for the network's
    float32 4x4/2/1 upsamplers:

    - **Phases** (a stride that divides both kernel sides, ``co <=
      _SLICE_MAX_CO``): the s*s output phases are stride-1 correlations
      of ``x`` over one backward-stepping tap view, all in one matmul,
      interleaved by one strided write (sub-pixel convolution: Shi et
      al. 2016, arXiv 1609.07009). See :func:`_phase_correlate`.
    - **Input gradient** (wide outputs and strides that do not divide the
      kernel): :func:`_correlate_gx`, which for a stride above 1 is one
      GEMM to a patch matrix scattered onto the padded output by col2im.
    """
    _check_rank4("deconv2d", input=x, weight=w)
    if stride < 1 or pad < 0:
        raise ConfigError(f"deconv2d: invalid attrs stride={stride} pad={pad}")
    n, ci, h, iw = x.shape
    wci, co, kh, kw = w.shape
    if ci != wci:
        raise ConfigError(
            f"deconv2d: input has {ci} channels but weight expects {wci} "
            f"(input shape {x.shape}, weight shape {w.shape})"
        )
    oh = (h - 1) * stride - 2 * pad + kh
    ow = (iw - 1) * stride - 2 * pad + kw
    if oh < 1 or ow < 1:
        raise ConfigError(
            f"deconv2d: output size {oh}x{ow} <= 0 for input {h}x{iw}, "
            f"kernel {kh}x{kw}, stride {stride}, pad {pad}"
        )

    if kh % stride == kw % stride == 0 and co <= _SLICE_MAX_CO:
        out = _phase_correlate(x.data, w.data, stride, pad, oh, ow)
    else:
        out = _correlate_gx(x.data, w.data, (n, co, oh, ow), stride, pad, 1)

    def backward_fn(g):
        gx, cols = _correlate(g, w.data, stride, pad, 1)
        return gx, _correlate_gw(x.data, g, cols, w.data.shape, stride, pad, 1)

    return Tensor(out, (x, w), backward_fn, op="deconv2d")


def maxpool2d(x, kernel=2, stride=None, pad=0):
    """Max pooling as a running ``np.maximum`` over the window's strided
    taps (padding counts as -inf).

    Backward routes each gradient to the first tap, in row-major order,
    that equals the window's maximum: the argmax convention, with a NaN
    window routed to its first NaN. Backward pools ``x`` again for the
    maxima, so the node keeps neither them nor an index array.
    """
    _check_rank4("maxpool2d", input=x)
    s = kernel if stride is None else stride
    if s < 1 or not 0 <= pad < kernel:
        raise ConfigError(
            f"maxpool2d: invalid attrs kernel={kernel} stride={s} pad={pad}")
    n, c, h, iw = x.shape
    if min(h, iw) + 2 * pad < kernel:
        raise ConfigError(
            f"maxpool2d: window {kernel}x{kernel} larger than padded input "
            f"{h + 2 * pad}x{iw + 2 * pad}"
        )
    oh = _conv_out_size(h, kernel, s, pad, 1)
    ow = _conv_out_size(iw, kernel, s, pad, 1)
    taps = list(product(range(kernel), range(kernel)))

    def pool():
        """(padded x, output); backward calls it again rather than keep
        either."""
        xp = _pad(x.data, pad, pad, -np.inf)
        out = _tap(xp, 0, 0, s, oh, ow).copy()
        for i, j in taps[1:]:
            # the tap first: np.maximum returns its second argument on a
            # tie (0.0 vs -0.0), so the earlier tap wins as for argmax
            np.maximum(_tap(xp, i, j, s, oh, ow), out, out=out)
        return xp, out

    def backward_fn(g):
        xp, out = pool()
        gx = np.zeros(xp.shape, dtype=g.dtype)

        def route(match, found):
            for i, j in taps:
                eq = match(_tap(xp, i, j, s, oh, ow))
                hit = eq > found  # a match, and no earlier tap matched
                found |= eq
                _tap(gx, i, j, s, oh, ow)[...] += g * hit
            return found

        found = route(lambda t: t == out, np.zeros(out.shape, dtype=bool))
        if not found.all():  # a NaN maximum equals no tap: take the first NaN
            route(np.isnan, found)
        return (_tap(gx, pad, pad, 1, h, iw),)

    return Tensor(pool()[1], (x,), backward_fn, op="maxpool2d")


# train-mini2 uses 46 matrices and infer-mini 20, 58 between them
RESIZE_CACHE_SIZE = 128


@functools.lru_cache(maxsize=RESIZE_CACHE_SIZE)
def resize_matrix(src, dst, dtype=np.float64):
    """Row-stochastic 1-D bilinear interpolation matrix (dst, src).

    Half-pixel-center convention (align-corners off): output sample i maps
    to source coordinate (i + 0.5) * src/dst - 0.5, clamped to the valid
    range. Memoized on the arguments, so the result is read-only.
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
    m = m.astype(dtype, copy=False)
    m.flags.writeable = False
    return m


def bilinear_resize(x, out_h, out_w):
    """Bilinear interpolation to (out_h, out_w); linear in x."""
    if out_h < 1 or out_w < 1:
        raise ConfigError(f"bilinear_resize: bad target size {out_h}x{out_w}")
    n, c, h, w = x.shape
    dtype = x.data.dtype

    def backward_fn(g):
        ry = resize_matrix(h, out_h, dtype)
        rx = resize_matrix(w, out_w, dtype)
        return (np.matmul(np.matmul(ry.T, g), rx),)

    return Tensor(resize_bilinear_array(x.data, out_h, out_w), (x,),
                  backward_fn, op="bilinear_resize")


def resize_bilinear_array(a, out_h, out_w):
    """Plain-ndarray bilinear resize of floating (..., h, w); no graph
    node. An integer array would truncate the interpolation weights."""
    if not np.issubdtype(a.dtype, np.floating):
        raise ConfigError(f"resize_bilinear_array: dtype {a.dtype} is not "
                          "floating")
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

BN_EPS = 1e-5
BN_MOMENTUM = 0.9  # weight of the old running statistics


def batch_norm(x, gamma, beta, running_mean, running_var, training):
    """Per-channel batch normalization over (n, h, w), with BN_EPS added
    to the variance.

    Training mode normalizes with batch statistics and folds them into
    the running arrays in place, as running = BN_MOMENTUM * running +
    (1 - BN_MOMENTUM) * batch; inference mode normalizes with the running
    arrays as they are. Either way the node keeps only the per-channel
    ``mean`` and ``inv_std`` it used; backward recomputes ``xhat`` from
    ``x`` with the forward's own expressions, so it is bitwise the value
    the forward normalized with.
    """
    _check_rank4("batch_norm", input=x)
    n, c, h, w = x.shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ConfigError(
            f"batch_norm: gamma/beta shapes {gamma.data.shape}/{beta.data.shape} "
            f"do not match {c} channels"
        )
    cshape = (1, c, 1, 1)
    if training:
        mean = x.data.mean(axis=(0, 2, 3))
        out = x.data - mean.reshape(cshape)
        var = np.einsum("nchw,nchw->c", out, out) / (n * h * w)
        running_mean *= BN_MOMENTUM
        running_mean += (1.0 - BN_MOMENTUM) * mean
        running_var *= BN_MOMENTUM
        running_var += (1.0 - BN_MOMENTUM) * var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        out *= inv_std.reshape(cshape)
        out *= gamma.data.reshape(cshape)
        out += beta.data.reshape(cshape)
    else:
        # a copy: a later training forward may update the running arrays
        # before this node's backward reads ``mean``
        mean = running_mean.astype(x.data.dtype)
        inv_std = 1.0 / np.sqrt(running_var.astype(x.data.dtype, copy=False)
                                 + BN_EPS)
        a = gamma.data * inv_std
        out = x.data * a.reshape(cshape)
        out += (beta.data - mean * a).reshape(cshape)

    def backward_fn(g):
        xhat = (x.data - mean.reshape(cshape)) * inv_std.reshape(cshape)
        a = gamma.data * inv_std
        dgamma = np.einsum("nchw,nchw->c", g, xhat)
        dbeta = g.sum(axis=(0, 2, 3))
        gx = g * a.reshape(cshape)
        if training:
            # the batch statistics' own gradient, through dgamma and dbeta
            m = n * h * w
            gx -= (a * dbeta / m).reshape(cshape)
            xhat *= (a * dgamma / m).reshape(cshape)
            gx -= xhat
        return gx, dgamma, dbeta

    return Tensor(out, (x, gamma, beta), backward_fn, op="batch_norm")


def relu(x):
    """max(x, 0); backward passes ``g`` where ``x > 0``, read from the
    parent rather than a kept mask."""
    # np.maximum rather than where(mask, ...): NaN must stay NaN so a
    # diverged run is caught instead of silently zeroed
    out = np.maximum(x.data, x.data.dtype.type(0))

    def backward_fn(g):
        return (g * (x.data > 0),)

    return Tensor(out, (x,), backward_fn, op="relu")


def dropout(x, keep_prob, training, rng=None):
    """Inverted dropout: train-time survivors scale by 1/keep_prob."""
    if not 0.0 < keep_prob <= 1.0:
        raise ConfigError(f"dropout: keep_prob {keep_prob} not in (0, 1]")
    if not training or keep_prob == 1.0:
        return x
    if rng is None:
        raise ConfigError("dropout: training mode requires an rng")
    scale = x.data.dtype.type(1.0 / keep_prob)
    # kept as bool (a quarter of float32's bytes) and scaled where used
    keep = rng.random(x.data.shape) < keep_prob
    out = x.data * (keep * scale)

    def backward_fn(g):
        return (g * (keep * scale),)

    return Tensor(out, (x,), backward_fn, op="dropout")


def concat_channels(xs, buf):
    """The channel concatenation of ``xs`` as one node over the buffer
    its caller filled; backward slices the gradient back into parts.

    The caller has already written each part at its channel offset of
    ``buf``, so nothing is checked or copied: the node's data is the view
    ``buf[:, :c]`` of the parts' total width ``c``. Dense blocks grow one
    buffer this way instead of copying the running feature at every
    layer.
    """
    bounds = [0, *accumulate(t.shape[1] for t in xs)]

    def backward_fn(g):
        return tuple(g[:, a:b] for a, b in zip(bounds, bounds[1:]))

    return Tensor(buf[:, :bounds[-1]], xs, backward_fn, op="concat")


def eltwise_add(a, b):
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


class CETargets(NamedTuple):
    """Label map prepared once for every :func:`softmax_ce_loss` head that
    scores it: the valid (non-ignored) pixels, their count, and each
    pixel's flat index into a C-ordered (n, num_classes, h, w) array,
    class 0 where the pixel is ignored."""
    valid: np.ndarray
    count: int
    index: np.ndarray
    num_classes: int


def ce_targets(labels, num_classes, ignore_index=IGNORE_INDEX):
    """Check an integer (n, h, w) label map against ``num_classes`` and
    prepare it for :func:`softmax_ce_loss`; a ``DataError`` names any bad
    shape, dtype or value."""
    labels = np.asarray(labels)
    if labels.ndim != 3:
        raise DataError(f"ce_targets: labels must be (n, h, w), got shape "
                        f"{labels.shape}")
    if not np.can_cast(labels.dtype, np.intp, "same_kind"):
        raise DataError(
            f"ce_targets: labels must be integers, not {labels.dtype}")
    valid = labels != ignore_index
    bad = valid & ((labels < 0) | (labels >= num_classes))
    if bad.any():
        raise DataError(
            f"ce_targets: label values {sorted(np.unique(labels[bad]))} "
            f"outside [0, {num_classes}) and != ignore_index {ignore_index}"
        )
    n, h, w = labels.shape
    hw = h * w
    # widened before the multiply, as uint8 labels would wrap
    index = np.where(valid, labels, 0).astype(np.intp, casting="same_kind")
    index *= hw
    index += np.arange(0, n * num_classes * hw, num_classes * hw,
                       dtype=np.intp)[:, None, None]
    index += np.arange(hw, dtype=np.intp).reshape(h, w)
    return CETargets(valid, int(valid.sum()), index, num_classes)


def softmax_ce_loss(logits, targets):
    """Mean pixel-wise cross-entropy over the non-ignored pixels of
    ``targets``, from :func:`ce_targets`.

    Returns a scalar tensor; with every pixel ignored the loss is 0 with
    zero gradient. The node keeps the log-probabilities of its forward,
    and backward starts from their exponential.
    """
    n, c, h, w = logits.shape
    if targets.valid.shape != (n, h, w) or targets.num_classes != c:
        raise DataError(
            f"softmax_ce_loss: targets for {targets.num_classes} classes at "
            f"{targets.valid.shape} do not match logits {logits.shape}")
    dtype = logits.data.dtype
    if targets.count == 0:
        def backward_zero(g):
            return (np.zeros_like(logits.data),)
        return Tensor(np.asarray(0.0, dtype=dtype), (logits,), backward_zero,
                      op="softmax_ce")

    logp = log_softmax(logits.data)
    picked = logp.reshape(-1)[targets.index]
    loss = -(picked * targets.valid).sum() / targets.count

    def backward_fn(g):
        grad = np.ascontiguousarray(np.exp(logp))
        grad.reshape(-1)[targets.index] -= 1.0
        grad *= targets.valid[:, None].astype(dtype) / targets.count
        grad *= g
        return (grad,)

    return Tensor(np.asarray(loss, dtype=dtype), (logits,), backward_fn,
                  op="softmax_ce")
