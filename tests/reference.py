"""Direct-loop reference implementations of the lowered ops.

These are deliberately naive (quadruple loops, no patch matrices) so they
can serve as independent oracles for the GEMM-based versions in
:mod:`stackseg.ops`. Tiny inputs only.
"""
from __future__ import annotations

import numpy as np


def conv2d_forward(x, w, b=None, stride=1, pad=0, dilation=1):
    sh = sw = stride
    ph = pw = pad
    dh = dw = dilation
    n, ci, h, iw = x.shape
    co, _, kh, kw = w.shape
    oh = (h + 2 * ph - ((kh - 1) * dh + 1)) // sh + 1
    ow = (iw + 2 * pw - ((kw - 1) * dw + 1)) // sw + 1
    out = np.zeros((n, co, oh, ow), dtype=x.dtype)
    for b_i in range(n):
        for o in range(co):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for c in range(ci):
                        for ky in range(kh):
                            iy = oy * sh - ph + ky * dh
                            if not 0 <= iy < h:
                                continue
                            for kx in range(kw):
                                ix = ox * sw - pw + kx * dw
                                if 0 <= ix < iw:
                                    acc += x[b_i, c, iy, ix] * w[o, c, ky, kx]
                    if b is not None:
                        acc += b[o]
                    out[b_i, o, oy, ox] = acc
    return out


def deconv2d_forward(x, w, stride=2, pad=1):
    """Scatter each input pixel through the kernel onto the output."""
    sh = sw = stride
    ph = pw = pad
    n, ci, h, iw = x.shape
    _, co, kh, kw = w.shape
    oh = (h - 1) * sh - 2 * ph + kh
    ow = (iw - 1) * sw - 2 * pw + kw
    out = np.zeros((n, co, oh, ow), dtype=x.dtype)
    for b_i in range(n):
        for c in range(ci):
            for iy in range(h):
                for ix in range(iw):
                    v = x[b_i, c, iy, ix]
                    for o in range(co):
                        for ky in range(kh):
                            oy = iy * sh - ph + ky
                            if not 0 <= oy < oh:
                                continue
                            for kx in range(kw):
                                ox = ix * sw - pw + kx
                                if 0 <= ox < ow:
                                    out[b_i, o, oy, ox] += v * w[c, o, ky, kx]
    return out


def maxpool2d_forward(x, kernel=2, stride=None, pad=0):
    kh = kw = kernel
    sh = sw = kernel if stride is None else stride
    n, c, h, iw = x.shape
    oh = (h + 2 * pad - kh) // sh + 1
    ow = (iw + 2 * pad - kw) // sw + 1
    out = np.full((n, c, oh, ow), -np.inf, dtype=x.dtype)
    for b_i in range(n):
        for ch in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    for ky in range(kh):
                        iy = oy * sh - pad + ky
                        if not 0 <= iy < h:
                            continue
                        for kx in range(kw):
                            ix = ox * sw - pad + kx
                            if 0 <= ix < iw:
                                v = x[b_i, ch, iy, ix]
                                if v > out[b_i, ch, oy, ox]:
                                    out[b_i, ch, oy, ox] = v
    return out


def maxpool2d_backward(x, g, kernel=2, stride=None, pad=0):
    """Route each output gradient to its window's first maximum.

    Windows are scanned row-major; padding counts as -inf, so it never
    wins against a finite input.
    """
    kh = kw = kernel
    sh = sw = kernel if stride is None else stride
    n, c, h, iw = x.shape
    _, _, oh, ow = g.shape
    gx = np.zeros_like(x)
    for b_i in range(n):
        for ch in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    best, at = None, None
                    for ky in range(kh):
                        for kx in range(kw):
                            iy = oy * sh - pad + ky
                            ix = ox * sw - pad + kx
                            inside = 0 <= iy < h and 0 <= ix < iw
                            v = x[b_i, ch, iy, ix] if inside else -np.inf
                            if best is None or v > best:
                                best, at = v, (iy, ix) if inside else None
                    if at is not None:
                        gx[b_i, ch, at[0], at[1]] += g[b_i, ch, oy, ox]
    return gx


def bilinear_resize_forward(x, out_h, out_w):
    """Per-pixel half-pixel-center bilinear interpolation."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, out_h, out_w), dtype=x.dtype)
    for oy in range(out_h):
        sy = min(max((oy + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
        y0 = int(np.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for ox in range(out_w):
            sx = min(max((ox + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            x0 = int(np.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            out[:, :, oy, ox] = (
                (1 - fy) * (1 - fx) * x[:, :, y0, x0]
                + (1 - fy) * fx * x[:, :, y0, x1]
                + fy * (1 - fx) * x[:, :, y1, x0]
                + fy * fx * x[:, :, y1, x1]
            )
    return out
