"""Property tests of the lowered forward passes over random shapes.

Each op is compared with its direct-loop oracle in ``tests/reference.py``
over random shapes and attributes, in float64. conv2d has two forward
routes, chosen by stride, kernel size and output width, and deconv2d two,
chosen by whether the stride divides the kernel and by output width; the
explicit examples pin both sides of each, the wide side kept cheap by a
tiny spatial size.
"""
import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference
from stackseg import ops
from stackseg.ops import bilinear_resize, conv2d, deconv2d, maxpool2d
from stackseg.tensor import Tensor

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)
WIDE = ops._SLICE_MAX_CO + 1  # narrowest output that takes im2col


@st.composite
def conv_cases(draw):
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    p = draw(st.integers(0, 3))
    s = draw(st.integers(1, 3))
    h = max(1, d * (kh - 1) + 1 - 2 * p) + draw(st.integers(0, 6))
    w = max(1, d * (kw - 1) + 1 - 2 * p) + draw(st.integers(0, 6))
    n, ci, co = (draw(st.integers(1, 2)), draw(st.integers(1, 5)),
                 draw(st.integers(1, 6)))
    return (n, ci, co, h, w, kh, kw, s, p, d, draw(st.booleans()),
            draw(st.integers(0, 2**32 - 1)))


@given(conv_cases())
@example((2, 3, 4, 7, 6, 3, 3, 1, 1, 1, True, 0))     # tap slices
@example((1, 2, 3, 9, 8, 3, 2, 1, 2, 2, False, 1))    # slices, dilated
@example((1, 2, 2, 5, 5, 3, 3, 1, 0, 1, True, 2))     # slices, unpadded
@example((1, 2, WIDE, 3, 4, 3, 3, 1, 1, 1, True, 3))  # stride 1, im2col
@example((1, 2, WIDE - 1, 3, 4, 3, 3, 1, 1, 1, False, 4))  # widest slices
@example((2, 2, 3, 9, 9, 3, 3, 2, 1, 1, True, 5))     # stride 2, im2col
@example((2, 3, 4, 6, 7, 1, 1, 1, 0, 1, True, 6))     # 1x1, im2col view
@PROPERTY
def test_conv2d_forward_matches_direct_loops(case):
    n, ci, co, h, w, kh, kw, s, p, d, bias, seed = case
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, ci, h, w))
    wt = rng.standard_normal((co, ci, kh, kw))
    b = rng.standard_normal(co) if bias else None
    got = conv2d(Tensor(x), Tensor(wt), None if b is None else Tensor(b),
                 stride=s, pad=p, dilation=d)
    want = reference.conv2d_forward(x, wt, b, stride=s, pad=p, dilation=d)
    assert got.shape == want.shape
    assert_allclose(got.data, want, rtol=1e-10, atol=1e-10)


@st.composite
def deconv_cases(draw):
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    s = draw(st.integers(1, 3))
    p = draw(st.integers(0, max(kh, kw) - 1))

    def least(k):  # smallest input whose output (h-1)*s - 2p + k is >= 1
        return 1 + max(0, -(-(2 * p - k + 1) // s))
    h = least(kh) + draw(st.integers(0, 4))
    w = least(kw) + draw(st.integers(0, 4))
    n, ci, co = (draw(st.integers(1, 2)), draw(st.integers(1, 4)),
                 draw(st.integers(1, 4)))
    return n, ci, co, h, w, kh, kw, s, p, draw(st.integers(0, 2**32 - 1))


@given(deconv_cases())
@example((2, 3, 2, 4, 5, 4, 4, 2, 1, 0))     # the stack's 4x4/2/1: phases
@example((1, 2, 3, 3, 4, 2, 2, 2, 0, 1))     # 2x2/2/0: one tap per phase
@example((1, 2, 2, 3, 4, 4, 2, 2, 1, 2))     # 4x2/2/1: 2x1 taps per phase
@example((1, 2, 3, 3, 3, 3, 3, 3, 2, 3))     # pad crops most of the kernel
@example((1, 2, WIDE, 2, 2, 4, 4, 2, 1, 4))  # wide: col2im
@example((2, 3, 2, 4, 3, 3, 4, 2, 1, 5))     # 3x4/2/1: col2im
@PROPERTY
def test_deconv2d_forward_matches_direct_loops(case):
    n, ci, co, h, w, kh, kw, s, p, seed = case
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, ci, h, w))
    wt = rng.standard_normal((ci, co, kh, kw))
    got = deconv2d(Tensor(x), Tensor(wt), stride=s, pad=p)
    want = reference.deconv2d_forward(x, wt, stride=s, pad=p)
    assert got.shape == want.shape
    assert_allclose(got.data, want, rtol=1e-10, atol=1e-10)


@st.composite
def pool_cases(draw):
    k = draw(st.integers(1, 4))
    s = draw(st.integers(1, 4))
    p = draw(st.integers(0, k - 1))
    h = max(1, k - 2 * p) + draw(st.integers(0, 6))
    w = max(1, k - 2 * p) + draw(st.integers(0, 6))
    n, c = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    return n, c, h, w, k, s, p, draw(st.integers(0, 2**32 - 1))


@given(pool_cases())
@example((1, 2, 7, 7, 3, 2, 1, 0))  # the full model's stem pool
@example((2, 3, 5, 6, 2, 3, 1, 1))  # stride past the kernel skips inputs
@PROPERTY
def test_maxpool2d_forward_matches_direct_loops(case):
    n, c, h, w, k, s, p, seed = case
    rng = np.random.default_rng(seed)
    # all negative: -inf padding must never win
    x = -np.abs(rng.standard_normal((n, c, h, w))) - 0.1
    got = maxpool2d(Tensor(x), kernel=k, stride=s, pad=p)
    want = reference.maxpool2d_forward(x, kernel=k, stride=s, pad=p)
    assert got.shape == want.shape
    assert_allclose(got.data, want, rtol=0, atol=0)


@given(st.integers(1, 2), st.integers(1, 3), st.integers(1, 8),
       st.integers(1, 8), st.integers(1, 12), st.integers(1, 12),
       st.integers(0, 2**32 - 1))
@example(1, 2, 7, 5, 13, 9, 0)  # upsample by a non-integer factor
@example(1, 1, 9, 6, 4, 1, 1)   # downsample to a single column
@PROPERTY
def test_bilinear_resize_forward_matches_direct_loops(n, c, h, w, out_h,
                                                      out_w, seed):
    x = np.random.default_rng(seed).standard_normal((n, c, h, w))
    got = bilinear_resize(Tensor(x), out_h, out_w)
    want = reference.bilinear_resize_forward(x, out_h, out_w)
    assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)
