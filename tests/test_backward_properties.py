"""Property tests of the hand-written backward passes over random shapes.

conv2d is checked through the adjoint identities its two gradients must
satisfy, so every input-gradient route (for stride 1, a correlation of
``g`` with the flipped kernel over the patch matrix copied from the tap
view of the padded ``g``, or over ``g`` itself for a 1x1 kernel;
``col2im`` for strided convs and pads wider than the dilated kernel) and
both weight-gradient routes (one GEMM against the tap view of the padded
input for stride-1 convs with narrow output, im2col otherwise) are
pinned to the same linear map. deconv2d's gradients run the same routes
with input and output swapped, its forward the phase route (a stride
that divides the kernel, narrow output) or the conv's input-gradient
route, and it is checked the same way. maxpool2d is checked against a
direct-loop oracle and softmax-CE against its closed form. Everything
runs in float64.
"""
import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference
from stackseg import ops
from stackseg.ops import ce_targets, conv2d, deconv2d, maxpool2d, \
    softmax_ce_loss
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
    # up to two past d*(k-1), where the stride-1 route would need to crop
    p = draw(st.integers(0, d * (max(kh, kw) - 1) + 2))
    s = draw(st.integers(1, 3))
    h = max(1, d * (kh - 1) + 1 - 2 * p) + draw(st.integers(0, 6))
    w = max(1, d * (kw - 1) + 1 - 2 * p) + draw(st.integers(0, 6))
    n, ci, co = (draw(st.integers(1, 2)), draw(st.integers(1, 5)),
                 draw(st.integers(1, 5)))
    return n, ci, co, h, w, kh, kw, s, p, d, draw(st.integers(0, 2**32 - 1))


@given(conv_cases())
@example((2, 3, 4, 7, 6, 3, 3, 1, 1, 1, 0))   # stride 1, correlation route
@example((1, 4, 2, 9, 8, 3, 3, 1, 2, 2, 1))   # dilated, pad == d*(k-1)
@example((2, 3, 5, 8, 7, 3, 3, 1, 3, 1, 2))   # pad > d*(k-1): col2im route
@example((2, 2, 3, 9, 9, 3, 3, 2, 1, 1, 3))   # stride 2: col2im route
@example((1, 2, WIDE, 3, 4, 3, 3, 1, 1, 1, 4))  # wide: im2col gw, correlation
@example((1, 2, WIDE, 3, 3, 3, 3, 1, 3, 1, 5))  # wide: im2col gw, col2im
@example((1, 2, WIDE - 1, 3, 4, 3, 3, 1, 1, 1, 6))  # widest tap-slice gw
@example((2, 3, 4, 7, 6, 3, 1, 1, 0, 1, 7))   # 3x1: correlation pads 2 and 0
@example((2, 3, 4, 6, 7, 1, 3, 1, 0, 1, 8))   # 1x3: correlation pads 0 and 2
@example((2, 3, 4, 7, 8, 3, 2, 1, 1, 2, 9))   # dilated 3x2: g padded 3 and 1
@example((2, 3, WIDE, 5, 6, 3, 3, 1, 2, 1, 10))  # wide, pad 2: tap-view gx
@example((2, 3, 4, 6, 7, 3, 3, 1, 0, 1, 11))  # p = 0: g padded 2 each side
@example((2, 3, 4, 5, 6, 1, 1, 1, 0, 1, 12))  # 1x1: gx over g's reshape view
@PROPERTY
def test_conv2d_gradients_are_adjoints(case):
    n, ci, co, h, w, kh, kw, s, p, d, seed = case
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, ci, h, w))
    wt = rng.standard_normal((co, ci, kh, kw))
    out = conv2d(Tensor(x), Tensor(wt), stride=s, pad=p, dilation=d)
    y = rng.standard_normal(out.shape)
    gx, gw = out.backward_fn(y)
    assert gx.shape == x.shape and gw.shape == wt.shape
    lhs = (out.data * y).sum()
    assert_allclose((x * gx).sum(), lhs, rtol=1e-10, atol=1e-10)
    assert_allclose((wt * gw).sum(), lhs, rtol=1e-10, atol=1e-10)


@st.composite
def deconv_cases(draw):
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    s = draw(st.integers(1, 3))
    # up to one past k-1, where the forward scatters through col2im
    p = draw(st.integers(0, max(kh, kw)))

    def least(k):  # smallest input whose output (h-1)*s - 2p + k is >= 1
        return 1 + max(0, -(-(2 * p - k + 1) // s))
    h = least(kh) + draw(st.integers(0, 4))
    w = least(kw) + draw(st.integers(0, 4))
    n, ci, co = (draw(st.integers(1, 2)), draw(st.integers(1, 5)),
                 draw(st.integers(1, 5)))
    return n, ci, co, h, w, kh, kw, s, p, draw(st.integers(0, 2**32 - 1))


@given(deconv_cases())
@example((2, 3, 2, 4, 5, 4, 4, 2, 1, 0))      # the stack's 4x4/2/1 upsampler
@example((2, 3, 4, 5, 6, 3, 3, 1, 1, 1))      # stride 1: tap-slice backward
@example((1, 3, 2, 6, 6, 3, 3, 1, 3, 2))      # stride 1, pad > k-1: cropped
@example((1, WIDE, 2, 3, 3, 3, 3, 1, 1, 3))   # wide input: im2col backward
@example((2, 2, 3, 4, 5, 3, 1, 1, 0, 4))      # 3x1 at stride 1
@example((1, 2, 3, 3, 4, 2, 2, 2, 0, 5))      # 2x2/2/0: one tap per phase
@example((1, 2, WIDE, 2, 2, 4, 4, 2, 1, 6))   # wide output: col2im forward
@example((2, 3, 2, 4, 3, 3, 4, 2, 1, 7))      # 3x4/2/1: col2im
@PROPERTY
def test_deconv2d_gradients_are_adjoints(case):
    n, ci, co, h, w, kh, kw, s, p, seed = case
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, ci, h, w))
    wt = rng.standard_normal((ci, co, kh, kw))
    out = deconv2d(Tensor(x), Tensor(wt), stride=s, pad=p)
    assert out.shape == (n, co, (h - 1) * s - 2 * p + kh,
                         (w - 1) * s - 2 * p + kw)
    y = rng.standard_normal(out.shape)
    gx, gw = out.backward_fn(y)
    assert gx.shape == x.shape and gw.shape == wt.shape
    lhs = (out.data * y).sum()
    assert_allclose((x * gx).sum(), lhs, rtol=1e-10, atol=1e-10)
    assert_allclose((wt * gw).sum(), lhs, rtol=1e-10, atol=1e-10)


@st.composite
def pool_cases(draw):
    k = draw(st.integers(1, 3))
    s = draw(st.integers(1, k))  # stride < kernel overlaps the windows
    p = draw(st.integers(0, k - 1))
    h = max(1, k - 2 * p) + draw(st.integers(0, 5))
    w = max(1, k - 2 * p) + draw(st.integers(0, 5))
    n, c = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    return n, c, h, w, k, s, p, draw(st.integers(0, 2**32 - 1))


@given(pool_cases())
@example((1, 2, 7, 7, 3, 2, 1, 0))  # the full model's stem pool
@example((2, 3, 6, 8, 2, 2, 0, 1))  # the 2x2/2 pools of the stack
@PROPERTY
def test_maxpool2d_backward_matches_direct_loops(case):
    n, c, h, w, k, s, p, seed = case
    rng = np.random.default_rng(seed)
    # few distinct negative values: ties are common and -inf padding
    # must still lose to every input
    x = -rng.integers(1, 4, size=(n, c, h, w)).astype(np.float64)
    out = maxpool2d(Tensor(x), kernel=k, stride=s, pad=p)
    g = rng.standard_normal(out.shape)
    (gx,) = out.backward_fn(g)
    assert_allclose(gx, reference.maxpool2d_backward(x, g, k, s, p),
                    rtol=1e-12, atol=1e-12)


@given(st.integers(1, 2), st.integers(2, 5), st.integers(1, 5),
       st.integers(1, 5), st.integers(0, 2**32 - 1))
@PROPERTY
def test_softmax_ce_backward_is_softmax_minus_onehot(n, c, h, w, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, c, h, w)) * 3.0
    labels = rng.integers(0, c, size=(n, h, w))
    labels[rng.random((n, h, w)) < 0.3] = 255
    labels.flat[0] = 255  # at least one ignored pixel
    weight = rng.uniform(0.5, 2.0)
    loss = softmax_ce_loss(Tensor(z), ce_targets(labels, c))
    (grad,) = loss.backward_fn(np.asarray(weight))

    valid = labels != 255
    count = valid.sum()
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    onehot = np.eye(c)[np.where(valid, labels, 0)].transpose(0, 3, 1, 2)
    want = (p - onehot) * valid[:, None] / max(count, 1) * weight
    assert_allclose(grad, want, rtol=1e-12, atol=1e-15)
