"""Property tests of the hand-written backward passes over random shapes.

conv2d is checked through the adjoint identities its two gradients must
satisfy, so both input-gradient routes (correlation of ``g`` with the
flipped kernel for stride 1, ``col2im`` for strided convs and pads wider
than the dilated kernel) are pinned to the same linear map. maxpool2d is
checked against a direct-loop oracle and softmax-CE against its closed
form. Everything runs in float64.
"""
import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference
from stackseg.ops import conv2d, maxpool2d, softmax_ce_loss
from stackseg.tensor import Tensor

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


@st.composite
def conv_cases(draw):
    k = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    # up to two past d*(k-1), where the stride-1 route would need to crop
    p = draw(st.integers(0, d * (k - 1) + 2))
    s = draw(st.integers(1, 3))
    eff = d * (k - 1) + 1
    h = max(1, eff - 2 * p) + draw(st.integers(0, 6))
    w = max(1, eff - 2 * p) + draw(st.integers(0, 6))
    n, ci, co = (draw(st.integers(1, 2)), draw(st.integers(1, 5)),
                 draw(st.integers(1, 5)))
    return n, ci, co, h, w, k, s, p, d, draw(st.integers(0, 2**32 - 1))


@given(conv_cases())
@example((2, 3, 4, 7, 6, 3, 1, 1, 1, 0))   # stride 1, correlation route
@example((1, 4, 2, 9, 8, 3, 1, 2, 2, 1))   # dilated, pad == d*(k-1)
@example((2, 3, 5, 8, 7, 3, 1, 3, 1, 2))   # pad > d*(k-1): col2im route
@example((2, 2, 3, 9, 9, 3, 2, 1, 1, 3))   # stride 2: col2im route
@PROPERTY
def test_conv2d_gradients_are_adjoints(case):
    n, ci, co, h, w, k, s, p, d, seed = case
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, ci, h, w))
    wt = rng.standard_normal((co, ci, k, k))
    out = conv2d(Tensor(x), Tensor(wt), stride=s, pad=p, dilation=d)
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
    loss = softmax_ce_loss(Tensor(z), labels)
    (grad,) = loss.backward_fn(np.asarray(weight))

    valid = labels != 255
    count = valid.sum()
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    onehot = np.eye(c)[np.where(valid, labels, 0)].transpose(0, 3, 1, 2)
    want = (p - onehot) * valid[:, None] / max(count, 1) * weight
    assert_allclose(grad, want, rtol=1e-12, atol=1e-15)
