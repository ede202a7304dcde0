"""Finite-difference checks of every primitive's backward pass.

Inputs for kinked ops (relu, maxpool) are drawn as a permutation of an
evenly spaced grid so no element sits within the FD step of a kink and
no two window entries tie. The acceptance suite widens these checks to
many more seeds; here a couple per op keeps the suite quick.
"""
import numpy as np
import pytest

from stackseg.gradcheck import (
    composite_check,
    max_rel_error,
    numeric_grad,
    rel_error,
    spread_values,
    weighted_sum,
)
from stackseg.ops import (
    batch_norm,
    bilinear_resize,
    concat_channels,
    conv2d,
    deconv2d,
    dropout,
    eltwise_add,
    maxpool2d,
    relu,
    softmax_ce_loss,
)
from stackseg.tensor import Tensor

TOL = 1e-4


def test_numeric_grad_on_quadratic():
    x = np.array([1.0, -2.0, 3.0])
    g = numeric_grad(lambda: float((x ** 2).sum()), x)
    assert rel_error(g, 2 * x) < 1e-7


@pytest.mark.parametrize("seed", [0, 1])
def test_grad_conv2d(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 3, 6, 5))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    r = rng.standard_normal((2, 4, 6, 5))
    err = max_rel_error(
        lambda xt, wt, bt: weighted_sum(conv2d(xt, wt, bt, pad=1), r),
        [x, w, b])
    assert err < TOL


def test_grad_conv2d_strided_dilated():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 2, 9, 8))
    w = rng.standard_normal((3, 2, 3, 3))
    out = conv2d(Tensor(x), Tensor(w), stride=2, pad=2, dilation=2)
    r = rng.standard_normal(out.shape)
    err = max_rel_error(
        lambda xt, wt: weighted_sum(
            conv2d(xt, wt, stride=2, pad=2, dilation=2), r),
        [x, w])
    assert err < TOL


@pytest.mark.parametrize("seed", [3, 4])
def test_grad_deconv2d(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 3, 4, 3))
    w = rng.standard_normal((3, 2, 4, 4))
    r = rng.standard_normal((2, 2, 8, 6))
    err = max_rel_error(
        lambda xt, wt: weighted_sum(deconv2d(xt, wt, stride=2, pad=1), r),
        [x, w])
    assert err < TOL


@pytest.mark.parametrize("kernel,stride,pad", [(2, 2, 0), (3, 2, 1)])
def test_grad_maxpool2d(kernel, stride, pad):
    rng = np.random.default_rng(5)
    x = spread_values(rng, (2, 3, 6, 6))
    out = maxpool2d(Tensor(x), kernel=kernel, stride=stride, pad=pad)
    r = rng.standard_normal(out.shape)
    err = max_rel_error(
        lambda xt: weighted_sum(
            maxpool2d(xt, kernel=kernel, stride=stride, pad=pad), r),
        [x])
    assert err < TOL


@pytest.mark.parametrize("out_hw", [(9, 7), (3, 2)])
def test_grad_bilinear_resize(out_hw):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 2, 5, 4))
    r = rng.standard_normal((2, 2) + out_hw)
    err = max_rel_error(
        lambda xt: weighted_sum(bilinear_resize(xt, *out_hw), r), [x])
    assert err < TOL


@pytest.mark.parametrize("training", [True, False])
def test_grad_batch_norm(training):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 4, 5, 5))
    gamma = rng.standard_normal(4) + 1.5
    beta = rng.standard_normal(4)
    r = rng.standard_normal(x.shape)
    mean = rng.standard_normal(4)
    var = rng.random(4) + 0.5

    def build(xt, gt, bt):
        return weighted_sum(batch_norm(xt, gt, bt, mean.copy(), var.copy(),
                                       training=training), r)

    assert max_rel_error(build, [x, gamma, beta]) < TOL


def test_grad_relu():
    rng = np.random.default_rng(8)
    x = spread_values(rng, (2, 3, 5, 4))
    r = rng.standard_normal(x.shape)
    assert max_rel_error(lambda xt: weighted_sum(relu(xt), r), [x]) < TOL


def test_grad_dropout():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 3, 6, 6))
    r = rng.standard_normal(x.shape)
    # mask depends only on the rng, so reseeding per build keeps FD coherent
    err = max_rel_error(
        lambda xt: weighted_sum(
            dropout(xt, 0.8, True, np.random.default_rng(77)), r),
        [x])
    assert err < TOL


def test_grad_concat_and_add():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((2, 2, 3, 3))
    b = rng.standard_normal((2, 3, 3, 3))
    c = rng.standard_normal((2, 5, 3, 3))
    r = rng.standard_normal((2, 5, 3, 3))
    err = max_rel_error(
        lambda at, bt, ct: weighted_sum(
            eltwise_add(concat_channels([at, bt]), ct), r),
        [a, b, c])
    assert err < TOL


def test_grad_softmax_ce():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((2, 4, 3, 3))
    labels = rng.integers(0, 4, size=(2, 3, 3))
    labels[0, 0, 0] = 255
    err = max_rel_error(lambda zt: softmax_ce_loss(zt, labels), [z])
    assert err < TOL


@pytest.mark.parametrize("seed", [12, 13])
def test_grad_whole_graph_composite(seed):
    """conv -> bn -> relu -> pool -> deconv -> skip add -> resize -> CE."""
    assert composite_check(seed) < 1e-3
