"""Finite-difference checks of every primitive's backward pass.

The checks are :func:`stackseg.gradcheck.primitive_checks`' table, which
`stackseg gradcheck` and criterion 1 sweep over many more seeds; here two
seeds per op keep the suite quick. Inputs for kinked ops (relu, maxpool)
are drawn as a permutation of an evenly spaced grid so no element sits
within the FD step of a kink and no two window entries tie.
"""
import numpy as np
import pytest

from stackseg.gradcheck import (
    COMPOSITE_SEEDS,
    COMPOSITE_TOL,
    SEEDS,
    TOL,
    composite_check,
    max_rel_error,
    numeric_grad,
    primitive_checks,
    rel_error,
    spread_values,
    weighted_sum,
)
from stackseg.ops import bilinear_resize, maxpool2d
from stackseg.tensor import Tensor


def variant_checks(rng):
    """Two variants the table lacks: the full profile's stem pool
    (k3/s2/p1, overlapping windows) and a bilinear downsample."""
    xp = spread_values(rng, (2, 3, 6, 6))
    rp = rng.standard_normal((2, 3, 3, 3))
    xb = rng.standard_normal((2, 2, 5, 4))
    rb = rng.standard_normal((2, 2, 3, 2))
    return [
        ("maxpool2d_k3s2p1", lambda xt: weighted_sum(
            maxpool2d(xt, kernel=3, stride=2, pad=1), rp), [xp]),
        ("bilinear_resize_down", lambda xt: weighted_sum(
            bilinear_resize(xt, 3, 2), rb), [xb]),
    ]


def checks(seed):
    """name -> (build, arrays): the table's checks, then the variants."""
    table = primitive_checks(np.random.default_rng(seed))
    table += variant_checks(np.random.default_rng(seed))
    return {name: (build, arrays) for name, build, arrays in table}


def test_numeric_grad_on_quadratic():
    x = np.array([1.0, -2.0, 3.0])
    g = numeric_grad(lambda: float((x ** 2).sum()), x)
    assert rel_error(g, 2 * x) < 1e-7


def test_a_nan_gradient_fails_the_check():
    def build(xt):
        return Tensor(xt.data.sum(), (xt,), lambda g: (np.full(3, np.nan),))

    assert max_rel_error(build, [np.ones(3)]) == np.inf
    assert rel_error([1.0, np.nan], [1.0, 2.0]) == np.inf


def test_sweep_constants():
    assert (SEEDS, COMPOSITE_SEEDS, TOL, COMPOSITE_TOL) == (20, 5, 1e-4, 1e-3)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", list(checks(0)))
def test_grad_primitive(name, seed):
    build, arrays = checks(seed)[name]
    assert max_rel_error(build, arrays) < 1e-4


@pytest.mark.parametrize("seed", [12, 13])
def test_grad_whole_graph_composite(seed):
    """conv -> bn -> relu -> pool -> deconv -> skip add -> resize -> CE."""
    assert composite_check(seed) < 1e-3
