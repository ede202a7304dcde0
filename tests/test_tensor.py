import numpy as np
import pytest
from numpy.testing import assert_allclose

from stackseg import Param, Tensor, UsageError, backward, no_grad, toposort
from stackseg.ops import eltwise_add


def scale(t, k):
    """Minimal hand-rolled op so engine tests don't lean on ops.py."""
    return Tensor(t.data * k, (t,), lambda g: (g * k,), op="scale")


def to_scalar(t):
    return Tensor(t.data.sum(), (t,), lambda g: (np.ones_like(t.data) * g,), op="sum")


def test_tensor_basics():
    t = Tensor(np.zeros((2, 3, 4, 5), dtype=np.float32))
    assert t.shape == (2, 3, 4, 5)
    assert t.dtype == np.float32
    assert t.parents == ()
    u = Tensor(1.0)
    assert u.node_id > t.node_id
    assert "leaf" in repr(t)


def test_toposort_diamond_visits_once():
    x = Tensor(np.ones(3))
    a = scale(x, 2.0)
    b = scale(x, 3.0)
    y = eltwise_add(a, b)
    order = toposort([y])
    assert len(order) == 4
    assert order.index(x) < order.index(a)
    assert order.index(x) < order.index(b)
    assert order.index(a) < order.index(y)
    assert order.index(b) < order.index(y)


def test_backward_chain():
    x = Tensor(np.array([1.0, -2.0, 3.0]))
    loss = to_scalar(scale(x, 4.0))
    backward([loss])
    assert_allclose(x.grad, [4.0, 4.0, 4.0])


def test_backward_accumulates_through_shared_node():
    x = Tensor(np.array([1.0, 2.0]))
    y = eltwise_add(x, x)
    backward([to_scalar(y)])
    assert_allclose(x.grad, [2.0, 2.0])


def test_backward_multiple_weighted_losses():
    x = Tensor(np.array([1.0, 2.0]))
    l1 = to_scalar(scale(x, 1.0))
    l2 = to_scalar(scale(x, 10.0))
    backward([l1, l2], loss_weights=[0.5, 2.0])
    # d/dx (0.5 * sum(x) + 2 * sum(10x)) = 0.5 + 20
    assert_allclose(x.grad, [20.5, 20.5])


def test_backward_rejects_bad_calls():
    x = Tensor(np.ones(2))
    with pytest.raises(UsageError):
        backward([])
    with pytest.raises(UsageError):
        backward([x])  # not a scalar
    with pytest.raises(UsageError):
        backward([to_scalar(x)], loss_weights=[1.0, 2.0])


def test_param_grad_accumulation_and_reset():
    p = Param(np.array([1.0, 2.0]), name="w")
    assert p._grad is None
    loss = to_scalar(scale(p.as_tensor(), 3.0))
    backward([loss])
    assert_allclose(p.grad, [3.0, 3.0])
    backward([to_scalar(scale(p.as_tensor(), 1.0))])
    assert_allclose(p.grad, [4.0, 4.0])
    p.zero_grad()
    assert_allclose(p.grad, [0.0, 0.0])


def test_param_flags_and_buffers():
    p = Param(np.zeros((2, 2)), name="bn.gamma", decay_exempt=True)
    assert p.decay_exempt
    assert p._momentum is None
    p.momentum_buf[0, 0] = 1.0
    assert p.momentum_buf[0, 0] == 1.0
    assert "bn.gamma" in repr(p)


def test_no_grad_outputs_keep_no_graph():
    x = Tensor(np.array([1.0, 2.0]))
    with no_grad():
        y = scale(x, 2.0)
        z = eltwise_add(y, x)
    for t in (y, z):
        assert t.parents == () and t.backward_fn is None
    assert_allclose(z.data, [3.0, 6.0])
    recorded = scale(x, 2.0)  # recording resumes after the block
    assert recorded.parents == (x,) and recorded.backward_fn is not None


def records_graph():
    return scale(Tensor(np.ones(2)), 1.0).backward_fn is not None


def test_no_grad_nests_and_restores_state():
    with no_grad():
        with no_grad():
            assert not records_graph()
        assert not records_graph()  # the inner exit restores "off"
    assert records_graph()


def test_no_grad_restores_state_after_exception():
    with pytest.raises(KeyError):
        with no_grad():
            raise KeyError("inside")
    assert records_graph()
    with no_grad():
        with pytest.raises(KeyError):
            with no_grad():
                raise KeyError("nested")
        assert not records_graph()
    assert records_graph()


def test_backward_rejects_loss_built_under_no_grad():
    p = Param(np.array([1.0, 2.0]), name="w")
    with no_grad():
        loss = to_scalar(scale(p.as_tensor(), 3.0))
    with pytest.raises(UsageError, match="no_grad"):
        backward([loss])
    assert p._grad is None
    # leaves made under no_grad are still valid loss nodes
    with no_grad():
        leaf = Tensor(np.asarray(2.0))
    backward([leaf])
    assert_allclose(leaf.grad, 1.0)
