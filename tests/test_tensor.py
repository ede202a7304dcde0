import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stackseg import Param, Tensor, UsageError, backward, no_grad, toposort
from stackseg.ops import eltwise_add
from stackseg.trainer import WEIGHT_DECAY, sgd_step


def scale(t, k):
    """Minimal hand-rolled op so engine tests don't lean on ops.py."""
    return Tensor(t.data * k, (t,), lambda g: (g * k,), op="scale")


def to_scalar(t):
    return Tensor(t.data.sum(), (t,), lambda g: (np.ones_like(t.data) * g,), op="sum")


def test_tensor_basics():
    t = Tensor(np.zeros((2, 3, 4, 5), dtype=np.float32))
    assert t.shape == (2, 3, 4, 5)
    assert t.data.dtype == np.float32
    assert t.parents == ()
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


def test_backward_sums_multiple_losses():
    x = Tensor(np.array([1.0, 2.0]))
    l1 = to_scalar(scale(x, 1.0))
    l2 = to_scalar(scale(x, 10.0))
    backward([l1, l2, l2])
    # d/dx (sum(x) + 2 * sum(10x)) = 1 + 20
    assert_allclose(x.grad, [21.0, 21.0])


def test_backward_rejects_bad_calls():
    x = Tensor(np.ones(2))
    with pytest.raises(UsageError):
        backward([])
    with pytest.raises(UsageError):
        backward([x])  # not a scalar


def test_param_grad_accumulation_and_reset():
    p = Param(np.array([1.0, 2.0]), name="w")
    idle = Param(np.array([5.0]), name="idle")  # no loss reaches it
    assert p.grad is None and p.momentum is None
    backward([to_scalar(scale(p.as_tensor(), 3.0))])
    assert_allclose(p.grad, [3.0, 3.0])
    backward([to_scalar(scale(p.as_tensor(), 1.0))])
    assert_allclose(p.grad, [4.0, 4.0])
    # eltwise_add hands one array to both parents, so q.grad is y.grad;
    # the next backward must sum out of place and leave y.grad alone
    q = Param(np.zeros(2), name="q")
    y = Tensor(np.zeros(2))
    backward([to_scalar(eltwise_add(y, q.as_tensor()))])
    assert np.shares_memory(q.grad, y.grad)
    backward([to_scalar(scale(q.as_tensor(), 2.0))])
    assert_allclose(q.grad, [3.0, 3.0])
    assert_allclose(y.grad, [1.0, 1.0])

    sgd_step([p, idle], lr=0.5)
    assert p.grad is None
    step = np.array([4.0, 4.0]) + WEIGHT_DECAY * np.array([1.0, 2.0])
    assert_allclose(p.momentum, step)
    assert_allclose(p.value, np.array([1.0, 2.0]) - 0.5 * step)
    assert idle.grad is None and idle.momentum is None
    assert idle.value[0] == 5.0


def test_param_flags_and_buffers():
    p = Param(np.zeros((2, 2)), name="bn.gamma", decay_exempt=True)
    assert p.decay_exempt
    assert p.grad is None and p.momentum is None
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
    assert p.grad is None
    # leaves made under no_grad are still valid loss nodes
    with no_grad():
        leaf = Tensor(np.asarray(2.0))
    backward([leaf])
    assert_allclose(leaf.grad, 1.0)


def test_backward_frees_interior_nodes_and_keeps_leaf_grads():
    x = Tensor(np.array([1.0, -2.0]))
    mid = scale(scale(x, 3.0), 2.0)
    alive = weakref.ref(mid)
    loss = to_scalar(mid)
    del mid  # now only the graph holds it
    assert alive() is not None
    backward([loss])
    assert alive() is None  # freed by the walk, while the loss node lives
    assert loss.parents == ()
    assert_allclose(x.grad, [6.0, 6.0])


def test_second_backward_over_a_consumed_graph_raises():
    x = Tensor(np.array([1.0, 2.0]))
    y = scale(x, 2.0)
    first = to_scalar(y)
    backward([first])
    with pytest.raises(UsageError, match="already ran") as err:
        backward([first])
    assert "no_grad" not in str(err.value)
    # a new loss on a consumed part of the graph fails as well
    with pytest.raises(UsageError, match="already ran"):
        backward([to_scalar(scale(y, 1.0))])
    assert_allclose(x.grad, [2.0, 2.0])  # untouched by the failed calls
