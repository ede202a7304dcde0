"""Autodiff value nodes and trainable parameters.

Activations are dense numpy arrays, almost always rank-4 ``(batch,
channels, height, width)``; losses are rank-0. Every op in
:mod:`stackseg.ops` produces a :class:`Tensor` that remembers its parents
and a closure computing the parents' gradients, so a forward pass leaves
behind the DAG needed for reverse-mode differentiation. Inside a
:func:`no_grad` block tensors keep neither, so each op's intermediates
(im2col patches, masks) are freed as soon as it returns. Tensors are
never mutated after creation; :class:`Param` values are mutated only
between optimizer steps.
"""
from __future__ import annotations

import contextlib
import itertools

import numpy as np

from .errors import UsageError

_node_counter = itertools.count()
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block: new tensors get no parents and no
    ``backward_fn``. Nests, and restores the previous state on exit,
    also when the block raises. The state is process-wide, not per
    thread."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """One node of the compute graph.

    ``backward_fn`` receives the gradient w.r.t. this node and returns a
    tuple of gradients, one per parent (``None`` for non-differentiable
    parents). Leaf tensors wrapping a :class:`Param` route their gradient
    into ``param.grad`` instead. Under :func:`no_grad` both ``parents``
    and ``backward_fn`` are dropped.
    """

    __slots__ = ("data", "grad", "parents", "backward_fn", "op", "param",
                 "node_id", "indices")

    def __init__(self, data, parents=(), backward_fn=None, op="leaf", param=None):
        self.data = np.asarray(data)
        self.grad = None
        if _grad_enabled:
            self.parents = tuple(parents)
            self.backward_fn = backward_fn
        else:
            self.parents = ()
            self.backward_fn = None
        self.op = op
        self.param = param
        self.node_id = next(_node_counter)

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape}, id={self.node_id})"


def toposort(roots):
    """All ancestors of ``roots`` in a topological order (inputs first).

    Every node appears exactly once even when reachable along several
    paths, which is what guarantees backward touches each op once.
    """
    order = []
    seen = set()
    # Iterative DFS; graphs can be a few thousand nodes deep.
    stack = [(r, False) for r in roots]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss_nodes, loss_weights=None):
    """Accumulate d(sum_k w_k * loss_k)/dparam into every reachable Param.grad.

    ``loss_nodes`` must be scalar tensors produced by a forward pass run
    outside :func:`no_grad`.
    """
    loss_nodes = list(loss_nodes)
    if not loss_nodes:
        raise UsageError("backward called with no loss nodes")
    if loss_weights is None:
        loss_weights = [1.0] * len(loss_nodes)
    if len(loss_weights) != len(loss_nodes):
        raise UsageError(
            f"{len(loss_nodes)} loss nodes but {len(loss_weights)} weights"
        )
    for node in loss_nodes:
        if node.data.ndim != 0:
            raise UsageError(f"loss node {node!r} is not a scalar")
        if node.backward_fn is None and node.param is None \
                and node.op != "leaf":
            raise UsageError(f"loss node {node!r} was built under no_grad "
                             "and has no graph to differentiate")

    grads = {}  # node_id -> accumulated ndarray
    for node, w in zip(loss_nodes, loss_weights):
        seed = np.asarray(w, dtype=node.data.dtype)
        if node.node_id in grads:
            grads[node.node_id] = grads[node.node_id] + seed
        else:
            grads[node.node_id] = seed

    for node in reversed(toposort(loss_nodes)):
        g = grads.pop(node.node_id, None)
        if g is None:
            continue
        if node.param is not None:
            node.param.accumulate_grad(g)
        if node.backward_fn is None:
            node.grad = np.asarray(g)  # leaves keep their grad for checks
            continue
        parent_grads = node.backward_fn(g)
        for parent, pg in zip(node.parents, parent_grads):
            if pg is None:
                continue
            if parent.node_id in grads:
                grads[parent.node_id] = grads[parent.node_id] + pg
            else:
                grads[parent.node_id] = pg


class Param:
    """A trainable tensor with its gradient and momentum buffers.

    ``grad`` and ``momentum_buf`` are allocated lazily so that building a
    large network for inspection does not triple its memory footprint.
    ``decay_exempt`` marks parameters excluded from weight decay (BN
    affine terms and biases).
    """

    __slots__ = ("name", "value", "_grad", "_momentum", "decay_exempt")

    def __init__(self, value, name="", decay_exempt=False):
        self.value = np.asarray(value)
        self.name = name
        self.decay_exempt = decay_exempt
        self._grad = None
        self._momentum = None

    @property
    def grad(self):
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @property
    def momentum_buf(self):
        if self._momentum is None:
            self._momentum = np.zeros_like(self.value)
        return self._momentum

    def accumulate_grad(self, g):
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        self._grad += g.astype(self.value.dtype, copy=False)

    def zero_grad(self):
        if self._grad is not None:
            self._grad.fill(0.0)

    def as_tensor(self):
        """Wrap the current value as a graph leaf that collects gradient."""
        return Tensor(self.value, op="param", param=self)

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.value.shape})"
