"""Autodiff value nodes and trainable parameters.

Activations are dense numpy arrays, almost always rank-4 ``(batch,
channels, height, width)``; losses are rank-0. Every op in
:mod:`stackseg.ops` produces a :class:`Tensor` that remembers its parents
and a closure computing the parents' gradients, so a forward pass leaves
behind the DAG needed for reverse-mode differentiation; closures keep
as little as they can (see :mod:`stackseg.ops`). Inside a
:func:`no_grad` block tensors keep no graph at all, so each op's
intermediates are freed as soon as it returns.

:func:`backward` consumes the graph: each node drops its closure and its
parents once its gradient has been passed on, so intermediates are freed
as the walk goes and a second backward over the same graph raises
:class:`UsageError`. Leaves keep their ``.grad``. Tensors are otherwise
never mutated after creation; :class:`Param` values are mutated only
between optimizer steps.
"""
from __future__ import annotations

import contextlib
from typing import NamedTuple

import numpy as np

from .errors import UsageError

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
    parents). Leaf tensors wrapping a :class:`Param` also add their
    gradient into ``param.grad``. Under :func:`no_grad` both ``parents``
    and ``backward_fn`` are dropped; :func:`backward` replaces them with
    ``()`` and :func:`_consumed` once the node's gradient is passed on.
    """

    __slots__ = ("data", "grad", "parents", "backward_fn", "op", "param",
                 "__weakref__")

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

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"


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


_CONSUMED = ("backward already ran through this graph and freed it; "
             "run the forward pass again")


def _consumed(g):
    raise UsageError(_CONSUMED)


def _add(total, g):
    """``g`` added to a running gradient sum that may not exist yet.

    Out of place on purpose: one array can be the gradient of several
    nodes (``eltwise_add`` hands ``g`` to both parents, a concatenation
    hands out views of it), so summing into it would change the others.
    """
    return g if total is None else total + g


def backward(loss_nodes):
    """Accumulate d(sum_k loss_k)/dparam into every reachable Param.grad.

    ``loss_nodes`` must be scalar tensors produced by a forward pass run
    outside :func:`no_grad`. The walk consumes the graph: each node gives
    up its ``backward_fn`` and ``parents`` as soon as it has passed its
    gradient on, so an intermediate is freed once nothing but the graph
    held it, and a second backward through any consumed node raises
    :class:`UsageError`.
    """
    loss_nodes = list(loss_nodes)
    if not loss_nodes:
        raise UsageError("backward called with no loss nodes")
    for node in loss_nodes:
        if node.data.ndim != 0:
            raise UsageError(f"loss node {node!r} is not a scalar")
        if node.backward_fn is _consumed:
            raise UsageError(f"loss node {node!r}: {_CONSUMED}")
        if node.backward_fn is None and node.param is None \
                and node.op != "leaf":
            raise UsageError(f"loss node {node!r} was built under no_grad "
                             "and has no graph to differentiate")

    grads = {}  # id(node) -> accumulated ndarray
    for node in loss_nodes:
        grads[id(node)] = _add(grads.get(id(node)),
                               np.asarray(1.0, dtype=node.data.dtype))

    # keyed by id(): a node stays alive in ``order`` until it is popped,
    # and by then every consumer has already added its share
    order = toposort(loss_nodes)
    while order:
        node = order.pop()
        g = grads.pop(id(node), None)
        if g is None:
            continue
        param = node.param
        if param is not None:
            param.grad = _add(param.grad,
                              g.astype(param.value.dtype, copy=False))
        if node.backward_fn is None:
            node.grad = np.asarray(g)  # leaves keep their grad for checks
            continue
        parent_grads = node.backward_fn(g)
        parents = node.parents
        node.backward_fn, node.parents = _consumed, ()
        for parent, pg in zip(parents, parent_grads):
            if pg is not None:
                grads[id(parent)] = _add(grads.get(id(parent)), pg)


class Param:
    """A trainable value with its gradient and momentum.

    ``value`` is an array, or an :class:`Owed` promise of one: a Param
    built from ``Owed(source, shape)`` knows its ``shape`` and is
    ``pending`` until ``value`` is first read, which calls
    ``source.fill()``; that must set ``value`` (see
    :class:`stackseg.layers.WeightStream`). Assigning ``value`` settles a
    pending Param without calling its source.

    ``grad`` is None until :func:`backward` reaches the parameter; it then
    holds the gradient summed over every backward since the last
    :func:`stackseg.trainer.sgd_step`, which consumes it and sets it back
    to None. ``momentum`` is None until the first step that updates the
    parameter. None of the three is allocated before it is needed: a
    network whose weights are loaded draws no random ones, and one built
    only to count its parameters (``analyzer.count_network_params`` reads
    ``shape``) draws none either.
    ``decay_exempt`` marks parameters excluded from weight decay (BN
    affine terms and biases).
    """

    # ``__weakref__``: a source refers to the Params it owes weakly, so
    # that no Param and its source form a reference cycle
    __slots__ = ("name", "grad", "momentum", "decay_exempt", "_value",
                 "_owed", "__weakref__")

    def __init__(self, value, name="", decay_exempt=False):
        if isinstance(value, Owed):
            self._value, self._owed = None, value
        else:
            self._value, self._owed = np.asarray(value), None
        self.name = name
        self.decay_exempt = decay_exempt
        self.grad = None
        self.momentum = None

    @property
    def value(self):
        if self._value is None:
            self._owed.source.fill()
        return self._value

    @value.setter
    def value(self, value):
        self._value, self._owed = value, None

    @property
    def pending(self):
        """True until the value is first read or assigned."""
        return self._value is None

    @property
    def shape(self):
        return self._owed.shape if self.pending else self._value.shape

    def as_tensor(self):
        """Wrap the current value as a graph leaf that collects gradient."""
        return Tensor(self.value, op="param", param=self)

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.shape})"


class Owed(NamedTuple):
    """The value of a pending :class:`Param`: ``source.fill()`` sets it."""
    source: object
    shape: tuple
