"""Reverse-mode automatic differentiation over dense float64 arrays.

No run path builds a graph: both trainers differentiate their steps by
hand (`trainer._objective`, `trainer._baseline_step`) and the
input-saliency diagnostic is in closed form (`metrics.input_saliency`).
This module is the tests' reference graph, which they hold those
hand-derived versions to bit for bit. It stays in the package because
the benchmark's tracer (`perfbench/spans.py`) wraps `backward` and
`model.ExpandableModel.current_feature_graph` by name, and
`log_softmax`/`softmax` are the numerics the trainer shares.

The graph is built eagerly: every operation returns a `Tensor` node holding
values, a gradient slot, and a backward closure. The operations here are
the ones an extractor's forward uses, `linear` and `relu`; the tests'
reference graphs add their own in the same convention. `linear` takes
2-D nodes, one sample per row, and raises UsageError on anything else; a
single sample is a one-row batch. A loss is a 0-d scalar node, so
`backward` has a well-defined root. All arithmetic is float64.

A backward closure takes its node's gradient as its one argument,
`node._backward_fn(node.grad)`, and holds references to the parents only,
never to its own node. A graph is then free of reference cycles, and it
is freed as soon as the last reference to its root goes, without waiting
for the cyclic garbage collector.

Every node starts with `grad = None`, and gradients exist only where
`backward` writes them. Each call gives one fresh gradient: it resets
every node it reaches to None, and the first contribution to a node then
allocates its buffer, later ones add to it, so nothing carries over from
an earlier call. A constant, a node with `op == "const"`, never gets a
gradient: `backward` does not visit it, and no operation computes a
contribution for it.

The model's parameters are plain float64 arrays, never nodes. A graph
wraps the ones it differentiates in leaves of its own (`leaf` does not
copy a float64 array) and reads their gradients off those leaves.

Log-sum-exp is always computed with max subtraction.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, UsageError


class Tensor:
    """A node in the computation graph.

    `values` is a float64 array: a batch [n, k] for the batched
    operations, a 0-d scalar for a reduction. `grad` is None or has the
    same shape as `values`: the gradient of the last `backward` that
    reached the node, or None if none has. Leaves carry `op == "leaf"`,
    constants `op == "const"`.
    """

    __slots__ = ("values", "grad", "parents", "op", "_backward_fn",
                 "__weakref__")

    def __init__(self, values, parents=(), op="leaf", backward_fn=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.parents = tuple(parents)
        self.op = op
        self._backward_fn = backward_fn

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self):
        return self.values.size

    @property
    def ndim(self):
        return self.values.ndim

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.values.shape})"


def leaf(values):
    return Tensor(values, op="leaf")


# ---------------------------------------------------------------------------
# numerically stable primitives (plain numpy, shared by forward and backward)

def log_softmax(x):
    """Row-wise (or vector) log softmax of a float array, with max
    subtraction.

    The reductions are the ufunc reductions `max`/`sum` call, without
    their wrappers, and the last subtraction reuses the shifted array; the
    bits are those of `shifted - lse`.
    """
    shifted = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    lse = np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
    shifted -= lse
    return shifted


def softmax(x):
    return np.exp(log_softmax(x))


# ---------------------------------------------------------------------------
# graph operations

def _require_batch(node: Tensor, op):
    if node.ndim != 2:
        raise UsageError(f"{op}: expects a 2-D batch, got shape {node.shape}")


def _accumulate(node: Tensor, g):
    """Add one gradient contribution to `node`; constants take none.

    The first contribution allocates the buffer as a copy, because `g` may
    be another node's gradient or a view of it.
    """
    if node.op == "const":
        return
    if node.grad is None:
        node.grad = np.array(g, dtype=np.float64)
    else:
        node.grad += g


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map `x @ w.T + b`.

    `w` is [n_out, n_in] and `x` a batch [n, n_in]. Backward produces exact
    gradients for x, w and b, and skips the product of any constant among
    them altogether.
    """
    _require_batch(x, "linear")
    if w.ndim != 2:
        raise ConfigurationError(f"linear: weight must be 2-D, got {w.shape}")
    n_out, n_in = w.shape
    if b.shape != (n_out,):
        raise ConfigurationError(
            f"linear: bias shape {b.shape} does not match weight rows {n_out}")
    if x.shape[-1] != n_in:
        raise ConfigurationError(
            f"linear: input dim {x.shape[-1]} does not match weight cols {n_in}")
    out_vals = x.values @ w.values.T + b.values

    def _backward(go):
        if x.op != "const":
            _accumulate(x, go @ w.values)
        if w.op != "const":
            _accumulate(w, go.T @ x.values)
        if b.op != "const":
            _accumulate(b, go.sum(axis=0))

    return Tensor(out_vals, (x, w, b), "linear", _backward)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient at exactly 0 is 0."""
    mask = x.values > 0.0

    def _backward(go):
        _accumulate(x, go * mask)

    return Tensor(np.where(mask, x.values, 0.0), (x,), "relu", _backward)


# ---------------------------------------------------------------------------
# graph traversal

def _toposort(root: Tensor):
    """Post-order over the root's ancestors, constants excluded.

    The visiting order fixes the order of float additions into nodes with
    several consumers, so it is part of the bit-level contract.
    """
    order = []
    visited = set()  # Tensor hashes by identity
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for parent in node.parents:
            if parent not in visited and parent.op != "const":
                stack.append((parent, False))
    return order


def backward(root: Tensor):
    """Set `grad` on the scalar root and all its ancestors to the gradient
    of the root.

    Every node reached is reset to None first, so each call gives one fresh
    gradient and a repeated call on the same graph gives the same one. A
    leaf the root does not reach keeps whatever it held. Constants are not
    visited.
    """
    if root.size != 1:
        raise UsageError(f"backward root must be scalar, got shape {root.shape}")
    order = _toposort(root)
    for node in order:
        node.grad = None
    _accumulate(root, np.ones_like(root.values))
    for node in reversed(order):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)
