"""Reverse-mode automatic differentiation over dense float64 arrays.

It serves the rehearsal baseline trainer, `trainer.train_task_baseline`,
and nothing else in the package: the regularized trainer differentiates
its objective by hand (`trainer._objective`) and the input-saliency
diagnostic is in closed form (`metrics.input_saliency`). The tests build
the graph versions of both as their reference.

The graph is built eagerly: every operation returns a `Tensor` node holding
values, a gradient slot, and a backward closure. The operations are
`linear`, `relu`, `concat`, `softmax_cross_entropy` and `add_scalars`.
The batched ones (`linear`, `concat` and `softmax_cross_entropy`) take 2-D
nodes, one sample per row, and raise UsageError on anything else; a single
sample is a one-row batch. Reductions always produce a 0-d scalar node, so
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
an earlier call. A constant never gets a gradient: `backward` does not
visit it, and no operation computes a contribution for it.

Parameters are plain `dict[str, Tensor]` maps of leaves; the tensors hold
no optimizer or freezing state.

`softmax_cross_entropy` takes a batch of logit rows with one label per row
and averages over the rows. Log-sum-exp is always computed with max
subtraction.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, InputError, UsageError


class Tensor:
    """A node in the computation graph.

    `values` is a float64 array: a batch [n, k] for the batched
    operations, a 0-d scalar for a reduction. `grad` is None or has the
    same shape as `values`: the gradient of the last `backward` that
    reached the node, or None if none has. Leaves carry `op == "leaf"`.
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


def constant(values):
    """A leaf that participates in forward values only: `backward` does not
    visit it, and its grad stays None."""
    return Tensor(values, op="const")


# ---------------------------------------------------------------------------
# numerically stable primitives (plain numpy, shared by forward and backward)

def log_softmax(x):
    """Row-wise (or vector) log softmax with max subtraction."""
    shifted = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted - lse


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


def add_scalars(terms) -> Tensor:
    """Sum of scalar nodes; the usual way a composite loss is assembled."""
    terms = list(terms)
    if not terms:
        raise UsageError("add_scalars: empty term list")
    for t in terms:
        if t.ndim != 0:
            raise UsageError("add_scalars: all terms must be scalars")
    vals = sum(float(t.values) for t in terms)

    def _backward(go):
        for t in terms:
            _accumulate(t, go)

    return Tensor(np.asarray(vals), terms, "add_scalars", _backward)


def concat(parts) -> Tensor:
    """Concatenate batches along the feature axis (same row count)."""
    parts = list(parts)
    if not parts:
        raise UsageError("concat: empty part list")
    for p in parts:
        _require_batch(p, "concat")
    if any(p.shape[0] != parts[0].shape[0] for p in parts):
        raise ConfigurationError("concat: row counts differ")
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])

    def _backward(go):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accumulate(p, go[:, lo:hi])

    return Tensor(np.concatenate([p.values for p in parts], axis=1), parts,
                  "concat", _backward)


def _batch_labels(logits: Tensor, label, op):
    """Check a batch of logit rows against one integer label per row."""
    _require_batch(logits, op)
    labels = np.asarray(label, dtype=np.int64)
    n, k = logits.shape
    if labels.shape != (n,):
        raise InputError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= k:
        raise InputError(f"label out of range for {k} classes")
    return labels


def softmax_cross_entropy(logits: Tensor, label) -> Tensor:
    """Mean cross-entropy of softmax(logits) against integer labels.

    `logits` is [n, K] and `label` holds one class index per row; the
    result is a scalar. Backward yields (softmax(logits) - onehot(label)) / n.
    """
    labels = _batch_labels(logits, label, "softmax_cross_entropy")
    n = logits.shape[0]
    ls = log_softmax(logits.values)
    picked = ls[np.arange(n), labels]
    p = np.exp(ls)

    def _backward(go):
        g = p.copy()
        g[np.arange(n), labels] -= 1.0
        g /= n
        _accumulate(logits, g * float(go))

    return Tensor(np.asarray(-picked.sum() / n), (logits,), "ce", _backward)


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
