"""Reverse-mode automatic differentiation over dense float64 arrays.

The graph is built eagerly: every operation returns a `Tensor` node holding
values, a gradient slot, and a backward closure. The batched operations
(`linear`, `concat`, `take_rows`, `sum_picked` and the three losses) take
2-D nodes, one sample per row, and raise UsageError on anything else; a
single sample is a one-row batch. Elementwise operations take any shape.
Reductions always produce a 0-d scalar node, so `backward` has a
well-defined root. All arithmetic is float64.

Every node starts with `grad = None`, and gradients exist only where
`backward` writes them. Each call gives one fresh gradient: it resets
every node it reaches to None, and the first contribution to a node then
allocates its buffer, later ones add to it, so nothing carries over from
an earlier call. A constant never gets a gradient: `backward` does not
visit it, and no operation computes a contribution for it.

Parameters are plain `dict[str, Tensor]` maps of leaves; the tensors hold
no optimizer or freezing state.

The losses (`softmax_cross_entropy`, `kl_softmax`,
`neglog_complement_prob`) take a batch of logit rows, with one label per
row where they need one, and always average over the rows. Log-sum-exp is
always computed with max subtraction.
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

    __slots__ = ("values", "grad", "parents", "op", "_backward_fn")

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
    gradients for x, w and b; for a constant x it skips the input product
    altogether.
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
    out = Tensor(out_vals, parents=(x, w, b), op="linear")

    def _backward():
        go = out.grad
        if x.op != "const":
            _accumulate(x, go @ w.values)
        _accumulate(w, go.T @ x.values)
        _accumulate(b, go.sum(axis=0))

    out._backward_fn = _backward
    return out


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient at exactly 0 is 0."""
    mask = x.values > 0.0
    out = Tensor(np.where(mask, x.values, 0.0), parents=(x,), op="relu")

    def _backward():
        _accumulate(x, out.grad * mask)

    out._backward_fn = _backward
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ConfigurationError(f"add: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.values + b.values, parents=(a, b), op="add")

    def _backward():
        _accumulate(a, out.grad)
        _accumulate(b, out.grad)

    out._backward_fn = _backward
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ConfigurationError(f"sub: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.values - b.values, parents=(a, b), op="sub")

    def _backward():
        _accumulate(a, out.grad)
        if b.op != "const":
            _accumulate(b, -out.grad)

    out._backward_fn = _backward
    return out


def scale(a: Tensor, k: float) -> Tensor:
    k = float(k)
    out = Tensor(a.values * k, parents=(a,), op="scale")

    def _backward():
        _accumulate(a, out.grad * k)

    out._backward_fn = _backward
    return out


def add_scalars(terms) -> Tensor:
    """Sum of scalar nodes; the usual way a composite loss is assembled."""
    terms = list(terms)
    if not terms:
        raise UsageError("add_scalars: empty term list")
    for t in terms:
        if t.ndim != 0:
            raise UsageError("add_scalars: all terms must be scalars")
    vals = sum(float(t.values) for t in terms)
    out = Tensor(np.asarray(vals), parents=tuple(terms), op="add_scalars")

    def _backward():
        for t in terms:
            _accumulate(t, out.grad)

    out._backward_fn = _backward
    return out


def concat(parts) -> Tensor:
    """Concatenate batches along the feature axis (same row count)."""
    parts = list(parts)
    if not parts:
        raise UsageError("concat: empty part list")
    for p in parts:
        _require_batch(p, "concat")
    if any(p.shape[0] != parts[0].shape[0] for p in parts):
        raise ConfigurationError("concat: row counts differ")
    out = Tensor(np.concatenate([p.values for p in parts], axis=1),
                 parents=tuple(parts), op="concat")
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])

    def _backward():
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accumulate(p, out.grad[:, lo:hi])

    out._backward_fn = _backward
    return out


def take_rows(a: Tensor, lo: int, hi: int) -> Tensor:
    """Contiguous row slice a[lo:hi] of a batched node.

    Pass-through gradient into the sliced rows; the remaining rows of the
    parent receive nothing (zeros, if this is the parent's first
    contribution). Used to address the current-task block of a
    mixed current+rehearsal batch without a second forward pass.
    """
    _require_batch(a, "take_rows")
    lo, hi = int(lo), int(hi)
    if not 0 <= lo <= hi <= a.shape[0]:
        raise InputError(f"take_rows: range [{lo}, {hi}) outside {a.shape[0]} rows")
    out = Tensor(a.values[lo:hi].copy(), parents=(a,), op="rows")

    def _backward():
        if a.op == "const":
            return
        if a.grad is None:
            a.grad = np.zeros_like(a.values)
        a.grad[lo:hi] += out.grad

    out._backward_fn = _backward
    return out


def sum_squares(a: Tensor) -> Tensor:
    """Scalar sum of all squared entries."""
    out = Tensor(np.asarray(np.sum(a.values * a.values)), parents=(a,),
                 op="sum_squares")

    def _backward():
        _accumulate(a, 2.0 * a.values * float(out.grad))

    out._backward_fn = _backward
    return out


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
    out = Tensor(np.asarray(-picked.sum() / n), parents=(logits,), op="ce")
    p = np.exp(ls)

    def _backward():
        g = p.copy()
        g[np.arange(n), labels] -= 1.0
        g /= n
        _accumulate(logits, g * float(out.grad))

    out._backward_fn = _backward
    return out


def kl_softmax(a: Tensor, b: Tensor) -> Tensor:
    """Mean over rows of KL(softmax(a) || softmax(b)); >= 0, zero iff each
    row of a - b is constant.

    Both arguments are [n, K] batches, and the loss is differentiable with
    respect to both.
    """
    _require_batch(a, "kl_softmax")
    if a.shape != b.shape:
        raise ConfigurationError(f"kl_softmax: shape mismatch {a.shape} vs {b.shape}")
    la = log_softmax(a.values)
    lb = log_softmax(b.values)
    p = np.exp(la)
    r = la - lb
    n = a.shape[0]
    out = Tensor(np.asarray(np.sum(p * r, axis=-1).sum() / n),
                 parents=(a, b), op="kl_softmax")
    q = np.exp(lb)

    def _backward():
        go = float(out.grad) / n
        inner = np.sum(p * r, axis=-1, keepdims=True)
        _accumulate(a, go * p * (r - inner))
        _accumulate(b, go * (q - p))

    out._backward_fn = _backward
    return out


def neglog_complement_prob(logits: Tensor, label, eps=1e-12) -> Tensor:
    """Mean over rows of -log(1 - softmax(logits)[label] + eps).

    Zero when the label probability is 0; grows as the label probability
    approaches 1. Same batch and label convention as softmax_cross_entropy.
    """
    labels = _batch_labels(logits, label, "neglog_complement_prob")
    n = logits.shape[0]
    p = softmax(logits.values)
    py = p[np.arange(n), labels]
    s = 1.0 - py + eps
    out = Tensor(np.asarray(-np.log(s).sum() / n), parents=(logits,), op="nlcp")

    def _backward():
        go = float(out.grad) / n
        g = -(py / s)[:, None] * p
        g[np.arange(n), labels] += py / s
        _accumulate(logits, g * go)

    out._backward_fn = _backward
    return out


def sum_picked(mat: Tensor, idx) -> Tensor:
    """Scalar sum of mat[i, idx[i]]; used for per-sample logit saliency."""
    _require_batch(mat, "sum_picked")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape != (mat.shape[0],):
        raise UsageError("sum_picked: expects one index per row")
    rows = np.arange(mat.shape[0])
    out = Tensor(np.asarray(mat.values[rows, idx].sum()), parents=(mat,),
                 op="sum_picked")

    def _backward():
        g = np.zeros_like(mat.values)
        g[rows, idx] = float(out.grad)
        _accumulate(mat, g)

    out._backward_fn = _backward
    return out


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
            node._backward_fn()
