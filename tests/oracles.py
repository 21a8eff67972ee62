"""Reference implementations the package no longer runs.

Both trainers compute their steps' gradients by hand
(`trainer._objective`, `trainer._baseline_step`), and
`metrics.input_saliency` its input gradient in closed form. Their graph
versions live here: `constant` and the autodiff ops only they used,
`head_graph`, the surrogate loss, the projector fit, `graph_objective`,
which assembles one training step as an autodiff graph (with only the cls
flag on, it is the baseline's step), and `graph_saliency`, the predicted
logit's input gradient through every extractor. The model's parameters
are plain arrays, so each graph wraps the ones it differentiates in
leaves of its own (`leaves_over`) and reads their gradients off those
leaves. The tests hold the hand-derived versions to them bit for bit,
and hold these ops to finite differences. `concat_masking_curve` is the
masking curve as evaluation used to run it, over every test set
concatenated into one probe; the per-set `metrics.masking_curve` is held
to it. `per_array_step` is the optimizer step as it ran one parameter at
a time, before the flat layout; `trainer.optimizer_step` is held to it.
`masked_herding_order` is herding as it scored every row at every pick,
`compacted_herding_order` as it scored every untaken row at every pick,
and `plain_checkpoint_text` the checkpoint document as one `json.dumps`
that encodes every array afresh; `trainer.herding_order` and
`model.save_checkpoint` are held to them exactly.

The ops follow the closure convention of `cpnslab.autodiff`: a backward
closure takes its node's gradient and refers only to the parents.
"""

import json

import numpy as np

from cpnslab import autodiff as ad
from cpnslab import counterfactual as cf
from cpnslab import trainer as tr
from cpnslab.autodiff import Tensor, _accumulate, _require_batch
from cpnslab.errors import (ConfigurationError, InputError, NumericsError,
                            UsageError)
from cpnslab.metrics import input_saliency


# ---------------------------------------------------------------------------
# graph ops

def constant(values) -> Tensor:
    """A node that participates in forward values only: `backward` does not
    visit it, and its grad stays None."""
    return Tensor(values, op="const")


def leaves_over(arrays):
    """A leaf over each array of a name -> array map, by the same names.
    A leaf shares its float64 array's memory, so an in-place update of
    its values is an update of the array."""
    return {name: ad.leaf(a) for name, a in arrays.items()}


def head_graph(model, name, feat_node: Tensor, leaves=None) -> Tensor:
    """Logits of the model's head `name` as a graph node; the graph twin of
    `ExpandableModel.head_np`. Its weight and bias are the nodes of that
    name in `leaves`, or fresh leaves over the model's arrays."""
    w, b = model._head(name)
    if leaves is None:
        leaves = {f"{name}_w": ad.leaf(w), f"{name}_b": ad.leaf(b)}
    return ad.linear(feat_node, leaves[f"{name}_w"], leaves[f"{name}_b"])


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
    ls = cf.log_softmax(logits.values)
    picked = ls[np.arange(n), labels]
    p = np.exp(ls)

    def _backward(go):
        g = p.copy()
        g[np.arange(n), labels] -= 1.0
        g /= n
        _accumulate(logits, g * float(go))

    return Tensor(np.asarray(-picked.sum() / n), (logits,), "ce", _backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ConfigurationError(f"add: shape mismatch {a.shape} vs {b.shape}")

    def _backward(go):
        _accumulate(a, go)
        _accumulate(b, go)

    return Tensor(a.values + b.values, (a, b), "add", _backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ConfigurationError(f"sub: shape mismatch {a.shape} vs {b.shape}")

    def _backward(go):
        _accumulate(a, go)
        if b.op != "const":
            _accumulate(b, -go)

    return Tensor(a.values - b.values, (a, b), "sub", _backward)


def scale(a: Tensor, k: float) -> Tensor:
    k = float(k)

    def _backward(go):
        _accumulate(a, go * k)

    return Tensor(a.values * k, (a,), "scale", _backward)


def take_rows(a: Tensor, lo: int, hi: int) -> Tensor:
    """Contiguous row slice a[lo:hi] of a batched node.

    Pass-through gradient into the sliced rows; the remaining rows of the
    parent receive nothing (zeros, if this is the parent's first
    contribution).
    """
    _require_batch(a, "take_rows")
    lo, hi = int(lo), int(hi)
    if not 0 <= lo <= hi <= a.shape[0]:
        raise InputError(f"take_rows: range [{lo}, {hi}) outside {a.shape[0]} rows")

    def _backward(go):
        if a.op == "const":
            return
        if a.grad is None:
            a.grad = np.zeros_like(a.values)
        a.grad[lo:hi] += go

    return Tensor(a.values[lo:hi].copy(), (a,), "rows", _backward)


def sum_squares(a: Tensor) -> Tensor:
    """Scalar sum of all squared entries."""

    def _backward(go):
        _accumulate(a, 2.0 * a.values * float(go))

    return Tensor(np.asarray(np.sum(a.values * a.values)), (a,),
                  "sum_squares", _backward)


def kl_softmax(a: Tensor, b: Tensor) -> Tensor:
    """Mean over rows of KL(softmax(a) || softmax(b)); >= 0, zero iff each
    row of a - b is constant. Differentiable with respect to both."""
    _require_batch(a, "kl_softmax")
    if a.shape != b.shape:
        raise ConfigurationError(f"kl_softmax: shape mismatch {a.shape} vs {b.shape}")
    la = cf.log_softmax(a.values)
    lb = cf.log_softmax(b.values)
    p = np.exp(la)
    r = la - lb
    n = a.shape[0]
    q = np.exp(lb)

    def _backward(go):
        go = float(go) / n
        inner = np.sum(p * r, axis=-1, keepdims=True)
        _accumulate(a, go * p * (r - inner))
        _accumulate(b, go * (q - p))

    return Tensor(np.asarray(np.sum(p * r, axis=-1).sum() / n), (a, b),
                  "kl_softmax", _backward)


def neglog_complement_prob(logits: Tensor, label, eps=1e-12) -> Tensor:
    """Mean over rows of -log(1 - softmax(logits)[label] + eps)."""
    labels = _batch_labels(logits, label, "neglog_complement_prob")
    n = logits.shape[0]
    p = cf.softmax(logits.values)
    py = p[np.arange(n), labels]
    s = 1.0 - py + eps

    def _backward(go):
        go = float(go) / n
        g = -(py / s)[:, None] * p
        g[np.arange(n), labels] += py / s
        _accumulate(logits, g * go)

    return Tensor(np.asarray(-np.log(s).sum() / n), (logits,), "nlcp",
                  _backward)


def sum_picked(mat: Tensor, idx) -> Tensor:
    """Scalar sum of mat[i, idx[i]]; used for per-sample logit saliency."""
    _require_batch(mat, "sum_picked")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape != (mat.shape[0],):
        raise UsageError("sum_picked: expects one index per row")
    rows = np.arange(mat.shape[0])

    def _backward(go):
        g = np.zeros_like(mat.values)
        g[rows, idx] = float(go)
        _accumulate(mat, g)

    return Tensor(np.asarray(mat.values[rows, idx].sum()), (mat,),
                  "sum_picked", _backward)


# ---------------------------------------------------------------------------
# input saliency as a graph

def graph_saliency(model, x, backward=ad.backward):
    """`metrics.input_saliency` as an autodiff graph: every extractor and
    the classifier run with their parameters as constants, so the input is
    the one node that gets a gradient. `backward` runs the pass."""
    node = ad.leaf(np.asarray(x, dtype=np.float64))
    feats = []
    for ext in model.extractors:
        h = node
        for i in range(ext.n_layers):
            h = ad.linear(h, constant(ext.params[f"w{i}"]),
                          constant(ext.params[f"b{i}"]))
            if i < ext.n_layers - 1:
                h = ad.relu(h)
        feats.append(h)
    z = feats[0] if len(feats) == 1 else concat(feats)
    logits = ad.linear(z, constant(model.heads["cls_w"]),
                       constant(model.heads["cls_b"]))
    backward(sum_picked(logits, np.argmax(logits.values, axis=1)))
    return np.abs(node.grad)


# ---------------------------------------------------------------------------
# the masking curve over one concatenated probe

def concat_masking_curve(model, x, y, dim_tags, ks):
    """`metrics.masking_curve` on one probe: saliency, k = 0 and every
    masked pass run over all rows of x at once. Takes valid arguments."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    causal_cols = np.array([i for i, t in enumerate(dim_tags)
                            if t in ("causal", "minimal_causal")], dtype=np.int64)
    acts = [ext.masks_np(x) for ext in model.extractors]
    pred = np.argmax(model.forward_concat_np(x), axis=1)
    sal = input_saliency(model, acts, pred)[:, causal_cols]
    order = np.argsort(-sal, axis=1)  # per-sample causal cols, most salient first
    curve = []
    for k in ks:
        masked = x.copy()
        if k:
            rows = np.repeat(np.arange(len(x)), k)
            cols = causal_cols[order[:, :k]].ravel()
            masked[rows, cols] = 0.0
        pred = np.argmax(model.forward_concat_np(masked), axis=1)
        curve.append((k, float(np.mean(pred == y))))
    return curve


# ---------------------------------------------------------------------------
# the objective as a graph

def surrogate_intra_loss(factual: Tensor, counterfactual_values, labels,
                         w: Tensor, b: Tensor, nu=1.0) -> Tensor:
    """Cross-entropy on the factual feature plus nu times the negative
    log-complement of the true-class probability on the counterfactual,
    which enters as a constant offset from the factual node."""
    suff = softmax_cross_entropy(ad.linear(factual, w, b), labels)
    delta = constant(np.asarray(counterfactual_values) - factual.values)
    cbar = add(factual, delta)
    nec = neglog_complement_prob(ad.linear(cbar, w, b), labels)
    return add_scalars([suff, scale(nec, nu)])


PROJECTOR = ("proj_w0", "proj_b0", "proj_w1", "proj_b1")


def projector_graph(model, zold_node: Tensor, leaves=None) -> Tensor:
    """`ExpandableModel.project_values` as a graph over the nodes of the
    projector's names in `leaves`, or fresh leaves over its arrays."""
    if "proj_w0" not in model.heads:
        raise UsageError("projector is absent on the first task")
    if leaves is None:
        leaves = leaves_over({name: model.heads[name] for name in PROJECTOR})
    h = ad.relu(ad.linear(zold_node, leaves["proj_w0"], leaves["proj_b0"]))
    return ad.linear(h, leaves["proj_w1"], leaves["proj_b1"])


def projector_loss(model, z_old_values, target_values, leaves=None):
    """Mean squared projector residual; target enters as a plain value.
    The projector's parameters are as in `projector_graph`."""
    pred = projector_graph(model, constant(z_old_values), leaves)
    diff = sub(pred, constant(target_values))
    return scale(sum_squares(diff), 1.0 / len(target_values))


def graph_objective(model, xb, yb, n_c, frozen, config, use_cls, use_intra,
                    use_inter):
    """`trainer._objective` as an autodiff graph: same arguments, same
    (losses, grads) result. The graph's parameters are fresh leaves over
    the model's arrays, and the gradients are read off them."""
    lo = model.class_offsets[-1][0]
    cur_count = model.current_class_count
    mixed = frozen is not None
    ext_leaves = leaves_over(model.extractors[-1].params)
    heads = leaves_over(model.heads)
    w_i, b_i = heads["intra_w"], heads["intra_b"]
    if use_inter:
        head = model.inter_head
        w_e, b_e = heads[f"{head}_w"], heads[f"{head}_b"]
    losses = {}
    c_hat = model.current_feature_graph(constant(xb), ext_leaves)
    z = concat([constant(frozen), c_hat]) if mixed else c_hat
    terms = []
    if use_cls:
        cls_loss = softmax_cross_entropy(
            head_graph(model, "cls", z, heads), yb)
        losses["cls"] = float(cls_loss.values)
        terms.append(cls_loss)
    if mixed:
        aux_labels = np.where(yb >= lo, yb - lo, cur_count)
        aux_loss = softmax_cross_entropy(
            head_graph(model, "aux", c_hat, heads), aux_labels)
        losses["aux"] = float(aux_loss.values)
        terms.append(aux_loss)
    kl_terms = []
    if use_intra:
        c_cur = take_rows(c_hat, 0, n_c) if mixed else c_hat
        y_local = yb[:n_c] - lo
        cfs_i, _, _, _ = cf.generate_intra_batch(
            c_cur.values, y_local, w_i.values, b_i.values,
            alpha=config.gen.alpha, epsilon=config.gen.epsilon)
        intra_loss = surrogate_intra_loss(c_cur, cfs_i, y_local, w_i, b_i,
                                          nu=config.nu)
        losses["intra"] = float(intra_loss.values)
        terms.append(intra_loss)
        if config.gamma > 0:
            kl_terms.append(kl_softmax(
                c_cur, add(c_cur, constant(cfs_i - c_cur.values))))
    if use_inter:
        proj_vals = model.project_values(frozen)
        cfs_e, _, _, _ = cf.generate_inter_batch(
            c_hat.values, proj_vals, beta=config.gen.beta,
            epsilon=config.gen.epsilon)
        z_cf = np.concatenate([frozen, cfs_e], axis=1)
        inter_loss = surrogate_intra_loss(z, z_cf, yb, w_e, b_e, nu=config.nu)
        losses["inter"] = float(inter_loss.values)
        terms.append(scale(inter_loss, config.lam))
        if config.gamma > 0:
            kl_terms.append(kl_softmax(
                c_hat, add(c_hat, constant(cfs_e - c_hat.values))))
    if kl_terms:
        kl_total = add_scalars(kl_terms)
        losses["kl"] = float(kl_total.values)
        terms.append(scale(kl_total, config.gamma))
    if use_inter:
        proj_loss = projector_loss(model, frozen, c_hat.values, heads)
        losses["proj"] = float(proj_loss.values)
        terms.append(proj_loss)
    ad.backward(terms[0] if len(terms) == 1 else add_scalars(terms))
    prefix = f"f{model.current_task}/"
    heads.update((prefix + name, leaf) for name, leaf in ext_leaves.items())
    return losses, {name: heads[name].grad for name in
                    tr._param_set(model, use_cls, use_intra, use_inter)}


# ---------------------------------------------------------------------------
# the optimizer, one parameter at a time

def per_array_step(params, grads, state, config):
    """`trainer.optimizer_step` as it ran before the flat layout: a loop
    over the parameters (name -> array, updated in place) with per-name
    momentum slots. `state` starts as {"step": 0, "m": {}}."""
    lr = float(config.lr)
    for name in params:
        g = grads.get(name)
        if g is None:
            raise UsageError(f"parameter {name!r} got no gradient")
        if not np.isfinite(g).all():
            raise NumericsError(
                f"non-finite gradient in {name!r} at step {state['step'] + 1}")
    state["step"] += 1
    for name, t in params.items():
        g = grads[name]
        if config.weight_decay > 0.0:
            t -= lr * config.weight_decay * t
        buf = state["m"].get(name)
        # a copy on the first step: the momentum must not alias g
        buf = g.copy() if buf is None else config.momentum * buf + g
        state["m"][name] = buf
        t -= lr * buf
    return state


# ---------------------------------------------------------------------------
# herding and the checkpoint document, as they ran before their rewrites

def masked_herding_order(features, m):
    """`trainer.herding_order` scoring all n rows at every pick, with the
    taken rows' scores set to inf."""
    feats = np.atleast_2d(np.asarray(features, dtype=np.float64))
    n = len(feats)
    m = int(min(m, n))
    mu = feats.mean(axis=0)
    total = np.zeros_like(mu)
    taken = np.zeros(n, dtype=bool)
    order = []
    for k in range(1, m + 1):
        cand = (total + feats) / k
        d2 = np.sum((cand - mu) ** 2, axis=1)
        d2[taken] = np.inf
        i = int(np.argmin(d2))
        order.append(i)
        total += feats[i]
        taken[i] = True
    return order


def compacted_herding_order(features, m):
    """`trainer.herding_order` scoring every untaken row at every pick,
    the untaken rows compacted at the front of a work copy in ascending
    index order. On finite scores it agrees with `masked_herding_order`;
    where every untaken row scores inf it still picks an untaken one."""
    feats = np.atleast_2d(np.asarray(features, dtype=np.float64))
    n = len(feats)
    m = int(min(m, n))
    mu = feats.mean(axis=0)
    total = np.zeros_like(mu)
    rest, live = feats.copy(), np.arange(n)
    work, d2 = np.empty_like(feats), np.empty(n)
    order = []
    for k in range(1, m + 1):
        cand = np.add(total, rest[:n], out=work[:n])
        cand /= k
        cand -= mu
        cand *= cand
        j = int(np.add.reduce(cand, axis=1, out=d2[:n]).argmin())
        order.append(int(live[j]))
        total += rest[j]
        rest[j:n - 1] = rest[j + 1:n]
        live[j:n - 1] = live[j + 1:n]
        n -= 1
    return order


def plain_checkpoint_text(model):
    """The bytes `model.save_checkpoint` writes, as one canonical
    `json.dumps` of the whole document with no text reused."""
    def array(values):
        return {"shape": list(values.shape), "data": values.tolist()}

    doc = {
        "magic": "CPNSLAB1",
        "format_version": 1,
        "input_dim": model.input_dim,
        "feature_dim": model.feature_dim,
        "hidden_dims": list(model.hidden_dims),
        "projector_hidden": model.projector_hidden,
        "separate_inter_head": model.separate_inter_head,
        "seed": model.seed,
        "class_offsets": [list(pair) for pair in model.class_offsets],
        "rng_state": model.rng.bit_generator.state,
        "extractors": [
            {"task_index": t, "layer_dims": ext.layer_dims,
             "frozen": t < model.task_count - 1,
             "params": {name: array(p) for name, p in ext.params.items()}}
            for t, ext in enumerate(model.extractors)],
        "heads": {name: array(a) for name, a in model.heads.items()},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
