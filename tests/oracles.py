"""Reference implementations the package no longer runs.

Both trainers compute their steps' gradients by hand
(`trainer._objective`, `trainer._baseline_step`), and
`metrics.input_saliency` its input gradient in closed form. Their graph
versions live here: the autodiff ops only they used, the surrogate loss,
the projector fit, `graph_objective`, which assembles one training step
as an autodiff graph (with only the cls flag on, it is the baseline's
step), `take_grads`, which moves its gradients off the leaves, and
`graph_saliency`, the predicted logit's input gradient through every
extractor. The tests hold the hand-derived versions to them bit for bit,
and hold these ops to finite differences. `concat_masking_curve` is the
masking curve as evaluation used to run it, over every test set
concatenated into one probe; the per-set `metrics.masking_curve` is held
to it. `per_array_step` is the optimizer step as it ran one parameter at
a time, before the flat layout; `trainer.optimizer_step` is held to it.

The ops follow the closure convention of `cpnslab.autodiff`: a backward
closure takes its node's gradient and refers only to the parents.
"""

import numpy as np

from cpnslab import autodiff as ad
from cpnslab import counterfactual as cf
from cpnslab import trainer as tr
from cpnslab.autodiff import Tensor, _accumulate, _batch_labels, _require_batch
from cpnslab.errors import (ConfigurationError, InputError, NumericsError,
                            UsageError)
from cpnslab.metrics import input_saliency


# ---------------------------------------------------------------------------
# graph ops

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
    la = ad.log_softmax(a.values)
    lb = ad.log_softmax(b.values)
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
    p = ad.softmax(logits.values)
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
            h = ad.linear(h, ad.constant(ext.params[f"w{i}"].values),
                          ad.constant(ext.params[f"b{i}"].values))
            if i < ext.n_layers - 1:
                h = ad.relu(h)
        feats.append(h)
    z = feats[0] if len(feats) == 1 else ad.concat(feats)
    logits = ad.linear(z, ad.constant(model.heads["cls_w"].values),
                       ad.constant(model.heads["cls_b"].values))
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
    acts = [ext.activations_np(x) for ext in model.extractors]
    sal = input_saliency(model, acts)[0][:, causal_cols]
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
    suff = ad.softmax_cross_entropy(ad.linear(factual, w, b), labels)
    delta = ad.constant(np.asarray(counterfactual_values) - factual.values)
    cbar = add(factual, delta)
    nec = neglog_complement_prob(ad.linear(cbar, w, b), labels)
    return ad.add_scalars([suff, scale(nec, nu)])


def projector_graph(model, zold_node: Tensor) -> Tensor:
    if "proj_w0" not in model.heads:
        raise UsageError("projector is absent on the first task")
    h = ad.relu(ad.linear(zold_node, model.heads["proj_w0"],
                          model.heads["proj_b0"]))
    return ad.linear(h, model.heads["proj_w1"], model.heads["proj_b1"])


def projector_loss(model, z_old_values, target_values):
    """Mean squared projector residual; target enters as a plain value."""
    pred = projector_graph(model, ad.constant(z_old_values))
    diff = sub(pred, ad.constant(target_values))
    return scale(sum_squares(diff), 1.0 / len(target_values))


def graph_objective(model, xb, yb, n_c, frozen, config, use_cls, use_intra,
                    use_inter):
    """`trainer._objective` as an autodiff graph: same arguments, same
    (losses, grads) result. The gradients are taken off the leaves."""
    lo = model.class_offsets[-1][0]
    cur_count = model.current_class_count
    mixed = frozen is not None
    params = tr._param_set(model, use_cls, use_intra, use_inter)
    w_i, b_i = model.heads["intra_w"], model.heads["intra_b"]
    if use_inter:
        head = model.inter_head
        w_e, b_e = model.heads[f"{head}_w"], model.heads[f"{head}_b"]
    losses = {}
    c_hat = model.current_feature_graph(ad.constant(xb))
    z = ad.concat([ad.constant(frozen), c_hat]) if mixed else c_hat
    terms = []
    if use_cls:
        cls_loss = ad.softmax_cross_entropy(model.head_graph("cls", z), yb)
        losses["cls"] = float(cls_loss.values)
        terms.append(cls_loss)
    if mixed:
        aux_labels = np.where(yb >= lo, yb - lo, cur_count)
        aux_loss = ad.softmax_cross_entropy(model.head_graph("aux", c_hat),
                                            aux_labels)
        losses["aux"] = float(aux_loss.values)
        terms.append(aux_loss)
    kl_terms = []
    if use_intra:
        c_cur = take_rows(c_hat, 0, n_c) if mixed else c_hat
        y_local = yb[:n_c] - lo
        cfs_i, _, _, _ = cf.generate_intra_batch(
            c_cur.values, y_local, w_i.values, b_i.values,
            alpha=config.gen.alpha, epsilon=config.gen.epsilon,
            metric=config.gen.metric)
        intra_loss = surrogate_intra_loss(c_cur, cfs_i, y_local, w_i, b_i,
                                          nu=config.nu)
        losses["intra"] = float(intra_loss.values)
        terms.append(intra_loss)
        if config.gamma > 0:
            kl_terms.append(kl_softmax(
                c_cur, add(c_cur, ad.constant(cfs_i - c_cur.values))))
    if use_inter:
        proj_vals = model.project_values(frozen)
        cfs_e, _, _, _ = cf.generate_inter_batch(
            c_hat.values, proj_vals, beta=config.gen.beta,
            epsilon=config.gen.epsilon, metric=config.gen.metric)
        z_cf = np.concatenate([frozen, cfs_e], axis=1)
        inter_loss = surrogate_intra_loss(z, z_cf, yb, w_e, b_e, nu=config.nu)
        losses["inter"] = float(inter_loss.values)
        terms.append(scale(inter_loss, config.lam))
        if config.gamma > 0:
            kl_terms.append(kl_softmax(
                c_hat, add(c_hat, ad.constant(cfs_e - c_hat.values))))
    if kl_terms:
        kl_total = ad.add_scalars(kl_terms)
        losses["kl"] = float(kl_total.values)
        terms.append(scale(kl_total, config.gamma))
    if use_inter:
        proj_loss = projector_loss(model, frozen, c_hat.values)
        losses["proj"] = float(proj_loss.values)
        terms.append(proj_loss)
    ad.backward(terms[0] if len(terms) == 1 else ad.add_scalars(terms))
    return losses, take_grads(params)


def take_grads(params):
    """The gradients the last `backward` left on the leaves, moved off them
    so that no leaf keeps one."""
    grads = {}
    for name, p in params.items():
        grads[name], p.grad = p.grad, None
    return grads


# ---------------------------------------------------------------------------
# the optimizer, one parameter at a time

def per_array_step(params, grads, state, config, lr=None):
    """`trainer.optimizer_step` as it ran before the flat layout: a loop
    over the parameters with per-name moment slots. `state` starts as
    {"step": 0, "m": {}, "v": {}}."""
    lr = config.lr if lr is None else float(lr)
    for name in params:
        g = grads.get(name)
        if g is None:
            raise UsageError(f"parameter {name!r} got no gradient")
        if not np.isfinite(g).all():
            raise NumericsError(
                f"non-finite gradient in {name!r} at step {state['step'] + 1}")
    state["step"] += 1
    k = state["step"]
    for name, t in params.items():
        g = grads[name]
        if config.weight_decay > 0.0:
            t.values -= lr * config.weight_decay * t.values
        if config.optimizer == "sgd":
            buf = state["m"].get(name)
            # a copy on the first step: the momentum must not alias g
            buf = g.copy() if buf is None else config.momentum * buf + g
            state["m"][name] = buf
            t.values -= lr * buf
        else:
            b1, b2 = config.adam_betas
            m = state["m"].get(name)
            if m is None:
                m = np.zeros_like(t.values)
                state["v"][name] = np.zeros_like(t.values)
            v = state["v"][name]
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            state["m"][name] = m
            state["v"][name] = v
            mhat = m / (1.0 - b1 ** k)
            vhat = v / (1.0 - b2 ** k)
            t.values -= lr * mhat / (np.sqrt(vhat) + config.adam_eps)
    return state
