"""Audits that only the tests run: the stream's overlap and shortcut trap
checked against its annotations (`consecutive_overlap`, `spurious_gap`
through the probe `linear_probe_accuracy`), and the interventional PNS
estimate the acceptance gate holds a model to."""

import numpy as np

from cpnslab import counterfactual as cf
from cpnslab import risk as rk
from cpnslab.errors import InputError, UsageError


def consecutive_overlap(stream) -> np.ndarray:
    """Max prototype cosine for each consecutive task pair.

    Uses the ground-truth prototypes from the annotations (already restricted
    to causal dimensions), so on a generated stream this reproduces the
    configured overlap to machine precision.
    """
    ann = stream.factor_annotations
    if not ann or "class_prototypes" not in ann:
        raise InputError("stream carries no prototype annotations")
    protos = ann["class_prototypes"]
    out = []
    for t in range(len(stream.tasks) - 1):
        _, _, (lo_a, hi_a) = stream.tasks[t]
        _, _, (lo_b, hi_b) = stream.tasks[t + 1]
        best = 0.0
        for a in range(lo_a, hi_a):
            pa = protos[a]
            na = np.linalg.norm(pa)
            for b in range(lo_b, hi_b):
                pb = protos[b]
                cos = abs(pa @ pb) / (na * np.linalg.norm(pb))
                best = max(best, cos)
        out.append(best)
    return np.array(out)


def linear_probe_accuracy(x_train, y_train, x_eval, y_eval, n_classes,
                          epochs=300, lr=0.5):
    """Accuracy of a full-batch softmax regression probe.

    Features are standardized by train statistics. Used to audit which
    dimension blocks carry label signal.
    """
    x_train = np.asarray(x_train, dtype=np.float64)
    x_eval = np.asarray(x_eval, dtype=np.float64)
    mu = x_train.mean(axis=0)
    sd = x_train.std(axis=0) + 1e-8
    xt = (x_train - mu) / sd
    xe = (x_eval - mu) / sd
    n, d = xt.shape
    w = np.zeros((d, n_classes))
    b = np.zeros(n_classes)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), np.asarray(y_train, dtype=np.int64)] = 1.0
    for _ in range(epochs):
        logits = xt @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / n
        w -= lr * (xt.T @ g)
        b -= lr * g.sum(axis=0)
    pred = np.argmax(xe @ w + b, axis=1)
    return float(np.mean(pred == np.asarray(y_eval)))


def spurious_gap(stream, **probe_kw):
    """Train accuracy minus test accuracy of a probe on spurious dims only.

    A large gap certifies the stream contains a shortcut trap: the spurious
    block predicts train labels but carries nothing at test time.
    """
    ann = stream.factor_annotations
    if not ann:
        raise InputError("stream carries no dimension annotations")
    cols = [i for i, tag in enumerate(ann["dim_tags"]) if tag == "spurious"]
    if not cols:
        raise InputError("stream has no spurious dimensions")
    xtr = np.concatenate([train[0][:, cols] for train, _, _ in stream.tasks])
    ytr = np.concatenate([train[1] for train, _, _ in stream.tasks])
    xte = np.concatenate([test[0][:, cols] for _, test, _ in stream.tasks])
    yte = np.concatenate([test[1] for _, test, _ in stream.tasks])
    n_classes = max(hi for _, _, (_, hi) in stream.tasks)
    train_acc = linear_probe_accuracy(xtr, ytr, xtr, ytr, n_classes, **probe_kw)
    test_acc = linear_probe_accuracy(xtr, ytr, xte, yte, n_classes, **probe_kw)
    return train_acc - test_acc, train_acc, test_acc


def estimate_pns_interventional(eval_set, model, scope,
                                cfg: rk.GenConfig) -> float:
    """Accuracy with factual representations minus accuracy with the
    generated counterfactual ones; the do() interventions are simulated by
    feature replacement. Value in [-1, 1] by construction.

    The intra intervention perturbs against the model's own prediction
    rather than the true label: a do() proxy must not condition on the
    outcome it is scoring, or an untrained model already shows a spurious
    positive effect. The training-aligned generation is the risk report's
    `pns_intra_est`.
    """
    if eval_set is None or not len(eval_set[0]):
        raise InputError("eval set is empty")
    x = np.asarray(eval_set[0], dtype=np.float64)
    y = np.asarray(eval_set[1], dtype=np.int64)
    if scope == "inter":
        if model.task_count < 2:
            raise UsageError("inter scope requires at least two tasks")
        return rk._scope(*rk._inter_indicators(
            model, model.frozen_concat_np(x), model.current_feature_np(x), y,
            cfg))[2]
    if scope != "intra":
        raise UsageError(f"unknown scope {scope!r}")
    lo, hi = model.class_offsets[-1]
    if y.min() < lo or y.max() >= hi:
        raise InputError("intra scope expects current-task labels only")
    feats = model.current_feature_np(x)
    pred_f = np.argmax(model.head_np("intra", feats), axis=1)
    cfs, _, _, _ = cf.generate_intra_batch(
        feats, pred_f, model.heads["intra_w"], b=model.heads["intra_b"],
        alpha=cfg.alpha, epsilon=cfg.epsilon)
    pred_c = np.argmax(model.head_np("intra", cfs), axis=1)
    return float(np.mean(pred_f == y - lo) - np.mean(pred_c == y - lo))
