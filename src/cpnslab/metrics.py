"""Evaluation instruments for incremental runs.

Incremental accuracy (last and average), old-to-new leakage grouped by
prototype overlap, linear CKA between activation sets, saliency-guided
masking curves over annotated causal dimensions, counterfactual quality
(flip rate, latent divergence, historical similarity), and an exact 1-D
Wasserstein distance for distributional consistency checks.

Everything here is a pure function over model snapshots and arrays; nothing
mutates the model.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError, InputError, UsageError

OVERLAP_GROUPS = ("low", "medium", "high")


def _check_unit(name, value, slack=1e-9):
    if not -slack <= value <= 1.0 + slack:
        raise InputError(f"{name} must lie in [0, 1], got {value}")


@dataclass
class EvalRecord:
    """One evaluation snapshot taken after a task.

    Accuracy fields are mandatory; the diagnostic fields are None when the
    stage they need has not happened (no old classes yet, no counterfactual
    batch requested, and so on).
    """

    task_index: int
    per_task_acc: list
    last_acc: float
    avg_acc: float
    old_new_errors: Optional[dict] = None
    cka_by_layer: Optional[list] = None
    masking_curve: Optional[list] = None
    cf_quality: Optional[tuple] = None

    def __post_init__(self):
        for i, acc in enumerate(self.per_task_acc):
            _check_unit(f"per_task_acc[{i}]", acc)
        _check_unit("last_acc", self.last_acc)
        _check_unit("avg_acc", self.avg_acc)
        if self.old_new_errors is not None:
            for group, rate in self.old_new_errors.items():
                if not np.isnan(rate):
                    _check_unit(f"old_new_errors[{group}]", rate)
        if self.cka_by_layer is not None:
            for layer, value in self.cka_by_layer:
                _check_unit(f"cka_by_layer[{layer}]", value)
        if self.masking_curve is not None:
            ks = [k for k, _ in self.masking_curve]
            if any(b <= a for a, b in zip(ks, ks[1:])):
                raise InputError(f"masking_curve ks must strictly increase: {ks}")
            for k, acc in self.masking_curve:
                _check_unit(f"masking_curve[k={k}]", acc)
        if self.cf_quality is not None:
            pfr, lkld, hss = self.cf_quality
            _check_unit("cf_quality.pfr", pfr)
            if lkld < 0:
                raise InputError(f"cf_quality.lkld must be >= 0, got {lkld}")
            if hss is not None and not -1.0 - 1e-9 <= hss <= 1.0 + 1e-9:
                raise InputError(f"cf_quality.hss must lie in [-1, 1], got {hss}")

    def to_json_dict(self):
        return {
            "task_index": int(self.task_index),
            "per_task_acc": [float(a) for a in self.per_task_acc],
            "last_acc": float(self.last_acc),
            "avg_acc": float(self.avg_acc),
            "old_new_errors": (None if self.old_new_errors is None else
                               {k: float(v) for k, v in self.old_new_errors.items()}),
            "cka_by_layer": (None if self.cka_by_layer is None else
                             [[int(l), float(v)] for l, v in self.cka_by_layer]),
            "masking_curve": (None if self.masking_curve is None else
                              [[int(k), float(a)] for k, a in self.masking_curve]),
            "cf_quality": (None if self.cf_quality is None else
                           [float(self.cf_quality[0]), float(self.cf_quality[1]),
                            None if self.cf_quality[2] is None
                            else float(self.cf_quality[2])]),
        }

    @classmethod
    def from_json_dict(cls, d):
        cf = d.get("cf_quality")
        return cls(
            task_index=d["task_index"],
            per_task_acc=list(d["per_task_acc"]),
            last_acc=d["last_acc"],
            avg_acc=d["avg_acc"],
            old_new_errors=d.get("old_new_errors"),
            cka_by_layer=(None if d.get("cka_by_layer") is None else
                          [(l, v) for l, v in d["cka_by_layer"]]),
            masking_curve=(None if d.get("masking_curve") is None else
                           [(k, a) for k, a in d["masking_curve"]]),
            cf_quality=None if cf is None else (cf[0], cf[1], cf[2]),
        )


# ---------------------------------------------------------------------------
# incremental accuracy

def incremental_accuracy(history):
    """(last, avg) over the per-stage accuracy history.

    history[i] is the accuracy over all classes seen so far, measured after
    stage i. last is the final entry, avg the mean across stages.
    """
    history = [float(h) for h in history]
    if not history:
        raise InputError("accuracy history is empty")
    for h in history:
        _check_unit("stage accuracy", h)
    return history[-1], float(np.mean(history))


# ---------------------------------------------------------------------------
# old-to-new leakage by overlap group

def _cosine(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b) / (na * nb)


def old_new_error(old_predictions, new_class_range, prototypes):
    """Per-overlap-group rate of old samples predicted as new classes.

    `old_predictions` holds one (predicted labels, true labels) pair per
    old test set. Each old class's overlap is its maximum prototype cosine
    against the new classes; old classes are split into low/medium/high
    groups at the tertiles of that overlap distribution, and each group's
    rate is the fraction of its test samples whose prediction falls inside
    new_class_range. Groups left empty by ties come back as NaN.
    """
    if not old_predictions:
        raise UsageError("no old test sets supplied")
    lo, hi = new_class_range
    if not lo < hi:
        raise InputError(f"empty new-class range [{lo}, {hi})")

    preds = [np.asarray(p, dtype=np.int64) for p, _ in old_predictions]
    ys = [np.asarray(y, dtype=np.int64) for _, y in old_predictions]
    old_classes = sorted({int(c) for y in ys for c in np.unique(y)})
    new_classes = list(range(lo, hi))
    for c in old_classes + new_classes:
        if c not in prototypes:
            raise InputError(f"missing prototype for class {c}")

    overlap = {c: max(_cosine(prototypes[c], prototypes[n]) for n in new_classes)
               for c in old_classes}
    values = np.array([overlap[c] for c in old_classes])
    q1, q2 = np.quantile(values, [1.0 / 3.0, 2.0 / 3.0])
    group_of = {}
    for c in old_classes:
        if overlap[c] <= q1:
            group_of[c] = "low"
        elif overlap[c] <= q2:
            group_of[c] = "medium"
        else:
            group_of[c] = "high"

    hits = {g: 0 for g in OVERLAP_GROUPS}
    totals = {g: 0 for g in OVERLAP_GROUPS}
    for pred, y in zip(preds, ys):
        into_new = (pred >= lo) & (pred < hi)
        for c in np.unique(y):
            g = group_of[int(c)]
            mask = y == c
            hits[g] += int(np.sum(into_new[mask]))
            totals[g] += int(np.sum(mask))
    return {g: (hits[g] / totals[g] if totals[g] else float("nan"))
            for g in OVERLAP_GROUPS}


# ---------------------------------------------------------------------------
# linear CKA

def linear_cka(x, y):
    """||Y^T X||_F^2 / (||X^T X||_F ||Y^T Y||_F) on column-centered inputs.

    Symmetric, bounded by [0, 1], invariant to orthogonal maps and isotropic
    scaling of either side. Zero-variance input is defined as similarity 0
    (with a warning) rather than an error so sweeps over dead layers do not
    abort.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise InputError(f"activations must be 2-D, got {x.shape} and {y.shape}")
    if len(x) != len(y):
        raise InputError(f"row counts differ: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise InputError("need at least 2 rows")
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    denom_x = np.linalg.norm(xc.T @ xc)
    denom_y = np.linalg.norm(yc.T @ yc)
    if denom_x == 0.0 or denom_y == 0.0:
        warnings.warn("zero-variance activations: linear CKA defined as 0")
        return 0.0
    return float(np.linalg.norm(yc.T @ xc) ** 2 / (denom_x * denom_y))


def extractor_cka(ext_a, ext_b, x):
    """Layerwise linear CKA between two extractors on shared inputs.

    Pairs the i-th activation of each extractor; both must have the same
    depth. This is the shallow-vs-deep comparison between the feature
    stacks of consecutive tasks.
    """
    acts_a = ext_a.activations_np(np.asarray(x, dtype=np.float64))
    acts_b = ext_b.activations_np(np.asarray(x, dtype=np.float64))
    if len(acts_a) != len(acts_b):
        raise InputError(
            f"extractor depths differ: {len(acts_a)} vs {len(acts_b)}")
    return [(i, linear_cka(a, b)) for i, (a, b) in enumerate(zip(acts_a, acts_b))]


# ---------------------------------------------------------------------------
# saliency masking

def input_saliency(model, x):
    """|d logit_pred / d x| per sample and input dimension."""
    x = np.asarray(x, dtype=np.float64)
    node = ad.leaf(x)
    logits = model.full_graph_logits(node)
    preds = np.argmax(logits.values, axis=1)
    score = ad.sum_picked(logits, preds)
    ad.backward(score)
    return np.abs(node.grad.copy())


def masking_curve(model, x, y, dim_tags, ks):
    """Accuracy after zeroing each sample's top-k salient causal dims.

    Causal dims are those tagged causal or minimal_causal; they are ranked
    per sample by input-gradient magnitude. Returns [(k, acc)].
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    causal_cols = np.array([i for i, t in enumerate(dim_tags)
                            if t in ("causal", "minimal_causal")], dtype=np.int64)
    if len(causal_cols) == 0:
        raise ConfigurationError("no dimensions are annotated causal")
    ks = [int(k) for k in ks]
    if any(b <= a for a, b in zip(ks, ks[1:])) or not ks:
        raise InputError(f"ks must be non-empty and strictly increasing: {ks}")
    if ks[0] < 0:
        raise ConfigurationError(f"ks must be non-negative: {ks}")
    if ks[-1] > len(causal_cols):
        raise ConfigurationError(
            f"k up to {ks[-1]} exceeds the {len(causal_cols)} annotated dims")

    sal = input_saliency(model, x)[:, causal_cols]
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
# counterfactual quality

def counterfactual_quality(model, factual, counterfactual, values,
                           references=None):
    """(pfr, lkld, hss) over rows of generated counterfactuals.

    Row i of `counterfactual` was generated from row i of `factual` with
    constraint-metric value values[i]. All rows live in the current
    feature space, so flips are read from the current-task head: PFR is
    the fraction of rows whose argmax changed. LKLD is the mean metric
    value. The last len(references) rows are inter-scope counterfactuals
    and `references` holds the projected old features they were pulled
    toward; HSS is the mean cosine between those rows and their
    references. It is None when there are no inter rows.
    """
    factual = np.atleast_2d(np.asarray(factual, dtype=np.float64))
    counter = np.atleast_2d(np.asarray(counterfactual, dtype=np.float64))
    if factual.size == 0:
        raise InputError("no counterfactual rows supplied")
    dim = model.heads["intra_w"].values.shape[1]
    if factual.shape[1] != dim or counter.shape != factual.shape:
        raise InputError(
            f"factual {factual.shape} and counterfactual {counter.shape} rows "
            f"do not match head dim {dim}")
    pred_f = np.argmax(model.head_np("intra", factual), axis=1)
    pred_c = np.argmax(model.head_np("intra", counter), axis=1)
    pfr = float(np.mean(pred_f != pred_c))
    lkld = float(np.mean(values))
    if references is None or not len(references):
        return pfr, lkld, None
    refs = np.atleast_2d(np.asarray(references, dtype=np.float64))
    if refs.shape[1] != factual.shape[1] or len(refs) > len(counter):
        raise InputError(f"references {refs.shape} do not fit the "
                         f"counterfactual rows {counter.shape}")
    inter = counter[len(counter) - len(refs):]
    hss = float(np.mean([_cosine(c, r) for c, r in zip(inter, refs)]))
    return pfr, lkld, hss


# ---------------------------------------------------------------------------
# 1-D Wasserstein

def _w1_single(u, v):
    # exact W1 between empirical distributions: integrate |F_u - F_v|
    u = np.sort(u)
    v = np.sort(v)
    grid = np.concatenate([u, v])
    grid.sort(kind="mergesort")
    deltas = np.diff(grid)
    if not len(deltas):
        return 0.0
    cdf_u = np.searchsorted(u, grid[:-1], side="right") / len(u)
    cdf_v = np.searchsorted(v, grid[:-1], side="right") / len(v)
    return float(np.sum(np.abs(cdf_u - cdf_v) * deltas))


def wasserstein_1d(a, b):
    """Exact 1-D W1 distance, averaged over feature dimensions.

    1-D inputs are treated as a single dimension; 2-D inputs are sliced per
    column and the per-column distances averaged. Sample counts may differ.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise InputError("both sample sets must be non-empty")
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise InputError(f"incompatible shapes {a.shape} vs {b.shape}")
    return float(np.mean([_w1_single(a[:, j], b[:, j])
                          for j in range(a.shape[1])]))
