"""Evaluation instruments for incremental runs.

Incremental accuracy (last and average), old-to-new leakage grouped by
prototype overlap, linear CKA between activation sets, saliency-guided
masking curves over annotated causal dimensions, and counterfactual
quality (flip rate, latent divergence, historical similarity).

Everything here is a pure function over model snapshots and arrays; nothing
mutates the model.
"""

import warnings
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, InputError, UsageError

OVERLAP_GROUPS = ("low", "medium", "high")


def _check_unit(name, value, slack=1e-9):
    if not -slack <= value <= 1.0 + slack:
        raise InputError(f"{name} must lie in [0, 1], got {value}")


@dataclass
class EvalRecord:
    """One evaluation snapshot taken after a task.

    Accuracy fields are mandatory and a run always fills `cf_quality`; the
    other diagnostics are None when their inputs are missing (no old
    classes yet, or no causal dimension tag that a mask size fits).
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
        return asdict(self)


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

    if any(len(p) != len(y) for p, y in old_predictions):
        raise InputError("predictions and labels differ in length")
    pred = np.concatenate([np.asarray(p, dtype=np.int64)
                           for p, _ in old_predictions])
    y = np.concatenate([np.asarray(y, dtype=np.int64)
                        for _, y in old_predictions])
    if not len(y):
        raise InputError("no old test rows supplied")
    old_classes = np.unique(y)
    new_classes = range(lo, hi)
    for c in [*old_classes.tolist(), *new_classes]:
        if c not in prototypes:
            raise InputError(f"missing prototype for class {c}")

    # `_cosine` of every (old, new) pair: one product over the outer
    # product of the norms, 0 where either prototype is zero
    old_p = np.array([prototypes[c] for c in old_classes.tolist()])
    new_p = np.array([prototypes[n] for n in new_classes])
    n_old, n_new = (np.linalg.norm(p, axis=1) for p in (old_p, new_p))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = old_p @ new_p.T / np.outer(n_old, n_new)
    cos[(n_old == 0.0)[:, None] | (n_new == 0.0)] = 0.0
    overlap = cos.max(axis=1)
    q1, q2 = np.quantile(overlap, [1.0 / 3.0, 2.0 / 3.0])
    # 0 low, 1 medium, 2 high; a NaN fails both tests and lands in high
    group = np.where(overlap <= q1, 0, np.where(overlap <= q2, 1, 2))
    row_group = group[np.searchsorted(old_classes, y)]
    into_new = (pred >= lo) & (pred < hi)
    hits = np.bincount(row_group[into_new], minlength=3).tolist()
    totals = np.bincount(row_group, minlength=3).tolist()
    return {g: (h / n if n else float("nan"))
            for g, h, n in zip(OVERLAP_GROUPS, hits, totals)}


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

def input_saliency(model, acts, pred):
    """|d logit_pred / d x| per sample and input dimension, in closed form.

    `acts[t]` is extractor t's `masks_np` on the rows (each hidden
    layer's bool ReLU mask, then the feature), one entry per extractor in
    task order, and `pred` the predicted class per row. The gradient of
    the predicted logit in the concatenated features is the predicted
    class's row of the classifier weight; its d-wide block t is the
    gradient in extractor t's feature. Each block goes back through its
    extractor's layers as `g @ w_i`, and below a hidden layer times that
    layer's ReLU mask. The extractors' input gradients are summed in task
    order 0..T-1, the order in which the autodiff graph of the same logit
    adds them, so the result is that graph's to the bit; from three
    extractors on another order moves bits. The tests keep the graph as
    the reference.
    """
    if len(acts) != model.task_count:
        raise InputError(f"{len(acts)} activation sets for "
                         f"{model.task_count} extractors")
    d = model.feature_dim
    g_feat = model.heads["cls_w"][pred]
    for t, (ext, a) in enumerate(zip(model.extractors, acts)):
        g = g_feat[:, t * d:(t + 1) * d]
        for i in reversed(range(ext.n_layers)):
            g = g @ ext.params[f"w{i}"]
            if i:
                g = g * a[i - 1]
        grad = g if t == 0 else grad + g
    return np.abs(grad)


def causal_columns(dim_tags):
    """The indices of the dimensions tagged causal or minimal_causal."""
    return np.array([i for i, t in enumerate(dim_tags)
                     if t in ("causal", "minimal_causal")], dtype=np.int64)


def masking_curve(model, test_sets, acts, preds, dim_tags, ks):
    """Accuracy after zeroing each sample's top-k salient causal dims.

    Causal dims are those tagged causal or minimal_causal; they are ranked
    per sample by input-gradient magnitude. `test_sets` holds (x, y)
    pairs, `acts[j][t]` is extractor t's `masks_np` on test set j and
    `preds[j]` the model's predictions on set j, so the unmasked forward
    is not run again: the saliency comes from those ReLU masks and
    predictions (`input_saliency`), and the k = 0 point is the
    predictions' accuracy. Each set is masked and scored on its own, and
    the hits are summed over the sets, which gives the accuracy over all
    their rows exactly. Returns [(k, acc)].
    """
    causal_cols = causal_columns(dim_tags)
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
    if not len(acts) == len(preds) == len(test_sets):
        raise InputError(f"{len(acts)} activation sets and {len(preds)} "
                         f"prediction sets for {len(test_sets)} test sets")

    hits = [0] * len(ks)
    total = 0
    for (x, y), set_acts, pred in zip(test_sets, acts, preds):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        sal = input_saliency(model, set_acts, pred)
        # per-sample causal cols, most salient first
        order = np.argsort(-sal[:, causal_cols], axis=1)
        for i, k in enumerate(ks):
            masked_pred = pred
            if k:
                masked = x.copy()
                rows = np.repeat(np.arange(len(x)), k)
                masked[rows, causal_cols[order[:, :k]].ravel()] = 0.0
                masked_pred = np.argmax(model.forward_concat_np(masked), axis=1)
            hits[i] += int(np.sum(masked_pred == y))
        total += len(y)
    if not total:
        raise InputError("no test rows to mask")
    return [(k, h / total) for k, h in zip(ks, hits)]


# ---------------------------------------------------------------------------
# counterfactual quality

def counterfactual_quality(model, factual, counterfactual, values,
                           references=None):
    """(pfr, lkld, hss) over rows of generated counterfactuals.

    Row i of `counterfactual` was generated from row i of `factual` with
    KL budget value values[i]. All rows live in the current feature
    space, so flips are read from the current-task head: PFR is the
    fraction of rows whose argmax changed. LKLD is the mean KL value. The
    last len(references) rows are inter-scope counterfactuals and
    `references` holds the projected old features they were pulled
    toward; HSS is the mean cosine between those rows and their
    references. It is None when there are no inter rows.
    """
    factual = np.atleast_2d(np.asarray(factual, dtype=np.float64))
    counter = np.atleast_2d(np.asarray(counterfactual, dtype=np.float64))
    if factual.size == 0:
        raise InputError("no counterfactual rows supplied")
    dim = model.heads["intra_w"].shape[1]
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
