"""Shared test helpers: numeric differentiation oracle, error metrics, a
by-name view of a model's parameters, every extractor's evaluation
entry (ReLU masks and feature) and the predictions evaluation takes from
those entries, and a risk report over a (current, buffer) pair laid out
as the trainer lays out its report pool."""

import numpy as np

from cpnslab import risk as rk


def numeric_grad(f, x, h=1e-5):
    """Central finite differences of a scalar function at array x.

    f takes a float64 array of x's shape and returns a python float.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def rel_err(got, want):
    """Max absolute difference normalized by the max magnitude of `want`.

    A tiny floor keeps the all-zero case well defined (returns 0 when both
    sides vanish).
    """
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = max(np.abs(want).max(), 1e-12) if want.size else 1e-12
    return np.abs(got - want).max() / denom


def all_params(model):
    """Every parameter of the model by name: `f{t}/{name}` per extractor,
    then the heads in sorted order."""
    params = {f"f{t}/{name}": p for t, ext in enumerate(model.extractors)
              for name, p in ext.params.items()}
    params.update((key, model.heads[key]) for key in sorted(model.heads))
    return params


def activations(model, x):
    """`masks_np` of every extractor on x, in task order (hidden ReLU masks,
    then the feature): the per-set entry that evaluation keeps and
    `metrics.input_saliency` and `masking_curve` read."""
    return [ext.masks_np(x) for ext in model.extractors]


def predictions(model, acts):
    """The predicted classes on one set from its entries, as evaluation
    takes them (`experiment._seen_set_outputs`): the classifier on the
    concatenated features."""
    feats = np.concatenate([a[-1] for a in acts], axis=1)
    return np.argmax(model.head_np("cls", feats), axis=1)


def pool_report(model, cur, buf, cfg):
    """`risk.empirical_cpns_risk` over the current rows `cur` then the
    rehearsal rows `buf` (None on the first task), with the pool's frozen
    features from one `frozen_concat_np`, as `trainer._report_pool` lays
    a pool out."""
    x, y = (np.asarray(v) for v in cur)
    frozen = None
    if buf is not None:
        x = np.concatenate([x, buf[0]])
        y = np.concatenate([y, buf[1]])
        frozen = model.frozen_concat_np(x)
    return rk.empirical_cpns_risk(model, x, y, len(cur[1]), frozen, cfg)
