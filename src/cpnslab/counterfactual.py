"""Dual-scope counterfactual feature generation.

Two generators produce constrained perturbations of a factual feature
vector: the intra-scope generator climbs the cross-entropy gradient of the
current-task head, the inter-scope generator pulls the feature toward the
projected old-feature approximation. Both enforce a semantic budget by
geometric backtracking on the step scale: halve until the KL divergence
between the softmax-normalized counterfactual and factual drops under
epsilon (at most 30 halvings, then give up and emit the factual flagged
degenerate). Zero-gradient inputs are degenerate immediately. Each round
scores only the rows still searching, and a row's KL value is the one
taken at its accepted scale; nothing is scored twice. Training nearly
always accepts the first scale, so round one scores the whole batch as
it is, and a batch feasible there returns round one's candidates
without entering the halving loop.

The trainer already holds some of what a generator computes: the intra
head's softmax error and the factual log-softmax it needs for its own KL
term. It passes them as the keyword-only `directions` (intra) and `ref`
(both generators), and the generator skips computing them; the result
is the same to the bit.

One reference perturber, an isotropic random direction under the same
budget, is the baseline for flip-rate comparisons.

`log_softmax` and `softmax` are the row-wise numerics the generators and
the trainer's objective share.

Every generator returns the same four arrays, one row per input row:
(counterfactuals, KL values, applied scales, degenerate mask). All are
pure functions of their inputs; `perturb_random` takes an explicit numpy
Generator.
"""

import numpy as np

from .errors import ConfigurationError

MAX_HALVINGS = 30


def log_softmax(x):
    """Row-wise (or vector) log softmax of a float array, with max
    subtraction.

    The reductions are the ufunc reductions `max`/`sum` call, without
    their wrappers, and the last subtraction reuses the shifted array; the
    bits are those of `shifted - lse`.

    A 2-D input takes its row maxima down the columns of a contiguous
    transposed copy, since a reduction along short rows is slow. A
    maximum is exact in any order; where +0.0 and -0.0 tie at the top the
    order can pick either, but then the row holds two exp(0) = 1 terms,
    so lse >= log 2 and every output is the same.
    """
    if x.ndim == 2:
        top = np.maximum.reduce(np.ascontiguousarray(x.T), axis=0)[:, None]
    else:
        top = np.maximum.reduce(x, axis=-1, keepdims=True)
    shifted = x - top
    lse = np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
    shifted -= lse
    return shifted


def softmax(x):
    return np.exp(log_softmax(x))


def intra_directions(feats, labels, w, b):
    """Exact gradient of the cross-entropy of w·c + b at each feature row.

    Closed form w.T @ (softmax - onehot); identical to running the graph
    engine, which the tests assert.
    """
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    w = np.asarray(w, dtype=np.float64)
    logits = feats @ w.T + np.asarray(b, dtype=np.float64)
    p = softmax(logits)
    p[np.arange(len(feats)), labels] -= 1.0
    return p @ w


def _kl_rows(cand, ref):
    """KL(softmax(cand) || softmax(factual)) per row, from the factual
    log-softmax rows `ref`."""
    la = log_softmax(cand)
    return np.add.reduce(np.exp(la) * (la - ref), axis=-1)


def _backtrack_batch(feats, directions, init_scale, epsilon, ref=None):
    """Vectorized scale halving; returns (counterfactuals, KL values,
    scales, degenerate mask), the generators' four arrays.

    The rows still searching share one scale, halved after each round, and
    only they are scored: KL(softmax(candidate) || softmax(factual)), with
    the factual log-softmax `ref` taken once per call unless the caller
    passes it. A row is accepted at the first scale whose KL is within
    epsilon and keeps the KL of that scale. Rows whose direction vanishes
    (its squared norm, the sum `np.linalg.norm` takes the root of, is 0),
    or that stay infeasible after MAX_HALVINGS halvings, come back as the
    factual with scale 0, value 0 and degenerate=True.

    Round one scores every row without an index round trip, and if every
    row is feasible there its candidates are the counterfactuals.
    Otherwise the loop goes on from round one's results over the rows
    with a direction; no round is scored twice.
    """
    if ref is None:
        ref = log_softmax(feats)
    n = len(feats)
    scale = float(init_scale)
    nonzero = np.add.reduce(directions * directions, axis=-1) != 0.0
    cand = feats + scale * directions
    rows = _kl_rows(cand, ref)
    ok = (rows <= epsilon) & nonzero
    if ok.all():
        return cand, rows, np.full(n, scale), np.zeros(n, dtype=bool)
    live = np.flatnonzero(nonzero)
    rows, ok = rows[live], ok[live]
    chosen = np.zeros(n)
    vals = np.zeros(n)
    degenerate = np.ones(n, dtype=bool)
    for halvings in range(MAX_HALVINGS + 1):
        accepted = live[ok]
        chosen[accepted] = scale
        vals[accepted] = rows[ok]
        degenerate[accepted] = False
        live = live[~ok]
        if live.size == 0 or halvings == MAX_HALVINGS:
            break
        scale /= 2.0
        rows = _kl_rows(feats[live] + scale * directions[live], ref[live])
        ok = rows <= epsilon
    return feats + chosen[:, None] * directions, vals, chosen, degenerate


def generate_intra_batch(feats, labels, w, b, alpha, epsilon, *,
                         directions=None, ref=None):
    """Ascend the head loss under the budget, whole batch at once.

    Returns (counterfactuals, KL values, applied scales, degenerate mask);
    degenerate rows carry the factual feature and KL value 0. A caller
    that already holds `intra_directions(feats, labels, w, b)` or the
    factual log-softmax `log_softmax(feats)` passes them as
    `directions`/`ref`, and they are not computed again.
    """
    if alpha <= 0 or epsilon <= 0:
        raise ConfigurationError("alpha and epsilon must be positive")
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    if directions is None:
        directions = intra_directions(feats, labels, w, b)
    return _backtrack_batch(feats, directions, alpha, epsilon, ref)


def generate_inter_batch(feats, projected, beta, epsilon, *, ref=None):
    """Pull each feature toward its projected old-feature proxy.

    The displacement is beta_eff times the exact gradient of the squared
    distance, so the closed form c_bar = (1 - 2 beta_eff) c + 2 beta_eff
    c_tilde holds to machine precision. `ref` is as for
    `generate_intra_batch`.
    """
    if beta <= 0 or epsilon <= 0:
        raise ConfigurationError("beta and epsilon must be positive")
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    projected = np.atleast_2d(np.asarray(projected, dtype=np.float64))
    if feats.shape != projected.shape:
        raise ConfigurationError(
            f"factual {feats.shape} and projected {projected.shape} differ")
    directions = 2.0 * (projected - feats)
    return _backtrack_batch(feats, directions, beta, epsilon, ref)


def perturb_random(factual, budget_kl, rng):
    """Isotropic Gaussian direction at unit initial scale, backtracked
    under the budget; the reference point for flip-rate comparisons.

    One direction per row, drawn in row order; returns the same four
    arrays as the generators.
    """
    if budget_kl <= 0:
        raise ConfigurationError("budget_kl must be positive")
    feats = np.atleast_2d(np.asarray(factual, dtype=np.float64))
    direction = rng.standard_normal(feats.shape)
    return _backtrack_batch(feats, direction, 1.0, budget_kl)
