"""Two-stage incremental trainer with class-balanced herding rehearsal.

Each task gets a fresh extractor from the expansion step; training here
never touches the frozen ones, which an exact snapshot check enforces on
every run. Stage 1 pretrains the new extractor and the intra-scope head
on the counterfactual surrogate alone, so the features separate factual
from counterfactual before the shared classifier sees them; stage 2
optimizes the full objective: classification, auxiliary discrimination,
both surrogate scopes, the KL budget terms, and the projector fit.

Each step of either stage runs one numpy function, `_objective`, that
returns the loss values and writes every trained parameter's gradient;
it is differentiated by hand, with the arithmetic and summation order of
the equivalent `autodiff` graph, so it gives that graph's bits. The
rehearsal baseline, `train_task_baseline`, steps the same way through
its own `_baseline_step`, so no training step builds a graph.
The parameters are plain float64 arrays in the model's dicts.
`make_optimizer_state` lays the trained ones out in one flat vector,
rebinds their model entries to views of it, and hands out views of a
gradient buffer of the same layout, into which the steps write each
gradient in place (a product with `out=`); `optimizer_step(state,
config)` then reads that buffer alone and updates the flat vector, the
only way a gradient reaches a parameter. Each training loop copies the
parameters back out when it ends.

Both trainers draw their batches through the same plumbing, which holds
no counterfactual code. Before its first step, each training loop builds
what every step reuses (`_rehearsal_tables`): the labels, each row's
label among the current task's classes, and, from the second task on,
one table of the frozen features of all current rows and all buffer
rows. It range-checks every label a step can draw there, once. The
frozen extractors and the buffer do not change within a task, so no
step runs a frozen extractor or checks a label. From the second task on
a batch appends rehearsal rows to the current ones, and its labels and
frozen block are gathered from the tables by one index.

Training writes no files: both trainers return their per-epoch records,
and the caller logs them.

The knobs degrade exactly: with lam = gamma = nu = 0 and stage 1
disabled, train_task performs the same arithmetic as
train_task_baseline, and the tests pin the final parameters bit-for-bit;
with two independent implementations that check means something.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import counterfactual as cf
from .errors import ConfigurationError, InputError, NumericsError
from .risk import GenConfig, empirical_cpns_risk

LOSS_KEYS = ("cls", "aux", "intra", "inter", "kl", "proj")
# the heads each term of the objective trains, beside the current extractor
TERM_HEADS = {
    "cls": ("cls_w", "cls_b", "aux_w", "aux_b"),
    "intra": ("intra_w", "intra_b"),
    "inter": ("inter_w", "inter_b", "proj_w0", "proj_b0", "proj_w1", "proj_b1"),
}


@dataclass
class TrainConfig:
    """Hyperparameters for one incremental step.

    Every step is SGD with momentum at the constant rate lr, and the
    rehearsal buffer keeps herding exemplars. lam weights the inter-scope
    surrogate, gamma the KL budget terms, nu the necessity half of each
    surrogate. stage1_epochs = 0 trains in a single stage; a single-stage
    ablation folds the stage-1 epochs into stage2_epochs, so epoch totals
    stay comparable across ablations.
    """

    stage1_epochs: int = 20
    stage2_epochs: int = 40
    batch_size: int = 32
    lr: float = 1e-2
    momentum: float = 0.95
    weight_decay: float = 1e-5
    lam: float = 0.5
    gamma: float = 1.0
    nu: float = 1.0
    buffer_capacity: int = 2000
    gen: GenConfig = field(default_factory=GenConfig)
    report_limit: int = 256

    def __post_init__(self):
        if self.stage1_epochs < 0 or self.stage2_epochs < 0:
            raise ConfigurationError("epoch counts must be non-negative")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        if self.lr <= 0:
            raise ConfigurationError("lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError("momentum must lie in [0, 1)")
        if min(self.weight_decay, self.lam, self.gamma, self.nu) < 0:
            raise ConfigurationError("loss weights must be non-negative")
        if self.buffer_capacity < 1:
            raise ConfigurationError("buffer_capacity must be at least 1")
        if self.report_limit < 1:
            raise ConfigurationError("report_limit must be at least 1")


# ---------------------------------------------------------------------------
# optimizer

def make_optimizer_state(params):
    """Fresh state over `params` (`_param_set`: name -> the model's dict
    and key that hold the array), whose arrays move into one flat vector.

    The parameters are laid out in the map's order in one contiguous
    float64 vector, `state["values"]`, and each one's model entry is
    rebound to the reshaped view of its stretch of it, which
    `state["params"]` maps by name. The gradient buffer `state["grad"]`
    and the momentum vector (allocated on the first step) share that
    layout, and `state["grads"]` maps each name to its reshaped view of
    the gradient buffer, so the names and shapes a step must fill are
    fixed here, once: a training step writes each gradient straight into
    its view. The buffer starts as NaN. An array taken from the model
    before this call no longer sees the updates.
    """
    flat = np.concatenate([d[k].ravel() for d, k in params.values()])
    grad = np.full_like(flat, np.nan)
    views, grads, lo = {}, {}, 0
    for name, (d, k) in params.items():
        shape = d[k].shape
        hi = lo + math.prod(shape)
        d[k] = views[name] = flat[lo:hi].reshape(shape)
        grads[name] = grad[lo:hi].reshape(shape)
        lo = hi
    return {"step": 0, "values": flat, "params": views, "grad": grad,
            "grads": grads, "m": None}


def _non_finite(views):
    """The names of the views that hold a NaN or an infinity, in layout
    order; run once an `isfinite` over their flat vector has failed."""
    return [name for name, view in views.items()
            if not np.isfinite(view).all()]


def optimizer_step(state, config: TrainConfig):
    """One SGD-momentum step at `config.lr` over the flat parameter vector
    of `state` (`make_optimizer_state`), with the gradient the training
    step wrote into the views in `state["grads"]`.

    One finiteness check runs over the flat gradient, and weight decay and
    the momentum update each run as single elementwise passes over the
    flat vectors; every element sees the arithmetic of a per-parameter
    update. Weight decay is decoupled (applied to the value, not folded
    into the gradient). A non-finite gradient raises before a single value
    is touched, naming the first parameter it is in, how many are
    non-finite, and the parameter of largest magnitude, which in a
    divergence is likelier the cause than the first in the layout. After
    the update the gradient buffer is refilled with NaN, so a view that
    the next step leaves unwritten fails that step's check, named.
    """
    g = state["grad"]
    if not np.isfinite(g).all():
        bad = _non_finite(state["grads"])
        # the magnitude of each parameter, its NaN entries skipped
        size = {name: np.fmax.reduce(np.abs(view), axis=None, initial=0.0)
                for name, view in state["params"].items()}
        big = max(size, key=size.get)
        raise NumericsError(
            f"non-finite gradient in {bad[0]!r} at step {state['step'] + 1} "
            f"({len(bad)} of {len(size)} parameters; largest |value| "
            f"{size[big]:.3g} in {big!r})")
    lr = float(config.lr)
    state["step"] += 1
    values = state["values"]
    if config.weight_decay > 0.0:
        values -= lr * config.weight_decay * values
    m = state["m"]
    if m is None:
        # a copy: g is the gradient buffer the next step overwrites
        state["m"] = m = g.copy()
    else:
        m *= config.momentum
        m += g
    values -= lr * m
    g.fill(np.nan)
    return state


def _own_values(params):
    """Copy each parameter out of the optimizer's flat layout once its
    training loop ends, so a frozen extractor does not keep its task's
    whole vector, heads included, alive for the rest of the run."""
    for d, k in params.values():
        d[k] = d[k].copy()


# ---------------------------------------------------------------------------
# rehearsal buffer

class RehearsalBuffer:
    """Exemplar store over raw inputs, class-balanced by quota.

    Per-class arrays keep their herding order, so a later quota shrink
    just drops a suffix and the surviving prefix is still the best one
    herding found.
    """

    def __init__(self, capacity):
        if capacity < 1:
            raise ConfigurationError("buffer capacity must be at least 1")
        self.capacity = int(capacity)
        self._store: dict[int, np.ndarray] = {}  # classes in first-seen order

    def __len__(self):
        return sum(len(v) for v in self._store.values())

    def samples(self, limit=None):
        """The exemplars as (x, y), classes in first-seen order, each in
        its herding order.

        With `limit`, at most that many rows: the same leading share of
        every class, a class too short for it leaving its rest to the
        others, and the rows left over one each to the earliest-seen
        classes that still have one.
        """
        if not self._store:
            return np.zeros((0, 0)), np.zeros(0, dtype=np.int64)
        counts = np.array([len(v) for v in self._store.values()])
        take = counts
        if limit is not None:
            take = np.zeros_like(counts)
            left = min(int(limit), int(counts.sum()))
            while left:  # one round per rank of the herding order
                room = np.flatnonzero(take < counts)[:left]
                take[room] += 1
                left -= len(room)
        xs = [v[:k] for v, k in zip(self._store.values(), take)]
        ys = [np.full(k, c, dtype=np.int64) for c, k in zip(self._store, take)]
        return np.concatenate(xs), np.concatenate(ys)


def _herding_scores(total, rows, k, mu):
    """The herding score of each row at pick k: `((total + f) / k - mu)
    ** 2` summed per row. Elementwise steps and one per-row
    `np.add.reduce` give a row the same bits whatever rows come with it."""
    d = total + rows
    d /= k
    d -= mu
    d *= d
    return np.add.reduce(d, axis=1)


def herding_order(features, m):
    """Greedy exemplar sequence over feature rows.

    Each pick keeps the running exemplar mean closest in squared distance
    to the class mean; ties go to the lowest remaining index. Returns the
    selected row indices in selection order.

    The score that decides a pick is `_herding_scores`; a pick finds its
    candidates with a cheaper key, and scores them only when there is more
    than one. With v = total - k mu, a row f scores (‖f‖² + 2 f·v +
    ‖v‖²) / k², so the key ‖f‖² / 2 + f·v, one matrix-vector product per
    pick, ranks the rows as the score does in exact arithmetic; taken rows
    get +inf. The candidates are the rows whose key is within `margin` of
    the smallest, and the pick is the lone candidate or the first minimum
    of the candidates' scores in ascending index order, which is the pick
    of a scan over every untaken row, ties included:

    - span = k (max‖f‖ + ‖mu‖) bounds ‖total‖ + ‖f‖ + k ‖mu‖, and so
      ‖f‖² / 2 + ‖f‖ ‖v‖ and k² times each score's terms, for every row.
    - With u = 2⁻⁵³, in any summation order the key is off by at most
      0.51 (D + 2) u span² and k² times the score by 1.02 (D + 7) u
      span²; underflow adds under 6 D 2⁻¹⁰⁷⁵ (span + k + 1)².
    - If the scan picks row i, its score is not above that of the row
      with the smallest key, so its key exceeds the smallest by at most
      twice the key's error plus k² times the score's: under 2.5 (D + 8)
      u span², plus the underflow term and the rounding of the
      comparison.
    - `margin` = 32 (D + 8) (u span² + tiny (span + k + 1)²), with tiny
      the smallest normal float, is over 12 times that.

    When 4 span² or `margin` is not finite (non-finite or huge features),
    the pick scores every untaken row instead, so the order is the full
    scan's for every input.
    """
    feats = np.atleast_2d(np.asarray(features, dtype=np.float64))
    n, dim = feats.shape
    m = int(min(m, n))
    mu = feats.mean(axis=0)
    total = np.zeros_like(mu)
    # ‖f‖² / 2 of each row, +inf once it is taken
    half = 0.5 * np.einsum("ij,ij->i", feats, feats)
    # max‖f‖ + ‖mu‖; einsum, unlike matmul, does not warn on overflow
    reach = (math.sqrt(2.0 * half.max(initial=0.0))
             + math.sqrt(np.einsum("i,i", mu, mu)))
    taken = np.zeros(n, dtype=bool)
    order = []
    for k in range(1, m + 1):
        span = k * reach
        margin = 32.0 * (dim + 8) * (2.0 ** -53 * span * span + 2.0 ** -1022
                                     * (span + k + 1) * (span + k + 1))
        if math.isfinite(4.0 * span * span + margin):
            key = feats @ (total - k * mu)
            key += half
            j = int(key.argmin())
            near = key <= key[j] + margin
            rows = np.flatnonzero(near) if np.count_nonzero(near) > 1 else None
        else:
            rows = np.flatnonzero(~taken)
        if rows is not None:
            j = int(rows[_herding_scores(total, feats[rows], k, mu).argmin()])
        order.append(j)
        total += feats[j]
        taken[j] = True
        half[j] = np.inf
    return order


def buffer_commit(buffer: RehearsalBuffer, task_data, model):
    """Shrink old quotas and admit the finished task's classes.

    Quota is capacity // classes-seen, remainder spread over the
    earliest-seen classes. Herding picks each class's exemplars by the
    model's concatenated features (`concat_features_np`).
    """
    x = np.asarray(task_data[0], dtype=np.float64)
    y = np.asarray(task_data[1], dtype=np.int64)
    if len(x) == 0:
        raise InputError("cannot commit an empty task to the buffer")
    new_classes = [int(c) for c in np.unique(y)]
    for c in new_classes:
        if c in buffer._store:
            raise InputError(f"class {c} already lives in the buffer")
    order = [*buffer._store, *new_classes]
    if buffer.capacity < len(order):
        raise ConfigurationError(
            f"capacity {buffer.capacity} cannot cover {len(order)} classes")
    q, rem = divmod(buffer.capacity, len(order))
    quota = {c: q + (1 if i < rem else 0) for i, c in enumerate(order)}
    for c, xc in buffer._store.items():  # reassigning keys keeps their order
        buffer._store[c] = xc[:quota[c]]
    for c in new_classes:
        xc = x[y == c]
        m = min(quota[c], len(xc))
        sel = herding_order(model.concat_features_np(xc), m)
        buffer._store[c] = xc[np.asarray(sel, dtype=np.int64)].copy()
    return buffer


# ---------------------------------------------------------------------------
# batch plumbing shared by both code paths: the per-loop tables and index
# arithmetic over them and the rows; no counterfactual machinery

def _check_labels(labels, k):
    if labels.min() < 0 or labels.max() >= k:
        raise InputError(f"label out of range for {k} classes")


def _rehearsal_tables(model, x_cur, y_cur, buffer, use_cls, use_intra,
                      use_inter):
    """What every step of one training loop with the given terms on
    (`_param_set`'s flags) draws from, computed before its first step:
    (x_cur, buf_x, y, local, frozen).

    A loop with use_cls from the second task on mixes in rehearsal rows:
    `buf_x` is the buffer's rows, `y` the current labels then the
    buffer's, and `frozen` the frozen features of those rows in that
    order, one table that `frozen_concat_np` fills in place, once over the
    current rows and once over the buffer's. Otherwise the loop holds
    current rows only: `y` is `y_cur`, and `buf_x` and `frozen` are None.
    `local` is each row's label among the current task's classes, with a
    rehearsal row's the class count: the aux head's labels, and on the
    current rows the intra head's.

    Every label a step can draw is range-checked here, once, against each
    head the loop's steps score with it; no step checks a label.

    Within a task no frozen extractor moves (`_check_frozen`) and the
    buffer is fixed, so a row's frozen features are the same at every
    step; two products per loop replace one per step. A table row can
    differ in its last bits from the same row of a batch-sized product
    (BLAS takes another kernel path for short products), which is why
    both trainers take their frozen blocks from here.
    """
    lo = model.class_offsets[-1][0]
    n_cur = len(x_cur)
    mixed = use_cls and model.current_task >= 1
    buf_x = frozen = None
    y = y_cur
    if mixed:
        buf_x, buf_y = buffer.samples()
        y = np.concatenate([y_cur, buf_y])
    local = np.where(y >= lo, y - lo, model.current_class_count)
    for head, labels, on in (("cls", y, use_cls), ("aux", local, mixed),
                             ("intra", local[:n_cur], use_intra),
                             (model.inter_head, y, use_inter)):
        if on:
            _check_labels(labels, len(model.heads[f"{head}_b"]))
    if mixed:
        frozen = np.empty((len(y), model.feature_dim * model.current_task))
        model.frozen_concat_np(x_cur, out=frozen[:n_cur])
        model.frozen_concat_np(buf_x, out=frozen[n_cur:])
    return x_cur, buf_x, y, local, frozen


def _batches(tables, batch_size, rng):
    """One epoch's steps over `_rehearsal_tables`, as (xb, yb, n_c,
    frozen, local), the batch's first n_c rows from the current task.

    The epoch draws one permutation of the current rows, then, in a mixed
    loop, one buffer selection per batch: each batch appends as many
    buffer rows as it has current ones, drawn without replacement (the
    whole buffer when it is no larger). `yb`, `frozen` and `local` are
    gathered from the tables by one index over both parts; `xb` is
    gathered from the task's rows and the buffer's apart, so the task's
    rows are never copied whole. Unmixed, `frozen` is None.
    """
    x_cur, buf_x, y, local, frozen = tables
    n = len(x_cur)
    perm = rng.permutation(n)
    for s in range(0, n, batch_size):
        idx = perm[s:s + batch_size]
        n_c = len(idx)
        if buf_x is None:
            yield x_cur[idx], y[idx], n_c, None, local[idx]
            continue
        n_buf = len(buf_x)
        bsel = (np.arange(n_buf) if n_buf <= n_c
                else rng.choice(n_buf, size=n_c, replace=False))
        rows = np.concatenate([idx, n + bsel])
        yield (np.concatenate([x_cur[idx], buf_x[bsel]]), y[rows], n_c,
               frozen[rows], local[rows])


def _param_set(model, use_cls, use_intra, use_inter):
    """The current extractor plus the heads the enabled terms train, as
    name -> (dict, key), the model entry that holds each array; the
    optimizer rebinds those entries (`make_optimizer_state`).

    A head the model does not have (aux on the first task, a tied inter
    head) is skipped. Keeping unused heads out means decoupled weight
    decay cannot silently move them. The frozen extractors are never in
    it; `_check_frozen` guards that nothing moves them anyway.
    """
    ext = model.extractors[-1].params
    params = {f"f{model.current_task}/{name}": (ext, name) for name in ext}
    enabled = {"cls": use_cls, "intra": use_intra, "inter": use_inter}
    for term, heads in TERM_HEADS.items():
        if enabled[term]:
            params.update((name, (model.heads, name)) for name in heads
                          if name in model.heads)
    return params


def _task_arrays(model, task_data, buffer):
    """The current task's (x, y), after the preconditions of training."""
    lo, hi = model.class_offsets[-1]
    x_cur = np.asarray(task_data[0], dtype=np.float64)
    y_cur = np.asarray(task_data[1], dtype=np.int64)
    if len(x_cur) == 0:
        raise InputError("task data is empty")
    if y_cur.min() < lo or y_cur.max() >= hi:
        raise InputError(f"labels outside the current task range [{lo}, {hi})")
    if model.current_task >= 1 and (buffer is None or len(buffer) == 0):
        raise ConfigurationError(
            f"task {model.current_task} requires a non-empty rehearsal buffer")
    return x_cur, y_cur


def _check_finite(state):
    """Raise NumericsError if any value in the optimizer state's flat
    parameter vector is NaN or infinite, naming the first such parameter."""
    if not np.isfinite(state["values"]).all():
        name = _non_finite(state["params"])[0]
        raise NumericsError(f"parameter {name!r} contains non-finite values")


def _check_frozen(model, snap):
    after = model.frozen_snapshot()
    drift = sum(float(np.abs(after[k] - snap[k]).sum()) for k in snap)
    if drift != 0.0:
        raise AssertionError(f"frozen extractors drifted by {drift}")


def _report_pool(model, x_cur, y_cur, buffer, config: TrainConfig):
    """The rows each per-epoch risk report of a loop scores: the first
    report_limit current rows, and from the second task on up to
    report_limit buffer rows with every buffered class's leading
    exemplars in them (`RehearsalBuffer.samples`)."""
    cap = config.report_limit
    cur = (x_cur[:cap], y_cur[:cap])
    return cur, (buffer.samples(cap) if model.task_count >= 2 else None)


def _record(task, stage, epoch, sums, n_batches, report, wall_ms):
    terms = {k: sums[k] / n_batches for k in LOSS_KEYS}
    return {
        "task": int(task),
        "stage": int(stage),
        "epoch": int(epoch),
        "loss_terms": terms,
        "cpns_report": None if report is None else report.to_json_dict(),
        "wall_ms": float(wall_ms),
    }


# ---------------------------------------------------------------------------
# the objective of one step, differentiated by hand

def _sum_in_order(parts, out=None):
    """A gradient with several contributions, summed as `autodiff.backward`
    sums it: in the given order, the first copied (into `out` when given)
    and the rest added in place. A part `(k, g)` comes through a row slice
    and adds into the first k rows only; it is never the first part."""
    if out is None:
        out = np.array(parts[0])
    else:
        out[...] = parts[0]
    for part in parts[1:]:
        if isinstance(part, tuple):
            out[:part[0]] += part[1]
        else:
            out += part
    return out


def _ce_error(logits, labels):
    """Mean cross-entropy of the softmax rows against the labels, and the
    error softmax - onehot: (value, error), one log-softmax for both."""
    n = len(labels)
    rows = np.arange(n)
    ls = cf.log_softmax(logits)
    value = float(-np.add.reduce(ls[rows, labels]) / n)
    e = np.exp(ls)
    e[rows, labels] -= 1.0
    return value, e


def _ce(logits, labels):
    """Mean cross-entropy of the softmax rows against the labels:
    (value, gradient at weight 1, which is (softmax - onehot) / n)."""
    value, g = _ce_error(logits, labels)
    g /= len(labels)
    return value, g


def _nlcp(logits, labels, weight, eps=1e-12):
    """Mean -log(1 - softmax[label] + eps) over the rows, the necessity
    half of the surrogate: (value, gradient at `weight`)."""
    n = len(labels)
    rows = np.arange(n)
    p = cf.softmax(logits)
    py = p[rows, labels]
    s = 1.0 - py + eps
    q = py / s
    g = -q[:, None] * p
    g[rows, labels] += q
    return float(-np.add.reduce(np.log(s)) / n), g * (weight / n)


def _kl(la, b, weight):
    """Mean KL(softmax(a) || softmax(b)) over the rows, from `la`, the
    log-softmax of a: (value, gradient in a, gradient in b), both at
    `weight`."""
    n = len(la)
    lb = cf.log_softmax(b)
    p = np.exp(la)
    r = la - lb
    row_kl = np.add.reduce(p * r, axis=-1, keepdims=True)
    go = weight / n
    return (float(np.add.reduce(row_kl, axis=None) / n),
            go * p * (r - row_kl), go * (np.exp(lb) - p))


def _objective(model, xb, yb, n_c, frozen, local, config: TrainConfig,
               use_cls, use_intra, use_inter, grads):
    """Loss values and gradients of one step of the objective.

    `xb`/`yb` are the batch, its first `n_c` rows from the current task,
    and `local` its labels among the current task's classes
    (`_rehearsal_tables`). `frozen` is the frozen block of the combined
    representation, or None when the batch holds current rows only; with
    it come the rehearsal rows' share of the terms and the auxiliary loss.
    Returns the value of each enabled term of LOSS_KEYS (inter before its
    weight lam), and writes the gradient of the weighted total for every
    entry of `_param_set` into its array in `grads` (the optimizer state's
    views of its gradient buffer, `make_optimizer_state`).

    Each value and gradient is computed with the numpy expression of the
    `autodiff` op the same term would use, and a gradient with several
    contributions sums them in the order that graph's reverse topological
    order visits the consumers; the result is the graph's to the bit, and
    the tests keep the graph as the reference. (The ReLUs are
    `np.maximum`, as in `FeatureExtractor.activations_np`; on finite
    values it gives the bits of the graph's `np.where`.) The
    counterfactuals enter as constant offsets from the factual
    representation, so no gradient reaches the generators.

    A quantity two consumers need is computed once: the intra head's
    logits and log-softmax give both the sufficiency loss and, through
    its softmax error `e = softmax - onehot`, the generator's direction
    `e @ w_i` and that loss's gradient `e / n`; each generator's factual
    log-softmax (`ref_i` of the current rows, `ref_e` of c_hat) is passed
    to it and is the `la` of its scope's KL term. Each one is the array
    the generator or the term would have computed.
    """
    mixed = frozen is not None
    heads = model.heads
    ext = model.extractors[-1]
    *hiddens, c_hat = ext.activations_np(xb)
    ins = [xb, *hiddens]  # the input of each layer
    z = np.concatenate([frozen, c_hat], axis=1) if mixed else c_hat
    # z's gradient is needed in c_hat's columns only: the products into it
    # take those columns of each head's weight
    own = slice(z.shape[1] - c_hat.shape[1], None)
    losses = {}
    # contributions by consumer: into c_hat's columns of z (c_hat itself
    # when not mixed), into the current rows of c_hat, and into the
    # classifier
    z_parts, cur_parts, cls_w_parts, cls_b_parts = [], [], [], []
    if use_cls:
        cls_w, cls_b = heads["cls_w"], heads["cls_b"]
        losses["cls"], g_cls = _ce(z @ cls_w.T + cls_b, yb)
        z_parts.append(g_cls @ cls_w[:, own])
        cls_w_parts.append(g_cls.T @ z)
        cls_b_parts.append(np.add.reduce(g_cls, axis=0))
    if mixed:
        aux_w, aux_b = heads["aux_w"], heads["aux_b"]
        losses["aux"], g_aux = _ce(c_hat @ aux_w.T + aux_b, local)
        aux_part = g_aux @ aux_w
        np.matmul(g_aux.T, c_hat, out=grads["aux_w"])
        np.add.reduce(g_aux, axis=0, out=grads["aux_b"])
    if use_intra:
        w_i, b_i = heads["intra_w"], heads["intra_b"]
        c_cur = c_hat[:n_c] if mixed else c_hat
        y_local = local[:n_c]
        # the sufficiency term's softmax error is also the generator's
        # direction, (softmax - onehot) @ w_i
        suff, g_suff = _ce_error(c_cur @ w_i.T + b_i, y_local)
        ref_i = cf.log_softmax(c_cur)
        cfs_i, _, _, _ = cf.generate_intra_batch(
            c_cur, y_local, w_i, b_i, alpha=config.gen.alpha,
            epsilon=config.gen.epsilon, directions=g_suff @ w_i, ref=ref_i)
        g_suff /= len(y_local)
        cbar_i = c_cur + (cfs_i - c_cur)
        nec, g_nec = _nlcp(cbar_i @ w_i.T + b_i, y_local, config.nu)
        losses["intra"] = suff + nec * config.nu
        _sum_in_order([g_suff.T @ c_cur, g_nec.T @ cbar_i],
                      out=grads["intra_w"])
        _sum_in_order([np.add.reduce(g_suff, axis=0),
                       np.add.reduce(g_nec, axis=0)], out=grads["intra_b"])
        cur_parts += [g_suff @ w_i, g_nec @ w_i]
        if config.gamma > 0:
            losses["kl"], g_a, g_b = _kl(ref_i, cbar_i, config.gamma)
            cur_parts += [g_a, g_b]
    if use_inter:
        head = model.inter_head
        w_e, b_e = heads[f"{head}_w"], heads[f"{head}_b"]
        w0, w1 = heads["proj_w0"], heads["proj_w1"]
        hidden = np.maximum(frozen @ w0.T + heads["proj_b0"], 0.0)
        proj = hidden @ w1.T + heads["proj_b1"]
        ref_e = cf.log_softmax(c_hat)
        cfs_e, _, _, _ = cf.generate_inter_batch(
            c_hat, proj, beta=config.gen.beta, epsilon=config.gen.epsilon,
            ref=ref_e)
        cbar_e = z + (np.concatenate([frozen, cfs_e], axis=1) - z)
        if head == "cls":  # tied: the sufficiency logits are the cls ones
            suff, g_suff = losses["cls"], g_cls
        else:
            suff, g_suff = _ce(z @ w_e.T + b_e, yb)
        nec, g_nec = _nlcp(cbar_e @ w_e.T + b_e, yb, config.lam * config.nu)
        losses["inter"] = suff + nec * config.nu
        g_suff = g_suff * config.lam
        z_parts += [g_suff @ w_e[:, own], g_nec @ w_e[:, own]]
        w_parts = [g_suff.T @ z, g_nec.T @ cbar_e]
        b_parts = [np.add.reduce(g_suff, axis=0),
                   np.add.reduce(g_nec, axis=0)]
        if head == "cls":
            cls_w_parts += w_parts
            cls_b_parts += b_parts
        else:
            _sum_in_order(w_parts, out=grads["inter_w"])
            _sum_in_order(b_parts, out=grads["inter_b"])
        if config.gamma > 0:
            kl_e, g_a_e, g_b_e = _kl(ref_e, c_hat + (cfs_e - c_hat),
                                     config.gamma)
            # the graph sums the kl terms from 0, as Python's `sum` does
            losses["kl"] = losses.get("kl", 0) + kl_e
        # projector fit; the target c_hat enters as a plain value
        diff = proj - c_hat
        k = 1.0 / len(c_hat)
        losses["proj"] = float(np.add.reduce(diff * diff, axis=None) * k)
        g_pred = 2.0 * diff * k
        np.matmul(g_pred.T, hidden, out=grads["proj_w1"])
        np.add.reduce(g_pred, axis=0, out=grads["proj_b1"])
        g_pre = (g_pred @ w1) * (hidden > 0.0)
        np.matmul(g_pre.T, frozen, out=grads["proj_w0"])
        np.add.reduce(g_pre, axis=0, out=grads["proj_b0"])
    if use_cls:
        _sum_in_order(cls_w_parts, out=grads["cls_w"])
        _sum_in_order(cls_b_parts, out=grads["cls_b"])
    # c_hat's gradient sums its consumers' contributions in the order the
    # graph's backward reaches them: the reverse of the order in which its
    # depth-first toposort finishes them. That search takes the terms
    # (cls, aux, intra, inter, kl, proj) last to first, and a consumer
    # finishes in the last term that uses it, so the consumers come in the
    # order of that term; inside the kl term the current rows come first.
    # Unmixed, c_hat is z and the current rows at once, so the cls and
    # intra contributions reach it one by one.
    if not mixed:
        c_parts = z_parts + cur_parts
    else:
        z_part = _sum_in_order(z_parts)
        cur = (n_c, _sum_in_order(cur_parts)) if cur_parts else None
        if not use_inter:
            c_parts = [z_part, aux_part, cur]
        elif config.gamma > 0:
            c_parts = [aux_part, z_part, cur, g_a_e, g_b_e]
        else:
            c_parts = [aux_part, cur, z_part]
        c_parts = [part for part in c_parts if part is not None]
    g = _sum_in_order(c_parts)
    prefix = f"f{model.current_task}/"
    for i in reversed(range(ext.n_layers)):
        np.matmul(g.T, ins[i], out=grads[f"{prefix}w{i}"])
        np.add.reduce(g, axis=0, out=grads[f"{prefix}b{i}"])
        if i:
            g = (g @ ext.params[f"w{i}"]) * (ins[i] > 0.0)
    return losses


# ---------------------------------------------------------------------------
# the two-stage objective

def _run_objective_epochs(model, x_cur, y_cur, buffer, config: TrainConfig,
                          rng, records, stage, epochs, use_cls, use_intra,
                          use_inter):
    """Epochs of the objective with the enabled terms, one record each
    appended to `records`.

    use_cls turns on classification and, from the second task on, the
    auxiliary loss and the rehearsal rows mixed into each batch; without
    it a batch holds current rows only and nothing is drawn from the
    buffer. Before its first step the loop builds its tables and checks
    every label its steps can draw (`_rehearsal_tables`); a mixed loop's
    tables hold the frozen features of every current and buffer row. Its
    batches come from `_batches`, as the baseline's do, and each step
    writes its gradients into the optimizer's gradient buffer; with both
    scopes off this is arithmetically the baseline path. Only stage 2
    writes per-epoch reports (`_report_pool`), which generate inter-scope
    counterfactuals; stage 1 refuses use_inter with AssertionError.
    """
    if stage == 1 and use_inter:
        raise AssertionError(
            "inter-scope counterfactuals requested during stage 1")
    t = model.current_task
    tables = _rehearsal_tables(model, x_cur, y_cur, buffer, use_cls,
                               use_intra, use_inter)
    params = _param_set(model, use_cls, use_intra, use_inter)
    state = make_optimizer_state(params)
    grads = state["grads"]
    pool = (_report_pool(model, x_cur, y_cur, buffer, config)
            if stage == 2 else None)
    n_batches = len(range(0, len(x_cur), config.batch_size))
    for epoch in range(epochs):
        t0 = time.perf_counter()
        sums = dict.fromkeys(LOSS_KEYS, 0.0)
        for xb, yb, n_c, frozen, local in _batches(tables, config.batch_size,
                                                   rng):
            losses = _objective(model, xb, yb, n_c, frozen, local, config,
                                use_cls, use_intra, use_inter, grads)
            for key, value in losses.items():
                sums[key] += value
            optimizer_step(state, config)
        _check_finite(state)
        report = (empirical_cpns_risk(*pool, model, config.gen)
                  if stage == 2 else None)
        wall = (time.perf_counter() - t0) * 1000.0
        records.append(_record(t, stage, epoch, sums, n_batches, report, wall))
    _own_values(params)


def train_task(model, task_data, buffer, config: TrainConfig, rng):
    """Run the two-stage objective for the freshly expanded task.

    Returns {"task", "records"}: one record per epoch, with per-epoch
    indicator reports during stage 2; nothing is written to disk. Both
    stages run `_run_objective_epochs` with different terms on: stage 1
    (skipped when stage1_epochs is 0) trains the intra term alone over
    current rows (or, with it off, warms the base losses), stage 2 every
    enabled term. The frozen extractor stack is snapshot-checked for
    exact stability.
    """
    t = model.current_task
    x_cur, y_cur = _task_arrays(model, task_data, buffer)
    # nu and gamma both zero leaves nothing of the intra objective, and a
    # zero lam nothing of the inter one; dropping the machinery entirely
    # is what makes the baseline reduction exact
    use_intra = config.nu > 0 or config.gamma > 0
    use_inter = config.lam > 0 and t >= 1
    snap = model.frozen_snapshot()
    records = []

    if config.stage1_epochs > 0:
        # nothing to pretrain without the intra term; warm the base losses
        # instead so delayed inter-scope training still means something in
        # ablations
        _run_objective_epochs(model, x_cur, y_cur, buffer, config, rng,
                              records, stage=1, epochs=config.stage1_epochs,
                              use_cls=not use_intra, use_intra=use_intra,
                              use_inter=False)

    _run_objective_epochs(model, x_cur, y_cur, buffer, config, rng, records,
                          stage=2, epochs=config.stage2_epochs, use_cls=True,
                          use_intra=use_intra, use_inter=use_inter)

    _check_frozen(model, snap)
    return {"task": t, "records": records}


# ---------------------------------------------------------------------------
# the rehearsal baseline

def _baseline_step(model, xb, yb, frozen, local, grads):
    """Loss values and gradients of one rehearsal-baseline step.

    The classifier's cross-entropy over [frozen, c_hat] and, when `frozen`
    is given (from the second task on), the auxiliary cross-entropy on
    c_hat against `local`, the batch's labels among the current classes
    with a rehearsal row's the class count (`_rehearsal_tables`). Returns
    {"cls"[, "aux"]}, and writes the gradient of their sum for the current
    extractor, cls and aux into its array in `grads`, the optimizer
    state's views of its gradient buffer.

    Written apart from `_objective` on purpose (see train_task_baseline),
    with the arithmetic of the equivalent autodiff graph: c_hat's gradient
    is its slice of the classifier's input gradient plus the auxiliary
    head's, in that order, and the ReLU passes where its output is
    positive.
    """
    ext = model.extractors[-1]
    *hiddens, c_hat = ext.activations_np(xb)
    ins = [xb, *hiddens]  # the input of each layer
    z = c_hat if frozen is None else np.concatenate([frozen, c_hat], axis=1)
    cls_w, cls_b = model.heads["cls_w"], model.heads["cls_b"]
    losses = {}
    losses["cls"], g_cls = _ce(z @ cls_w.T + cls_b, yb)
    np.matmul(g_cls.T, z, out=grads["cls_w"])
    np.add.reduce(g_cls, axis=0, out=grads["cls_b"])
    # c_hat's columns of the classifier's input gradient, from its columns
    # of cls_w alone
    g = g_cls @ cls_w[:, z.shape[1] - c_hat.shape[1]:]
    if frozen is not None:
        aux_w, aux_b = model.heads["aux_w"], model.heads["aux_b"]
        losses["aux"], g_aux = _ce(c_hat @ aux_w.T + aux_b, local)
        np.matmul(g_aux.T, c_hat, out=grads["aux_w"])
        np.add.reduce(g_aux, axis=0, out=grads["aux_b"])
        g += g_aux @ aux_w
    prefix = f"f{model.current_task}/"
    for i in reversed(range(ext.n_layers)):
        np.matmul(g.T, ins[i], out=grads[f"{prefix}w{i}"])
        np.add.reduce(g, axis=0, out=grads[f"{prefix}b{i}"])
        if i:
            g = (g @ ext.params[f"w{i}"]) * (ins[i] > 0.0)
    return losses


def train_task_baseline(model, task_data, buffer, config: TrainConfig, rng):
    """Rehearsal baseline: classification plus auxiliary loss, one stage.

    Runs stage1_epochs + stage2_epochs epochs so comparisons against the
    two-stage objective are epoch-matched; returns {"task", "records"}, as
    train_task does. Written as its own plain loop on purpose: the
    degeneracy check compares its final parameters bit-for-bit against
    train_task with the counterfactual machinery zeroed, and that check
    only means something if this path does not share that machinery.
    Each step is `_baseline_step`, differentiated by hand apart from
    `_objective`, and one `optimizer_step` over the flat parameter layout.
    What it does share with `_run_objective_epochs` is the batch plumbing,
    which holds no counterfactual code: the per-loop tables and label
    checks (`_rehearsal_tables`), with the frozen features from the second
    task on, and the batches (`_batches`), so both paths feed their steps
    the same rows, labels and frozen bits.
    """
    t = model.current_task
    x_cur, y_cur = _task_arrays(model, task_data, buffer)
    snap = model.frozen_snapshot()
    tables = _rehearsal_tables(model, x_cur, y_cur, buffer, use_cls=True,
                               use_intra=False, use_inter=False)
    params = _param_set(model, use_cls=True, use_intra=False, use_inter=False)
    state = make_optimizer_state(params)
    grads = state["grads"]
    pool = _report_pool(model, x_cur, y_cur, buffer, config)
    n_batches = len(range(0, len(x_cur), config.batch_size))
    records = []
    epochs = config.stage1_epochs + config.stage2_epochs
    for epoch in range(epochs):
        t0 = time.perf_counter()
        sums = dict.fromkeys(LOSS_KEYS, 0.0)
        for xb, yb, _, frozen, local in _batches(tables, config.batch_size,
                                                 rng):
            losses = _baseline_step(model, xb, yb, frozen, local, grads)
            for key, value in losses.items():
                sums[key] += value
            optimizer_step(state, config)
        _check_finite(state)
        report = empirical_cpns_risk(*pool, model, config.gen)
        wall = (time.perf_counter() - t0) * 1000.0
        records.append(_record(t, 2, epoch, sums, n_batches, report, wall))
    _own_values(params)
    _check_frozen(model, snap)
    return {"task": t, "records": records}
