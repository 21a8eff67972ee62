"""Two-stage incremental trainer with class-balanced herding rehearsal.

Each task gets a fresh extractor from the expansion step; training here
never touches the frozen ones, which an exact snapshot check enforces on
every run. Stage 1 pretrains the new extractor and the intra-scope head
on the counterfactual surrogate alone, so the features separate factual
from counterfactual before the shared classifier sees them; stage 2
optimizes the full objective: classification, auxiliary discrimination,
both surrogate scopes, the KL budget terms, and the projector fit.

Each step of either stage runs one numpy function, `_objective`, that
returns the loss values and every trained parameter's gradient; it is
differentiated by hand, with the arithmetic and summation order of the
equivalent `autodiff` graph, so it gives that graph's bits. The rehearsal
baseline, `train_task_baseline`, steps the same way through its own
`_baseline_step`, so no training step builds a graph. `optimizer_step`
updates the trained parameters as one flat vector: `make_optimizer_state`
lays them out contiguously and re-points their values at views of it,
and each training loop copies them back out when it ends.

Both trainers draw their batches through the same plumbing, which holds
no counterfactual code. From the second task on a batch appends
rehearsal rows to the current ones, and the frozen extractors' block of
its representation is gathered from two tables that the loop computes
once, over all current rows and all buffer rows (`_rehearsal_tables`):
the frozen extractors and the buffer do not change within a task, so
no step runs a frozen extractor.

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

from . import autodiff as ad
from . import counterfactual as cf
from .errors import ConfigurationError, InputError, NumericsError, UsageError
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

def make_optimizer_state(params: dict[str, ad.Tensor]):
    """Fresh state over `params`, whose values move into one flat vector.

    The parameters are laid out in the map's order in one contiguous
    float64 vector, `state["values"]`, and each leaf's `values` is
    re-pointed at the reshaped view of its slice, `state["slices"][name]`;
    the gradient gather buffer and the momentum vector (allocated on the
    first step) share that layout. A leaf whose `values` is rebound later
    no longer sees the updates.
    """
    names = tuple(params)
    shapes = tuple(params[name].values.shape for name in names)
    flat = np.concatenate([params[name].values.ravel() for name in names])
    slices, lo = {}, 0
    for name, shape in zip(names, shapes):
        hi = lo + math.prod(shape)
        slices[name] = slice(lo, hi)
        params[name].values = flat[lo:hi].reshape(shape)
        lo = hi
    return {"step": 0, "slices": slices, "shapes": shapes, "values": flat,
            "grad": np.empty_like(flat), "m": None}


def _gather_grads(params, grads, state):
    """The gradients in the state's layout, in its reused gather buffer;
    a missing, misshapen, unknown or non-finite one raises, naming it,
    before anything moves."""
    names = state["slices"]
    if params.keys() != names.keys():
        raise UsageError("the optimizer state was made for other parameters")
    try:
        gs = [grads[name] for name in names]
    except KeyError:
        missing = next(name for name in names if name not in grads)
        raise UsageError(f"parameter {missing!r} got no gradient") from None
    if len(grads) != len(names):
        unknown = next(name for name in grads if name not in params)
        raise UsageError(f"gradient {unknown!r} names no parameter")
    if tuple(g.shape for g in gs) != state["shapes"]:
        name = next(name for name, g, shape in zip(names, gs, state["shapes"])
                    if g.shape != shape)
        raise UsageError(f"gradient of {name!r} has shape {grads[name].shape}, "
                         f"not {params[name].values.shape}")
    g = np.concatenate([g.ravel() for g in gs], out=state["grad"])
    if not np.isfinite(g).all():
        name = next(name for name, g in zip(names, gs)
                    if not np.isfinite(g).all())
        raise NumericsError(
            f"non-finite gradient in {name!r} at step {state['step'] + 1}")
    return g


def optimizer_step(params: dict[str, ad.Tensor], grads: dict[str, np.ndarray],
                   state, config: TrainConfig):
    """One SGD-momentum step at `config.lr` over every parameter in the
    map, with its gradient from `grads` under the same name; `state` is
    `make_optimizer_state(params)`.

    The gradients are gathered into the flat layout, and weight decay and
    the momentum update each run as single elementwise passes over the
    flat vectors; every element sees the arithmetic of a per-parameter
    update. Weight decay is decoupled (applied to the value, not folded
    into the gradient). A missing, misshapen or non-finite gradient, or
    one whose name is no parameter, raises naming it before a single
    value is touched.
    """
    lr = float(config.lr)
    g = _gather_grads(params, grads, state)
    state["step"] += 1
    values = state["values"]
    if config.weight_decay > 0.0:
        values -= lr * config.weight_decay * values
    m = state["m"]
    if m is None:
        # a copy: g is the gather buffer the next step overwrites
        state["m"] = m = g.copy()
    else:
        m *= config.momentum
        m += g
    values -= lr * m
    return state


def _own_values(params):
    """Copy each parameter out of the optimizer's flat layout once its
    training loop ends, so a frozen extractor does not keep its task's
    whole vector, heads included, alive for the rest of the run."""
    for p in params.values():
        p.values = p.values.copy()


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


def herding_order(features, m):
    """Greedy exemplar sequence over feature rows.

    Each pick keeps the running exemplar mean closest in squared distance
    to the class mean; ties go to the lowest remaining index. Returns the
    selected row indices in selection order.

    Each pick scores only the untaken rows. They stay compacted at the
    front of a work copy in ascending index order, so argmin's first
    minimum is still the lowest index, and each row's score runs the same
    elementwise steps, `((total + f) / k - mu) ** 2` summed per row, as
    over all n rows: the order is the same, ties included.
    """
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
# batch plumbing shared by both code paths: the frozen-feature tables and
# index arithmetic over them and the rows; no counterfactual machinery

def _rehearsal_tables(model, x_cur, buffer):
    """What a mixed loop draws from: (buf_x, buf_y, frozen_cur,
    frozen_buf), the buffer's rows and `frozen_concat_np` of every current
    and every buffer row.

    Within a task no frozen extractor moves (`_check_frozen`) and the
    buffer is fixed, so a row's frozen features are the same at every
    step; two products per loop replace one per step. A table row can
    differ in its last bits from the same row of a batch-sized product
    (BLAS takes another kernel path for short products), which is why
    both trainers take their frozen blocks from here.
    """
    buf_x, buf_y = buffer.samples()
    return (buf_x, buf_y, model.frozen_concat_np(x_cur),
            model.frozen_concat_np(buf_x))


def _batches(x_cur, y_cur, tables, batch_size, rng):
    """One epoch's steps as (xb, yb, n_c, frozen), the batch's first n_c
    rows from the current task.

    The epoch draws one permutation of the current rows, then one buffer
    selection per batch. Without `tables` a batch holds current rows only
    and `frozen` is None. With them (`_rehearsal_tables`) each batch
    appends as many buffer rows as it has current ones, drawn without
    replacement (the whole buffer when it is no larger), and `frozen` is
    the tables' rows for the batch's rows, in its order.
    """
    n = len(x_cur)
    perm = rng.permutation(n)
    for s in range(0, n, batch_size):
        idx = perm[s:s + batch_size]
        xb, yb, n_c = x_cur[idx], y_cur[idx], len(idx)
        if tables is None:
            yield xb, yb, n_c, None
            continue
        buf_x, buf_y, frozen_cur, frozen_buf = tables
        n_buf = len(buf_x)
        bsel = (np.arange(n_buf) if n_buf <= n_c
                else rng.choice(n_buf, size=n_c, replace=False))
        yield (np.concatenate([xb, buf_x[bsel]]),
               np.concatenate([yb, buf_y[bsel]]), n_c,
               np.concatenate([frozen_cur[idx], frozen_buf[bsel]]))


def _param_set(model, use_cls, use_intra, use_inter) -> dict[str, ad.Tensor]:
    """The current extractor plus the heads the enabled terms train.

    A head the model does not have (aux on the first task, a tied inter
    head) is skipped. Keeping unused heads out means decoupled weight
    decay cannot silently move them. The frozen extractors are never in
    it; `_check_frozen` guards that nothing moves them anyway.
    """
    params = {f"f{model.current_task}/{name}": p
              for name, p in model.extractors[-1].params.items()}
    enabled = {"cls": use_cls, "intra": use_intra, "inter": use_inter}
    for term, heads in TERM_HEADS.items():
        if enabled[term]:
            params.update((name, model.heads[name]) for name in heads
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


def _check_finite(params):
    """Raise NumericsError if any parameter value is NaN or infinite."""
    for name, p in params.items():
        if not np.all(np.isfinite(p.values)):
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


def _probe_report(model, pool, config: TrainConfig):
    return empirical_cpns_risk(*pool, model, config.gen)


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

def _check_labels(labels, k):
    if labels.min() < 0 or labels.max() >= k:
        raise InputError(f"label out of range for {k} classes")


def _sum_in_order(parts):
    """A gradient with several contributions, summed as `autodiff.backward`
    sums it: in the given order, the first copied and the rest added in
    place. A part `(k, g)` comes through a row slice and adds into the
    first k rows only; it is never the first part."""
    total = np.array(parts[0])
    for part in parts[1:]:
        if isinstance(part, tuple):
            total[:part[0]] += part[1]
        else:
            total += part
    return total


def _ce_error(logits, labels):
    """Mean cross-entropy of the softmax rows against the labels, and the
    error softmax - onehot: (value, error), one log-softmax for both."""
    n = len(labels)
    rows = np.arange(n)
    ls = ad.log_softmax(logits)
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
    p = ad.softmax(logits)
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
    lb = ad.log_softmax(b)
    p = np.exp(la)
    r = la - lb
    row_kl = np.add.reduce(p * r, axis=-1, keepdims=True)
    go = weight / n
    return (float(np.add.reduce(row_kl, axis=None) / n),
            go * p * (r - row_kl), go * (np.exp(lb) - p))


def _objective(model, xb, yb, n_c, frozen, config: TrainConfig, use_cls,
               use_intra, use_inter):
    """Loss values and gradients of one step of the objective.

    `xb`/`yb` are the batch, its first `n_c` rows from the current task.
    `frozen` is the frozen block of the combined representation, or None
    when the batch holds current rows only; with it come the rehearsal
    rows' share of the terms and the auxiliary loss. Returns (losses,
    grads): the value of each enabled term of LOSS_KEYS (inter before its
    weight lam), and the gradient of the weighted total for every entry of
    `_param_set`.

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
    lo = model.class_offsets[-1][0]
    mixed = frozen is not None
    heads = {name: h.values for name, h in model.heads.items()}
    ext = model.extractors[-1]
    *hiddens, c_hat = ext.activations_np(xb)
    ins = [xb, *hiddens]  # the input of each layer
    z = np.concatenate([frozen, c_hat], axis=1) if mixed else c_hat
    losses, grads = {}, {}
    # contributions by consumer: into z (c_hat itself when not mixed), into
    # the current rows of c_hat, and into the classifier
    z_parts, cur_parts, cls_w_parts, cls_b_parts = [], [], [], []
    if use_cls:
        cls_w, cls_b = heads["cls_w"], heads["cls_b"]
        _check_labels(yb, len(cls_b))
        losses["cls"], g_cls = _ce(z @ cls_w.T + cls_b, yb)
        z_parts.append(g_cls @ cls_w)
        cls_w_parts.append(g_cls.T @ z)
        cls_b_parts.append(np.add.reduce(g_cls, axis=0))
    if mixed:
        aux_w, aux_b = heads["aux_w"], heads["aux_b"]
        aux_labels = np.where(yb >= lo, yb - lo, model.current_class_count)
        _check_labels(aux_labels, len(aux_b))
        losses["aux"], g_aux = _ce(c_hat @ aux_w.T + aux_b, aux_labels)
        aux_part = g_aux @ aux_w
        grads["aux_w"] = g_aux.T @ c_hat
        grads["aux_b"] = np.add.reduce(g_aux, axis=0)
    if use_intra:
        w_i, b_i = heads["intra_w"], heads["intra_b"]
        c_cur = c_hat[:n_c] if mixed else c_hat
        y_local = yb[:n_c] - lo
        _check_labels(y_local, len(b_i))
        # the sufficiency term's softmax error is also the generator's
        # direction, (softmax - onehot) @ w_i
        suff, g_suff = _ce_error(c_cur @ w_i.T + b_i, y_local)
        ref_i = ad.log_softmax(c_cur)
        cfs_i, _, _, _ = cf.generate_intra_batch(
            c_cur, y_local, w_i, b_i, alpha=config.gen.alpha,
            epsilon=config.gen.epsilon, directions=g_suff @ w_i, ref=ref_i)
        g_suff /= len(y_local)
        cbar_i = c_cur + (cfs_i - c_cur)
        nec, g_nec = _nlcp(cbar_i @ w_i.T + b_i, y_local, config.nu)
        losses["intra"] = suff + nec * config.nu
        grads["intra_w"] = _sum_in_order([g_suff.T @ c_cur, g_nec.T @ cbar_i])
        grads["intra_b"] = _sum_in_order([np.add.reduce(g_suff, axis=0),
                                          np.add.reduce(g_nec, axis=0)])
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
        ref_e = ad.log_softmax(c_hat)
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
        z_parts += [g_suff @ w_e, g_nec @ w_e]
        w_parts = [g_suff.T @ z, g_nec.T @ cbar_e]
        b_parts = [np.add.reduce(g_suff, axis=0),
                   np.add.reduce(g_nec, axis=0)]
        if head == "cls":
            cls_w_parts += w_parts
            cls_b_parts += b_parts
        else:
            grads["inter_w"] = _sum_in_order(w_parts)
            grads["inter_b"] = _sum_in_order(b_parts)
        if config.gamma > 0:
            kl_e, g_a_e, g_b_e = _kl(ref_e, c_hat + (cfs_e - c_hat),
                                     config.gamma)
            losses["kl"] = losses["kl"] + kl_e
        # projector fit; the target c_hat enters as a plain value
        diff = proj - c_hat
        k = 1.0 / len(c_hat)
        losses["proj"] = float(np.add.reduce(diff * diff, axis=None) * k)
        g_pred = 2.0 * diff * k
        grads["proj_w1"] = g_pred.T @ hidden
        grads["proj_b1"] = np.add.reduce(g_pred, axis=0)
        g_pre = (g_pred @ w1) * (hidden > 0.0)
        grads["proj_w0"] = g_pre.T @ frozen
        grads["proj_b0"] = np.add.reduce(g_pre, axis=0)
    if use_cls:
        grads["cls_w"] = _sum_in_order(cls_w_parts)
        grads["cls_b"] = _sum_in_order(cls_b_parts)
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
        z_part = _sum_in_order(z_parts)[:, frozen.shape[1]:]
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
        grads[f"{prefix}w{i}"] = g.T @ ins[i]
        grads[f"{prefix}b{i}"] = np.add.reduce(g, axis=0)
        if i:
            g = (g @ ext.params[f"w{i}"].values) * (ins[i] > 0.0)
    return losses, grads


# ---------------------------------------------------------------------------
# the two-stage objective

def _run_objective_epochs(model, x_cur, y_cur, buffer, config: TrainConfig,
                          rng, records, stage, epochs, use_cls, use_intra,
                          use_inter):
    """Epochs of the objective with the enabled terms; returns the last
    epoch's report (None in stage 1).

    use_cls turns on classification and, from the second task on, the
    auxiliary loss and the rehearsal rows mixed into each batch; without
    it a batch holds current rows only and nothing is drawn from the
    buffer. A mixed loop computes the frozen features of every current
    and buffer row once, before its first epoch (`_rehearsal_tables`),
    and its batches come from `_batches`, as the baseline's do; with both
    scopes off this is arithmetically the baseline path. Only stage 2
    writes per-epoch reports (`_report_pool`), which generate inter-scope
    counterfactuals; stage 1 refuses use_inter with AssertionError.
    """
    if stage == 1 and use_inter:
        raise AssertionError(
            "inter-scope counterfactuals requested during stage 1")
    t = model.current_task
    params = _param_set(model, use_cls, use_intra, use_inter)
    state = make_optimizer_state(params)
    tables = (_rehearsal_tables(model, x_cur, buffer)
              if use_cls and t >= 1 else None)
    pool = (_report_pool(model, x_cur, y_cur, buffer, config)
            if stage == 2 else None)
    n_batches = len(range(0, len(x_cur), config.batch_size))
    report = None
    for epoch in range(epochs):
        t0 = time.perf_counter()
        sums = dict.fromkeys(LOSS_KEYS, 0.0)
        for xb, yb, n_c, frozen in _batches(x_cur, y_cur, tables,
                                            config.batch_size, rng):
            losses, grads = _objective(model, xb, yb, n_c, frozen, config,
                                       use_cls, use_intra, use_inter)
            for key, value in losses.items():
                sums[key] += value
            optimizer_step(params, grads, state, config)
        _check_finite(params)
        report = _probe_report(model, pool, config) if stage == 2 else None
        wall = (time.perf_counter() - t0) * 1000.0
        records.append(_record(t, stage, epoch, sums, n_batches, report, wall))
    _own_values(params)
    return report


def train_task(model, task_data, buffer, config: TrainConfig, rng):
    """Run the two-stage objective for the freshly expanded task.

    Returns {"task", "records", "final_report"}: one record per epoch,
    with per-epoch indicator reports during stage 2; nothing is written
    to disk. Both stages run `_run_objective_epochs` with different terms
    on: stage 1 (skipped when stage1_epochs is 0) trains the intra term
    alone over current rows (or, with it off, warms the base losses),
    stage 2 every enabled term. The frozen extractor stack is
    snapshot-checked for exact stability.
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

    final_report = _run_objective_epochs(
        model, x_cur, y_cur, buffer, config, rng, records, stage=2,
        epochs=config.stage2_epochs, use_cls=True, use_intra=use_intra,
        use_inter=use_inter)

    _check_frozen(model, snap)
    return {"task": t, "records": records, "final_report": final_report}


# ---------------------------------------------------------------------------
# the rehearsal baseline

def _baseline_step(model, xb, yb, frozen, lo, cur_count):
    """Loss values and gradients of one rehearsal-baseline step.

    The classifier's cross-entropy over [frozen, c_hat] and, when `frozen`
    is given (from the second task on), the auxiliary cross-entropy on
    c_hat, whose labels are the current classes from `lo` on and
    `cur_count` for a rehearsal row. Returns ({"cls"[, "aux"]}, the
    gradient of their sum for the current extractor, cls and aux).

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
    cls_w, cls_b = model.heads["cls_w"].values, model.heads["cls_b"].values
    _check_labels(yb, len(cls_b))
    losses, grads = {}, {}
    losses["cls"], g_cls = _ce(z @ cls_w.T + cls_b, yb)
    grads["cls_w"] = g_cls.T @ z
    grads["cls_b"] = g_cls.sum(axis=0)
    g = g_cls @ cls_w
    if frozen is not None:
        aux_w, aux_b = model.heads["aux_w"].values, model.heads["aux_b"].values
        aux_labels = np.where(yb >= lo, yb - lo, cur_count)
        _check_labels(aux_labels, len(aux_b))
        losses["aux"], g_aux = _ce(c_hat @ aux_w.T + aux_b, aux_labels)
        grads["aux_w"] = g_aux.T @ c_hat
        grads["aux_b"] = g_aux.sum(axis=0)
        g = g[:, frozen.shape[1]:] + g_aux @ aux_w
    prefix = f"f{model.current_task}/"
    for i in reversed(range(ext.n_layers)):
        grads[f"{prefix}w{i}"] = g.T @ ins[i]
        grads[f"{prefix}b{i}"] = g.sum(axis=0)
        if i:
            g = (g @ ext.params[f"w{i}"].values) * (ins[i] > 0.0)
    return losses, grads


def train_task_baseline(model, task_data, buffer, config: TrainConfig, rng):
    """Rehearsal baseline: classification plus auxiliary loss, one stage.

    Runs stage1_epochs + stage2_epochs epochs so comparisons against the
    two-stage objective are epoch-matched. Written as its own plain loop
    on purpose: the degeneracy check compares its final parameters
    bit-for-bit against train_task with the counterfactual machinery
    zeroed, and that check only means something if this path does not
    share that machinery. Each step is `_baseline_step`, differentiated by
    hand apart from `_objective`, and one `optimizer_step` over the flat
    parameter layout. What it does share with `_run_objective_epochs` is
    the batch plumbing, which holds no counterfactual code: the frozen
    feature tables (`_rehearsal_tables`), built once from the second task
    on, and the batches (`_batches`), so both paths feed their steps the
    same rows and frozen bits.
    """
    t = model.current_task
    lo = model.class_offsets[-1][0]
    x_cur, y_cur = _task_arrays(model, task_data, buffer)
    snap = model.frozen_snapshot()
    cur_count = model.current_class_count
    params = _param_set(model, use_cls=True, use_intra=False, use_inter=False)
    state = make_optimizer_state(params)
    tables = _rehearsal_tables(model, x_cur, buffer) if t >= 1 else None
    pool = _report_pool(model, x_cur, y_cur, buffer, config)
    n_batches = len(range(0, len(x_cur), config.batch_size))
    records = []
    report = None
    epochs = config.stage1_epochs + config.stage2_epochs
    for epoch in range(epochs):
        t0 = time.perf_counter()
        sums = dict.fromkeys(LOSS_KEYS, 0.0)
        for xb, yb, _, frozen in _batches(x_cur, y_cur, tables,
                                          config.batch_size, rng):
            losses, grads = _baseline_step(model, xb, yb, frozen, lo, cur_count)
            for key, value in losses.items():
                sums[key] += value
            optimizer_step(params, grads, state, config)
        _check_finite(params)
        report = _probe_report(model, pool, config)
        wall = (time.perf_counter() - t0) * 1000.0
        records.append(_record(t, 2, epoch, sums, n_batches, report, wall))
    _own_values(params)
    _check_frozen(model, snap)
    return {"task": t, "records": records, "final_report": report}
