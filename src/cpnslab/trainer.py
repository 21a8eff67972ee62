"""Two-stage incremental trainer with class-balanced rehearsal.

Each task gets a fresh extractor from the expansion step; training here
never touches the frozen ones, which an exact snapshot check enforces on
every run. Stage 1 pretrains the new extractor and the intra-scope head
on the counterfactual surrogate alone, so the features separate factual
from counterfactual before the shared classifier sees them; stage 2
optimizes the full objective: classification, auxiliary discrimination,
both surrogate scopes, the KL budget terms, and the projector fit.

The knobs degrade exactly: with lam = gamma = nu = 0 and stage 1
disabled, train_task performs the same arithmetic as
train_task_baseline, and the tests pin the final parameters bit-for-bit.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import counterfactual as cf
from .errors import ConfigurationError, InputError, NumericsError, UsageError
from .risk import GenConfig, empirical_cpns_risk, surrogate_intra_loss

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

    lam weights the inter-scope surrogate, gamma the KL budget terms, nu
    the necessity half of each surrogate. Single-stage training
    (two_stage=False) folds the stage-1 budget into stage 2 so epoch
    totals stay comparable across ablations.
    """

    stage1_epochs: int = 20
    stage2_epochs: int = 40
    batch_size: int = 32
    lr: float = 1e-2
    momentum: float = 0.95
    weight_decay: float = 1e-5
    optimizer: str = "sgd"              # sgd | adam
    # adam's own (beta1, beta2); momentum is read by sgd alone
    adam_betas: tuple[float, float] = (0.95, 0.999)
    adam_eps: float = 1e-8
    schedule: str = "constant"          # constant | cosine
    lam: float = 0.5
    gamma: float = 1.0
    nu: float = 1.0
    two_stage: bool = True
    buffer_capacity: int = 2000
    buffer_policy: str = "herding"      # herding | class_balanced_random
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
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}")
        b1, b2 = self.adam_betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ConfigurationError("adam betas must lie in [0, 1)")
        if self.schedule not in ("constant", "cosine"):
            raise ConfigurationError(f"unknown schedule {self.schedule!r}")
        if self.buffer_policy not in ("herding", "class_balanced_random"):
            raise ConfigurationError(f"unknown buffer policy {self.buffer_policy!r}")
        if self.buffer_capacity < 1:
            raise ConfigurationError("buffer_capacity must be at least 1")
        if self.report_limit < 1:
            raise ConfigurationError("report_limit must be at least 1")


# ---------------------------------------------------------------------------
# optimizer

def make_optimizer_state():
    """Fresh state; slots are allocated lazily per parameter name."""
    return {"step": 0, "m": {}, "v": {}}


def optimizer_step(params: dict[str, ad.Tensor], state, config: TrainConfig,
                   lr=None):
    """One update over every parameter in the map.

    Gradients are read from the tensors' `grad`, so every parameter must
    have been reached by the last `backward`. Weight decay is decoupled
    (applied to the value, not folded into the gradient). A missing or
    non-finite gradient aborts before a single value is touched.
    """
    lr = config.lr if lr is None else float(lr)
    for name, t in params.items():
        if t.grad is None:
            raise UsageError(f"parameter {name!r} got no gradient from the "
                             "last backward")
        if not np.all(np.isfinite(t.grad)):
            raise NumericsError(
                f"non-finite gradient in {name!r} at step {state['step'] + 1}")
    state["step"] += 1
    k = state["step"]
    for name, t in params.items():
        g = t.grad
        if config.weight_decay > 0.0:
            t.values -= lr * config.weight_decay * t.values
        if config.optimizer == "sgd":
            buf = state["m"].get(name)
            # a copy on the first step: the momentum must not alias t.grad
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


def _lr_at(config: TrainConfig, epoch, total_epochs):
    if config.schedule == "constant":
        return config.lr
    return config.lr * 0.5 * (1.0 + math.cos(math.pi * epoch / max(1, total_epochs)))


# ---------------------------------------------------------------------------
# rehearsal buffer

class RehearsalBuffer:
    """Exemplar store over raw inputs, class-balanced by quota.

    Per-class arrays keep their selection order, so a later quota shrink
    just drops a suffix and the surviving prefix is still the best one
    the selection policy found.
    """

    def __init__(self, capacity, policy="herding"):
        if capacity < 1:
            raise ConfigurationError("buffer capacity must be at least 1")
        if policy not in ("herding", "class_balanced_random"):
            raise ConfigurationError(f"unknown buffer policy {policy!r}")
        self.capacity = int(capacity)
        self.policy = policy
        self._store: dict[int, np.ndarray] = {}  # classes in first-seen order

    def __len__(self):
        return sum(len(v) for v in self._store.values())

    def samples(self):
        """All exemplars as (x, y), classes in first-seen order."""
        if not self._store:
            return np.zeros((0, 0)), np.zeros(0, dtype=np.int64)
        ys = [np.full(len(v), c, dtype=np.int64) for c, v in self._store.items()]
        return np.concatenate(list(self._store.values())), np.concatenate(ys)


def herding_order(features, m):
    """Greedy exemplar sequence over feature rows.

    Each pick keeps the running exemplar mean closest in squared distance
    to the class mean; ties go to the lowest remaining index. Returns the
    selected row indices in selection order.
    """
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


def buffer_commit(buffer: RehearsalBuffer, task_data, model, rng=None):
    """Shrink old quotas and admit the finished task's classes.

    Quota is capacity // classes-seen, remainder spread over the
    earliest-seen classes. Herding scores candidates by the model's
    concatenated features; class_balanced_random needs the rng instead.
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
        if buffer.policy == "herding":
            sel = herding_order(model.concat_features_np(xc), m)
        else:
            if rng is None:
                raise UsageError("class_balanced_random selection needs an rng")
            sel = rng.permutation(len(xc))[:m]
        buffer._store[c] = xc[np.asarray(sel, dtype=np.int64)].copy()
    return buffer


# ---------------------------------------------------------------------------
# projector

def _projector_loss(model, z_old_values, target_values):
    """Mean squared projector residual; target enters as a plain value."""
    pred = model.projector_graph(ad.constant(z_old_values))
    diff = ad.sub(pred, ad.constant(target_values))
    return ad.scale(ad.sum_squares(diff), 1.0 / len(target_values))


# ---------------------------------------------------------------------------
# batch plumbing shared by both code paths (index arithmetic only)

def _epoch_batches(n, batch_size, rng):
    perm = rng.permutation(n)
    return [perm[s:s + batch_size] for s in range(0, n, batch_size)]


def _buffer_minibatch(n_buf, k, rng):
    # the whole buffer when it is smaller than the requested slice
    if n_buf <= k:
        return np.arange(n_buf)
    return rng.choice(n_buf, size=k, replace=False)


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


def _probe_report(model, x_cur, y_cur, probe_buf, config: TrainConfig):
    cap = config.report_limit
    cur = (x_cur[:cap], y_cur[:cap])
    if model.task_count < 2:
        return empirical_cpns_risk(cur, None, model, config.gen)
    bx, by = probe_buf
    return empirical_cpns_risk(cur, (bx[:cap], by[:cap]), model, config.gen)


def _record(task, stage, epoch, sums, n_batches, report, wall_ms):
    terms = {k: (sums[k] / n_batches if n_batches else 0.0) for k in LOSS_KEYS}
    return {
        "task": int(task),
        "stage": int(stage),
        "epoch": int(epoch),
        "loss_terms": terms,
        "cpns_report": None if report is None else report.to_json_dict(),
        "wall_ms": float(wall_ms),
    }


def _append_jsonl(path, records):
    with open(path, "a") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")))
            fh.write("\n")


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
    buffer. With both scopes off this is arithmetically the baseline path.
    Only stage 2 writes per-epoch reports, which generate inter-scope
    counterfactuals; stage 1 refuses use_inter with AssertionError.
    """
    if stage == 1 and use_inter:
        raise AssertionError(
            "inter-scope counterfactuals requested during stage 1")
    t = model.current_task
    lo = model.class_offsets[-1][0]
    cur_count = model.current_class_count
    params = _param_set(model, use_cls, use_intra, use_inter)
    state = make_optimizer_state()
    w_i, b_i = model.heads["intra_w"], model.heads["intra_b"]
    if use_inter:  # a separate inter head does not exist on the first task
        head = model.inter_head
        w_e, b_e = model.heads[f"{head}_w"], model.heads[f"{head}_b"]
    mixed = use_cls and t >= 1
    probe_buf = buffer.samples() if mixed else None
    buf_x, buf_y = probe_buf if mixed else (None, None)
    n = len(x_cur)
    report = None
    for epoch in range(epochs):
        t0 = time.perf_counter()
        lr = _lr_at(config, epoch, epochs)
        sums = dict.fromkeys(LOSS_KEYS, 0.0)
        batches = _epoch_batches(n, config.batch_size, rng)
        for idx in batches:
            xb = x_cur[idx]
            yb = y_cur[idx]
            n_c = len(idx)
            if mixed:
                bsel = _buffer_minibatch(len(buf_x), n_c, rng)
                xb = np.concatenate([xb, buf_x[bsel]])
                yb = np.concatenate([yb, buf_y[bsel]])
            c_hat = model.current_feature_graph(ad.constant(xb))
            frozen_np = model.frozen_concat_np(xb) if mixed else None
            z = (ad.concat([ad.constant(frozen_np), c_hat])
                 if mixed else c_hat)
            terms = []
            if use_cls:
                cls_loss = ad.softmax_cross_entropy(model.head_graph("cls", z), yb)
                sums["cls"] += float(cls_loss.values)
                terms.append(cls_loss)
            if mixed:
                aux_labels = np.where(yb >= lo, yb - lo, cur_count)
                aux_loss = ad.softmax_cross_entropy(
                    model.head_graph("aux", c_hat), aux_labels)
                sums["aux"] += float(aux_loss.values)
                terms.append(aux_loss)
            kl_terms = []
            if use_intra:
                c_cur = ad.take_rows(c_hat, 0, n_c) if mixed else c_hat
                y_local = yb[:n_c] - lo
                cfs_i, _, _, _ = cf.generate_intra_batch(
                    c_cur.values, y_local, w_i.values, b_i.values,
                    alpha=config.gen.alpha, epsilon=config.gen.epsilon,
                    metric=config.gen.metric)
                intra_loss = surrogate_intra_loss(c_cur, cfs_i, y_local,
                                                  w_i, b_i, nu=config.nu)
                sums["intra"] += float(intra_loss.values)
                terms.append(intra_loss)
                if config.gamma > 0:
                    kl_terms.append(ad.kl_softmax(
                        c_cur, ad.add(c_cur, ad.constant(cfs_i - c_cur.values))))
            if use_inter:
                proj_vals = model.project_values(frozen_np)
                cfs_e, _, _, _ = cf.generate_inter_batch(
                    c_hat.values, proj_vals, beta=config.gen.beta,
                    epsilon=config.gen.epsilon, metric=config.gen.metric)
                z_cf = np.concatenate([frozen_np, cfs_e], axis=1)
                inter_loss = surrogate_intra_loss(z, z_cf, yb, w_e, b_e,
                                                  nu=config.nu)
                sums["inter"] += float(inter_loss.values)
                terms.append(ad.scale(inter_loss, config.lam))
                if config.gamma > 0:
                    kl_terms.append(ad.kl_softmax(
                        c_hat, ad.add(c_hat, ad.constant(cfs_e - c_hat.values))))
            if kl_terms:
                kl_total = ad.add_scalars(kl_terms)
                sums["kl"] += float(kl_total.values)
                terms.append(ad.scale(kl_total, config.gamma))
            if use_inter:
                proj_loss = _projector_loss(model, frozen_np, c_hat.values)
                sums["proj"] += float(proj_loss.values)
                terms.append(proj_loss)
            total = terms[0] if len(terms) == 1 else ad.add_scalars(terms)
            ad.backward(total)
            optimizer_step(params, state, config, lr=lr)
        _check_finite(params)
        report = (_probe_report(model, x_cur, y_cur, probe_buf, config)
                  if stage == 2 else None)
        wall = (time.perf_counter() - t0) * 1000.0
        records.append(_record(t, stage, epoch, sums, len(batches), report, wall))
    return report


def train_task(model, task_data, buffer, config: TrainConfig, rng,
               log_path=None):
    """Run the two-stage objective for the freshly expanded task.

    Returns {"task", "records", "final_report"}; the records mirror what
    goes to the JSONL sink, one per epoch, with per-epoch indicator
    reports during stage 2. Both stages run `_run_objective_epochs` with
    different terms on: stage 1 trains the intra term alone over current
    rows (or, with it off, warms the base losses), stage 2 every enabled
    term. The frozen extractor stack is snapshot-checked for exact
    stability.
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

    if config.two_stage and config.stage1_epochs > 0:
        # nothing to pretrain without the intra term; warm the base losses
        # instead so delayed inter-scope training still means something in
        # ablations
        _run_objective_epochs(model, x_cur, y_cur, buffer, config, rng,
                              records, stage=1, epochs=config.stage1_epochs,
                              use_cls=not use_intra, use_intra=use_intra,
                              use_inter=False)

    stage2_epochs = config.stage2_epochs + (
        0 if config.two_stage else config.stage1_epochs)
    final_report = _run_objective_epochs(
        model, x_cur, y_cur, buffer, config, rng, records, stage=2,
        epochs=stage2_epochs, use_cls=True, use_intra=use_intra,
        use_inter=use_inter)

    _check_frozen(model, snap)
    if log_path is not None:
        _append_jsonl(log_path, records)
    return {"task": t, "records": records, "final_report": final_report}


def train_task_baseline(model, task_data, buffer, config: TrainConfig, rng,
                        log_path=None):
    """Rehearsal baseline: classification plus auxiliary loss, one stage.

    Runs stage1_epochs + stage2_epochs epochs so comparisons against the
    two-stage objective are epoch-matched. Written as its own plain loop
    on purpose: the degeneracy check compares its final parameters
    bit-for-bit against train_task with the counterfactual machinery
    zeroed, and that check only means something if this path does not
    share that machinery.
    """
    t = model.current_task
    lo = model.class_offsets[-1][0]
    x_cur, y_cur = _task_arrays(model, task_data, buffer)
    snap = model.frozen_snapshot()
    cur_count = model.current_class_count
    params = _param_set(model, use_cls=True, use_intra=False, use_inter=False)
    state = make_optimizer_state()
    has_buffer = t >= 1
    probe_buf = buffer.samples() if has_buffer else None
    buf_x, buf_y = probe_buf if has_buffer else (None, None)
    n = len(x_cur)
    records = []
    report = None
    epochs = config.stage1_epochs + config.stage2_epochs
    for epoch in range(epochs):
        t0 = time.perf_counter()
        lr = _lr_at(config, epoch, epochs)
        sums = dict.fromkeys(LOSS_KEYS, 0.0)
        batches = _epoch_batches(n, config.batch_size, rng)
        for idx in batches:
            xb = x_cur[idx]
            yb = y_cur[idx]
            if has_buffer:
                bsel = _buffer_minibatch(len(buf_x), len(idx), rng)
                xb = np.concatenate([xb, buf_x[bsel]])
                yb = np.concatenate([yb, buf_y[bsel]])
            c_hat = model.current_feature_graph(ad.constant(xb))
            z = (ad.concat([ad.constant(model.frozen_concat_np(xb)), c_hat])
                 if has_buffer else c_hat)
            cls_loss = ad.softmax_cross_entropy(model.head_graph("cls", z), yb)
            sums["cls"] += float(cls_loss.values)
            terms = [cls_loss]
            if has_buffer:
                aux_labels = np.where(yb >= lo, yb - lo, cur_count)
                aux_loss = ad.softmax_cross_entropy(
                    model.head_graph("aux", c_hat), aux_labels)
                sums["aux"] += float(aux_loss.values)
                terms.append(aux_loss)
            total = terms[0] if len(terms) == 1 else ad.add_scalars(terms)
            ad.backward(total)
            optimizer_step(params, state, config, lr=lr)
        _check_finite(params)
        report = _probe_report(model, x_cur, y_cur, probe_buf, config)
        wall = (time.perf_counter() - t0) * 1000.0
        records.append(_record(t, 2, epoch, sums, len(batches), report, wall))
    _check_frozen(model, snap)
    if log_path is not None:
        _append_jsonl(log_path, records)
    return {"task": t, "records": records, "final_report": report}
