"""Empirical risk over counterfactual pairs, its monotonicity-violation
companion, and the per-scope accuracy differences the report carries.

Two scopes share one indicator pattern. Per sample the risk adds a
sufficiency violation (factual representation predicted wrong) and a
necessity violation (counterfactual representation still predicted right);
the violation measure multiplies the same two indicators instead of adding
them. Product <= sum holds per sample for 0/1 values, so the aggregate
bound m_total <= r_total is exact. `CpnsReport` derives both totals and
refuses a breach when it is built: a breach is a bug, never data.

Degenerate counterfactuals (the generator could not move the feature)
count as automatic necessity violations, the conservative reading.

Training never touches the indicators (no gradient). One differentiable
surrogate stands in for them in both scopes: cross-entropy on the factual
representation (sufficiency) plus nu times -log(1 - p_label) on the
counterfactual one (necessity), over the current feature for the intra
scope and over the combined representation for the inter scope. It is
part of the trainer's hand-differentiated objective (`trainer._objective`),
which treats each perturbation as a constant offset, so no second-order
terms arise.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from . import counterfactual as cf
from .errors import ConfigurationError, InputError, PropositionViolation


@dataclass
class GenConfig:
    """Knobs shared by the two generators when evaluating or training:
    the intra and inter initial step scales and the KL budget epsilon."""

    alpha: float = 1.0
    beta: float = 0.03
    epsilon: float = 0.05

    def __post_init__(self):
        if min(self.alpha, self.beta, self.epsilon) <= 0:
            raise ConfigurationError("alpha, beta and epsilon must be positive")


@dataclass
class CpnsReport:
    """Indicator risk and violation averages plus interventional estimates.

    r_* lie in [0, 2] (two indicators per sample), m_* in [0, 1],
    pns_*_est in [-1, 1]; n_* are the sample counts per scope, with
    n_inter = 0 on the first task where the inter scope does not exist.
    The totals are derived, and building a report with m_total above
    r_total raises PropositionViolation.
    """

    r_intra: float
    r_inter: float
    r_total: float = field(init=False)
    m_intra: float
    m_inter: float
    m_total: float = field(init=False)
    pns_intra_est: float
    pns_inter_est: float
    n_intra: int
    n_inter: int

    def __post_init__(self):
        self.r_total = self.r_intra + self.r_inter
        self.m_total = self.m_intra + self.m_inter
        if not self.m_total <= self.r_total:
            raise PropositionViolation(
                f"violation total {self.m_total} exceeds risk total "
                f"{self.r_total}; this indicates a bug")

    def to_json_dict(self):
        return asdict(self)


# ---------------------------------------------------------------------------
# indicator computation

def _intra_indicators(model, x, y_global, cfg: GenConfig):
    """Returns (factual_correct, cf_correct, degenerate) as boolean arrays
    over the current-task batch; the generator ascends the true label, as
    in the risk definition."""
    lo, hi = model.class_offsets[-1]
    y = np.asarray(y_global, dtype=np.int64)
    if y.min() < lo or y.max() >= hi:
        raise InputError("intra scope expects current-task labels only")
    y_local = y - lo
    feats = model.current_feature_np(x)
    pred_f = np.argmax(model.head_np("intra", feats), axis=1)
    cfs, _, _, degenerate = cf.generate_intra_batch(
        feats, y_local, model.heads["intra_w"],
        b=model.heads["intra_b"], alpha=cfg.alpha, epsilon=cfg.epsilon)
    pred_c = np.argmax(model.head_np("intra", cfs), axis=1)
    return pred_f == y_local, pred_c == y_local, degenerate


def _inter_indicators(model, x, y_global, cfg: GenConfig, z_old):
    """Same indicator triple over the combined buffer+current pool, from
    `z_old`, the frozen features of its rows; the inter-scope generator is
    label-free (it pulls toward the projection)."""
    y = np.asarray(y_global, dtype=np.int64)
    c_hat = model.current_feature_np(x)
    proj = model.project_values(z_old)
    z_f = np.concatenate([z_old, c_hat], axis=1)
    pred_f = np.argmax(model.head_np(model.inter_head, z_f), axis=1)
    cfs, _, _, degenerate = cf.generate_inter_batch(
        c_hat, proj, beta=cfg.beta, epsilon=cfg.epsilon)
    z_c = np.concatenate([z_old, cfs], axis=1)
    pred_c = np.argmax(model.head_np(model.inter_head, z_c), axis=1)
    return pred_f == y, pred_c == y, degenerate


def _scope(factual_correct, cf_correct, degenerate):
    """(r, m, pns) of one scope from its indicator triple: the mean of
    sufficiency plus necessity violations, the mean of their product, and
    the factual minus the counterfactual accuracy.

    Each mean is taken as a count over n. That has the bits of the mean
    of 0/1/2 floats, whose sum is an exact integer and whose mean is one
    correctly rounded division."""
    n = len(factual_correct)
    count = np.count_nonzero
    suff = ~factual_correct
    nec = cf_correct | degenerate
    return (float((count(suff) + count(nec)) / n),
            float(count(suff & nec) / n),
            float(count(factual_correct) / n - count(cf_correct) / n))


def empirical_cpns_risk(current_batch, buffer_batch, model,
                        cfg: GenConfig, frozen=None) -> CpnsReport:
    """Indicator risk per scope, averaged 1/n over the current task and
    1/N over the buffer-plus-current pool; the returned report also
    carries the interventional estimates over the same pools.

    On the first task the inter scope does not exist and is reported with
    count 0. `buffer_batch` may be None there, never afterwards.

    The inter scope reads the frozen features of the pool's rows, buffer
    rows first. A caller that scores the same pool again and again (a
    training loop's per-epoch reports) passes them as `frozen`, computed
    once by `frozen_concat_np` over the same rows, so they are the same
    bits; a table of another row count or width raises InputError, and so
    does one passed on the first task. Without it the report computes the
    table itself.
    """
    if current_batch is None or not len(current_batch[0]):
        raise InputError("current batch is empty")
    x_cur = np.asarray(current_batch[0], dtype=np.float64)
    y_cur = np.asarray(current_batch[1], dtype=np.int64)
    r_intra, m_intra, pns_intra = _scope(
        *_intra_indicators(model, x_cur, y_cur, cfg))
    r_inter = m_inter = pns_inter = 0.0
    n_inter = 0
    if model.task_count > 1:
        if buffer_batch is None or not len(buffer_batch[0]):
            raise InputError(
                "inter scope requested with an empty buffer batch")
        x_all = np.concatenate(
            [np.asarray(buffer_batch[0], dtype=np.float64), x_cur])
        y_all = np.concatenate(
            [np.asarray(buffer_batch[1], dtype=np.int64), y_cur])
        if frozen is None:
            frozen = model.frozen_concat_np(x_all)
        elif frozen.shape != (len(x_all),
                              model.feature_dim * model.current_task):
            raise InputError(
                f"frozen table of shape {frozen.shape} for a pool of "
                f"{len(x_all)} rows and {model.current_task} frozen "
                "extractors")
        r_inter, m_inter, pns_inter = _scope(
            *_inter_indicators(model, x_all, y_all, cfg, frozen))
        n_inter = len(y_all)
    elif frozen is not None:
        raise InputError("no frozen features exist on the first task")
    return CpnsReport(r_intra=r_intra, r_inter=r_inter, m_intra=m_intra,
                      m_inter=m_inter, pns_intra_est=pns_intra,
                      pns_inter_est=pns_inter, n_intra=len(y_cur),
                      n_inter=n_inter)
