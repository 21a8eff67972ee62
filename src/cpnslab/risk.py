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

A report scores one pool, current-task rows first and rehearsal rows
after them, with the frozen features its caller already holds; the
intra scope reads the current rows, the inter scope every row
(`empirical_cpns_risk`).

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

def _intra_indicators(model, feats, y_global, cfg: GenConfig):
    """Returns (factual_correct, cf_correct, degenerate) as boolean arrays
    over current-task rows, from their current features `feats`; the
    generator ascends the true label, as in the risk definition. One
    product of the head gives the factual predictions and the generator's
    direction, its logits' softmax error (`cf.ce_error`) times the weight."""
    lo, hi = model.class_offsets[-1]
    if y_global.min() < lo or y_global.max() >= hi:
        raise InputError("intra scope expects current-task labels only")
    y_local = y_global - lo
    w, b = model.heads["intra_w"], model.heads["intra_b"]
    logits = model.head_np("intra", feats)
    pred_f = np.argmax(logits, axis=1)
    cfs, _, _, degenerate = cf.generate_intra_batch(
        feats, y_local, w, b, alpha=cfg.alpha, epsilon=cfg.epsilon,
        directions=cf.ce_error(logits, y_local)[1] @ w)
    pred_c = np.argmax(model.head_np("intra", cfs), axis=1)
    return pred_f == y_local, pred_c == y_local, degenerate


def _inter_indicators(model, z_old, c_hat, y, cfg: GenConfig):
    """Same indicator triple over rows of any task, from their frozen
    features `z_old` and current features `c_hat`; the inter-scope
    generator is label-free (it pulls toward the projection)."""
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


def empirical_cpns_risk(model, x, y, n_cur, frozen,
                        cfg: GenConfig) -> CpnsReport:
    """Indicator risk per scope over one report pool, with the
    interventional estimates over the same rows.

    The pool is `x` and its int64 labels `y`: its first `n_cur` rows are
    the current task's, the rest rehearsal rows. `frozen` holds the
    frozen features of every pool row, and is None on the first task,
    where the inter scope does not exist and is reported with count 0.
    The current extractor runs once over the pool: the intra scope
    averages over its first n_cur rows, the inter scope over all of them.
    """
    if not n_cur:
        raise InputError("report pool has no current rows")
    feats = model.current_feature_np(x)
    r_intra, m_intra, pns_intra = _scope(
        *_intra_indicators(model, feats[:n_cur], y[:n_cur], cfg))
    r_inter = m_inter = pns_inter = 0.0
    n_inter = 0
    if frozen is not None:
        r_inter, m_inter, pns_inter = _scope(
            *_inter_indicators(model, frozen, feats, y, cfg))
        n_inter = len(y)
    return CpnsReport(r_intra=r_intra, r_inter=r_inter, m_intra=m_intra,
                      m_inter=m_inter, pns_intra_est=pns_intra,
                      pns_inter_est=pns_inter, n_intra=n_cur,
                      n_inter=n_inter)
