"""Indicator risk, violation bound, interventional estimates, surrogates."""

import json

import numpy as np
import pytest

from conftest import numeric_grad, pool_report, rel_err
import audits
import oracles

from cpnslab import autodiff as ad
from cpnslab import counterfactual as cf
from cpnslab import model as md
from cpnslab import risk as rk
from cpnslab.errors import InputError, PropositionViolation, UsageError


def controlled_model(k=2, d=2, tasks=1):
    """Identity extractors (features == inputs), so head weights fully
    determine every prediction."""
    m = md.ExpandableModel(input_dim=d, feature_dim=d, hidden_dims=(), seed=0)
    for _ in range(tasks):
        m.expand(k)
        # set while it is current: expand freezes it, read-only, at the next
        m.extractors[-1].params["w0"][:] = np.eye(d)
        m.extractors[-1].params["b0"][:] = 0.0
    return m


def random_model(rng, tasks=2, k=2, input_dim=6, d=4):
    m = md.ExpandableModel(input_dim=input_dim, feature_dim=d,
                           hidden_dims=(5,), seed=int(rng.integers(2**31)))
    for _ in range(tasks):
        m.expand(k)
    return m


# ---------------------------------------------------------------------------
# trivial anchors

def test_perfect_factual_plus_flipping_counterfactual():
    m = controlled_model()
    m.heads["intra_w"][:] = np.eye(2)
    m.heads["intra_b"][:] = 0.0
    x = np.array([[2.0, 0.0], [0.0, 2.0]])
    y = np.array([0, 1])
    cfg = rk.GenConfig(alpha=30.0, epsilon=1e6)
    report = pool_report(m, (x, y), None, cfg)
    assert report.r_intra == 0.0
    assert report.m_intra == 0.0
    assert report.pns_intra_est == 1.0
    assert report.n_intra == 2 and report.n_inter == 0
    assert report.r_inter == 0.0 and report.m_inter == 0.0


def test_degenerate_with_perfect_classifier_forces_risk_one():
    # identical head rows: prediction ties to index 0 (correct for label 0)
    # while the loss gradient cancels exactly, so the generator degenerates
    # and the necessity indicator fires on every sample
    m = controlled_model()
    m.heads["intra_w"][:] = np.array([[1.0, 1.0], [1.0, 1.0]])
    m.heads["intra_b"][:] = 0.0
    x = np.array([[2.0, 0.0], [0.5, 1.5], [3.0, 3.0]])
    y = np.zeros(3, dtype=int)
    report = pool_report(m, (x, y), None, rk.GenConfig())
    assert report.r_intra == 1.0
    assert report.m_intra == 0.0  # factual is right, so no joint violation
    assert report.pns_intra_est == 0.0  # counterfactual equals factual


def test_factual_wrong_counterfactual_right_maximizes_violation():
    m = controlled_model()
    m.heads["intra_w"][:] = np.array([[1.0, 1.0], [1.0, 1.0]])
    m.heads["intra_b"][:] = 0.0
    x = np.array([[2.0, 0.0], [1.0, 1.0]])
    y = np.ones(2, dtype=int)  # tie-break predicts 0, always wrong
    report = pool_report(m, (x, y), None, rk.GenConfig())
    assert report.r_intra == 2.0
    assert report.m_intra == 1.0
    assert report.m_total <= report.r_total


# ---------------------------------------------------------------------------
# enumeration oracle

def test_eight_sample_report_matches_enumeration():
    rng = np.random.default_rng(17)
    m = random_model(rng)
    cfg = rk.GenConfig(alpha=2.0, beta=0.1, epsilon=0.05)
    x_buf = rng.normal(size=(4, 6))
    y_buf = rng.integers(0, 2, size=4)  # task-0 labels
    x_cur = rng.normal(size=(4, 6))
    y_cur = rng.integers(2, 4, size=4)  # task-1 labels
    report = pool_report(m, (x_cur, y_cur), (x_buf, y_buf), cfg)

    # independent per-sample recomputation with explicit python logic
    wi = m.heads["intra_w"]
    bi = m.heads["intra_b"]
    suff_i = nec_i = mono_i = fc_i = cc_i = 0
    for xi, yi in zip(x_cur, y_cur):
        c = m.extractors[-1].forward_np(xi)
        y_local = int(yi) - 2
        pf = int(np.argmax(c @ wi.T + bi))
        cfs, _, _, degenerate = cf.generate_intra_batch(
            [c], [y_local], wi, b=bi, alpha=cfg.alpha, epsilon=cfg.epsilon)
        pc = int(np.argmax(cfs[0] @ wi.T + bi))
        a = 1 if pf != y_local else 0
        bb = 1 if (pc == y_local or degenerate[0]) else 0
        suff_i += a
        nec_i += bb
        mono_i += a * bb
        fc_i += 1 if pf == y_local else 0
        cc_i += 1 if pc == y_local else 0
    n = len(y_cur)
    assert report.r_intra == (suff_i + nec_i) / n
    assert report.m_intra == mono_i / n
    assert report.pns_intra_est == fc_i / n - cc_i / n

    suff_k = nec_k = mono_k = fc_k = cc_k = 0
    pool_x = np.concatenate([x_buf, x_cur])
    pool_y = np.concatenate([y_buf, y_cur])
    for xk, yk in zip(pool_x, pool_y):
        z_old = m.extractors[0].forward_np(xk)
        c = m.extractors[1].forward_np(xk)
        proj = m.project_values(z_old)
        zf = np.concatenate([z_old, c])
        pf = int(np.argmax(m.head_np(m.inter_head, zf)))
        cfs, _, _, degenerate = cf.generate_inter_batch(
            [c], [proj], beta=cfg.beta, epsilon=cfg.epsilon)
        zc = np.concatenate([z_old, cfs[0]])
        pc = int(np.argmax(m.head_np(m.inter_head, zc)))
        a = 1 if pf != yk else 0
        bb = 1 if (pc == yk or degenerate[0]) else 0
        suff_k += a
        nec_k += bb
        mono_k += a * bb
        fc_k += 1 if pf == yk else 0
        cc_k += 1 if pc == yk else 0
    nn = len(pool_y)
    assert report.r_inter == (suff_k + nec_k) / nn
    assert report.m_inter == mono_k / nn
    assert report.pns_inter_est == fc_k / nn - cc_k / nn
    assert report.n_inter == nn
    # term-by-term bound from the same enumeration
    assert mono_i <= suff_i + nec_i and mono_k <= suff_k + nec_k


# ---------------------------------------------------------------------------
# proposition 1

def test_check_proposition1_negative_control():
    # the totals are derived from the scopes, and the bound holds on them
    good = rk.CpnsReport(r_intra=0.5, r_inter=0.5, m_intra=0.2, m_inter=0.1,
                         pns_intra_est=0.1, pns_inter_est=0.1,
                         n_intra=4, n_inter=8)
    assert (good.r_total, good.m_total) == (1.0, 0.2 + 0.1)
    with pytest.raises(TypeError):
        rk.CpnsReport(r_intra=0.5, r_inter=0.5, r_total=9.0, m_intra=0.2,
                      m_inter=0.1, pns_intra_est=0.1, pns_inter_est=0.1,
                      n_intra=4, n_inter=8)
    with pytest.raises(PropositionViolation,
                       match="violation total 1.8 exceeds risk total 1.0"):
        rk.CpnsReport(r_intra=0.5, r_inter=0.5, m_intra=0.9, m_inter=0.9,
                      pns_intra_est=0.0, pns_inter_est=0.0,
                      n_intra=4, n_inter=8)


def test_report_construction_asserts_bound():
    # one scope alone breaches it, on the first task's shape of report
    with pytest.raises(PropositionViolation, match="indicates a bug"):
        rk.CpnsReport(r_intra=0.1, r_inter=0.0, m_intra=0.9, m_inter=0.0,
                      pns_intra_est=0.0, pns_inter_est=0.0,
                      n_intra=4, n_inter=0)
    # a NaN total is no bound either
    with pytest.raises(PropositionViolation):
        rk.CpnsReport(r_intra=float("nan"), r_inter=0.0, m_intra=0.0,
                      m_inter=0.0, pns_intra_est=0.0, pns_inter_est=0.0,
                      n_intra=4, n_inter=0)


def test_proposition1_fuzz_small():
    rng = np.random.default_rng(19)
    for _ in range(300):
        tasks = int(rng.integers(1, 3))
        m = random_model(rng, tasks=tasks)
        cfg = rk.GenConfig(alpha=float(rng.uniform(0.1, 5.0)),
                           beta=float(rng.uniform(0.01, 0.45)),
                           epsilon=float(rng.uniform(1e-3, 0.5)))
        lo, hi = m.class_offsets[-1]
        n_cur = int(rng.integers(1, 6))
        cur = (rng.normal(size=(n_cur, 6)) * rng.uniform(0.5, 3.0),
               rng.integers(lo, hi, size=n_cur))
        buf = None
        if tasks > 1:
            n_buf = int(rng.integers(1, 6))
            buf = (rng.normal(size=(n_buf, 6)),
                   rng.integers(0, lo, size=n_buf))
        report = pool_report(m, cur, buf, cfg)
        assert report.m_total <= report.r_total


# ---------------------------------------------------------------------------
# input validation

def test_empty_batches_and_label_ranges():
    m = controlled_model(tasks=2)
    with pytest.raises(InputError):
        pool_report(m, (np.empty((0, 2)), np.empty(0, dtype=int)), None,
                    rk.GenConfig())
    x = np.ones((2, 2))
    with pytest.raises(InputError):  # old labels
        pool_report(m, (x, np.array([0, 1])), None, rk.GenConfig())


# ---------------------------------------------------------------------------
# what a caller hands the report, and the counts it takes its means from

def _scope_by_float_means(factual_correct, cf_correct, degenerate):
    """`_scope` as means of 0/1/2 floats, the form it had before counting."""
    suff = ~factual_correct
    nec = cf_correct | degenerate
    r = float(np.mean(suff.astype(np.float64) + nec.astype(np.float64)))
    m = float(np.mean((suff & nec).astype(np.float64)))
    return r, m, float(np.mean(factual_correct) - np.mean(cf_correct))


@pytest.mark.parametrize("n", [1, 7, 128, 255])
def test_scope_counts_give_the_bits_of_float_means(n):
    rng = np.random.default_rng(n)
    triples = [np.ones((3, n), dtype=bool), np.zeros((3, n), dtype=bool)]
    triples += [rng.random((3, n)) < p for p in (0.1, 0.5, 0.9)
                for _ in range(20)]
    for fc, cc, deg in triples:
        got = rk._scope(fc, cc, deg)
        want = _scope_by_float_means(fc, cc, deg)
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# interventional estimates

def test_estimate_zero_when_counterfactual_equals_factual():
    m = controlled_model()
    m.heads["intra_w"][:] = np.array([[1.0, 1.0], [1.0, 1.0]])
    x = np.array([[2.0, 0.0], [0.0, 2.0]])
    y = np.array([0, 1])
    assert audits.estimate_pns_interventional((x, y), m, "intra",
                                              rk.GenConfig()) == 0.0


def test_estimate_near_zero_for_random_model():
    rng = np.random.default_rng(20)
    diffs = []
    n = 400
    for trial in range(5):
        m = random_model(rng, tasks=1, k=4)
        x = rng.normal(size=(n, 6))
        y = rng.integers(0, 4, size=n)
        diffs.append(audits.estimate_pns_interventional((x, y), m, "intra",
                                                        rk.GenConfig()))
    # each per-sample difference is in {-1, 0, 1}, so 3 sigma <= 3/sqrt(n)
    assert np.abs(diffs).max() <= 3.0 / np.sqrt(n)


def test_estimate_scope_validation():
    m = controlled_model(tasks=1)
    x = np.ones((2, 2))
    y = np.array([0, 1])
    cfg = rk.GenConfig()
    with pytest.raises(UsageError):
        audits.estimate_pns_interventional((x, y), m, "inter", cfg)
    with pytest.raises(UsageError):
        audits.estimate_pns_interventional((x, y), m, "both", cfg)
    with pytest.raises(InputError):
        audits.estimate_pns_interventional(
            (np.empty((0, 2)), np.empty(0)), m, "intra", cfg)


def test_estimate_bounded():
    rng = np.random.default_rng(21)
    for _ in range(20):
        m = random_model(rng, tasks=2)
        x = rng.normal(size=(10, 6))
        y = rng.integers(0, 4, size=10)
        v = audits.estimate_pns_interventional((x, y), m, "inter",
                                               rk.GenConfig())
        assert -1.0 <= v <= 1.0


# ---------------------------------------------------------------------------
# surrogate losses

def test_surrogate_uniform_closed_form():
    k, d, nu = 4, 3, 0.7
    w = ad.leaf(np.zeros((k, d)))
    b = ad.leaf(np.zeros(k))
    c = ad.leaf(np.ones((1, d)))
    loss = oracles.surrogate_intra_loss(c, np.ones((1, d)) * 2.0, [1], w, b, nu=nu)
    want = np.log(k) + nu * (-np.log(1.0 - 1.0 / k + 1e-12))
    assert abs(float(loss.values) - want) < 1e-9


def test_surrogate_necessity_term_vanishes_at_zero_prob():
    # drive the true-class probability of the counterfactual to ~0
    w = ad.leaf(np.array([[10.0, 0.0], [-10.0, 0.0]]))
    b = ad.leaf(np.zeros(2))
    c = ad.leaf(np.array([[5.0, 0.0]]))
    cbar = np.array([[-5.0, 0.0]])  # true class 0 becomes overwhelmingly unlikely
    loss = oracles.surrogate_intra_loss(c, cbar, [0], w, b, nu=1.0)
    ce_only = float(oracles.softmax_cross_entropy(
        ad.linear(ad.leaf(c.values), w, b), [0]).values)
    assert abs(float(loss.values) - ce_only) < 1e-9


def test_surrogate_gradient_vs_fd_with_frozen_delta():
    rng = np.random.default_rng(22)
    k, d, nu = 3, 5, 0.8
    wv = rng.normal(size=(k, d))
    bv = rng.normal(size=k) * 0.1
    cv = rng.normal(size=(4, d))
    ys = rng.integers(k, size=4)
    delta = rng.normal(size=(4, d)) * 0.3

    c = ad.leaf(cv)
    loss = oracles.surrogate_intra_loss(c, cv + delta, ys, ad.leaf(wv),
                                        ad.leaf(bv), nu=nu)
    ad.backward(loss)

    def loss_np(v):
        logits = v @ wv.T + bv
        ls = logits - logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(ls).sum(axis=1))
        ce = (lse - ls[np.arange(4), ys]).mean()
        lc = (v + delta) @ wv.T + bv
        p = np.exp(lc - lc.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        py = p[np.arange(4), ys]
        return float(ce + nu * np.mean(-np.log(1.0 - py + 1e-12)))

    assert rel_err(c.grad, numeric_grad(loss_np, cv)) < 1e-4


def test_surrogate_inter_hand_oracle_two_class():
    # z = [z_old, c] with a 2-class head; verify against the written-out
    # formula with explicit softmax arithmetic
    nu = 1.0
    w = np.array([[1.0, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.5]])
    b = np.array([0.1, -0.1])
    z = np.array([1.0, 0.5, 2.0, -1.0])
    zbar = np.array([1.0, 0.5, 1.0, 0.2])  # only the current block moved
    y = 0

    node = ad.leaf([z])
    loss = oracles.surrogate_intra_loss(node, [zbar], [y], ad.leaf(w),
                                        ad.leaf(b), nu=nu)

    def soft(v):
        e = np.exp(v - v.max())
        return e / e.sum()

    lf = w @ z + b
    lc = w @ zbar + b
    want = -np.log(soft(lf)[y]) + nu * (-np.log(1.0 - soft(lc)[y] + 1e-12))
    assert abs(float(loss.values) - want) < 1e-12


def test_surrogate_inter_counterfactual_equal_factual():
    w = ad.leaf(np.array([[1.0, 0.0], [0.0, 1.0]]))
    b = ad.leaf(np.zeros(2))
    z = np.array([2.0, -1.0])
    node = ad.leaf([z])
    loss = oracles.surrogate_intra_loss(node, [z], [0], w, b, nu=1.0)

    def soft(v):
        e = np.exp(v - v.max())
        return e / e.sum()

    p = soft(w.values @ z + b.values)[0]
    want = -np.log(p) + (-np.log(1.0 - p + 1e-12))
    assert abs(float(loss.values) - want) < 1e-12


def test_surrogate_indicator_consistency():
    # wherever the surrogate necessity term is ~0 (true-class probability
    # of the counterfactual ~0), the necessity indicator must be 0
    rng = np.random.default_rng(23)
    k, d = 3, 4
    w = rng.normal(size=(k, d)) * 3.0
    b = np.zeros(k)
    for _ in range(200):
        c = rng.normal(size=d) * 2.0
        cbar = rng.normal(size=d) * 2.0
        y = int(rng.integers(k))
        logits = w @ cbar + b
        p = np.exp(logits - logits.max())
        p /= p.sum()
        term = -np.log(1.0 - p[y] + 1e-12)
        if term < 1e-6:
            assert int(np.argmax(logits)) != y


# ---------------------------------------------------------------------------
# indicator invariances

def test_indicators_invariant_to_positive_head_rescaling():
    rng = np.random.default_rng(24)
    w = rng.normal(size=(4, 5))
    b = np.zeros(4)
    feats = rng.normal(size=(50, 5))
    cfs = feats + rng.normal(size=(50, 5)) * 0.1
    y = rng.integers(4, size=50)
    for scale_k in (0.5, 2.0, 17.0):
        pf1 = np.argmax(feats @ w.T + b, axis=1)
        pf2 = np.argmax(feats @ (scale_k * w).T + scale_k * b, axis=1)
        pc1 = np.argmax(cfs @ w.T + b, axis=1)
        pc2 = np.argmax(cfs @ (scale_k * w).T + scale_k * b, axis=1)
        np.testing.assert_array_equal(pf1 != y, pf2 != y)
        np.testing.assert_array_equal(pc1 == y, pc2 == y)


# ---------------------------------------------------------------------------
# serialization

def test_report_serializes_flat_with_exact_field_names():
    report = rk.CpnsReport(r_intra=0.25, r_inter=0.5, m_intra=0.0,
                           m_inter=0.25, pns_intra_est=0.5,
                           pns_inter_est=0.25, n_intra=4, n_inter=8)
    d = report.to_json_dict()
    assert list(d) == ["r_intra", "r_inter", "r_total", "m_intra", "m_inter",
                       "m_total", "pns_intra_est", "pns_inter_est",
                       "n_intra", "n_inter"]
    assert (d["r_total"], d["m_total"]) == (0.75, 0.25)
    round_tripped = json.loads(json.dumps(d))
    assert round_tripped == d
