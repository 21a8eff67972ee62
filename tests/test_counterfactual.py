"""Constraint satisfaction, closed forms, and hand oracles for the
counterfactual generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from cpnslab import autodiff as ad
from cpnslab import counterfactual as cf
from cpnslab.errors import ConfigurationError
from cpnslab.risk import GenConfig

GEN = GenConfig()


def _rand_head(rng, k=4, d=6):
    return rng.normal(size=(k, d)), rng.normal(size=k) * 0.1


def kl_rows(a, b):
    """KL(softmax(a) || softmax(b)) per row, in plain numpy."""
    la = cf.log_softmax(np.asarray(a, dtype=np.float64))
    lb = cf.log_softmax(np.asarray(b, dtype=np.float64))
    return np.sum(np.exp(la) * (la - lb), axis=-1)


def intra_one(c, label, w, b, alpha=GEN.alpha, epsilon=GEN.epsilon):
    """The intra generator on a one-row batch: (cf, value, scale, degenerate)."""
    return tuple(a[0] for a in cf.generate_intra_batch([c], [label], w, b,
                                                       alpha, epsilon))


def inter_one(c, proj, beta=GEN.beta, epsilon=GEN.epsilon):
    """The inter generator on a one-row batch: (cf, value, scale, degenerate)."""
    return tuple(a[0] for a in cf.generate_inter_batch([c], [proj], beta,
                                                       epsilon))


# ---------------------------------------------------------------------------
# intra-scope generator

def test_gen_intra_zero_gradient_degenerate():
    w = np.zeros((3, 4))  # flat loss surface: gradient vanishes everywhere
    c = np.array([1.0, 2.0, 3.0, 4.0])
    cfv, val, scale, degenerate = intra_one(c, 1, w, np.zeros(3))
    assert degenerate
    np.testing.assert_array_equal(cfv, c)
    assert val == 0.0
    assert scale == 0.0


def test_gen_intra_hand_oracle_2d():
    # w = [[1,0],[-1,0]], c = [1,0], label 0: logits [1,-1],
    # gradient = w.T (softmax - onehot) = [-2 p1, 0]
    w = np.array([[1.0, 0.0], [-1.0, 0.0]])
    c = np.array([1.0, 0.0])
    p1 = np.exp(-1.0) / (np.exp(1.0) + np.exp(-1.0))
    g = cf.intra_directions(c, [0], w, np.zeros(2))[0]
    np.testing.assert_allclose(g, [-2.0 * p1, 0.0], atol=1e-15)
    assert g[0] < 0  # pushes the decisive coordinate down, toward the boundary

    cfv, _, scale, _ = intra_one(c, 0, w, np.zeros(2), alpha=1.0,
                                 epsilon=10.0)
    np.testing.assert_allclose(cfv, c + g, atol=1e-15)
    assert scale == 1.0


def test_gen_intra_direction_is_exact_autodiff_gradient():
    rng = np.random.default_rng(0)
    w, b = _rand_head(rng)
    c = rng.normal(size=6)
    y = 2
    cfv, _, scale, _ = intra_one(c, y, w, b=b, alpha=0.5, epsilon=10.0)
    node = ad.leaf([c])
    loss = oracles.softmax_cross_entropy(
        ad.linear(node, ad.leaf(w), ad.leaf(b)), [y])
    ad.backward(loss)
    direction = (cfv - c) / scale
    grad = node.grad[0]
    cos = direction @ grad / (np.linalg.norm(direction) * np.linalg.norm(grad))
    assert abs(cos - 1.0) < 1e-12
    np.testing.assert_allclose(direction, grad, rtol=1e-12)


@pytest.mark.parametrize("epsilon", [0.01, 0.05, 0.5])
def test_gen_intra_constraint_satisfied(epsilon):
    rng = np.random.default_rng(1)
    for _ in range(200):
        w, b = _rand_head(rng)
        c = rng.normal(size=6) * rng.uniform(0.5, 4.0)
        y = int(rng.integers(4))
        cfv, val, _, degenerate = intra_one(
            c, y, w, b=b, alpha=rng.uniform(0.1, 8.0), epsilon=epsilon)
        assert val <= epsilon
        if not degenerate:
            kl = float(kl_rows(cfv, c))
            assert abs(kl - val) < 1e-12


def test_gen_intra_backtracking_halves_scale():
    rng = np.random.default_rng(2)
    w, b = _rand_head(rng)
    c = rng.normal(size=6) * 3.0
    _, _, loose, _ = intra_one(c, 0, w, b=b, alpha=8.0, epsilon=100.0)
    _, _, tight, tight_degenerate = intra_one(c, 0, w, b=b, alpha=8.0,
                                              epsilon=1e-4)
    assert loose == 8.0
    assert not tight_degenerate
    assert tight < loose
    # backtracking is geometric, so the final scale is 8 / 2^k
    k = np.log2(8.0 / tight)
    assert abs(k - round(k)) < 1e-12


def test_gen_intra_validates_config():
    w = np.eye(3)
    with pytest.raises(ConfigurationError):
        intra_one(np.ones(3), 0, w, np.zeros(3), alpha=0.0)
    with pytest.raises(ConfigurationError):
        intra_one(np.ones(3), 0, w, np.zeros(3), epsilon=-1.0)


def test_gen_intra_deterministic():
    rng = np.random.default_rng(3)
    w, b = _rand_head(rng)
    c = rng.normal(size=6)
    a = intra_one(c, 1, w, b=b)
    b2 = intra_one(c, 1, w, b=b)
    np.testing.assert_array_equal(a[0], b2[0])
    assert a[2] == b2[2]


def test_batch_matches_per_sample():
    rng = np.random.default_rng(4)
    w, b = _rand_head(rng)
    feats = rng.normal(size=(16, 6)) * 2.0
    labels = rng.integers(4, size=16)
    cfs, vals, scales, degenerate = cf.generate_intra_batch(
        feats, labels, w, b=b, alpha=2.0, epsilon=0.05)
    for i in range(16):
        cfv, _, scale, deg = intra_one(feats[i], labels[i], w, b=b, alpha=2.0,
                                       epsilon=0.05)
        # blas reduction order differs between [16,d] and [1,d] matmuls,
        # so agreement is to machine precision rather than bit-exact
        np.testing.assert_allclose(cfs[i], cfv, rtol=0, atol=1e-12)
        assert scales[i] == scale
        assert degenerate[i] == deg


# ---------------------------------------------------------------------------
# inter-scope generator

def test_gen_inter_collision_is_degenerate():
    c = np.array([1.0, -2.0, 0.5])
    cfv, _, _, degenerate = inter_one(c, c)
    assert degenerate
    np.testing.assert_array_equal(cfv, c)


def test_gen_inter_quarter_beta_is_midpoint():
    rng = np.random.default_rng(5)
    c = rng.normal(size=5)
    proj = rng.normal(size=5)
    cfv, _, _, _ = inter_one(c, proj, beta=0.25, epsilon=100.0)
    np.testing.assert_allclose(cfv, (c + proj) / 2.0, atol=1e-15)


def test_gen_inter_default_beta_closed_form():
    rng = np.random.default_rng(6)
    c = rng.normal(size=5)
    proj = rng.normal(size=5)
    cfv, _, _, _ = inter_one(c, proj, beta=0.03, epsilon=100.0)
    np.testing.assert_allclose(cfv, 0.94 * c + 0.06 * proj,
                               atol=1e-12)


def test_gen_inter_closed_form_after_backtracking():
    rng = np.random.default_rng(7)
    for _ in range(100):
        c = rng.normal(size=6) * rng.uniform(0.5, 5.0)
        proj = rng.normal(size=6) * rng.uniform(0.5, 5.0)
        eps = rng.uniform(1e-4, 0.05)
        cfv, val, beta_eff, degenerate = inter_one(
            c, proj, beta=rng.uniform(0.01, 0.49), epsilon=eps)
        assert val <= eps
        if not degenerate:
            want = (1.0 - 2.0 * beta_eff) * c + 2.0 * beta_eff * proj
            assert np.abs(cfv - want).max() < 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_gen_inter_monotone_interference(seed):
    # the counterfactual never ends up farther from the projected proxy
    # than the factual was, as long as 0 < 2 beta_eff <= 1
    rng = np.random.default_rng(seed)
    c = rng.normal(size=4) * 2.0
    proj = rng.normal(size=4) * 2.0
    cfv, _, scale, degenerate = inter_one(c, proj,
                                          beta=rng.uniform(0.01, 0.5),
                                          epsilon=0.05)
    if not degenerate and 2.0 * scale <= 1.0:
        assert (np.linalg.norm(cfv - proj)
                <= np.linalg.norm(c - proj) + 1e-12)


def test_gen_inter_validates_config():
    c = np.ones(3)
    with pytest.raises(ConfigurationError):
        inter_one(c, c, beta=0.0)
    with pytest.raises(ConfigurationError):
        inter_one(c, np.ones(4))


# ---------------------------------------------------------------------------
# baseline perturbers

def test_perturb_random_respects_budget_and_seed():
    rng = np.random.default_rng(8)
    c = rng.normal(size=6) * 2.0
    for budget in (1e-4, 0.01, 0.1):
        for trial in range(50):
            _, vals, _, _ = cf.perturb_random(c, budget,
                                              np.random.default_rng(trial))
            assert vals[0] <= budget
    a, _, _, _ = cf.perturb_random(c, 0.05, np.random.default_rng(123))
    b, _, _, _ = cf.perturb_random(c, 0.05, np.random.default_rng(123))
    np.testing.assert_array_equal(a, b)


def test_perturb_random_small_budget_stays_close():
    rng = np.random.default_rng(9)
    c = rng.normal(size=6)
    cfs, _, _, _ = cf.perturb_random(c, 1e-8, np.random.default_rng(0))
    assert np.linalg.norm(cfs[0] - c) < 1e-2


# ---------------------------------------------------------------------------
# live-row backtracking against the all-rows reference loop

def _reference_backtrack(feats, directions, init_scale, epsilon):
    """Every round scores every row at its own scale; the values are scored
    again at the accepted scales. Returns the generators' four arrays."""
    degenerate = np.linalg.norm(directions, axis=-1) == 0.0
    chosen = np.zeros(len(feats))
    scales = np.full(len(feats), float(init_scale))
    done = degenerate.copy()
    for _ in range(cf.MAX_HALVINGS + 1):
        if done.all():
            break
        cand = feats + scales[:, None] * directions
        newly = ~done & (kl_rows(cand, feats) <= epsilon)
        chosen[newly] = scales[newly]
        done |= newly
        scales = np.where(done, scales, scales / 2.0)
    degenerate |= ~done
    cfs = feats + chosen[:, None] * directions
    vals = np.where(degenerate, 0.0, kl_rows(cfs, feats))
    return cfs, vals, chosen, degenerate


def _assert_same_and_mixed(got, want, directions, init_scale):
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    _, _, scales, degenerate = want
    zero = np.linalg.norm(directions, axis=-1) == 0.0
    assert zero.any(), "no zero-direction row"
    assert (scales == init_scale).any(), "no row feasible at once"
    assert ((scales > 0) & (scales < init_scale / 2)).any(), \
        "no row feasible only after several halvings"
    assert (degenerate & ~zero).any(), "no row that is never feasible"


def test_intra_live_rows_match_all_rows_reference():
    # one-hot features with growing margins: the softmax saturates exactly
    # at 800 (zero direction) and the direction shrinks as e^-margin
    margins = np.array([800.0, 40.0, 30.0, 12.0, 6.0, 2.0, 0.5, 0.0])
    labels = np.arange(len(margins)) % 4
    feats = np.zeros((len(margins), 4))
    feats[np.arange(len(margins)), labels] = margins
    feats[1:] += np.random.default_rng(15).normal(scale=0.01, size=(7, 4))
    w = np.eye(4)
    # alpha so large that the widest-margin rows stay infeasible even after
    # MAX_HALVINGS halvings
    b = np.zeros(4)
    got = cf.generate_intra_batch(feats, labels, w, b, 1e9, 1e-6)
    directions = cf.intra_directions(feats, labels, w, b)
    want = _reference_backtrack(feats, directions, 1e9, 1e-6)
    _assert_same_and_mixed(got, want, directions, 1e9)


def test_inter_live_rows_match_all_rows_reference():
    rng = np.random.default_rng(16)
    feats = rng.normal(size=(8, 4))
    offsets = np.array([0.0, 1e-13, 1e-9, 1e-5, 1e-3, 1e-1, 1.0, 30.0])
    projected = feats + offsets[:, None] * rng.normal(size=(8, 4))
    got = cf.generate_inter_batch(feats, projected, beta=1e6, epsilon=1e-6)
    directions = 2.0 * (projected - feats)
    want = _reference_backtrack(feats, directions, 1e6, 1e-6)
    _assert_same_and_mixed(got, want, directions, 1e6)


def test_perturb_random_live_rows_match_all_rows_reference():
    rng = np.random.default_rng(17)
    # the saturated row is feasible at once, the others after halvings
    feats = np.vstack([rng.normal(size=(6, 4)), [[800.0, 0.0, 0.0, 0.0]]])
    got = cf.perturb_random(feats, 1e-12, np.random.default_rng(18))
    directions = np.random.default_rng(18).standard_normal(feats.shape)
    want = _reference_backtrack(feats, directions, 1.0, 1e-12)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    scales = want[2]
    assert (scales == 1.0).any() and ((scales > 0) & (scales < 0.5)).any()


# ---------------------------------------------------------------------------
# the first-scale fast path and the caller-held intermediates

def _count_scoring_rounds(monkeypatch):
    rounds = []
    kl_rows_of = cf._kl_rows

    def counting(cand, ref):
        rounds.append(len(cand))
        return kl_rows_of(cand, ref)

    monkeypatch.setattr(cf, "_kl_rows", counting)
    return rounds


def _assert_same(got, want):
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_intra_batch_feasible_at_once_returns_round_one(monkeypatch):
    rng = np.random.default_rng(19)
    w, b = _rand_head(rng)
    feats = rng.normal(size=(12, 6))
    labels = rng.integers(4, size=12)
    rounds = _count_scoring_rounds(monkeypatch)
    got = cf.generate_intra_batch(feats, labels, w, b=b, alpha=0.5,
                                  epsilon=10.0)
    directions = cf.intra_directions(feats, labels, w, b)
    _assert_same(got, _reference_backtrack(feats, directions, 0.5, 10.0))
    assert rounds == [12]
    assert (got[2] == 0.5).all() and not got[3].any()


def test_inter_batch_feasible_at_once_returns_round_one(monkeypatch):
    rng = np.random.default_rng(20)
    feats = rng.normal(size=(12, 6))
    projected = rng.normal(size=(12, 6))
    rounds = _count_scoring_rounds(monkeypatch)
    got = cf.generate_inter_batch(feats, projected, beta=0.03, epsilon=10.0)
    directions = 2.0 * (projected - feats)
    _assert_same(got, _reference_backtrack(feats, directions, 0.03, 10.0))
    assert rounds == [12]
    assert (got[2] == 0.03).all() and not got[3].any()


def test_a_batch_that_fails_round_one_continues_from_its_results(
        monkeypatch):
    # no direction vanishes, so round one scores the whole batch; the rows
    # it leaves infeasible go on halving without being scored there again
    rng = np.random.default_rng(21)
    feats = rng.normal(size=(10, 4))
    offsets = np.array([1e-6, 1e-4, 1e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 1e-3])
    projected = feats + offsets[:, None] * rng.normal(size=(10, 4))
    rounds = _count_scoring_rounds(monkeypatch)
    got = cf.generate_inter_batch(feats, projected, beta=0.4, epsilon=1e-3)
    directions = 2.0 * (projected - feats)
    want = _reference_backtrack(feats, directions, 0.4, 1e-3)
    _assert_same(got, want)
    scales = want[2]
    assert (scales == 0.4).any() and (scales < 0.4).any()
    assert not want[3].any()
    halvings = np.log2(0.4 / scales)
    # one round per scale down to the smallest accepted, each scoring only
    # the rows still searching
    assert len(rounds) == 1 + int(round(halvings.max()))
    assert rounds[0] == 10
    assert rounds[1] == int((scales < 0.4).sum())


def test_an_underflowing_direction_stays_degenerate():
    # entries of 1e-170 square to 0 in float64: the squared norm, and so
    # np.linalg.norm, is exactly 0, and the row is degenerate as if its
    # direction were 0
    rng = np.random.default_rng(22)
    feats = rng.normal(size=(5, 4))
    feats[2] = 1e-170 * np.array([1.0, -2.0, 3.0, 0.5])
    projected = feats + 0.1 * rng.normal(size=(5, 4))
    projected[2] = 0.0
    directions = 2.0 * (projected - feats)
    assert (directions[2] != 0.0).all()
    assert np.linalg.norm(directions[2]) == 0.0
    got = cf.generate_inter_batch(feats, projected, beta=0.03, epsilon=10.0)
    want = _reference_backtrack(feats, directions, 0.03, 10.0)
    _assert_same(got, want)
    assert want[3].tolist() == [False, False, True, False, False]
    assert got[2][2] == 0.0 and got[1][2] == 0.0
    assert np.array_equal(got[0][2], feats[2])


@pytest.mark.parametrize("epsilon", [10.0, 1e-3], ids=["at once", "halving"])
def test_caller_held_intermediates_give_the_same_arrays(epsilon):
    rng = np.random.default_rng(23)
    w, b = _rand_head(rng)
    feats = rng.normal(size=(9, 6)) * 2.0
    feats[4] = 0.0
    labels = rng.integers(4, size=9)
    projected = feats + rng.normal(size=(9, 6))
    projected[4] = 0.0  # a zero direction
    ref = cf.log_softmax(feats)
    directions = cf.intra_directions(feats, labels, w, b)
    want = cf.generate_intra_batch(feats, labels, w, b, alpha=2.0,
                                   epsilon=epsilon)
    _assert_same(cf.generate_intra_batch(feats, labels, w, b, alpha=2.0,
                                         epsilon=epsilon, ref=ref), want)
    _assert_same(cf.generate_intra_batch(feats, labels, w, b, alpha=2.0,
                                         epsilon=epsilon,
                                         directions=directions), want)
    _assert_same(cf.generate_intra_batch(feats, labels, w, b, alpha=2.0,
                                         epsilon=epsilon, ref=ref,
                                         directions=directions), want)
    want = cf.generate_inter_batch(feats, projected, beta=0.4,
                                   epsilon=epsilon)
    _assert_same(cf.generate_inter_batch(feats, projected, beta=0.4,
                                         epsilon=epsilon, ref=ref), want)
