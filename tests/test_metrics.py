"""Metric tests: arithmetic anchors, a scipy oracle for the Wasserstein
distance, Monte-Carlo and dual-route oracles for linear CKA, binomial
oracles for rate metrics, and exact handcrafted masking cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import wasserstein_distance

from cpnslab import counterfactual as cf
from cpnslab import metrics as mt
from cpnslab.errors import ConfigurationError, InputError, UsageError
from cpnslab.model import ExpandableModel


# ---------------------------------------------------------------------------
# incremental accuracy

def test_incremental_single_stage():
    assert mt.incremental_accuracy([0.9]) == (0.9, 0.9)


def test_incremental_two_stages():
    last, avg = mt.incremental_accuracy([0.8, 0.6])
    assert last == 0.6
    assert avg == pytest.approx(0.7)


def test_incremental_matches_log_replay():
    # independent recomputation from raw prediction logs
    rng = np.random.default_rng(0)
    history = []
    direct = []
    for stage in range(4):
        n_classes = 2 * (stage + 1)
        y = rng.integers(0, n_classes, size=500)
        pred = rng.integers(0, n_classes, size=500)
        acc = float(np.mean(pred == y))
        history.append(acc)
        direct.append(acc)
    last, avg = mt.incremental_accuracy(history)
    assert last == direct[-1]
    assert avg == pytest.approx(sum(direct) / len(direct))


def test_incremental_avg_bounded_by_extremes():
    rng = np.random.default_rng(1)
    for _ in range(50):
        history = rng.random(rng.integers(1, 8)).tolist()
        _, avg = mt.incremental_accuracy(history)
        assert min(history) - 1e-12 <= avg <= max(history) + 1e-12


def test_incremental_empty_rejected():
    with pytest.raises(InputError):
        mt.incremental_accuracy([])


# ---------------------------------------------------------------------------
# old-to-new error

def predict(logits_fn, sets):
    """(argmax predictions, labels) per (x, y) set; logits_fn maps x to
    logits."""
    return [(np.argmax(logits_fn(np.asarray(x)), axis=1), y) for x, y in sets]


def spread_prototypes(n_old, n_new, dim=8):
    # distinct overlaps: old prototype i leans toward new prototype 0 with
    # cosine (i+1)/(n_old+1)
    protos = {}
    base = np.zeros(dim)
    base[0] = 1.0
    ortho = np.zeros(dim)
    ortho[1] = 1.0
    for i in range(n_old):
        c = (i + 1) / (n_old + 1)
        protos[i] = c * base + np.sqrt(1 - c * c) * ortho
    for j in range(n_new):
        v = np.zeros(dim)
        v[0] = 1.0 if j == 0 else 0.0
        v[2 + j] = 0.0 if j == 0 else 1.0
        protos[n_old + j] = v
    return protos


def test_old_new_error_zero_when_never_predicting_new():
    n_old, n_new = 6, 2
    protos = spread_prototypes(n_old, n_new)
    fn = lambda x: np.tile(np.eye(n_old + n_new)[0], (len(x), 1))
    rng = np.random.default_rng(0)
    sets = [(rng.normal(size=(30, 4)), np.repeat(np.arange(n_old), 5))]
    rates = mt.old_new_error(predict(fn, sets), (n_old, n_old + n_new), protos)
    assert set(rates) == set(mt.OVERLAP_GROUPS)
    assert all(r == 0.0 for r in rates.values())


def test_old_new_error_uniform_predictor_near_half():
    # new classes are half of all: uniform argmax lands in them about half
    # the time, within 3 binomial sigmas
    n_old = n_new = 6
    protos = spread_prototypes(n_old, n_new)
    rng = np.random.default_rng(7)
    fn = lambda x: rng.random((len(x), n_old + n_new))
    n_per = 400
    sets = [(np.zeros((n_old * n_per, 4)), np.repeat(np.arange(n_old), n_per))]
    rates = mt.old_new_error(predict(fn, sets), (n_old, n_old + n_new), protos)
    sigma = np.sqrt(0.25 / (2 * n_per))  # each group holds 2 classes
    for rate in rates.values():
        assert abs(rate - 0.5) < 3 * sigma


def test_old_new_error_groups_by_overlap_tertiles():
    # classes 0..5 have strictly increasing overlap with the new block;
    # a predictor that leaks exactly the top-overlap classes should show
    # rates 0 / 0 / 1 across the groups
    n_old, n_new = 6, 2
    protos = spread_prototypes(n_old, n_new)

    def fn(x):
        # leak iff the class marker (stored in x[:,0]) is 4 or 5
        logits = np.zeros((len(x), n_old + n_new))
        leak = x[:, 0] >= 4
        logits[np.arange(len(x)), np.where(leak, n_old, 0)] = 1.0
        return logits

    xs, ys = [], []
    for c in range(n_old):
        xs.append(np.full((10, 4), float(c)))
        ys.append(np.full(10, c))
    sets = [(np.concatenate(xs), np.concatenate(ys))]
    rates = mt.old_new_error(predict(fn, sets), (n_old, n_old + n_new), protos)
    assert rates == {"low": 0.0, "medium": 0.0, "high": 1.0}


def test_old_new_error_validation():
    protos = spread_prototypes(2, 2)
    old = [(np.array([0, 2]), np.array([0, 1]))]
    with pytest.raises(UsageError):
        mt.old_new_error([], (2, 4), protos)
    with pytest.raises(InputError):
        mt.old_new_error(old, (4, 4), protos)
    with pytest.raises(InputError):
        mt.old_new_error(old, (2, 4), {0: np.ones(3)})


# ---------------------------------------------------------------------------
# linear CKA

def test_cka_identity_is_one():
    x = np.random.default_rng(0).normal(size=(50, 6))
    assert mt.linear_cka(x, x) == pytest.approx(1.0, abs=1e-12)


def test_cka_orthogonal_and_scale_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 5))
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    assert mt.linear_cka(x, x @ q) == pytest.approx(1.0, abs=1e-10)
    assert mt.linear_cka(x, 3.7 * x) == pytest.approx(1.0, abs=1e-12)
    y = rng.normal(size=(40, 7))
    assert mt.linear_cka(x, y) == pytest.approx(mt.linear_cka(y, x), abs=1e-12)


def test_cka_independent_gaussians_small():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1000, 16))
    y = rng.normal(size=(1000, 16))
    assert mt.linear_cka(x, y) < 0.1


def test_cka_matches_gram_route():
    # same quantity through centered Gram matrices: <Kx,Ky>_F/(||Kx|| ||Ky||)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 4))
    y = rng.normal(size=(30, 6))
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    kx = xc @ xc.T
    ky = yc @ yc.T
    gram = np.sum(kx * ky) / (np.linalg.norm(kx) * np.linalg.norm(ky))
    assert mt.linear_cka(x, y) == pytest.approx(gram, abs=1e-10)


def test_cka_zero_variance_warns_and_returns_zero():
    x = np.ones((10, 3))
    y = np.random.default_rng(0).normal(size=(10, 3))
    with pytest.warns(UserWarning):
        assert mt.linear_cka(x, y) == 0.0


def test_cka_validation():
    with pytest.raises(InputError):
        mt.linear_cka(np.zeros((1, 3)), np.zeros((1, 3)))
    with pytest.raises(InputError):
        mt.linear_cka(np.zeros(5), np.zeros(5))
    with pytest.raises(InputError):
        mt.linear_cka(np.zeros((4, 2)), np.zeros((5, 2)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(3, 12), st.integers(2, 5))
def test_cka_bounds_property(seed, n, d):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = rng.normal(size=(n, d))
    v = mt.linear_cka(x, y)
    assert 0.0 <= v <= 1.0 + 1e-12


def test_cka_by_layer_self_similarity():
    model = ExpandableModel(input_dim=6, feature_dim=4, hidden_dims=(8,), seed=0)
    model.expand(2)
    x = np.random.default_rng(0).normal(size=(25, 6))
    pairs = mt.extractor_cka(model.extractors[0], model.extractors[0], x)
    assert [l for l, _ in pairs] == [0, 1]
    assert all(v == pytest.approx(1.0, abs=1e-10) for _, v in pairs)


# ---------------------------------------------------------------------------
# masking curve

def handcrafted_model():
    # identity extractor, classifier reading dimension 0 only
    model = ExpandableModel(input_dim=3, feature_dim=3, hidden_dims=(), seed=0)
    model.expand(2)
    ext = model.extractors[0].params
    ext["w0"].values[:] = np.eye(3)
    ext["b0"].values[:] = 0.0
    model.heads["cls_w"].values[:] = np.array([[10.0, 0.0, 0.0],
                                               [-10.0, 0.0, 0.0]])
    model.heads["cls_b"].values[:] = 0.0
    return model


def test_masking_exact_handcrafted_curve():
    model = handcrafted_model()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 3))
    x[:, 0] = np.where(np.arange(40) % 2 == 0, 2.0, -2.0)
    y = np.where(x[:, 0] > 0, 0, 1)
    tags = ["causal", "causal", "causal"]
    curve = mt.masking_curve(model, x, y, tags, [0, 1])
    # dimension 0 carries all saliency; masking it zeroes the logits and the
    # argmax tie resolves to class 0, which is correct for half the samples
    assert curve == [(0, 1.0), (1, 0.5)]


def test_masking_k0_equals_unmasked_accuracy():
    model = ExpandableModel(input_dim=5, feature_dim=4, hidden_dims=(8,), seed=3)
    model.expand(3)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 5))
    y = rng.integers(0, 3, size=30)
    pred = np.argmax(model.forward_concat_np(x), axis=1)
    curve = mt.masking_curve(model, x, y, ["causal"] * 5, [0, 2])
    assert curve[0] == (0, pytest.approx(float(np.mean(pred == y))))


def test_masking_everything_hits_constant_prediction():
    model = ExpandableModel(input_dim=4, feature_dim=4, hidden_dims=(6,), seed=5)
    model.expand(2)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(200, 4))
    y = rng.integers(0, 2, size=200)
    const_pred = int(np.argmax(model.forward_concat_np(np.zeros((1, 4)))[0]))
    curve = mt.masking_curve(model, x, y, ["causal"] * 4, [0, 4])
    assert curve[1][1] == pytest.approx(float(np.mean(y == const_pred)))


def test_masking_curve_validation():
    model = handcrafted_model()
    x = np.zeros((4, 3))
    y = np.zeros(4, dtype=int)
    with pytest.raises(ConfigurationError):
        mt.masking_curve(model, x, y, ["causal", "noise", "noise"], [0, 2])
    with pytest.raises(InputError):
        mt.masking_curve(model, x, y, ["causal"] * 3, [2, 1])
    with pytest.raises(ConfigurationError, match="non-negative"):
        mt.masking_curve(model, x, y, ["causal"] * 3, [-1, 0])
    with pytest.raises(ConfigurationError):
        mt.masking_curve(model, x, y, ["noise"] * 3, [0])


# ---------------------------------------------------------------------------
# counterfactual quality

def quality_model():
    model = ExpandableModel(input_dim=2, feature_dim=2, hidden_dims=(), seed=0)
    model.expand(2)
    model.heads["intra_w"].values[:] = np.eye(2)
    model.heads["intra_b"].values[:] = 0.0
    return model


def test_quality_all_degenerate():
    model = quality_model()
    feats = np.tile([2.0, 0.0], (5, 1))
    pfr, lkld, hss = mt.counterfactual_quality(model, feats, feats.copy(),
                                               np.zeros(5))
    assert pfr == 0.0 and lkld == 0.0 and hss is None


def test_quality_flip_counting_exact():
    model = quality_model()
    pfr, lkld, hss = mt.counterfactual_quality(
        model, [[2.0, 0.0], [2.0, 0.0]], [[0.0, 2.0], [3.0, 0.0]], [0.1, 0.3])
    assert pfr == 0.5
    assert lkld == pytest.approx(0.2)
    assert hss is None


def test_quality_hss_one_at_full_pull():
    # 2 * beta_eff = 1 moves the counterfactual exactly onto the reference
    model = quality_model()
    factual = np.array([[1.0, -0.5]])
    target = np.array([[-2.0, 1.5]])
    cfs, vals, _, _ = cf.generate_inter_batch(factual, target, beta=0.5,
                                              epsilon=1e6)
    np.testing.assert_allclose(cfs, target, atol=1e-12)
    _, _, hss = mt.counterfactual_quality(model, factual, cfs, vals,
                                          references=target)
    assert hss == pytest.approx(1.0, abs=1e-12)


def test_quality_gradient_beats_random_flips():
    # paired comparison at the same budget: loss-ascending interventions
    # flip more predictions than isotropic noise, pooled over 5 seeds
    model = quality_model()
    w = model.heads["intra_w"].values
    flips_grad, flips_rand = [], []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(60, 2))
        labels = np.argmax(feats, axis=1)
        grad, grad_vals, _, _ = cf.generate_intra_batch(
            feats, labels, w, alpha=1.0, epsilon=0.05)
        rand, rand_vals, _, _ = cf.perturb_random(feats, 0.05, rng)
        pfr_g, _, _ = mt.counterfactual_quality(model, feats, grad, grad_vals)
        pfr_r, _, _ = mt.counterfactual_quality(model, feats, rand, rand_vals)
        flips_grad.append(pfr_g)
        flips_rand.append(pfr_r)
    assert np.mean(flips_grad) > np.mean(flips_rand)


def test_quality_validation():
    model = quality_model()
    with pytest.raises(InputError):
        mt.counterfactual_quality(model, [], [], [])
    row = [[1.0, 2.0, 3.0]]
    with pytest.raises(InputError):
        mt.counterfactual_quality(model, row, row, [0.0])
    with pytest.raises(InputError):
        mt.counterfactual_quality(model, [[1.0, 2.0]], [[1.0, 2.0]], [0.0],
                                  references=[[1.0, 2.0], [3.0, 4.0]])


# ---------------------------------------------------------------------------
# Wasserstein

def test_w1_identical_is_zero():
    a = np.random.default_rng(0).normal(size=40)
    assert mt.wasserstein_1d(a, a.copy()) == 0.0


def test_w1_translation_identity():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(50, 3))
    shift = np.array([2.5, -1.0, 0.25])
    d = mt.wasserstein_1d(a, a + shift)
    assert d == pytest.approx(np.mean(np.abs(shift)), abs=1e-12)


def test_w1_matches_scipy_on_random_pairs():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        n, m = rng.integers(2, 40, size=2)
        a = rng.normal(scale=rng.uniform(0.5, 3.0), size=n)
        b = rng.normal(loc=rng.uniform(-2, 2), size=m)
        worst = max(worst, abs(mt.wasserstein_1d(a, b)
                               - wasserstein_distance(a, b)))
    assert worst < 1e-9


def test_w1_two_dim_averages_columns():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(30, 2))
    b = rng.normal(size=(45, 2))
    expected = np.mean([wasserstein_distance(a[:, j], b[:, j]) for j in (0, 1)])
    assert mt.wasserstein_1d(a, b) == pytest.approx(expected, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_w1_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=rng.integers(2, 20))
    b = rng.normal(size=rng.integers(2, 20))
    c = rng.normal(size=rng.integers(2, 20))
    ab = mt.wasserstein_1d(a, b)
    bc = mt.wasserstein_1d(b, c)
    ac = mt.wasserstein_1d(a, c)
    assert ac <= ab + bc + 1e-9


def test_w1_validation():
    with pytest.raises(InputError):
        mt.wasserstein_1d(np.zeros(0), np.zeros(3))
    with pytest.raises(InputError):
        mt.wasserstein_1d(np.zeros((3, 2)), np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# EvalRecord

def full_record():
    return mt.EvalRecord(
        task_index=2,
        per_task_acc=[0.9, 0.8, 0.7],
        last_acc=0.8,
        avg_acc=0.85,
        old_new_errors={"low": 0.1, "medium": 0.2, "high": 0.4},
        cka_by_layer=[(0, 0.9), (1, 0.3)],
        masking_curve=[(0, 0.8), (2, 0.5)],
        cf_quality=(0.6, 0.02, 0.7),
    )


def test_eval_record_roundtrip():
    rec = full_record()
    again = mt.EvalRecord.from_json_dict(rec.to_json_dict())
    assert again.to_json_dict() == rec.to_json_dict()


def test_eval_record_validation():
    with pytest.raises(InputError):
        mt.EvalRecord(0, [1.2], 0.5, 0.5)
    with pytest.raises(InputError):
        mt.EvalRecord(0, [0.5], 0.5, 0.5, masking_curve=[(2, 0.5), (2, 0.4)])
    with pytest.raises(InputError):
        mt.EvalRecord(0, [0.5], 0.5, 0.5, cka_by_layer=[(0, 1.5)])
    with pytest.raises(InputError):
        mt.EvalRecord(0, [0.5], 0.5, 0.5, cf_quality=(0.5, -0.1, None))
