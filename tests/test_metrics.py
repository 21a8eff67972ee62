"""Metric tests: arithmetic anchors, Monte-Carlo and dual-route oracles
for linear CKA, binomial oracles for rate metrics, and exact handcrafted
masking cases."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import activations, predictions

import oracles
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


@pytest.mark.parametrize("case", range(12))
def test_old_new_error_matches_the_per_class_loop(case):
    # several sets, tied prototypes (empty groups come back NaN) and, in
    # some cases, a NaN prototype, whose overlap falls in "high"
    rng = np.random.default_rng(case)
    n_old, n_new, dim = int(rng.integers(1, 9)), int(rng.integers(1, 4)), 4
    protos = {c: rng.normal(size=dim) for c in range(n_old + n_new)}
    for c in range(n_old):
        if rng.random() < 0.3:
            protos[c] = protos[0]
    if case % 3 == 2:
        protos[int(rng.integers(n_old))] = np.full(dim, np.nan)
    bounds = np.sort(rng.choice(np.arange(1, n_old), size=min(2, n_old - 1),
                                replace=False)) if n_old > 1 else []
    old = []
    for classes in np.split(np.arange(n_old), bounds):
        y = rng.choice(classes, size=int(rng.integers(1, 40)))
        y[:len(classes)] = classes[:len(y)]
        old.append((rng.integers(0, n_old + n_new, size=len(y)), y))
    want = oracles.looped_old_new_error(old, (n_old, n_old + n_new), protos)
    got = mt.old_new_error(old, (n_old, n_old + n_new), protos)
    assert list(got) == list(want)
    np.testing.assert_equal(got, want)
    assert all(type(v) is float for v in got.values())


def test_old_new_error_validation():
    protos = spread_prototypes(2, 2)
    old = [(np.array([0, 2]), np.array([0, 1]))]
    with pytest.raises(UsageError):
        mt.old_new_error([], (2, 4), protos)
    with pytest.raises(InputError):
        mt.old_new_error(old, (4, 4), protos)
    with pytest.raises(InputError):
        mt.old_new_error(old, (2, 4), {0: np.ones(3)})
    with pytest.raises(InputError, match="differ in length"):
        mt.old_new_error([(np.array([0]), np.array([0, 1]))], (2, 4), protos)
    with pytest.raises(InputError, match="no old test rows"):
        mt.old_new_error([(np.array([], int), np.array([], int))], (2, 4),
                         protos)


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
    ext["w0"][:] = np.eye(3)
    ext["b0"][:] = 0.0
    model.heads["cls_w"][:] = np.array([[10.0, 0.0, 0.0],
                                               [-10.0, 0.0, 0.0]])
    model.heads["cls_b"][:] = 0.0
    return model


def set_curve(model, sets, tags, ks):
    """The masking curve over (x, y) sets, from their evaluation entries."""
    acts = [activations(model, x) for x, _ in sets]
    preds = [predictions(model, a) for a in acts]
    return mt.masking_curve(model, sets, acts, preds, tags, ks)


def one_set_curve(model, x, y, tags, ks):
    return set_curve(model, [(x, y)], tags, ks)


def saliency(model, x):
    acts = activations(model, x)
    return mt.input_saliency(model, acts, predictions(model, acts))


def test_masking_exact_handcrafted_curve():
    model = handcrafted_model()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 3))
    x[:, 0] = np.where(np.arange(40) % 2 == 0, 2.0, -2.0)
    y = np.where(x[:, 0] > 0, 0, 1)
    tags = ["causal", "causal", "causal"]
    # dimension 0 carries all saliency; masking it zeroes the logits and the
    # argmax tie resolves to class 0, which is correct for half the samples
    assert one_set_curve(model, x, y, tags, [0, 1]) == [(0, 1.0), (1, 0.5)]
    # split into unequal sets, the hits still pool over all 40 rows
    sets = [(x[:7], y[:7]), (x[7:], y[7:])]
    assert set_curve(model, sets, tags, [0, 1]) == [(0, 1.0), (1, 0.5)]


def test_masking_k0_equals_unmasked_accuracy():
    model = ExpandableModel(input_dim=5, feature_dim=4, hidden_dims=(8,), seed=3)
    model.expand(3)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 5))
    y = rng.integers(0, 3, size=30)
    pred = np.argmax(model.forward_concat_np(x), axis=1)
    curve = one_set_curve(model, x, y, ["causal"] * 5, [0, 2])
    assert curve[0] == (0, pytest.approx(float(np.mean(pred == y))))


def test_masking_everything_hits_constant_prediction():
    model = ExpandableModel(input_dim=4, feature_dim=4, hidden_dims=(6,), seed=5)
    model.expand(2)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(200, 4))
    y = rng.integers(0, 2, size=200)
    const_pred = int(np.argmax(model.forward_concat_np(np.zeros((1, 4)))[0]))
    curve = one_set_curve(model, x, y, ["causal"] * 4, [0, 4])
    assert curve[1][1] == pytest.approx(float(np.mean(y == const_pred)))


def stream_model(tasks, seed):
    model = ExpandableModel(input_dim=10, feature_dim=6, hidden_dims=(12,),
                            seed=seed)
    for _ in range(tasks):
        model.expand(3)
    return model


def test_per_set_masking_matches_the_concatenated_probe():
    # 400-row sets: each set's products are, row for row, the bits of the
    # product over all sets concatenated, so saliency, masking order and
    # every curve point match the one-probe path exactly
    tags = ["causal", "noise", "minimal_causal", "causal", "spurious"] * 2
    for tasks in (3, 4):
        model = stream_model(tasks, seed=tasks)
        rng = np.random.default_rng(10 + tasks)
        sets = [(rng.normal(size=(400, 10)), rng.integers(0, 3 * tasks, 400))
                for _ in range(tasks)]
        x_all = np.concatenate([x for x, _ in sets])
        y_all = np.concatenate([y for _, y in sets])
        ks = [0, 1, 2, 5]
        curve = set_curve(model, sets, tags, ks)
        assert curve == oracles.concat_masking_curve(model, x_all, y_all,
                                                     tags, ks)
        per_set = np.concatenate([saliency(model, x) for x, _ in sets])
        np.testing.assert_array_equal(per_set, saliency(model, x_all))
        pred = np.argmax(model.forward_concat_np(x_all), axis=1)
        assert curve[0] == (0, float(np.mean(pred == y_all)))


@pytest.mark.parametrize("hidden", [(12,), (12, 7)], ids=["1-layer", "2-layer"])
def test_mask_entries_give_the_bits_of_full_activations(hidden):
    # evaluation keeps each hidden layer as its bool ReLU mask; the
    # saliency multiplies by that mask, and it keeps every bit of the
    # autodiff graph over the full activations, at any depth
    model = ExpandableModel(input_dim=10, feature_dim=6, hidden_dims=hidden,
                            seed=11)
    for _ in range(3):
        model.expand(3)
    rng = np.random.default_rng(12)
    for n in (60, 45, 80):
        x = rng.normal(size=(n, 10))
        masks = activations(model, x)
        assert all(m.dtype == bool for entry in masks for m in entry[:-1])
        sal = mt.input_saliency(model, masks, predictions(model, masks))
        assert sal.tobytes() == oracles.graph_saliency(model, x).tobytes()


def test_per_set_saliency_on_small_sets_is_close_to_the_concatenated():
    # below a few hundred rows BLAS may take another kernel for a set's
    # products than for the concatenated ones, so the last bit can differ
    # and only closeness is promised; evaluation's test sets are larger
    model = stream_model(3, seed=7)
    rng = np.random.default_rng(8)
    xs = [rng.normal(size=(n, 10)) for n in (1, 37, 150)]
    per_set = np.concatenate([saliency(model, x) for x in xs])
    whole = saliency(model, np.concatenate(xs))
    np.testing.assert_allclose(per_set, whole, rtol=1e-12, atol=1e-15)


def test_masking_curve_validation():
    model = handcrafted_model()
    x = np.zeros((4, 3))
    y = np.zeros(4, dtype=int)
    with pytest.raises(ConfigurationError):
        one_set_curve(model, x, y, ["causal", "noise", "noise"], [0, 2])
    with pytest.raises(InputError):
        one_set_curve(model, x, y, ["causal"] * 3, [2, 1])
    with pytest.raises(ConfigurationError, match="non-negative"):
        one_set_curve(model, x, y, ["causal"] * 3, [-1, 0])
    with pytest.raises(ConfigurationError):
        one_set_curve(model, x, y, ["noise"] * 3, [0])
    with pytest.raises(InputError, match="activation sets"):
        mt.masking_curve(model, [(x, y)], [], [], ["causal"] * 3, [0])
    with pytest.raises(InputError, match="prediction sets"):
        mt.masking_curve(model, [(x, y)], [activations(model, x)], [],
                         ["causal"] * 3, [0])
    with pytest.raises(InputError, match="activation sets"):
        mt.input_saliency(model, [], np.zeros(0, dtype=np.int64))
    empty = np.zeros((0, 3))
    with pytest.raises(InputError, match="no test rows"):
        one_set_curve(model, empty, np.zeros(0, dtype=int), ["causal"] * 3, [0])


# ---------------------------------------------------------------------------
# counterfactual quality

def quality_model():
    model = ExpandableModel(input_dim=2, feature_dim=2, hidden_dims=(), seed=0)
    model.expand(2)
    model.heads["intra_w"][:] = np.eye(2)
    model.heads["intra_b"][:] = 0.0
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
    w = model.heads["intra_w"]
    flips_grad, flips_rand = [], []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(60, 2))
        labels = np.argmax(feats, axis=1)
        grad, grad_vals, _, _ = cf.generate_intra_batch(
            feats, labels, w, np.zeros(len(w)), alpha=1.0, epsilon=0.05)
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
    text = json.dumps(rec.to_json_dict())
    again = mt.EvalRecord(**json.loads(text))
    assert json.dumps(again.to_json_dict()) == text


def test_eval_record_validation():
    with pytest.raises(InputError):
        mt.EvalRecord(0, [1.2], 0.5, 0.5)
    with pytest.raises(InputError):
        mt.EvalRecord(0, [0.5], 0.5, 0.5, masking_curve=[(2, 0.5), (2, 0.4)])
    with pytest.raises(InputError):
        mt.EvalRecord(0, [0.5], 0.5, 0.5, cka_by_layer=[(0, 1.5)])
    with pytest.raises(InputError):
        mt.EvalRecord(0, [0.5], 0.5, 0.5, cf_quality=(0.5, -0.1, None))
