"""Trainer tests: optimizer anchors, herding vs a brute-force oracle,
projector stop-gradient contract, and the two-stage loop invariants
(bitwise baseline degeneracy, frozen isolation, stage ordering)."""

import itertools
import json

import numpy as np
import pytest

import oracles
from conftest import all_params

from cpnslab import autodiff as ad
from cpnslab import counterfactual as cf
from cpnslab import experiment as ex
from cpnslab import trainer as tr
from cpnslab.errors import (ConfigurationError, InputError, NumericsError,
                            UsageError)
from cpnslab.model import ExpandableModel
from cpnslab.risk import GenConfig


def small_model(seed=0, dim=8, feat=8, hidden=(16,)):
    return ExpandableModel(input_dim=dim, feature_dim=feat,
                           hidden_dims=hidden, seed=seed)


def blob_task(rng, labels, n_per, dim, spread=3.0, sigma=0.5):
    xs, ys = [], []
    for lab in labels:
        center = rng.normal(scale=spread, size=dim)
        xs.append(center + sigma * rng.normal(size=(n_per, dim)))
        ys.append(np.full(n_per, lab, dtype=np.int64))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    perm = rng.permutation(len(x))
    return x[perm], y[perm]


def one_param(values):
    """A one-entry parameter map, its leaf, and a zero gradient for it."""
    t = ad.leaf(values)
    return {"p": t}, t, np.zeros_like(t.values)


def values_of(ps):
    """Copies of every parameter value, by name."""
    return {name: t.values.copy() for name, t in ps.items()}


def exemplars(buf, label):
    x, y = buf.samples()
    return x[y == label]


def counts(buf, labels):
    _, y = buf.samples()
    return [int(np.sum(y == c)) for c in labels]


# ---------------------------------------------------------------------------
# optimizer

def test_sgd_zero_grad_zero_momentum_unchanged():
    cfg = tr.TrainConfig(momentum=0.0, weight_decay=0.0)
    ps, t, g = one_param([1.0, -2.0])
    tr.optimizer_step(ps, {"p": g}, tr.make_optimizer_state(ps), cfg)
    np.testing.assert_array_equal(t.values, [1.0, -2.0])


def test_sgd_single_step_matches_hand_computation():
    cfg = tr.TrainConfig(lr=0.1, momentum=0.0, weight_decay=0.0)
    ps, t, g = one_param([1.0, -2.0])
    g[:] = [0.5, -1.0]
    tr.optimizer_step(ps, {"p": g}, tr.make_optimizer_state(ps), cfg)
    np.testing.assert_array_equal(t.values, [1.0 - 0.1 * 0.5, -2.0 + 0.1 * 1.0])


def test_sgd_momentum_accumulates_over_steps():
    cfg = tr.TrainConfig(lr=0.1, momentum=0.9, weight_decay=0.0)
    ps, t, g = one_param([0.0])
    state = tr.make_optimizer_state(ps)
    g[:] = [1.0]
    tr.optimizer_step(ps, {"p": g}, state, cfg)
    g[:] = [1.0]
    tr.optimizer_step(ps, {"p": g}, state, cfg)
    expected = 0.0 - 0.1 * 1.0
    expected -= 0.1 * (0.9 * 1.0 + 1.0)
    np.testing.assert_array_equal(t.values, [expected])


def test_sgd_momentum_does_not_alias_gradient_buffer():
    cfg = tr.TrainConfig(lr=0.1, momentum=0.9, weight_decay=0.0)
    ps, t, g = one_param([0.0, 1.0])
    state = tr.make_optimizer_state(ps)
    g[:] = [1.0, -2.0]
    tr.optimizer_step(ps, {"p": g}, state, cfg)
    g[...] = 0.0  # zeroing in place must leave the momentum alone
    p = state["slices"]["p"]
    np.testing.assert_array_equal(state["m"][p], [1.0, -2.0])


def test_weight_decay_is_decoupled():
    # zero gradient still shrinks the value by lr * wd * value
    cfg = tr.TrainConfig(lr=0.1, momentum=0.0, weight_decay=0.5)
    ps, t, g = one_param([2.0, -4.0])
    tr.optimizer_step(ps, {"p": g}, tr.make_optimizer_state(ps), cfg)
    expected = np.array([2.0, -4.0])
    expected = expected - 0.1 * 0.5 * expected
    np.testing.assert_array_equal(t.values, expected)


def test_nan_gradient_aborts_without_touching_values():
    cfg = tr.TrainConfig()
    (_, a, _), (_, b, _) = one_param([1.0, 2.0]), one_param([3.0])
    params = {"a": a, "b": b}
    grads = {"a": np.array([0.1, 0.2]), "b": np.array([np.nan])}
    with pytest.raises(NumericsError, match="b"):
        tr.optimizer_step(params, grads, tr.make_optimizer_state(params), cfg)
    np.testing.assert_array_equal(a.values, [1.0, 2.0])
    np.testing.assert_array_equal(b.values, [3.0])


def test_missing_gradient_names_the_parameter_without_touching_values():
    _, a, _ = one_param([1.0, 2.0])
    p = ad.leaf([1.0])  # no gradient was computed for it
    params = {"a": a, "p": p}
    state = tr.make_optimizer_state(params)
    with pytest.raises(UsageError, match="'p'"):
        tr.optimizer_step(params, {"a": np.array([0.1, 0.2])}, state,
                          tr.TrainConfig())
    np.testing.assert_array_equal(a.values, [1.0, 2.0])
    assert state["step"] == 0


def test_unknown_gradient_is_named_without_touching_values():
    params = {"a": ad.leaf([1.0, 2.0])}
    state = tr.make_optimizer_state(params)
    grads = {"a": np.array([0.1, 0.2]), "stray": np.array([1.0])}
    with pytest.raises(UsageError, match="'stray'"):
        tr.optimizer_step(params, grads, state, tr.TrainConfig())
    np.testing.assert_array_equal(params["a"].values, [1.0, 2.0])
    assert state["step"] == 0


def test_misshapen_gradient_or_foreign_state_is_refused():
    params = {"a": ad.leaf([1.0, 2.0]), "b": ad.leaf([3.0])}
    state = tr.make_optimizer_state(params)
    # same total size, so only the per-parameter shapes tell them apart
    grads = {"a": np.array([0.1]), "b": np.array([0.2, 0.3])}
    with pytest.raises(UsageError, match="'a'"):
        tr.optimizer_step(params, grads, state, tr.TrainConfig())
    with pytest.raises(UsageError, match="other parameters"):
        tr.optimizer_step({"a": params["a"]}, {"a": np.zeros(2)}, state,
                          tr.TrainConfig())
    np.testing.assert_array_equal(state["values"], [1.0, 2.0, 3.0])
    assert state["step"] == 0


def test_state_lays_the_parameters_out_in_one_vector():
    params = {"w": ad.leaf(np.arange(6.0).reshape(2, 3)), "b": ad.leaf([6.0]),
              "v": ad.leaf([7.0, 8.0, 9.0])}
    state = tr.make_optimizer_state(params)
    np.testing.assert_array_equal(state["values"], np.arange(10.0))
    for name, p in params.items():
        assert np.shares_memory(p.values, state["values"])
        np.testing.assert_array_equal(
            p.values.ravel(), state["values"][state["slices"][name]])
    assert params["w"].values.shape == (2, 3)


def test_momentum_does_not_alias_the_reused_gather_buffer():
    cfg = tr.TrainConfig(lr=0.1, momentum=0.5, weight_decay=0.0)
    ps, t, _ = one_param([0.0, 0.0])
    state = tr.make_optimizer_state(ps)
    tr.optimizer_step(ps, {"p": np.array([1.0, 2.0])}, state, cfg)
    assert not np.shares_memory(state["m"], state["grad"])
    tr.optimizer_step(ps, {"p": np.array([4.0, -8.0])}, state, cfg)
    # aliased, the second gather would overwrite the first step's momentum
    np.testing.assert_array_equal(state["m"], [0.5 * 1.0 + 4.0,
                                               0.5 * 2.0 - 8.0])


@pytest.mark.parametrize("weight_decay", [0.0, 1e-5])
def test_flat_step_matches_the_per_array_step_bitwise(weight_decay):
    cfg = tr.TrainConfig(weight_decay=weight_decay, lr=0.05, momentum=0.9)
    rng = np.random.default_rng(23)
    shapes = {"one": (1,), "w": (5, 3), "b": (5,), "u": (2, 4)}
    init = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    flat = {name: ad.leaf(v.copy()) for name, v in init.items()}
    ref = {name: ad.leaf(v.copy()) for name, v in init.items()}
    state = tr.make_optimizer_state(flat)
    ref_state = {"step": 0, "m": {}}
    for _ in range(50):
        grads = {name: rng.normal(scale=10.0 ** rng.integers(-3, 2),
                                  size=shape)
                 for name, shape in shapes.items()}
        tr.optimizer_step(flat, grads, state, cfg)
        oracles.per_array_step(ref, grads, ref_state, cfg)
    for name in shapes:
        assert np.array_equal(flat[name].values, ref[name].values), name
        assert np.array_equal(state["m"][state["slices"][name]],
                              ref_state["m"][name].ravel()), name
    assert not np.array_equal(flat["w"].values, init["w"])


def test_finite_check_names_the_bad_parameter():
    params = {"a": ad.leaf([1.0]), "w": ad.leaf([1.0, 2.0])}
    tr._check_finite(params)
    params["w"].values[0] = np.nan
    with pytest.raises(NumericsError, match="'w'"):
        tr._check_finite(params)


# ---------------------------------------------------------------------------
# herding

def oracle_herding(feats, m):
    """Plain-loop greedy reference; strict < keeps the lowest index on ties."""
    feats = np.asarray(feats, dtype=np.float64)
    mu = feats.mean(axis=0)
    chosen = []
    chosen_sum = np.zeros_like(mu)
    remaining = list(range(len(feats)))
    for k in range(1, m + 1):
        best, best_d = None, None
        for i in remaining:
            d = np.sum(((chosen_sum + feats[i]) / k - mu) ** 2)
            if best_d is None or d < best_d:
                best, best_d = i, d
        chosen.append(best)
        chosen_sum += feats[best]
        remaining.remove(best)
    return chosen


def test_herding_matches_bruteforce_oracle():
    rng = np.random.default_rng(0)
    for trial in range(20):
        feats = rng.normal(size=(10, 4))
        assert tr.herding_order(feats, 10) == oracle_herding(feats, 10)


def test_herding_identical_features_takes_lowest_indices():
    feats = np.ones((6, 3))
    order = tr.herding_order(feats, 6)
    assert order == list(range(6))
    # running exemplar mean sits exactly on the class mean the whole way
    running = np.cumsum(feats[order], axis=0) / np.arange(1, 7)[:, None]
    np.testing.assert_array_equal(running, np.ones((6, 3)))


def test_herding_partial_selection_is_prefix_of_full():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(12, 4))
    assert tr.herding_order(feats, 5) == tr.herding_order(feats, 12)[:5]


@pytest.mark.parametrize("d", [16, 64, 192])
@pytest.mark.parametrize("m", [1, 41, 150])
@pytest.mark.parametrize("rows", ["distinct", "duplicated"])
def test_herding_equals_the_masked_scan_at_benchmark_sizes(d, m, rows):
    # 150 rows per class as in the benchmark streams; d = 192 rows are
    # summed in more than one of numpy's 128-element pairwise blocks
    rng = np.random.default_rng(d + m)
    feats = rng.normal(size=(150, d))
    if rows == "duplicated":
        # exact ties: every pick must still take the lowest tied index
        feats[75:] = feats[:75]
        feats[[3, 40, 149]] = feats.mean(axis=0)
    assert tr.herding_order(feats, m) == oracles.masked_herding_order(feats, m)


# ---------------------------------------------------------------------------
# rehearsal buffer

class RawFeatures:
    """A model stand-in whose features are the inputs themselves, so the
    buffer herds over the raw rows."""

    @staticmethod
    def concat_features_np(x):
        return x


def test_quota_splits_capacity_with_remainder_to_earliest():
    rng = np.random.default_rng(1)
    buf = tr.RehearsalBuffer(10)
    x0, y0 = blob_task(rng, [0, 1], 8, 4)
    tr.buffer_commit(buf, (x0, y0), RawFeatures())
    assert counts(buf, (0, 1)) == [5, 5]
    first_five = exemplars(buf, 0)
    x1, y1 = blob_task(rng, [2], 8, 4)
    tr.buffer_commit(buf, (x1, y1), RawFeatures())
    # 10 over 3 classes: 4, 3, 3 with the extra going to the earliest class
    assert counts(buf, (0, 1, 2)) == [4, 3, 3]
    assert len(buf) == 10
    # truncation kept the selection-order prefix
    np.testing.assert_array_equal(exemplars(buf, 0), first_five[:4])


def test_buffer_capacity_hundred_per_class():
    rng = np.random.default_rng(2)
    buf = tr.RehearsalBuffer(2000)
    for task in range(2):
        labels = list(range(task * 10, task * 10 + 10))
        x, y = blob_task(rng, labels, 110, 4)
        tr.buffer_commit(buf, (x, y), RawFeatures())
    assert len(buf) == 2000
    assert counts(buf, range(20)) == [100] * 20


def test_buffer_capacity_below_class_count_rejected():
    rng = np.random.default_rng(3)
    buf = tr.RehearsalBuffer(2)
    x, y = blob_task(rng, [0, 1, 2], 4, 4)
    with pytest.raises(ConfigurationError):
        tr.buffer_commit(buf, (x, y), RawFeatures())


def test_buffer_herding_uses_model_features():
    rng = np.random.default_rng(4)
    model = small_model(seed=9)
    model.expand(2)
    x, y = blob_task(rng, [0, 1], 10, 8)
    buf = tr.RehearsalBuffer(8)
    tr.buffer_commit(buf, (x, y), model)
    for c in (0, 1):
        xc = x[y == c]
        sel = tr.herding_order(model.concat_features_np(xc), 4)
        np.testing.assert_array_equal(exemplars(buf, c), xc[sel])


def test_buffer_never_exceeds_capacity_across_commits():
    rng = np.random.default_rng(6)
    buf = tr.RehearsalBuffer(17)
    for task in range(4):
        labels = [2 * task, 2 * task + 1]
        x, y = blob_task(rng, labels, 12, 4)
        tr.buffer_commit(buf, (x, y), RawFeatures())
        assert len(buf) <= 17
        per_class = counts(buf, range(2 * task + 2))
        # balanced up to the remainder
        assert max(per_class) - min(per_class) <= 1


def _uneven_buffer():
    """A 40-row buffer holding 2, 12 and 13 exemplars of classes 0, 1, 2."""
    rng = np.random.default_rng(8)
    buf = tr.RehearsalBuffer(40)
    (xa, ya), (xb, yb) = blob_task(rng, [0], 2, 4), blob_task(rng, [1], 12, 4)
    tr.buffer_commit(buf, (np.concatenate([xa, xb]), np.concatenate([ya, yb])),
                     RawFeatures())
    tr.buffer_commit(buf, blob_task(rng, [2], 20, 4), RawFeatures())
    assert counts(buf, (0, 1, 2)) == [2, 12, 13]
    return buf


@pytest.mark.parametrize("limit, want", [
    (1, [1, 0, 0]), (2, [1, 1, 0]), (3, [1, 1, 1]), (8, [2, 3, 3]),
    (21, [2, 10, 9]), (26, [2, 12, 12]), (27, [2, 12, 13]),
    (500, [2, 12, 13])])
def test_limited_samples_take_a_leading_share_of_every_class(limit, want):
    # equal shares rank by rank of the herding order; a short class leaves
    # its rest to the others, and a partial round goes to the earliest
    buf = _uneven_buffer()
    x, y = buf.samples(limit)
    assert [int(np.sum(y == c)) for c in (0, 1, 2)] == want
    # classes in first-seen order, each its leading exemplars
    np.testing.assert_array_equal(y, np.repeat([0, 1, 2], want))
    for c, k in zip((0, 1, 2), want):
        np.testing.assert_array_equal(x[y == c], exemplars(buf, c)[:k])


def test_report_pool_covers_every_buffered_class():
    # the buffer's classes are stored one after another, so its first
    # report_limit rows would hold the first class alone
    rng = np.random.default_rng(9)
    buf = tr.RehearsalBuffer(400)
    model = small_model(seed=2, dim=4)
    model.expand(4)
    tr.buffer_commit(buf, blob_task(rng, [0, 1, 2, 3], 60, 4), model)
    model.expand(2)
    x, y = blob_task(rng, [4, 5], 40, 4)
    cfg = full_cfg(report_limit=32)
    (cx, cy), (bx, by) = tr._report_pool(model, x, y, buf, cfg)
    np.testing.assert_array_equal(cx, x[:32])
    assert len(by) == 32 and set(by.tolist()) == {0, 1, 2, 3}
    assert counts(buf, range(4)) == [60] * 4
    assert [int(np.sum(by == c)) for c in range(4)] == [8] * 4
    model_first = small_model(seed=2, dim=4).expand(4)
    assert tr._report_pool(model_first, x, y, None, cfg)[1] is None


# ---------------------------------------------------------------------------
# projector

def test_projector_exact_fit_gives_zero_loss():
    model = small_model(seed=1)
    model.expand(2)
    model.expand(2)
    for t in model.extractors[-1].params.values():
        t.values[:] = 0.0
    model.heads["proj_w1"].values[:] = 0.0
    model.heads["proj_b1"].values[:] = 0.0
    x = np.random.default_rng(0).normal(size=(5, 8))
    loss = oracles.projector_loss(model, model.frozen_concat_np(x),
                              model.current_feature_np(x))
    assert float(loss.values) == 0.0


def test_projector_fits_linear_ground_truth():
    # with single-layer extractors the current feature is an affine map of
    # the frozen one, and a 32-wide hidden layer can realize that map
    model = ExpandableModel(input_dim=4, feature_dim=4, hidden_dims=(),
                            projector_hidden=32, seed=5)
    model.expand(2)
    model.expand(2)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 4))
    z_old = model.frozen_concat_np(x)
    target = model.current_feature_np(x)
    heads = [model.heads[k] for k in ("proj_w0", "proj_b0", "proj_w1",
                                      "proj_b1")]
    losses = []
    for _ in range(4000):
        loss = oracles.projector_loss(model, z_old, target)
        ad.backward(loss)
        for head in heads:
            head.values -= 0.05 * head.grad
        losses.append(float(loss.values))
    assert losses[-1] < 1e-3
    assert losses[-1] < losses[0] * 1e-2
    # stop-gradient contract: the target is a value, so the current
    # extractor never receives a gradient
    for t in model.extractors[-1].params.values():
        assert t.grad is None


def test_projector_loss_requires_second_task():
    model = small_model(seed=2)
    model.expand(2)
    with pytest.raises(UsageError):
        oracles.projector_loss(model, np.zeros((2, 8)), np.zeros((2, 8)))


# ---------------------------------------------------------------------------
# the hand-derived objective against its graph

def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _objective_model(task, separate, hidden):
    """A model at `task` (0, 1 or 2) with a 6-row herding buffer, and that
    task's 21 rows: batches of 8 leave a short last batch of 5, and the
    buffer is smaller than a batch."""
    tasks = [*two_task_data(n_per=7),
             blob_task(np.random.default_rng(43), [6, 7, 8], 7, 8)]
    model = ExpandableModel(input_dim=8, feature_dim=6, hidden_dims=hidden,
                            separate_inter_head=separate, seed=3)
    model.expand(3)
    buf = tr.RehearsalBuffer(6)
    for t in range(task):
        tr.buffer_commit(buf, tasks[t], model)
        model.expand(3)
    return model, buf, tasks[task]


@pytest.mark.parametrize("hidden", [(16,), (16, 8)], ids=["1-layer", "2-layer"])
@pytest.mark.parametrize("separate", [False, True], ids=["tied", "separate"])
@pytest.mark.parametrize("task", [0, 1])
@pytest.mark.parametrize("stage", [1, 2])
def test_objective_matches_the_graph_bitwise(stage, task, separate, hidden):
    # every loss value and gradient of every step of an epoch, for each of
    # nu, gamma, lam off or on; the steps apply the fused gradients, so
    # later batches see trained parameters
    knobs = itertools.product([0.0, 0.7], [0.0, 1.3], [0.0, 0.5])
    for nu, gamma, lam in knobs:
        rng = np.random.default_rng(17)
        model, buf, (x, y) = _objective_model(task, separate, hidden)
        cfg = full_cfg(nu=nu, gamma=gamma, lam=lam, batch_size=8)
        use_intra = nu > 0 or gamma > 0
        flags = ((not use_intra, use_intra, False) if stage == 1
                 else (True, use_intra, lam > 0 and task >= 1))
        mixed = flags[0] and task >= 1
        params = tr._param_set(model, *flags)
        state = tr.make_optimizer_state(params)
        tables = tr._rehearsal_tables(model, x, buf) if mixed else None
        for xb, yb, n_c, frozen in tr._batches(x, y, tables, cfg.batch_size,
                                               rng):
            args = (model, xb, yb, n_c, frozen, cfg, *flags)
            want_losses, want = oracles.graph_objective(*args)
            losses, grads = tr._objective(*args)
            case = (nu, gamma, lam, n_c)
            assert losses.keys() == want_losses.keys(), case
            assert all(_same_bits(losses[k], want_losses[k])
                       for k in losses), case
            assert grads.keys() == want.keys() == params.keys(), case
            for name in params:
                assert _same_bits(grads[name], want[name]), (case, name)
            tr.optimizer_step(params, grads, state, cfg)


@pytest.mark.parametrize("stage, want", [(1, 5), (2, 11)])
def test_a_first_scale_step_takes_each_log_softmax_once(monkeypatch, stage,
                                                         want):
    # a stage-1 step, and a mixed stage-2 step with both scopes, the tied
    # head and gamma > 0, in which every row is feasible at the initial
    # scale. Each log-softmax is of one quantity: the intra logits (shared
    # by the sufficiency loss and the generator's direction), each
    # generator's factual features (shared by the generator and its KL
    # term), one scoring round per generator, each necessity term's
    # counterfactual logits, each KL term's counterfactual, and stage 2's
    # cls and aux logits. Computing the shared ones twice made 7 and 14.
    model, buf, (x, y) = _objective_model(1, False, (16,))
    cfg = full_cfg(batch_size=8, gen=GenConfig(epsilon=1e6))
    assert cfg.gamma > 0 and cfg.lam > 0 and cfg.nu > 0
    flags = (False, True, False) if stage == 1 else (True, True, True)
    tables = tr._rehearsal_tables(model, x, buf) if stage == 2 else None
    xb, yb, n_c, frozen = next(tr._batches(x, y, tables, cfg.batch_size,
                                           np.random.default_rng(5)))
    scales = []
    for name, init in (("generate_intra_batch", cfg.gen.alpha),
                       ("generate_inter_batch", cfg.gen.beta)):
        def recording(*args, _generate=getattr(cf, name), _init=init,
                      **kwargs):
            out = _generate(*args, **kwargs)
            scales.append(bool((out[2] == _init).all()))
            return out
        monkeypatch.setattr(cf, name, recording)
    calls = []
    log_softmax = ad.log_softmax

    def counting(a):
        calls.append(a.shape)
        return log_softmax(a)

    monkeypatch.setattr(ad, "log_softmax", counting)
    tr._objective(model, xb, yb, n_c, frozen, cfg, *flags)
    assert scales == [True] * stage
    assert len(calls) == want


def test_objective_rejects_a_label_outside_its_head():
    model = small_model(seed=7)
    model.expand(3)
    x, y = np.zeros((4, 8)), np.array([0, 1, 2, 3])
    for flags in ((True, False, False), (False, True, False)):
        with pytest.raises(InputError, match="out of range"):
            tr._objective(model, x, y, 4, None, full_cfg(), *flags)


@pytest.mark.parametrize("hidden", [(16,), (16, 8)], ids=["1-layer", "2-layer"])
@pytest.mark.parametrize("task", [0, 1, 2])
def test_baseline_step_matches_the_graph_bitwise(task, hidden):
    # every step of two epochs against the graph of the cls flag alone,
    # which is the baseline's; the steps apply the gradients, so later
    # batches see trained parameters
    rng = np.random.default_rng(19)
    model, buf, (x, y) = _objective_model(task, False, hidden)
    cfg = baseline_cfg(batch_size=8)
    lo, cur_count = model.class_offsets[-1][0], model.current_class_count
    params = tr._param_set(model, True, False, False)
    state = tr.make_optimizer_state(params)
    tables = tr._rehearsal_tables(model, x, buf) if task else None
    sizes = set()
    for _ in range(2):
        for xb, yb, n_c, frozen in tr._batches(x, y, tables, cfg.batch_size,
                                               rng):
            sizes.add((n_c, len(xb)))
            want_losses, want = oracles.graph_objective(
                model, xb, yb, n_c, frozen, cfg, True, False, False)
            losses, grads = tr._baseline_step(model, xb, yb, frozen, lo,
                                              cur_count)
            assert losses.keys() == want_losses.keys(), n_c
            assert all(_same_bits(losses[k], want_losses[k]) for k in losses)
            assert grads.keys() == want.keys() == params.keys(), n_c
            for name in params:
                assert np.array_equal(grads[name], want[name]), (n_c, name)
                assert _same_bits(grads[name], want[name]), (n_c, name)
            tr.optimizer_step(params, grads, state, cfg)
    # a short last batch, and from task 1 on a buffer smaller than a batch
    assert sizes == ({(8, 8), (5, 5)} if task == 0
                     else {(8, 14), (5, 10)})


def test_baseline_step_rejects_a_label_outside_its_head():
    model = small_model(seed=7)
    model.expand(3)
    x = np.zeros((4, 8))
    with pytest.raises(InputError, match="out of range"):
        tr._baseline_step(model, x, np.array([0, 1, 2, 3]), None, 0, 3)
    model.expand(3)
    frozen = model.frozen_concat_np(x)
    y = np.array([0, 3, 4, 5])
    tr._baseline_step(model, x, y, frozen, 3, 3)
    with pytest.raises(InputError, match="out of range"):
        tr._baseline_step(model, x, np.array([0, 3, 4, 6]), frozen, 3, 3)
    # a rehearsal row's aux label is the class count, one past the aux
    # head's last current class; one more is outside the head
    with pytest.raises(InputError, match="out of range"):
        tr._baseline_step(model, x, y, frozen, 3, 4)


def test_baseline_trainer_runs_no_objective_generator_or_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("called from the baseline trainer")

    # the per-epoch risk report runs the generators on purpose; it is
    # outside the step and stubbed here
    monkeypatch.setattr(tr, "_probe_report", lambda *args: None)
    for owner, name in ((tr, "_objective"), (cf, "generate_intra_batch"),
                        (cf, "generate_inter_batch"), (ad, "backward"),
                        (ad, "linear")):
        monkeypatch.setattr(owner, name, refuse)
    model, res = run_two_tasks(tr.train_task_baseline, baseline_cfg())
    assert res["records"][-1]["loss_terms"]["aux"] > 0.0


# ---------------------------------------------------------------------------
# train_task invariants

def baseline_cfg(**kw):
    kw.setdefault("stage1_epochs", 0)
    kw.setdefault("stage2_epochs", 3)
    kw.setdefault("batch_size", 16)
    kw.setdefault("lam", 0.0)
    kw.setdefault("gamma", 0.0)
    kw.setdefault("nu", 0.0)
    kw.setdefault("buffer_capacity", 30)
    return tr.TrainConfig(**kw)


def full_cfg(**kw):
    kw.setdefault("stage1_epochs", 2)
    kw.setdefault("stage2_epochs", 3)
    kw.setdefault("batch_size", 16)
    kw.setdefault("buffer_capacity", 30)
    return tr.TrainConfig(**kw)


def two_task_data(seed=42, n_per=24, dim=8):
    rng = np.random.default_rng(seed)
    t0 = blob_task(rng, [0, 1, 2], n_per, dim)
    t1 = blob_task(rng, [3, 4, 5], n_per, dim)
    return t0, t1


# the benchmark configs' extractor widths (input, hidden, feature): there a
# 16-row product of the 32 -> 16 layer rounds some rows differently from
# the same rows inside a 72-row product, which the default widths never do
NARROW = (8, (16,), 8)
WIDE = (64, (32,), 16)


def run_two_tasks(train_fn, cfg, model_seed=1, rng_seed=7):
    model, res, _, _ = run_two_tasks_keeping(train_fn, cfg, model_seed,
                                             rng_seed)
    return model, res


def run_two_tasks_keeping(train_fn, cfg, model_seed=1, rng_seed=7,
                          widths=NARROW):
    """run_two_tasks, also returning the buffer and the trainer's rng."""
    dim, hidden, feat = widths
    t0, t1 = two_task_data(dim=dim)
    model = small_model(seed=model_seed, dim=dim, feat=feat, hidden=hidden)
    rng = np.random.default_rng(rng_seed)
    buf = tr.RehearsalBuffer(cfg.buffer_capacity)
    model.expand(3)
    train_fn(model, t0, None, cfg, rng)
    tr.buffer_commit(buf, t0, model)
    model.expand(3)
    res = train_fn(model, t1, buf, cfg, rng)
    return model, res, buf, rng


def test_zeroed_knobs_reduce_to_baseline_bitwise():
    cfg = baseline_cfg()
    m_cpns, _ = run_two_tasks(tr.train_task, cfg)
    m_base, _ = run_two_tasks(tr.train_task_baseline, cfg)
    pa = values_of(all_params(m_cpns))
    pb = values_of(all_params(m_base))
    assert pa.keys() == pb.keys()
    for key in pa:
        np.testing.assert_array_equal(pa[key], pb[key], err_msg=key)


def test_zeroed_knobs_reduce_to_baseline_bitwise_at_benchmark_widths():
    # at these widths a trainer that ran the frozen extractors per batch
    # instead of gathering from the shared tables would part from the other
    cfg = baseline_cfg()
    models = [run_two_tasks_keeping(fn, cfg, widths=WIDE)[0]
              for fn in (tr.train_task, tr.train_task_baseline)]
    pa, pb = (values_of(all_params(m)) for m in models)
    assert pa.keys() == pb.keys()
    for key in pa:
        assert _same_bits(pa[key], pb[key]), key


# the trainer, its config and how many of the second task's loops mix in
# rehearsal rows: the baseline's one, stage 2 alone under the full
# objective, and both stages when no intra term is left for stage 1
MIXED_LOOPS = [(tr.train_task_baseline, baseline_cfg, {}, 1),
               (tr.train_task, full_cfg, {}, 1),
               (tr.train_task, full_cfg, {"nu": 0.0, "gamma": 0.0}, 2)]
MIXED_IDS = ["baseline", "full", "full, no intra"]


@pytest.mark.parametrize("train_fn, make_cfg, kw, loops", MIXED_LOOPS,
                         ids=MIXED_IDS)
@pytest.mark.parametrize("batch_size", [5, 16, 100])
def test_a_mixed_loop_computes_the_frozen_features_twice(
        monkeypatch, train_fn, make_cfg, kw, loops, batch_size):
    # once over the task's rows and once over the buffer's, however many
    # batches the loop runs; the risk reports score frozen features of
    # their own and are stubbed here
    monkeypatch.setattr(tr, "_probe_report", lambda *args: None)
    rows = []
    frozen_concat_np = ExpandableModel.frozen_concat_np

    def counting(self, x):
        rows.append(len(x))
        return frozen_concat_np(self, x)

    monkeypatch.setattr(ExpandableModel, "frozen_concat_np", counting)
    cfg = make_cfg(batch_size=batch_size, **kw)
    run_two_tasks(train_fn, cfg)
    n_cur, n_buf = len(two_task_data()[1][0]), cfg.buffer_capacity
    assert rows == [n_cur, n_buf] * loops


def _mixed_epochs(train_fn, cfg, loops):
    """How many of the second task's epochs mix in rehearsal rows: all of
    the baseline's, else stage 2's and, with two mixed loops, stage 1's."""
    if train_fn is tr.train_task_baseline or loops == 2:
        return cfg.stage1_epochs + cfg.stage2_epochs
    return cfg.stage2_epochs


@pytest.mark.parametrize("widths", [NARROW, WIDE], ids=["narrow", "wide"])
@pytest.mark.parametrize("train_fn, make_cfg, kw, loops", MIXED_LOOPS,
                         ids=MIXED_IDS)
def test_each_step_gathers_its_frozen_rows_from_the_tables(
        monkeypatch, train_fn, make_cfg, kw, loops, widths):
    # every mixed step's frozen block, row by row, is the bits of that row
    # in one product over all the task's rows or all the buffer's; at the
    # wide widths a per-batch product differs in some row
    steps = []
    step_name = "_objective" if train_fn is tr.train_task else "_baseline_step"
    step = getattr(tr, step_name)

    def recording(model, xb, yb, *args):
        frozen = args[1] if step_name == "_objective" else args[0]
        if frozen is not None:
            steps.append((xb.copy(), frozen.copy()))
        return step(model, xb, yb, *args)

    monkeypatch.setattr(tr, step_name, recording)
    cfg = make_cfg(**kw)
    model, _, buf, _ = run_two_tasks_keeping(train_fn, cfg, widths=widths)
    x1 = two_task_data(dim=widths[0])[1][0]
    table = {}
    for rows in (x1, buf.samples()[0]):
        table.update((r.tobytes(), f.tobytes())
                     for r, f in zip(rows, model.frozen_concat_np(rows)))
    batches = len(range(0, len(x1), cfg.batch_size))
    assert len(steps) == _mixed_epochs(train_fn, cfg, loops) * batches
    for xb, frozen in steps:
        assert [table[r.tobytes()] for r in xb] == [f.tobytes() for f in frozen]


@pytest.mark.parametrize("train_fn, make_cfg, kw, loops", MIXED_LOOPS,
                         ids=MIXED_IDS)
def test_the_trainers_draw_the_same_random_stream(train_fn, make_cfg, kw,
                                                  loops):
    # one permutation per epoch, then, in a loop that mixes in rehearsal
    # rows, one draw without replacement per batch, skipped when the
    # buffer is no larger than the batch; replayed here draw by draw
    cfg = make_cfg(batch_size=20, buffer_capacity=15, **kw)
    _, _, buf, rng = run_two_tasks_keeping(train_fn, cfg)
    (x0, _), (x1, _) = two_task_data()
    n, epochs = len(x1), cfg.stage1_epochs + cfg.stage2_epochs
    first_mixed = epochs - _mixed_epochs(train_fn, cfg, loops)
    assert len(buf) == 15 and n % cfg.batch_size == 12  # both branches
    want = np.random.default_rng(7)
    for _ in range(epochs):
        want.permutation(len(x0))
    for epoch in range(epochs):
        perm = want.permutation(n)
        if epoch < first_mixed:
            continue
        for s in range(0, n, cfg.batch_size):
            k = len(perm[s:s + cfg.batch_size])
            if len(buf) > k:
                want.choice(len(buf), size=k, replace=False)
    assert rng.bit_generator.state == want.bit_generator.state


def test_stage_one_generates_no_inter_counterfactuals(monkeypatch):
    t0, t1 = two_task_data()
    model = small_model(seed=3)
    rng = np.random.default_rng(11)
    buf = tr.RehearsalBuffer(30)
    model.expand(3)
    tr.train_task(model, t0, None, full_cfg(stage1_epochs=1, stage2_epochs=1),
                  rng)
    tr.buffer_commit(buf, t0, model)
    model.expand(3)
    # trainer and risk both look the generator up on the module, so this
    # wrapper sees every inter-scope call
    inter_rows = []
    generate = cf.generate_inter_batch

    def counting(feats, *args, **kwargs):
        inter_rows.append(len(feats))
        return generate(feats, *args, **kwargs)

    monkeypatch.setattr(cf, "generate_inter_batch", counting)
    stage1_only = full_cfg(stage1_epochs=2, stage2_epochs=0)
    tr.train_task(model, t1, buf, stage1_only, rng)
    assert inter_rows == []
    stage2_only = full_cfg(stage1_epochs=0, stage2_epochs=1)
    tr.train_task(model, t1, buf, stage2_only, rng)
    assert sum(inter_rows) > 0


def test_stage_one_refuses_inter_scope_work():
    t0, t1 = two_task_data()
    model = small_model(seed=3)
    rng = np.random.default_rng(11)
    buf = tr.RehearsalBuffer(30)
    model.expand(3)
    tr.buffer_commit(buf, t0, model)
    model.expand(3)
    with pytest.raises(AssertionError, match="stage 1"):
        tr._run_objective_epochs(model, t1[0], t1[1], buf, full_cfg(), rng,
                                 [], stage=1, epochs=1, use_cls=True,
                                 use_intra=False, use_inter=True)


def test_stage_one_trains_only_the_extractor_and_intra_head():
    t0, t1 = two_task_data()
    model = small_model(seed=3)
    rng = np.random.default_rng(11)
    buf = tr.RehearsalBuffer(30)
    model.expand(3)
    tr.train_task(model, t0, None, full_cfg(stage1_epochs=1, stage2_epochs=1),
                  rng)
    tr.buffer_commit(buf, t0, model)
    model.expand(3)
    before = values_of(all_params(model))
    twin = np.random.default_rng()
    twin.bit_generator.state = rng.bit_generator.state
    cfg = full_cfg(stage1_epochs=2, stage2_epochs=0)
    res = tr.train_task(model, t1, buf, cfg, rng)
    assert [r["stage"] for r in res["records"]] == [1, 1]
    after = values_of(all_params(model))
    moved = {k for k in before if not np.array_equal(before[k], after[k])}
    assert moved == {"f1/w0", "f1/b0", "f1/w1", "f1/b1", "intra_w", "intra_b"}
    # one permutation per epoch and nothing else: no rehearsal rows drawn
    for _ in range(cfg.stage1_epochs):
        twin.permutation(len(t1[0]))
    assert rng.bit_generator.state == twin.bit_generator.state


def test_frozen_extractors_bitwise_stable_through_training():
    t0, t1 = two_task_data()
    model = small_model(seed=4)
    rng = np.random.default_rng(13)
    buf = tr.RehearsalBuffer(30)
    model.expand(3)
    tr.train_task(model, t0, None, full_cfg(), rng)
    tr.buffer_commit(buf, t0, model)
    model.expand(3)
    snap = model.frozen_snapshot()
    tr.train_task(model, t1, buf, full_cfg(), rng)
    after = model.frozen_snapshot()
    assert snap.keys() == after.keys() and len(snap) > 0
    for key in snap:
        np.testing.assert_array_equal(snap[key], after[key], err_msg=key)


@pytest.mark.parametrize("train_fn", [tr.train_task, tr.train_task_baseline])
def test_frozen_extractor_drift_fails_both_trainers(monkeypatch, train_fn):
    # no flag keeps the optimizer off a frozen extractor any more; the
    # snapshot check is the guard, so a nudge from anywhere must trip it
    t0, t1 = two_task_data()
    model = small_model(seed=4)
    buf = tr.RehearsalBuffer(30)
    model.expand(3)
    tr.buffer_commit(buf, t0, model)
    model.expand(3)
    step = tr.optimizer_step

    def drifting_step(params, grads, state, config):
        step(params, grads, state, config)
        model.extractors[0].params["w0"].values[0, 0] += 1e-12

    monkeypatch.setattr(tr, "optimizer_step", drifting_step)
    cfg = full_cfg(stage1_epochs=1, stage2_epochs=1)
    with pytest.raises(AssertionError, match="frozen extractors drifted"):
        train_fn(model, t1, buf, cfg, np.random.default_rng(13))


def test_param_set_never_holds_a_frozen_extractor():
    # a separate inter head: every head exists from the second task on
    model = ExpandableModel(input_dim=8, feature_dim=8, hidden_dims=(16,),
                            separate_inter_head=True, seed=4)
    for _ in range(3):
        model.expand(2)
    frozen = {id(p) for ext in model.extractors[:-1]
              for p in ext.params.values()}
    current = {f"f2/{name}" for name in model.extractors[-1].params}
    # every (use_cls, use_intra, use_inter) train_task or the baseline pass
    for flags in itertools.product([False, True], repeat=3):
        params = tr._param_set(model, *flags)
        assert current <= params.keys()
        assert not frozen & {id(p) for p in params.values()}, flags


def test_training_converges_on_separable_task():
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.normal(loc=-3.0, scale=0.4, size=(40, 8)),
                        rng.normal(loc=3.0, scale=0.4, size=(40, 8))])
    y = np.array([0] * 40 + [1] * 40, dtype=np.int64)
    model = small_model(seed=5)
    model.expand(2)
    cfg = full_cfg(stage1_epochs=5, stage2_epochs=40)
    res = tr.train_task(model, (x, y), None, cfg, np.random.default_rng(0))
    pred = np.argmax(model.forward_concat_np(x), axis=1)
    assert np.mean(pred == y) >= 0.95
    stage2 = [r for r in res["records"] if r["stage"] == 2]
    assert stage2[-1]["loss_terms"]["cls"] < stage2[0]["loss_terms"]["cls"]


def test_empty_buffer_on_second_task_rejected():
    t0, t1 = two_task_data()
    model = small_model(seed=6)
    rng = np.random.default_rng(0)
    model.expand(3)
    tr.train_task(model, t0, None, baseline_cfg(stage2_epochs=1), rng)
    model.expand(3)
    with pytest.raises(ConfigurationError):
        tr.train_task(model, t1, None, full_cfg(), rng)
    with pytest.raises(ConfigurationError):
        tr.train_task(model, t1, tr.RehearsalBuffer(30), full_cfg(), rng)


def test_labels_outside_current_range_rejected():
    model = small_model(seed=7)
    model.expand(3)
    x = np.zeros((4, 8))
    y = np.array([5, 6, 5, 6])
    with pytest.raises(InputError):
        tr.train_task(model, (x, y), None, full_cfg(), np.random.default_rng(0))


def test_jsonl_records_follow_the_schema():
    results = []

    def train(*args):
        results.append(tr.train_task(*args))
        return results[-1]

    cfg = full_cfg(stage1_epochs=1, stage2_epochs=2)
    run_two_tasks(train, cfg)
    # the lines run_seed appends to epochs.jsonl
    lines = [json.dumps(rec) for res in results for rec in res["records"]]
    assert len(lines) == 6  # (1 + 2) epochs for each of the two tasks
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"task", "stage", "epoch", "loss_terms",
                            "cpns_report", "wall_ms"}
        assert set(rec["loss_terms"]) == set(tr.LOSS_KEYS)
        assert rec["wall_ms"] >= 0.0
        if rec["stage"] == 1:
            assert rec["cpns_report"] is None
        else:
            rep = rec["cpns_report"]
            assert rep["m_total"] <= rep["r_total"]
            assert -1.0 <= rep["pns_intra_est"] <= 1.0
    # stage-2 records exist for both tasks and carry inter counts on task 1
    last = json.loads(lines[-1])
    assert last["task"] == 1 and last["cpns_report"]["n_inter"] > 0


def test_single_stage_mode_folds_epoch_budget():
    cfg = ex.ablation_train_config(full_cfg(stage1_epochs=2, stage2_epochs=3),
                                   "both_no2stage")
    _, res = run_two_tasks(tr.train_task, cfg)
    records = res["records"]
    assert len(records) == 5
    assert all(r["stage"] == 2 for r in records)


@pytest.mark.parametrize("train_fn", [tr.train_task, tr.train_task_baseline])
def test_trained_parameters_own_their_memory(train_fn):
    # a view would keep the whole flat optimizer vector of its task alive
    model, _ = run_two_tasks(train_fn, full_cfg())
    for name, p in all_params(model).items():
        assert p.values.flags.owndata, name


def test_training_is_deterministic_given_seeds():
    cfg = full_cfg(buffer_capacity=6)  # buffer smaller than the batch size
    m1, _ = run_two_tasks(tr.train_task, cfg)
    m2, _ = run_two_tasks(tr.train_task, cfg)
    p1 = values_of(all_params(m1))
    p2 = values_of(all_params(m2))
    for key in p1:
        np.testing.assert_array_equal(p1[key], p2[key], err_msg=key)


@pytest.mark.parametrize("train_fn", [tr.train_task, tr.train_task_baseline])
def test_non_finite_parameter_stops_training_at_epoch_end(monkeypatch,
                                                          train_fn):
    step = tr.optimizer_step

    def poisoning_step(params, grads, state, config):
        step(params, grads, state, config)
        params["f0/w0"].values[0, 0] = np.inf

    monkeypatch.setattr(tr, "optimizer_step", poisoning_step)
    t0, _ = two_task_data()
    model = small_model(seed=1)
    model.expand(3)
    # one batch and one epoch: the only step is the poisoned one, so no
    # later gradient check can catch the value first
    cfg = baseline_cfg(stage2_epochs=1, batch_size=len(t0[0]))
    with pytest.raises(NumericsError, match="f0/w0"):
        train_fn(model, t0, None, cfg, np.random.default_rng(0))


def test_default_style_run_completes_with_reports():
    # lam 0.5, gamma 1, beta 0.03: the bound assertion never fires and the
    # final report is populated for the second task
    cfg = full_cfg(lam=0.5, gamma=1.0)
    assert cfg.gen.beta == 0.03
    _, res = run_two_tasks(tr.train_task, cfg)
    rep = res["final_report"]
    assert rep is not None and rep.n_inter > 0
    assert rep.m_total <= rep.r_total


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        tr.TrainConfig(lr=0.0)
    with pytest.raises(ConfigurationError):
        tr.TrainConfig(momentum=1.0)
    with pytest.raises(ConfigurationError):
        tr.TrainConfig(lam=-0.1)
    with pytest.raises(ConfigurationError):
        tr.TrainConfig(buffer_capacity=0)
