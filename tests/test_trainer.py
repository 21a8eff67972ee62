"""Trainer tests: optimizer anchors, herding vs a brute-force oracle,
projector stop-gradient contract, and the two-stage loop invariants
(bitwise baseline degeneracy, frozen isolation, stage ordering)."""

import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def state_over(**values):
    """The optimizer state over one float64 array per keyword, and the dict
    that holds the arrays, whose entries the state rebinds to its views."""
    held = {name: np.array(v, dtype=np.float64) for name, v in values.items()}
    return tr.make_optimizer_state({name: (held, name) for name in held}), held


def one_param(values):
    """The optimizer state over one array, the array's view of the state's
    parameter vector, and its view of the gradient buffer, zeroed."""
    state, held = state_over(p=values)
    g = state["grads"]["p"]
    g[...] = 0.0
    return state, held["p"], g


def values_of(ps):
    """Copies of every parameter value, by name."""
    return {name: p.copy() for name, p in ps.items()}


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
    state, t, _ = one_param([1.0, -2.0])
    tr.optimizer_step(state, cfg)
    np.testing.assert_array_equal(t, [1.0, -2.0])


def test_sgd_single_step_matches_hand_computation():
    cfg = tr.TrainConfig(lr=0.1, momentum=0.0, weight_decay=0.0)
    state, t, g = one_param([1.0, -2.0])
    g[:] = [0.5, -1.0]
    tr.optimizer_step(state, cfg)
    np.testing.assert_array_equal(t, [1.0 - 0.1 * 0.5, -2.0 + 0.1 * 1.0])


def test_sgd_momentum_accumulates_over_steps():
    cfg = tr.TrainConfig(lr=0.1, momentum=0.9, weight_decay=0.0)
    state, t, g = one_param([0.0])
    g[:] = [1.0]
    tr.optimizer_step(state, cfg)
    g[:] = [1.0]
    tr.optimizer_step(state, cfg)
    expected = 0.0 - 0.1 * 1.0
    expected -= 0.1 * (0.9 * 1.0 + 1.0)
    np.testing.assert_array_equal(t, [expected])


def test_weight_decay_is_decoupled():
    # zero gradient still shrinks the value by lr * wd * value
    cfg = tr.TrainConfig(lr=0.1, momentum=0.0, weight_decay=0.5)
    state, t, _ = one_param([2.0, -4.0])
    tr.optimizer_step(state, cfg)
    expected = np.array([2.0, -4.0])
    expected = expected - 0.1 * 0.5 * expected
    np.testing.assert_array_equal(t, expected)


def test_nan_gradient_aborts_without_touching_values():
    state, _ = state_over(a=[1.0, 2.0], b=[3.0])
    state["grads"]["a"][...] = [0.1, 0.2]
    state["grads"]["b"][...] = [np.nan]
    with pytest.raises(NumericsError, match="'b' at step 1"):
        tr.optimizer_step(state, tr.TrainConfig())
    np.testing.assert_array_equal(state["values"], [1.0, 2.0, 3.0])
    assert state["step"] == 0
    np.testing.assert_array_equal(state["m"], [0.0, 0.0, 0.0])


def test_a_non_finite_gradient_names_the_largest_parameter():
    # a diverging run: one huge but finite parameter and NaN gradients in
    # most others. The first non-finite gradient in the layout is named,
    # then how many there are and the parameter of largest magnitude; a
    # NaN value does not hide the finite magnitude beside it.
    state, _ = state_over(a=[1.0, -2.0], big=[np.nan, -4.5e255], c=[3.0, 5.0])
    state["grads"]["a"][...] = [np.nan, 0.0]
    state["grads"]["big"][...] = np.nan
    state["grads"]["c"][...] = 0.0
    want = ("non-finite gradient in 'a' at step 1 (2 of 3 parameters; "
            "largest |value| 4.5e+255 in 'big')")
    with pytest.raises(NumericsError) as err:
        tr.optimizer_step(state, tr.TrainConfig())
    assert str(err.value) == want
    assert state["step"] == 0 and state["values"][3] == -4.5e255


def test_state_lays_the_parameters_out_in_one_vector():
    state, held = state_over(w=np.arange(6.0).reshape(2, 3), b=[6.0],
                             v=[7.0, 8.0, 9.0])
    np.testing.assert_array_equal(state["values"], np.arange(10.0))
    assert state["params"].keys() == state["grads"].keys() == held.keys()
    for name, p in held.items():
        # the dict entry is rebound to the state's view
        assert p is state["params"][name]
        assert np.shares_memory(p, state["values"])
        assert np.shares_memory(state["grads"][name], state["grad"])
        assert state["grads"][name].shape == p.shape
    assert held["w"].shape == (2, 3)
    assert np.isnan(state["grad"]).all()


def test_momentum_does_not_alias_the_reused_gather_buffer():
    cfg = tr.TrainConfig(lr=0.1, momentum=0.5, weight_decay=0.0)
    state, t, g = one_param([0.0, 0.0])
    g[...] = [1.0, 2.0]
    tr.optimizer_step(state, cfg)
    assert not np.shares_memory(state["m"], state["grad"])
    g[...] = [4.0, -8.0]
    tr.optimizer_step(state, cfg)
    # aliased, the second step's gradient would overwrite the first step's
    # momentum
    np.testing.assert_array_equal(state["m"], [0.5 * 1.0 + 4.0,
                                               0.5 * 2.0 - 8.0])


@pytest.mark.parametrize("weight_decay", [0.0, 1e-5])
def test_flat_step_matches_the_per_array_step_bitwise(weight_decay):
    cfg = tr.TrainConfig(weight_decay=weight_decay, lr=0.05, momentum=0.9)
    rng = np.random.default_rng(23)
    shapes = {"one": (1,), "w": (5, 3), "b": (5,), "u": (2, 4)}
    init = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    flat = {name: v.copy() for name, v in init.items()}
    ref = {name: v.copy() for name, v in init.items()}
    state = tr.make_optimizer_state({name: (flat, name) for name in flat})
    ref_state = {"step": 0, "m": {}}
    for _ in range(50):
        grads = {name: rng.normal(scale=10.0 ** rng.integers(-3, 2),
                                  size=shape)
                 for name, shape in shapes.items()}
        for name, g in grads.items():
            state["grads"][name][...] = g
        tr.optimizer_step(state, cfg)
        oracles.per_array_step(ref, grads, ref_state, cfg)
    for name in shapes:
        assert np.array_equal(flat[name], ref[name]), name
    # the momentum vector has the parameters' layout, in the map's order
    assert np.array_equal(state["m"], np.concatenate(
        [ref_state["m"][name].ravel() for name in shapes]))
    assert not np.array_equal(flat["w"], init["w"])


@pytest.mark.parametrize("step", [1, 2])
def test_a_view_left_unwritten_is_named_and_nothing_moves(step):
    # the steps write into `state["grads"]`; the gradient buffer is NaN
    # until they do, on the first step and again after every update
    cfg = tr.TrainConfig(lr=0.1, momentum=0.5)
    state, _ = state_over(a=[1.0, 2.0], b=[3.0])
    grads = state["grads"]
    for _ in range(step - 1):
        grads["a"][...], grads["b"][...] = [0.1, 0.2], [0.3]
        tr.optimizer_step(state, cfg)
    assert np.isnan(state["grad"]).all()
    values = state["values"].copy()
    m = state["m"].copy()
    grads["a"][...] = [0.1, 0.2]  # b left unwritten
    with pytest.raises(NumericsError, match=f"'b' at step {step} "):
        tr.optimizer_step(state, cfg)
    assert np.array_equal(state["values"], values)
    assert state["step"] == step - 1
    assert np.array_equal(state["m"], m)


def test_finite_check_names_the_bad_parameter():
    state, held = state_over(a=[1.0], w=[1.0, 2.0], v=[3.0])
    tr._check_finite(state)
    held["v"][0] = np.inf
    held["w"][1] = np.nan
    with pytest.raises(NumericsError,
                       match="parameter 'w' contains non-finite values"):
        tr._check_finite(state)


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


def _benchmark_rows(d, rows):
    """The 150 rows of the benchmark-size herding fixture above, or with
    near twins: the second 75 rows the first ones scaled by 1 + 2**-20."""
    rng = np.random.default_rng(d + 150)
    feats = rng.normal(size=(150, d))
    if rows == "duplicated":
        feats[75:] = feats[:75]
        feats[[3, 40, 149]] = feats.mean(axis=0)
    elif rows == "near twins":
        feats[75:] = feats[:75] * (1 + 2.0 ** -20)
    return feats


@pytest.mark.parametrize("d", [16, 64, 192])
@pytest.mark.parametrize("rows", ["distinct", "duplicated", "near twins"])
def test_herding_scores_few_rows_exactly_at_benchmark_sizes(monkeypatch, d,
                                                            rows):
    # a pick runs the exact score only when its row has untaken copies,
    # over those copies (72 pairs and a triple take 72 * 2 + 3 + 2 rows),
    # or, once in the widest case, when a near twin comes within the
    # margin. A margin 100 times wider scores 8 and 36 rows of near twins
    # at d = 64 and 192, and 1000 times wider 84 to 104 at every d.
    feats = _benchmark_rows(d, rows)
    scored = []
    scores = tr._herding_scores

    def counting(total, rows_, k, mu):
        scored.append(len(rows_))
        return scores(total, rows_, k, mu)

    monkeypatch.setattr(tr, "_herding_scores", counting)
    order = tr.herding_order(feats, 150)
    assert order == oracles.masked_herding_order(feats, 150)
    taken = np.zeros(150, dtype=bool)
    copies = []
    for j in order:
        count = np.count_nonzero((feats == feats[j]).all(axis=1) & ~taken)
        if count > 1:
            copies.append(count)
        taken[j] = True
    if rows != "near twins":
        assert scored == copies
    want = {"distinct": 0, "duplicated": 149, "near twins": 0}[rows]
    assert sum(scored) == (2 if (rows, d) == ("near twins", 192) else want)


@pytest.mark.parametrize("exponent", [-539, -530, -520])
def test_herding_orders_rows_with_subnormal_scores_as_the_scan_does(
        exponent):
    # scores and keys round to multiples of the smallest subnormal, so the
    # scan's pick need not have the smallest key, and the margin's
    # underflow term must reach it
    for seed in range(4):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(30, 6)) * 2.0 ** exponent
        assert tr.herding_order(feats, 30) == oracles.masked_herding_order(
            feats, 30)


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e8])
def test_herding_orders_rows_one_ulp_apart_as_the_scan_does(offset):
    # 75 rows and a twin of each, one ulp up or down in one column, in
    # shuffled positions; picks run to k = 150, where the running total is
    # 150 times the offset
    rng = np.random.default_rng(11)
    base = offset + rng.normal(size=(75, 64))
    twin = base.copy()
    at = (np.arange(75), rng.integers(0, 64, size=75))
    twin[at] = np.nextafter(twin[at], rng.choice([-np.inf, np.inf], size=75))
    feats = np.concatenate([base, twin])[rng.permutation(150)]
    assert tr.herding_order(feats, 150) == oracles.masked_herding_order(
        feats, 150)


def test_herding_breaks_ties_only_rounding_makes_as_the_scan_does():
    # rows 2**30 plus a multiple of 2**-20: once the running total is large,
    # (total + f) / k loses the difference, and distinct rows score alike
    rng = np.random.default_rng(12)
    feats = 2.0 ** 30 + rng.integers(0, 8, size=(120, 6)) * 2.0 ** -20
    order = oracles.masked_herding_order(feats, 120)
    assert tr.herding_order(feats, 120) == order
    mu = feats.mean(axis=0)
    total = np.zeros(6)
    rounded_ties = 0
    for k, j in enumerate(order, start=1):
        rest = np.setdiff1d(np.arange(120), order[:k - 1])
        scores = tr._herding_scores(total, feats[rest], k, mu)
        best = rest[scores == scores.min()]
        rounded_ties += len(np.unique(feats[best], axis=0)) > 1
        total += feats[j]
    assert rounded_ties > 10


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
       d=st.integers(1, 24), exponent=st.integers(-560, 500),
       rows=st.sampled_from(["random", "duplicated", "offset"]),
       extra=st.integers(-2, 3))
def test_herding_equals_the_masked_scan_on_random_rows(seed, n, d, exponent,
                                                       rows, extra):
    # scaled by 2**exponent, exactly: scores that underflow at the bottom,
    # and squared norms that overflow at the top, which the key filter
    # hands to the full scan
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, d))
    if rows == "duplicated":
        feats = feats[rng.integers(0, n // 3 + 1, size=n)]
    elif rows == "offset":
        feats += rng.normal(scale=1e4, size=d)
    feats *= 2.0 ** exponent
    m = n + extra
    assert tr.herding_order(feats, m) == oracles.masked_herding_order(feats,
                                                                      m)


def _result_and_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [str(w.message) for w in caught]


@pytest.mark.parametrize("case", ["nan", "inf", "both infinities", "huge"])
def test_herding_of_non_finite_or_huge_rows_is_the_full_scan(case):
    # the full scan's order and warnings; at 1e200 every score overflows to
    # inf, and the scan still takes the lowest untaken row
    feats = np.random.default_rng(3).normal(size=(20, 6))
    if case == "nan":
        feats[7, 2] = np.nan
    elif case == "inf":
        feats[4] = np.inf
    elif case == "both infinities":
        feats[4, 0], feats[9, 0] = np.inf, -np.inf
    else:
        feats *= 1e200
    got = _result_and_warnings(tr.herding_order, feats, 12)
    assert got == _result_and_warnings(oracles.compacted_herding_order,
                                       feats, 12)
    assert len(got[0]) == 12 and len(set(got[0])) == 12


@pytest.mark.parametrize("shape, m", [((5, 3), 0), ((5, 3), -3), ((0, 3), 4),
                                      ((1, 0), 2)])
def test_herding_of_no_picks_no_rows_or_no_columns_is_the_full_scan(shape,
                                                                    m):
    feats = np.random.default_rng(4).normal(size=shape)
    got = _result_and_warnings(tr.herding_order, feats, m)
    assert got == _result_and_warnings(oracles.compacted_herding_order,
                                       feats, m)
    assert got[0] == ([0] if shape == (1, 0) else [])


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
    # `leading` gives positions in samples() order
    buf = _uneven_buffer()
    x, y = (v[buf.leading(limit)] for v in buf.samples())
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
    tables = tr._rehearsal_tables(model, x, y, buf, True, False, False)
    px, py, n_cur, frozen = tr._report_pool(tables, buf, cfg)
    # the first report_limit current rows, then the buffer's
    assert n_cur == 32
    np.testing.assert_array_equal(px[:32], x[:32])
    np.testing.assert_array_equal(py[:32], y[:32])
    by = py[32:]
    assert len(by) == 32 and set(by.tolist()) == {0, 1, 2, 3}
    assert counts(buf, range(4)) == [60] * 4
    assert [int(np.sum(by == c)) for c in range(4)] == [8] * 4
    # each pool row's frozen features are its row of the loop's table,
    # bit for bit
    x_cur, buf_x, _, _, table = tables
    rows = {r.tobytes(): f.tobytes()
            for r, f in zip(np.concatenate([x_cur, buf_x]), table)}
    assert frozen.dtype == table.dtype
    assert frozen.shape == (64, model.feature_dim)
    assert [rows[r.tobytes()] for r in px] == [f.tobytes() for f in frozen]
    model_first = small_model(seed=2, dim=4).expand(4)
    tables_first = tr._rehearsal_tables(model_first, x, y - 4, None, True,
                                        False, False)
    px, py, n_cur, frozen = tr._report_pool(tables_first, None, cfg)
    np.testing.assert_array_equal(px, x[:32])
    np.testing.assert_array_equal(py, y[:32] - 4)
    assert n_cur == 32 and frozen is None


# ---------------------------------------------------------------------------
# projector

def test_projector_exact_fit_gives_zero_loss():
    model = small_model(seed=1)
    model.expand(2)
    model.expand(2)
    for p in model.extractors[-1].params.values():
        p[:] = 0.0
    model.heads["proj_w1"][:] = 0.0
    model.heads["proj_b1"][:] = 0.0
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
    # leaves over the model's projector arrays: a step on a leaf's values
    # is a step on the model
    heads = oracles.leaves_over({k: model.heads[k]
                                 for k in oracles.PROJECTOR})
    losses = []
    for _ in range(4000):
        loss = oracles.projector_loss(model, z_old, target, heads)
        ad.backward(loss)
        for head in heads.values():
            head.values -= 0.05 * head.grad
        losses.append(float(loss.values))
    assert losses[-1] < 1e-3
    assert losses[-1] < losses[0] * 1e-2
    # stop-gradient contract: the target is a value, so the projector's
    # are the only leaves the loss reaches
    reached = {id(n) for n in ad._toposort(loss) if n.op == "leaf"}
    assert reached == {id(head) for head in heads.values()}


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


def _long_stream_model(separate):
    """A model at the last task of a 12-task stream at the benchmark
    widths: 11 frozen extractors, so the representation is 192 wide and
    c_hat its last 16 columns, a buffer with one or two rows of each of
    the 44 old classes, and the task's 20 rows."""
    dim, hidden, feat = WIDE
    rng = np.random.default_rng(47)
    model = ExpandableModel(input_dim=dim, feature_dim=feat,
                            hidden_dims=hidden, separate_inter_head=separate,
                            seed=5)
    buf = tr.RehearsalBuffer(48)
    for t in range(12):
        model.expand(4)
        task = blob_task(rng, range(4 * t, 4 * t + 4), 5, dim)
        if t < 11:
            tr.buffer_commit(buf, task, model)
    assert model.frozen_concat_np(task[0]).shape[1] == 176
    return model, buf, task


def _objective_epochs_match_the_graph(make_model, stage, task):
    # every loss value and gradient of every step of an epoch, for each of
    # nu, gamma, lam off or on, with the flags train_task derives from
    # them; the steps apply the fused gradients, so later batches see
    # trained parameters. In stage 2 from the second task on, gamma > 0
    # with lam > 0 also runs the inter KL alone (no intra term), which
    # train_task never asks for
    cases = []
    for nu, gamma, lam in itertools.product([0.0, 0.7], [0.0, 1.3],
                                            [0.0, 0.5]):
        use_intra = nu > 0 or gamma > 0
        cases.append((nu, gamma, lam,
                      (not use_intra, use_intra, False) if stage == 1
                      else (True, use_intra, lam > 0 and task >= 1)))
        if stage == 2 and task >= 1 and gamma > 0 and lam > 0:
            cases.append((nu, gamma, lam, (True, False, True)))
    for nu, gamma, lam, flags in cases:
        rng = np.random.default_rng(17)
        model, buf, (x, y) = make_model()
        cfg = full_cfg(nu=nu, gamma=gamma, lam=lam, batch_size=8)
        params = tr._param_set(model, *flags)
        state = tr.make_optimizer_state(params)
        grads = state["grads"]
        tables = tr._rehearsal_tables(model, x, y, buf, *flags)
        for xb, yb, n_c, frozen, local in tr._batches(tables, cfg.batch_size,
                                                      rng):
            want_losses, want = oracles.graph_objective(
                model, xb, yb, n_c, frozen, cfg, *flags)
            case = (nu, gamma, lam, flags, n_c)
            # the step fills every view of the NaN gradient buffer
            assert np.isnan(state["grad"]).all(), case
            losses = tr._objective(model, xb, yb, n_c, frozen, local, cfg,
                                   *flags, grads)
            assert not np.isnan(state["grad"]).any(), case
            assert losses.keys() == want_losses.keys(), case
            assert all(_same_bits(losses[k], want_losses[k])
                       for k in losses), case
            assert grads.keys() == want.keys() == params.keys(), case
            for name in params:
                assert _same_bits(grads[name], want[name]), (case, name)
            tr.optimizer_step(state, cfg)


@pytest.mark.parametrize("hidden", [(16,), (16, 8)], ids=["1-layer", "2-layer"])
@pytest.mark.parametrize("separate", [False, True], ids=["tied", "separate"])
@pytest.mark.parametrize("task", [0, 1])
@pytest.mark.parametrize("stage", [1, 2])
def test_objective_matches_the_graph_bitwise(stage, task, separate, hidden):
    _objective_epochs_match_the_graph(
        lambda: _objective_model(task, separate, hidden), stage, task)


@pytest.mark.parametrize("separate", [False, True], ids=["tied", "separate"])
def test_objective_matches_the_graph_bitwise_at_a_long_stream_width(
        separate):
    # z's gradient comes from c_hat's 16 of the 192 columns of each head
    _objective_epochs_match_the_graph(
        lambda: _long_stream_model(separate), 2, 11)


@pytest.mark.parametrize("stage, want", [(1, 5), (2, 10)])
def test_a_first_scale_step_takes_each_log_softmax_once(monkeypatch, stage,
                                                         want):
    # a stage-1 step, and a mixed stage-2 step with both scopes, the tied
    # head and gamma > 0, in which every row is feasible at the initial
    # scale. Each log-softmax is of one quantity: the intra logits (shared
    # by the sufficiency loss and the generator's direction), the factual
    # features (shared by the generators and their KL terms; with both
    # scopes the intra scope's are the current rows of c_hat's), one
    # scoring round per generator, each necessity term's counterfactual
    # logits, each KL term's counterfactual, and stage 2's cls and aux
    # logits. Computing the shared ones twice made 7 and 14, and taking
    # the intra scope's factual rows apart from c_hat's made 11.
    model, buf, (x, y) = _objective_model(1, False, (16,))
    cfg = full_cfg(batch_size=8, gen=GenConfig(epsilon=1e6))
    assert cfg.gamma > 0 and cfg.lam > 0 and cfg.nu > 0
    flags = (False, True, False) if stage == 1 else (True, True, True)
    tables = tr._rehearsal_tables(model, x, y, buf, *flags)
    xb, yb, n_c, frozen, local = next(tr._batches(tables, cfg.batch_size,
                                                  np.random.default_rng(5)))
    grads = tr.make_optimizer_state(tr._param_set(model, *flags))["grads"]
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
    log_softmax = cf.log_softmax

    def counting(a):
        calls.append(a.shape)
        return log_softmax(a)

    monkeypatch.setattr(cf, "log_softmax", counting)
    tr._objective(model, xb, yb, n_c, frozen, local, cfg, *flags, grads)
    assert scales == [True] * stage
    assert len(calls) == want


def _baseline_steps_match_the_graph(model, buf, x, y):
    """Every step of two epochs against the graph of the cls flag alone,
    which is the baseline's; the steps apply the gradients, so later
    batches see trained parameters. Returns the batches' (n_c, rows)."""
    rng = np.random.default_rng(19)
    cfg = baseline_cfg(batch_size=8)
    params = tr._param_set(model, True, False, False)
    state = tr.make_optimizer_state(params)
    grads = state["grads"]
    tables = tr._rehearsal_tables(model, x, y, buf, True, False, False)
    sizes = set()
    for _ in range(2):
        for xb, yb, n_c, frozen, local in tr._batches(tables, cfg.batch_size,
                                                      rng):
            sizes.add((n_c, len(xb)))
            want_losses, want = oracles.graph_objective(
                model, xb, yb, n_c, frozen, cfg, True, False, False)
            # the step fills every view of the NaN gradient buffer
            assert np.isnan(state["grad"]).all(), n_c
            losses = tr._baseline_step(model, xb, yb, frozen, local, grads)
            assert not np.isnan(state["grad"]).any(), n_c
            assert losses.keys() == want_losses.keys(), n_c
            assert all(_same_bits(losses[k], want_losses[k]) for k in losses)
            assert grads.keys() == want.keys() == params.keys(), n_c
            for name in params:
                assert np.array_equal(grads[name], want[name]), (n_c, name)
                assert _same_bits(grads[name], want[name]), (n_c, name)
            tr.optimizer_step(state, cfg)
    return sizes


@pytest.mark.parametrize("hidden", [(16,), (16, 8)], ids=["1-layer", "2-layer"])
@pytest.mark.parametrize("task", [0, 1, 2])
def test_baseline_step_matches_the_graph_bitwise(task, hidden):
    model, buf, (x, y) = _objective_model(task, False, hidden)
    sizes = _baseline_steps_match_the_graph(model, buf, x, y)
    # a short last batch, and from task 1 on a buffer smaller than a batch
    assert sizes == ({(8, 8), (5, 5)} if task == 0
                     else {(8, 14), (5, 10)})


def test_baseline_step_matches_the_graph_bitwise_at_a_long_stream_width():
    # the classifier's input gradient from c_hat's 16 of its 192 columns
    model, buf, (x, y) = _long_stream_model(False)
    sizes = _baseline_steps_match_the_graph(model, buf, x, y)
    assert sizes == {(8, 16), (4, 8)}


def test_baseline_trainer_runs_no_objective_generator_or_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("called from the baseline trainer")

    # the per-epoch risk report runs the generators on purpose; it is
    # outside the step and stubbed here
    monkeypatch.setattr(tr, "empirical_cpns_risk", lambda *args: None)
    for owner, name in ((tr, "_objective"), (cf, "generate_intra_batch"),
                        (cf, "generate_inter_batch"), (ad, "backward"),
                        (ad, "linear")):
        monkeypatch.setattr(owner, name, refuse)
    model, records = run_two_tasks(tr.train_task_baseline, baseline_cfg())
    assert records[-1]["loss_terms"]["aux"] > 0.0


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
    # batches the loop runs; the reports run unstubbed and gather their
    # pool's frozen rows from the loop's table, running no frozen extractor
    rows = []
    frozen_concat_np = ExpandableModel.frozen_concat_np

    def counting(self, x, **kwargs):
        rows.append(len(x))
        return frozen_concat_np(self, x, **kwargs)

    monkeypatch.setattr(ExpandableModel, "frozen_concat_np", counting)
    cfg = make_cfg(batch_size=batch_size, **kw)
    _, records = run_two_tasks(train_fn, cfg)
    n_cur, n_buf = len(two_task_data()[1][0]), cfg.buffer_capacity
    # the report pool: every buffer row and every current row
    n_pool = min(n_buf, cfg.report_limit) + min(n_cur, cfg.report_limit)
    assert rows == [n_cur, n_buf] * loops
    reports = [r["cpns_report"] for r in records if r["stage"] == 2]
    assert len(reports) == cfg.stage2_epochs + (
        cfg.stage1_epochs if train_fn is tr.train_task_baseline else 0)
    assert all(r["n_inter"] == n_pool for r in reports)


@pytest.mark.parametrize("train_fn, make_cfg, kw, loops", MIXED_LOOPS,
                         ids=MIXED_IDS)
def test_a_report_runs_the_current_extractor_once_over_its_pool(
        monkeypatch, train_fn, make_cfg, kw, loops):
    # both scopes score from that one product, the intra scope its leading
    # current rows; no step runs current_feature_np
    rows, pools = [], []
    current_feature_np = ExpandableModel.current_feature_np
    report = tr.empirical_cpns_risk

    def counting(self, x):
        rows.append(len(x))
        return current_feature_np(self, x)

    def reporting(model, x, *args):
        before = len(rows)
        result = report(model, x, *args)
        assert rows[before:] == [len(x)]
        pools.append((model.current_task, len(x)))
        return result

    monkeypatch.setattr(ExpandableModel, "current_feature_np", counting)
    monkeypatch.setattr(tr, "empirical_cpns_risk", reporting)
    cfg = make_cfg(report_limit=20, **kw)
    _, records = run_two_tasks(train_fn, cfg)
    # 72 rows a task and 30 in the buffer, each capped at 20
    n_reports = cfg.stage2_epochs + (
        cfg.stage1_epochs if train_fn is tr.train_task_baseline else 0)
    assert len(rows) == len(pools)
    assert pools == [(0, 20)] * n_reports + [(1, 40)] * n_reports
    assert [r["cpns_report"]["n_inter"] for r in records
            if r["cpns_report"] is not None] == [40] * n_reports


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


def _old_two_table_batches(x, y, buf, model, batch_size, rng):
    """The mixed batches as the trainers gathered them before the per-loop
    tables: from the task's table and the buffer's apart, concatenated,
    with the aux labels derived per batch."""
    lo, count = model.class_offsets[-1][0], model.current_class_count
    buf_x, buf_y = buf.samples()
    frozen_cur, frozen_buf = (model.frozen_concat_np(x),
                              model.frozen_concat_np(buf_x))
    perm = rng.permutation(len(x))
    for s in range(0, len(x), batch_size):
        idx = perm[s:s + batch_size]
        n_buf = len(buf_x)
        bsel = (np.arange(n_buf) if n_buf <= len(idx)
                else rng.choice(n_buf, size=len(idx), replace=False))
        yb = np.concatenate([y[idx], buf_y[bsel]])
        yield (np.concatenate([x[idx], buf_x[bsel]]), yb, len(idx),
               np.concatenate([frozen_cur[idx], frozen_buf[bsel]]),
               np.where(yb >= lo, yb - lo, count))


@pytest.mark.parametrize("widths", [NARROW, WIDE], ids=["narrow", "wide"])
def test_the_batches_are_the_two_table_gather_bitwise(widths):
    # 72 rows in batches of 16 leave a short last batch of 8; a 12-row
    # buffer goes whole into each full batch (n_buf <= n_c) and is drawn
    # from for the short one
    dim, hidden, feat = widths
    t0, (x, y) = two_task_data(dim=dim)
    model = small_model(seed=2, dim=dim, feat=feat, hidden=hidden)
    model.expand(3)
    buf = tr.RehearsalBuffer(12)
    tr.buffer_commit(buf, t0, model)
    model.expand(3)
    tables = tr._rehearsal_tables(model, x, y, buf, True, False, False)
    rng, old_rng = np.random.default_rng(8), np.random.default_rng(8)
    sizes = []
    for _ in range(2):
        batches = zip(tr._batches(tables, 16, rng),
                      _old_two_table_batches(x, y, buf, model, 16, old_rng),
                      strict=True)
        for got, want in batches:
            xb, yb, n_c, frozen, local = got
            sizes.append((n_c, len(xb)))
            assert n_c == want[2]
            for a, b in zip((xb, yb, frozen, local),
                            (want[0], want[1], want[3], want[4])):
                assert _same_bits(a, b)
    assert sizes == [(16, 28)] * 4 + [(8, 16)] + [(16, 28)] * 4 + [(8, 16)]
    assert rng.bit_generator.state == old_rng.bit_generator.state


def _shrunk(model, head):
    """`model` with the last class of `head` dropped, so that the head's
    last label is one past it."""
    for name in (f"{head}_w", f"{head}_b"):
        model.heads[name] = model.heads[name][:-1].copy()
    return model


def _label_case(case):
    """A model, buffer and task whose first training loop can draw a
    label outside one of the heads it scores."""
    t0, t1 = two_task_data()
    model = small_model(seed=7)
    model.expand(3)
    if case in ("cls", "intra"):  # a current label of the first task
        return _shrunk(model, case), None, t0
    if case == "buffer":  # class 6 in the buffer of a model with classes 0-5
        t0 = (t0[0], np.where(t0[1] == 2, 6, t0[1]))
    buf = tr.RehearsalBuffer(30)
    tr.buffer_commit(buf, t0, model)
    model.expand(3)
    if case == "aux":
        # a rehearsal row's aux label is the class count, one past the
        # current classes; with the head one class short it is outside
        _shrunk(model, "aux")
    return model, buf, t1


# the baseline scores no intra head, so that case runs on train_task alone
@pytest.mark.parametrize("train_fn, case", [
    (tr.train_task, "cls"), (tr.train_task, "intra"),
    (tr.train_task, "buffer"), (tr.train_task, "aux"),
    (tr.train_task_baseline, "cls"), (tr.train_task_baseline, "buffer"),
    (tr.train_task_baseline, "aux")])
def test_a_loop_checks_its_labels_before_its_first_step(monkeypatch, train_fn,
                                                        case):
    steps = []
    monkeypatch.setattr(tr, "optimizer_step", lambda *args: steps.append(1))
    model, buf, task = _label_case(case)
    before = values_of(all_params(model))
    if train_fn is tr.train_task_baseline:
        cfg = baseline_cfg()
    else:
        # stage 1 scores the intra head alone, over the current rows; the
        # other cases need stage 2, the loop that scores cls and aux
        cfg = full_cfg(stage1_epochs=2 if case == "intra" else 0)
    with pytest.raises(InputError, match="out of range"):
        train_fn(model, task, buf, cfg, np.random.default_rng(0))
    assert steps == []
    after = values_of(all_params(model))
    for key in before:
        assert _same_bits(before[key], after[key]), key


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
    records = tr.train_task(model, t1, buf, cfg, rng)
    assert [r["stage"] for r in records] == [1, 1]
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
    frozen = model.extractors[0].params
    snap = {name: p.copy() for name, p in frozen.items()}
    tr.train_task(model, t1, buf, full_cfg(), rng)
    assert snap.keys() == frozen.keys() and len(snap) > 0
    for name in snap:
        np.testing.assert_array_equal(snap[name], frozen[name], err_msg=name)


@pytest.mark.parametrize("train_fn", [tr.train_task, tr.train_task_baseline])
def test_frozen_extractor_drift_fails_both_trainers(monkeypatch, train_fn):
    # no flag keeps the optimizer off a frozen extractor; its arrays are
    # read-only, so a nudge from anywhere in a step must raise where it is
    t0, t1 = two_task_data()
    model = small_model(seed=4)
    buf = tr.RehearsalBuffer(30)
    model.expand(3)
    tr.buffer_commit(buf, t0, model)
    model.expand(3)
    step = tr.optimizer_step

    def drifting_step(state, config):
        step(state, config)
        model.extractors[0].params["w0"][0, 0] += 1e-12

    monkeypatch.setattr(tr, "optimizer_step", drifting_step)
    cfg = full_cfg(stage1_epochs=1, stage2_epochs=1)
    with pytest.raises(ValueError, match="read-only"):
        train_fn(model, t1, buf, cfg, np.random.default_rng(13))


def test_param_set_never_holds_a_frozen_extractor():
    # a separate inter head: every head exists from the second task on
    model = ExpandableModel(input_dim=8, feature_dim=8, hidden_dims=(16,),
                            separate_inter_head=True, seed=4)
    for _ in range(3):
        model.expand(2)
    frozen = {id(ext.params) for ext in model.extractors[:-1]}
    current = {f"f2/{name}" for name in model.extractors[-1].params}
    # every (use_cls, use_intra, use_inter) train_task or the baseline pass
    for flags in itertools.product([False, True], repeat=3):
        params = tr._param_set(model, *flags)
        assert current <= params.keys()
        assert not frozen & {id(d) for d, _ in params.values()}, flags


def test_training_converges_on_separable_task():
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.normal(loc=-3.0, scale=0.4, size=(40, 8)),
                        rng.normal(loc=3.0, scale=0.4, size=(40, 8))])
    y = np.array([0] * 40 + [1] * 40, dtype=np.int64)
    model = small_model(seed=5)
    model.expand(2)
    cfg = full_cfg(stage1_epochs=5, stage2_epochs=40)
    records = tr.train_task(model, (x, y), None, cfg,
                            np.random.default_rng(0))
    pred = np.argmax(model.forward_concat_np(x), axis=1)
    assert np.mean(pred == y) >= 0.95
    stage2 = [r for r in records if r["stage"] == 2]
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
    lines = [json.dumps(rec) for records in results for rec in records]
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
    _, records = run_two_tasks(tr.train_task, cfg)
    assert len(records) == 5
    assert all(r["stage"] == 2 for r in records)


@pytest.mark.parametrize("train_fn", [tr.train_task, tr.train_task_baseline])
def test_trained_parameters_own_their_memory(train_fn):
    # a view would keep the whole flat optimizer vector of its task alive
    model, _ = run_two_tasks(train_fn, full_cfg())
    for name, p in all_params(model).items():
        assert p.flags.owndata, name


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

    def poisoning_step(state, config):
        step(state, config)
        state["params"]["f0/w0"][0, 0] = np.inf

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
    # last epoch's report is populated for the second task
    cfg = full_cfg(lam=0.5, gamma=1.0)
    assert cfg.gen.beta == 0.03
    _, records = run_two_tasks(tr.train_task, cfg)
    rep = records[-1]["cpns_report"]
    assert rep is not None and rep["n_inter"] > 0
    assert rep["m_total"] <= rep["r_total"]


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        tr.TrainConfig(lr=0.0)
    with pytest.raises(ConfigurationError):
        tr.TrainConfig(momentum=1.0)
    with pytest.raises(ConfigurationError):
        tr.TrainConfig(lam=-0.1)
    with pytest.raises(ConfigurationError):
        tr.TrainConfig(buffer_capacity=0)
