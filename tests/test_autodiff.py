"""Gradient checks for the reverse-mode engine.

Every differentiable operation, those of `autodiff` and the graph ops kept
in `oracles` as the trainer's reference, is compared against central
finite differences (h = 1e-5). Individual ops must agree to relative error
1e-5; composites (multi-layer perceptron loss) to 1e-4.
"""

import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import activations, numeric_grad, predictions, rel_err
import oracles

from cpnslab import autodiff as ad
from cpnslab.errors import ConfigurationError, InputError, UsageError
from cpnslab.metrics import input_saliency
from cpnslab.model import ExpandableModel


def _rng(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# linear

def test_linear_identity_passthrough():
    x = ad.leaf([[0.3, -1.2, 4.0]])
    w = ad.leaf(np.eye(3))
    b = ad.leaf(np.zeros(3))
    out = ad.linear(x, w, b)
    np.testing.assert_array_equal(out.values, x.values)


def test_linear_shape_mismatch_raises():
    x = ad.leaf(np.ones((1, 3)))
    w = ad.leaf(np.ones((2, 4)))
    b = ad.leaf(np.zeros(2))
    with pytest.raises(ConfigurationError):
        ad.linear(x, w, b)
    with pytest.raises(ConfigurationError):
        ad.linear(ad.leaf(np.ones((1, 4))), w, ad.leaf(np.zeros(3)))
    with pytest.raises(UsageError):  # a single sample is a one-row batch
        ad.linear(ad.leaf(np.ones(4)), w, b)


@pytest.mark.parametrize("seed", range(5))
def test_linear_component_grads_vs_fd(seed):
    # d(out_i)/d(x_j), d(out_i)/d(W), d(out_i)/d(b) against central
    # differences, one output component at a time via the batch picker.
    rng = _rng(seed)
    n_in, n_out = 4, 3
    xv = rng.normal(size=(1, n_in))
    wv = rng.normal(size=(n_out, n_in))
    bv = rng.normal(size=n_out)
    for i in range(n_out):
        x, w, b = ad.leaf(xv), ad.leaf(wv), ad.leaf(bv)
        root = oracles.sum_picked(ad.linear(x, w, b), [i])
        ad.backward(root)

        gx = numeric_grad(lambda v: (v @ wv.T + bv)[0, i], xv)
        gw = numeric_grad(lambda v: (xv @ v.T + bv)[0, i], wv)
        gb = numeric_grad(lambda v: (xv @ wv.T + v)[0, i], bv)
        assert rel_err(x.grad, gx) < 1e-5
        assert rel_err(w.grad, gw) < 1e-5
        assert rel_err(b.grad, gb) < 1e-5


def test_linear_batched_grads_vs_fd():
    rng = _rng(7)
    xv = rng.normal(size=(5, 4))
    wv = rng.normal(size=(3, 4))
    bv = rng.normal(size=3)
    x, w, b = ad.leaf(xv), ad.leaf(wv), ad.leaf(bv)
    root = oracles.sum_squares(ad.linear(x, w, b))
    ad.backward(root)

    def f(part, which):
        parts = {"x": xv, "w": wv, "b": bv, which: part}
        out = parts["x"] @ parts["w"].T + parts["b"]
        return float(np.sum(out * out))

    assert rel_err(x.grad, numeric_grad(lambda v: f(v, "x"), xv)) < 1e-5
    assert rel_err(w.grad, numeric_grad(lambda v: f(v, "w"), wv)) < 1e-5
    assert rel_err(b.grad, numeric_grad(lambda v: f(v, "b"), bv)) < 1e-5


# ---------------------------------------------------------------------------
# relu

def test_relu_subgradient_at_zero_is_zero():
    x = ad.leaf([[-1.0, 0.0, 2.0]])
    ones = ad.leaf(np.ones((1, 3)))
    zero = ad.leaf(np.zeros(1))
    root = ad.linear(ad.relu(x), ones, zero)
    ad.backward(root)
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])


@pytest.mark.parametrize("seed", range(5))
def test_relu_grads_vs_fd_away_from_zero(seed):
    rng = _rng(100 + seed)
    xv = rng.normal(size=6)
    xv[np.abs(xv) < 1e-2] = 0.5  # keep clear of the kink
    x = ad.leaf(xv)
    root = oracles.sum_squares(ad.relu(x))
    ad.backward(root)
    g = numeric_grad(lambda v: float(np.sum(np.maximum(v, 0.0) ** 2)), xv)
    assert rel_err(x.grad, g) < 1e-5


# ---------------------------------------------------------------------------
# softmax cross-entropy

def test_ce_uniform_logits_is_log_k():
    logits = ad.leaf(np.zeros((1, 4)))
    out = oracles.softmax_cross_entropy(logits, [2])
    assert abs(float(out.values) - np.log(4.0)) < 1e-12


def test_ce_label_out_of_range():
    with pytest.raises(InputError):
        oracles.softmax_cross_entropy(ad.leaf(np.zeros((1, 4))), [4])
    with pytest.raises(InputError):
        oracles.softmax_cross_entropy(ad.leaf(np.zeros((2, 4))), [0, -1])
    with pytest.raises(UsageError):  # a single sample is a one-row batch
        oracles.softmax_cross_entropy(ad.leaf(np.zeros(4)), 0)


def test_ce_extreme_logits_stay_finite():
    logits = ad.leaf([[1000.0, -1000.0, 0.0]])
    out = oracles.softmax_cross_entropy(logits, [1])
    ad.backward(out)
    assert np.isfinite(float(out.values))
    assert np.all(np.isfinite(logits.grad))


@pytest.mark.parametrize("seed", range(5))
def test_ce_grads_vs_fd(seed):
    rng = _rng(200 + seed)
    lv = rng.normal(size=(1, 5)) * 2.0
    y = int(rng.integers(5))
    logits = ad.leaf(lv)
    ad.backward(oracles.softmax_cross_entropy(logits, [y]))

    def f(v):
        s = v[0] - v.max()
        return float(np.log(np.exp(s).sum()) - s[y])

    assert rel_err(logits.grad, numeric_grad(f, lv)) < 1e-5


def test_ce_batched_grads_vs_fd():
    rng = _rng(3)
    lv = rng.normal(size=(4, 5))
    ys = rng.integers(5, size=4)
    logits = ad.leaf(lv)
    ad.backward(oracles.softmax_cross_entropy(logits, ys))

    def f(v):
        s = v - v.max(axis=1, keepdims=True)
        lse = np.log(np.exp(s).sum(axis=1))
        return float((lse - s[np.arange(4), ys]).mean())

    assert rel_err(logits.grad, numeric_grad(f, lv)) < 1e-5


# ---------------------------------------------------------------------------
# KL between softmax distributions

def _kl_np(a, b):
    def ls(x):
        s = x - x.max(axis=-1, keepdims=True)
        return s - np.log(np.exp(s).sum(axis=-1, keepdims=True))
    la, lb = ls(a), ls(b)
    return float(np.sum(np.exp(la) * (la - lb), axis=-1).mean())


def test_kl_zero_on_shifted_logits():
    a = np.array([[0.2, -1.0, 3.0]])
    out = oracles.kl_softmax(ad.leaf(a), ad.leaf(a + 5.0))
    assert abs(float(out.values)) < 1e-12


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=6),
       st.lists(st.floats(-30, 30), min_size=2, max_size=6))
@settings(max_examples=200, deadline=None)
def test_kl_nonnegative(a, b):
    k = min(len(a), len(b))
    val = float(oracles.kl_softmax(ad.leaf([a[:k]]), ad.leaf([b[:k]])).values)
    assert val >= -1e-12


@pytest.mark.parametrize("seed", range(5))
def test_kl_grads_both_args_vs_fd(seed):
    rng = _rng(300 + seed)
    av = rng.normal(size=(1, 5))
    bv = rng.normal(size=(1, 5))
    a, b = ad.leaf(av), ad.leaf(bv)
    ad.backward(oracles.kl_softmax(a, b))
    assert rel_err(a.grad, numeric_grad(lambda v: _kl_np(v, bv), av)) < 1e-5
    assert rel_err(b.grad, numeric_grad(lambda v: _kl_np(av, v), bv)) < 1e-5


def test_kl_batched_grads_vs_fd():
    rng = _rng(11)
    av = rng.normal(size=(3, 4))
    bv = rng.normal(size=(3, 4))
    a, b = ad.leaf(av), ad.leaf(bv)
    ad.backward(oracles.kl_softmax(a, b))
    assert rel_err(a.grad, numeric_grad(lambda v: _kl_np(v, bv), av)) < 1e-5
    assert rel_err(b.grad, numeric_grad(lambda v: _kl_np(av, v), bv)) < 1e-5


# ---------------------------------------------------------------------------
# -log(1 - p_y)

def _nlcp_np(v, y, eps=1e-12):
    s = v - v.max()
    p = np.exp(s) / np.exp(s).sum()
    return float(-np.log(1.0 - p[y] + eps))


def test_neglog_complement_uniform_two_class():
    out = oracles.neglog_complement_prob(ad.leaf(np.zeros((1, 2))), [0])
    assert abs(float(out.values) - (-np.log(0.5 + 1e-12))) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_neglog_complement_grads_vs_fd(seed):
    rng = _rng(400 + seed)
    lv = rng.normal(size=(1, 5))
    y = int(rng.integers(5))
    logits = ad.leaf(lv)
    ad.backward(oracles.neglog_complement_prob(logits, [y]))
    g = numeric_grad(lambda v: _nlcp_np(v[0], y), lv)
    assert rel_err(logits.grad, g) < 1e-5


def test_neglog_complement_batched_grads_vs_fd():
    rng = _rng(12)
    lv = rng.normal(size=(4, 3))
    ys = rng.integers(3, size=4)
    logits = ad.leaf(lv)
    ad.backward(oracles.neglog_complement_prob(logits, ys))
    g = numeric_grad(
        lambda v: float(np.mean([_nlcp_np(v[i], ys[i]) for i in range(4)])), lv)
    assert rel_err(logits.grad, g) < 1e-5


# ---------------------------------------------------------------------------
# structural ops

def test_sum_squares_anchor():
    x = ad.leaf([1.0, 2.0])
    out = oracles.sum_squares(x)
    assert float(out.values) == 5.0
    ad.backward(out)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_concat_routes_gradients():
    rng = _rng(13)
    av, bv = rng.normal(size=(1, 3)), rng.normal(size=(1, 2))
    a, b = ad.leaf(av), ad.leaf(bv)
    ad.backward(oracles.sum_squares(oracles.concat([a, b])))
    joint = np.concatenate([av, bv], axis=1)
    g = numeric_grad(lambda v: float(np.sum(v * v)), joint)
    assert rel_err(a.grad, g[:, :3]) < 1e-5
    assert rel_err(b.grad, g[:, 3:]) < 1e-5


def test_concat_batched_routes_gradients():
    rng = _rng(14)
    av, bv = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
    a, b = ad.leaf(av), ad.leaf(bv)
    ad.backward(oracles.sum_squares(oracles.concat([a, b])))
    np.testing.assert_allclose(a.grad, 2.0 * av, rtol=1e-12)
    np.testing.assert_allclose(b.grad, 2.0 * bv, rtol=1e-12)


def test_concat_row_mismatch_raises():
    with pytest.raises(ConfigurationError):
        oracles.concat([ad.leaf(np.ones((2, 3))), ad.leaf(np.ones((3, 3)))])
    with pytest.raises(UsageError):  # a single sample is a one-row batch
        oracles.concat([ad.leaf(np.ones(3)), ad.leaf(np.ones(2))])


def test_add_sub_scale_composite_vs_fd():
    rng = _rng(15)
    av, bv = rng.normal(size=4), rng.normal(size=4)
    a, b = ad.leaf(av), ad.leaf(bv)
    root = oracles.sum_squares(
        oracles.add(oracles.scale(a, 3.0), oracles.sub(a, b)))
    ad.backward(root)

    def f(x, y):
        return float(np.sum((3.0 * x + (x - y)) ** 2))

    assert rel_err(a.grad, numeric_grad(lambda v: f(v, bv), av)) < 1e-5
    assert rel_err(b.grad, numeric_grad(lambda v: f(av, v), bv)) < 1e-5


def test_sum_picked_grads():
    rng = _rng(16)
    mv = rng.normal(size=(3, 4))
    idx = [1, 0, 3]
    m = ad.leaf(mv)
    ad.backward(oracles.sum_picked(m, idx))
    want = np.zeros_like(mv)
    want[np.arange(3), idx] = 1.0
    np.testing.assert_array_equal(m.grad, want)


def test_add_scalars_combines_losses():
    x = ad.leaf([1.0, 2.0])
    t1 = oracles.sum_squares(x)
    t2 = oracles.scale(oracles.sum_squares(x), 0.5)
    root = oracles.add_scalars([t1, t2])
    assert abs(float(root.values) - 7.5) < 1e-12
    ad.backward(root)
    np.testing.assert_allclose(x.grad, 1.5 * np.array([2.0, 4.0]), rtol=1e-12)


# ---------------------------------------------------------------------------
# composite: 3-layer perceptron loss, every parameter against fd

def test_mlp_composite_all_params_vs_fd():
    rng = _rng(99)
    dims = [5, 6, 4, 3]
    xv = rng.normal(size=(4, dims[0]))
    ys = rng.integers(dims[-1], size=4)
    params = [(rng.normal(size=(dims[i + 1], dims[i])) * 0.5,
               rng.normal(size=dims[i + 1]) * 0.1) for i in range(3)]

    def run(pv):
        ws = [ad.leaf(w) for w, _ in pv]
        bs = [ad.leaf(b) for _, b in pv]
        h = ad.leaf(xv)
        for i in range(3):
            h = ad.linear(h, ws[i], bs[i])
            if i < 2:
                h = ad.relu(h)
        loss = oracles.softmax_cross_entropy(h, ys)
        ad.backward(loss)
        return float(loss.values), ws, bs

    _, ws, bs = run(params)

    def loss_np(pv):
        h = xv
        for i, (w, b) in enumerate(pv):
            h = h @ w.T + b
            if i < 2:
                h = np.maximum(h, 0.0)
        s = h - h.max(axis=1, keepdims=True)
        lse = np.log(np.exp(s).sum(axis=1))
        return float((lse - s[np.arange(4), ys]).mean())

    worst = 0.0
    for i in range(3):
        gw = numeric_grad(
            lambda v, i=i: loss_np([(v if j == i else params[j][0],
                                     params[j][1]) for j in range(3)]),
            params[i][0])
        gb = numeric_grad(
            lambda v, i=i: loss_np([(params[j][0],
                                     v if j == i else params[j][1]) for j in range(3)]),
            params[i][1])
        worst = max(worst, rel_err(ws[i].grad, gw), rel_err(bs[i].grad, gb))
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# traversal semantics

def test_backward_requires_scalar_root():
    x = ad.leaf(np.ones(3))
    with pytest.raises(UsageError):
        ad.backward(ad.relu(x))


def test_shared_subgraph_accumulates_once_per_path():
    # y = sum_squares(x) used twice through add_scalars: grads double.
    x = ad.leaf([1.0, 2.0])
    t = oracles.sum_squares(x)
    ad.backward(oracles.add_scalars([t, t]))
    np.testing.assert_array_equal(x.grad, [4.0, 8.0])


def test_grad_wrt_intermediate_matches_fd():
    rng = _rng(21)
    xv = rng.normal(size=(2, 3))
    wv = rng.normal(size=(4, 3))
    bv = rng.normal(size=4)
    x, w, b = ad.leaf(xv), ad.leaf(wv), ad.leaf(bv)
    z = ad.linear(x, w, b)
    root = oracles.sum_squares(ad.relu(z))
    ad.backward(root)
    g = z.grad
    zv = xv @ wv.T + bv
    zv[np.abs(zv) < 1e-2] += 0.1  # nudge off the relu kink for fd
    want = numeric_grad(lambda v: float(np.sum(np.maximum(v, 0.0) ** 2)), zv)
    got = 2.0 * np.maximum(zv, 0.0)  # closed form on the nudged point
    assert rel_err(got, want) < 1e-5
    # the graph's own intermediate gradient matches its closed form exactly
    np.testing.assert_allclose(g, 2.0 * np.maximum(x.values @ wv.T + bv, 0.0),
                               rtol=1e-12)


# ---------------------------------------------------------------------------
# gradient buffers: backward writes one on every node it reaches, fresh on
# each call; constants never get one

def _eager_backward(root):
    """Reference pass with a zero buffer on every visited node, as a fully
    eager engine would run it; the closures then only ever add."""
    order = ad._toposort(root)
    for node in order:
        node.grad = np.zeros_like(node.values)
    root.grad += 1.0
    for node in reversed(order):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)


def _shared_graph(seed=31):
    """z = x @ w.T + b feeds two consumers; returns (x, w, b, z, root)."""
    rng = _rng(seed)
    x = ad.leaf(rng.normal(size=(3, 4)))
    w = ad.leaf(rng.normal(size=(5, 4)))
    b = ad.leaf(rng.normal(size=5))
    z = ad.linear(x, w, b)
    root = oracles.add_scalars([oracles.sum_squares(z),
                           oracles.sum_picked(z, [0, 4, 2])])
    return x, w, b, z, root


def test_no_node_has_a_gradient_before_backward():
    x, w, b, z, root = _shared_graph()
    assert all(t.grad is None for t in (x, w, b, z, root))


def test_leaf_the_root_does_not_reach_keeps_no_gradient():
    rng = _rng(35)
    x, unused = ad.leaf(rng.normal(size=(2, 3))), ad.leaf(rng.normal(size=3))
    ad.backward(oracles.sum_squares(x))
    assert unused.grad is None
    np.testing.assert_array_equal(x.grad, 2.0 * x.values)


def test_constant_input_gets_no_gradient_and_no_input_product():
    calls = []

    class Spy(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            calls.append(ufunc.__name__)
            inputs = tuple(np.asarray(v) for v in inputs)
            return getattr(ufunc, method)(*inputs, **kwargs)

    rng = _rng(32)
    xv, wv, bv = rng.normal(size=(3, 4)), rng.normal(size=(5, 4)), rng.normal(size=5)
    for make, want_calls in ((oracles.constant, []), (ad.leaf, ["matmul"])):
        x, w, b = make(xv), ad.leaf(wv), ad.leaf(bv)
        out = ad.linear(x, w, b)
        w.values = w.values.view(Spy)  # only `go @ w.values` reads it now
        calls.clear()
        ad.backward(oracles.sum_squares(out))
        assert calls == want_calls
        np.testing.assert_array_equal(w.grad, 2.0 * out.values.T @ xv)
    const = oracles.constant(xv)
    ad.backward(oracles.sum_squares(oracles.add(ad.leaf(xv), const)))
    assert const.grad is None


def test_shared_interior_node_sums_both_contributions():
    x, w, b, z, root = _shared_graph()
    ad.backward(root)
    want = 2.0 * z.values
    want[[0, 1, 2], [0, 4, 2]] += 1.0
    np.testing.assert_array_equal(z.grad, want)
    np.testing.assert_array_equal(x.grad, want @ w.values)
    np.testing.assert_array_equal(b.grad, want.sum(axis=0))


def test_repeated_backward_gives_the_same_leaf_and_interior_gradients():
    x, w, b, z, root = _shared_graph()
    ad.backward(root)
    once = [t.grad.copy() for t in (x, w, b, z)]
    ad.backward(root)
    for t, g in zip((x, w, b, z), once):
        np.testing.assert_array_equal(t.grad, g)
    # a second root over the same leaves replaces their gradient, too
    ad.backward(oracles.sum_squares(x))
    np.testing.assert_array_equal(x.grad, 2.0 * x.values)


def test_a_dropped_graph_is_freed_without_the_cycle_collector():
    # closures get their node's gradient as an argument and hold only the
    # parents, so a graph has no reference cycle to wait for gc with
    rng = _rng(36)
    x = ad.leaf(rng.normal(size=(4, 3)))
    w0, b0 = ad.leaf(rng.normal(size=(5, 3))), ad.leaf(rng.normal(size=5))
    w1, b1 = ad.leaf(rng.normal(size=(2, 5))), ad.leaf(rng.normal(size=2))
    gc.disable()
    try:
        hidden = ad.relu(ad.linear(x, w0, b0))
        root = oracles.softmax_cross_entropy(ad.linear(hidden, w1, b1),
                                             [0, 1, 1, 0])
        ad.backward(root)
        ref = weakref.ref(hidden)
        del hidden
        assert ref() is not None  # the root still reaches it
        del root
        assert ref() is None
    finally:
        gc.enable()
    assert x.grad is not None and w0.grad is not None


def test_take_rows_into_untouched_parent_zeros_outside_slice():
    rng = _rng(33)
    x = ad.leaf(rng.normal(size=(5, 3)))
    a = ad.linear(x, ad.leaf(rng.normal(size=(2, 3))), ad.leaf(np.zeros(2)))
    r = oracles.take_rows(a, 1, 3)
    ad.backward(oracles.sum_squares(r))
    np.testing.assert_array_equal(a.grad[1:3], 2.0 * r.values)
    assert not a.grad[:1].any() and not a.grad[3:].any()


def test_lazy_buffers_match_eager_pass_bitwise():
    # the saliency graph runs every extractor and the concat; lazy buffers
    # must not move a bit of the input gradient it reports, and the closed
    # form must give the same bits, which from three tasks on holds only
    # in the graph's order of summation over the extractors
    for hidden_dims, tasks in itertools.product([(), (16,)], [1, 2, 3, 5]):
        model = ExpandableModel(input_dim=6, feature_dim=8,
                                hidden_dims=hidden_dims, seed=tasks)
        for _ in range(tasks):
            model.expand(3)
        xv = _rng(34).normal(size=(64, 6))
        want = oracles.graph_saliency(model, xv, backward=_eager_backward)
        case = f"hidden_dims={hidden_dims}, tasks={tasks}"
        np.testing.assert_array_equal(oracles.graph_saliency(model, xv), want,
                                      err_msg=case)
        acts = activations(model, xv)
        saliency = input_saliency(model, acts, predictions(model, acts))
        np.testing.assert_array_equal(saliency, want, err_msg=case)
