"""Expansion, inheritance, head wiring, and checkpoint round-trips."""

import json
import re

import numpy as np
import pytest

import oracles
from conftest import all_params

from cpnslab import autodiff as ad
from cpnslab import model as md
from cpnslab.errors import ConfigurationError, FormatError, InputError, UsageError


def fresh(input_dim=8, d=4, seed=0, **kw):
    return md.ExpandableModel(input_dim=input_dim, feature_dim=d,
                              hidden_dims=(6,), seed=seed, **kw)


def _probe(rng, n, dim):
    return rng.normal(size=(n, dim))


def trainable(m):
    """The current extractor, every head and the projector: the arrays an
    in-place write may change, as `all_params` orders them."""
    return [*m.extractors[-1].params.values(),
            *(m.heads[name] for name in sorted(m.heads))]


# ---------------------------------------------------------------------------
# expand

def test_expand_base_case():
    m = fresh()
    m.expand(10)
    assert m.task_count == 1
    assert m.heads["cls_w"].shape == (10, 4)
    assert m.class_offsets == [(0, 10)]
    assert "aux_w" not in m.heads
    assert "proj_w0" not in m.heads


def test_expand_inherits_classifier_block():
    m = fresh()
    m.expand(10)
    old_w = m.heads["cls_w"].copy()
    old_b = m.heads["cls_b"].copy()
    m.expand(10)
    assert m.task_count == 2
    assert m.heads["cls_w"].shape == (20, 8)
    np.testing.assert_array_equal(m.heads["cls_w"][:10, :4], old_w)
    np.testing.assert_array_equal(m.heads["cls_b"][:10], old_b)
    # old rows see nothing from the new feature block
    np.testing.assert_array_equal(m.heads["cls_w"][:10, 4:],
                                  np.zeros((10, 4)))
    # expanding froze the first extractor and no other array
    assert [name for name, p in all_params(m).items()
            if not p.flags.writeable] == [f"f0/{name}"
                                          for name in m.extractors[0].params]
    assert m.heads["aux_w"].shape == (11, 4)
    assert m.heads["proj_w0"].shape[1] == 4  # t*d with t=1


@pytest.mark.parametrize("shape", [(5, 8), (8,), (0, 8)],
                         ids=["rows", "one-row-1d", "no-rows"])
def test_feature_tables_equal_the_concatenated_features(shape):
    # each extractor's block is written into one table; the bits are those
    # of concatenating the per-extractor features
    m = md.ExpandableModel(input_dim=8, feature_dim=4, hidden_dims=(6, 5),
                           seed=2)
    for _ in range(3):
        m.expand(2)
    x = np.random.default_rng(4).normal(size=shape)
    feats = [ext.forward_np(x) for ext in m.extractors]
    # with `out`, the frozen table is written into the given array
    out = np.empty(shape[:-1] + (8,))
    for got, want in ((m.concat_features_np(x), np.concatenate(feats, axis=-1)),
                      (m.frozen_concat_np(x),
                       np.concatenate(feats[:-1], axis=-1)),
                      (m.frozen_concat_np(x, out=out),
                       np.concatenate(feats[:-1], axis=-1))):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert got is out
    with pytest.raises(UsageError, match="shape"):
        m.frozen_concat_np(x, out=np.empty(shape[:-1] + (12,)))


def test_expansion_alone_preserves_old_logits():
    rng = np.random.default_rng(0)
    m = fresh()
    x = _probe(rng, 5, 8)
    recorded = []
    for _ in range(3):
        m.expand(4)
        recorded.append(m.forward_concat_np(x).copy())
    assert m.concat_features_np(x).shape[-1] == 3 * 4
    # logits of task-j classes straight after expansion j match their values
    # straight after every later expansion (nothing trained in between)
    final = m.forward_concat_np(x)
    for j, snap in enumerate(recorded):
        lo, hi = m.class_offsets[j]
        np.testing.assert_array_equal(final[:, lo:hi], snap[:, lo:hi])


def test_expand_rejects_nonpositive_counts():
    m = fresh()
    with pytest.raises(ConfigurationError):
        m.expand(0)
    with pytest.raises(ConfigurationError):
        m.expand(-3)


# ---------------------------------------------------------------------------
# forward_concat_np

def _manual_extractor(ext, x):
    h = x
    for i in range(ext.n_layers):
        h = h @ ext.params[f"w{i}"].T + ext.params[f"b{i}"]
        if i < ext.n_layers - 1:
            h = np.maximum(h, 0.0)
    return h


def test_forward_concat_single_task_degenerate():
    rng = np.random.default_rng(1)
    m = fresh()
    m.expand(3)
    x = _probe(rng, 4, 8)
    f0 = _manual_extractor(m.extractors[0], x)
    want = f0 @ m.heads["cls_w"].T + m.heads["cls_b"]
    np.testing.assert_array_equal(m.forward_concat_np(x), want)


def test_forward_concat_matches_independent_oracle():
    rng = np.random.default_rng(2)
    m = fresh()
    m.expand(3)
    m.expand(3)
    x = _probe(rng, 6, 8)
    z = np.concatenate([_manual_extractor(e, x) for e in m.extractors], axis=1)
    want = z @ m.heads["cls_w"].T + m.heads["cls_b"]
    np.testing.assert_array_equal(m.forward_concat_np(x), want)


def test_forward_concat_zero_new_block_reduces_to_single_task():
    rng = np.random.default_rng(3)
    m = fresh()
    m.expand(3)
    x = _probe(rng, 4, 8)
    single = m.forward_concat_np(x)
    m.expand(3)
    m.heads["cls_w"][:, 4:] = 0.0  # silence the new feature block
    np.testing.assert_array_equal(m.forward_concat_np(x)[:, :3], single)


def test_forward_concat_dim_mismatch():
    m = fresh()
    m.expand(3)
    with pytest.raises(InputError):
        m.forward_concat_np(np.ones(7))


# ---------------------------------------------------------------------------
# head_np("aux", ...)

def test_forward_aux_requires_second_task():
    m = fresh()
    m.expand(3)
    with pytest.raises(UsageError):
        m.head_np("aux", m.current_feature_np(np.ones((1, 8))))
    with pytest.raises(UsageError):
        oracles.head_graph(m, "aux", ad.leaf(np.ones((1, 4))))


def test_forward_aux_shape_and_oracle():
    rng = np.random.default_rng(4)
    m = fresh()
    m.expand(3)
    m.expand(5)
    x = _probe(rng, 2, 8)
    out = m.head_np("aux", m.current_feature_np(x))
    assert out.shape == (2, 6)  # |C_t| + 1
    c = _manual_extractor(m.extractors[-1], x)
    want = c @ m.heads["aux_w"].T + m.heads["aux_b"]
    np.testing.assert_array_equal(out, want)


def test_aux_loss_gradient_skips_frozen_extractors():
    rng = np.random.default_rng(5)
    m = fresh()
    m.expand(3)
    m.expand(3)
    x = ad.leaf(_probe(rng, 4, 8))
    leaves = oracles.leaves_over(m.extractors[1].params)
    feat = m.current_feature_graph(x, leaves)
    logits = oracles.head_graph(m, "aux", feat)
    loss = oracles.softmax_cross_entropy(logits, [0, 1, 2, 3])
    ad.backward(loss)
    reached = [n.values for n in ad._toposort(loss) if n.op == "leaf"]
    for name, p in m.extractors[0].params.items():
        assert not any(np.shares_memory(p, v) for v in reached), \
            f"frozen param {name} got gradient"
    assert any(leaf.grad.any() for leaf in leaves.values())


# ---------------------------------------------------------------------------
# head_np("intra", ...)

def test_forward_intra_oracle_and_uniform_ce():
    rng = np.random.default_rng(6)
    m = fresh()
    m.expand(4)
    x = _probe(rng, 3, 8)
    c = _manual_extractor(m.extractors[-1], x)
    want = c @ m.heads["intra_w"].T + m.heads["intra_b"]
    np.testing.assert_array_equal(m.head_np("intra", m.current_feature_np(x)),
                                  want)

    m.heads["intra_w"][:] = 0.0
    m.heads["intra_b"][:] = 0.0
    logits = m.head_np("intra", m.current_feature_np(x))
    ce = oracles.softmax_cross_entropy(ad.leaf(logits), np.zeros(3, dtype=int))
    assert abs(float(ce.values) - np.log(4.0)) < 1e-12


def test_forward_intra_ignores_frozen_extractors():
    rng = np.random.default_rng(7)
    m = fresh()
    m.expand(3)
    m.expand(3)
    x = _probe(rng, 3, 8)
    before = m.head_np("intra", m.current_feature_np(x))
    # vandalize the frozen weights: a copy, since the arrays are read-only
    old = m.extractors[0]
    vandal = {name: p + 100.0 for name, p in old.params.items()}
    m.extractors[0] = md.FeatureExtractor(old.layer_dims, vandal)
    assert not np.array_equal(m.extractors[0].forward_np(x),
                              old.forward_np(x))
    np.testing.assert_array_equal(m.head_np("intra", m.current_feature_np(x)),
                                  before)


# ---------------------------------------------------------------------------
# project_values over frozen_concat_np

def test_project_old_requires_second_task():
    m = fresh()
    m.expand(3)
    with pytest.raises(UsageError):
        m.frozen_concat_np(np.ones((1, 8)))
    with pytest.raises(UsageError):
        m.project_values(np.ones((1, 4)))


def test_project_old_zero_map_and_shape():
    rng = np.random.default_rng(8)
    m = fresh()
    m.expand(3)
    m.expand(3)
    m.expand(3)
    x = _probe(rng, 5, 8)
    out = m.project_values(m.frozen_concat_np(x))
    assert out.shape == (5, 4)  # d regardless of t
    m.heads["proj_w1"][:] = 0.0
    m.heads["proj_b1"][:] = 0.0
    np.testing.assert_array_equal(m.project_values(m.frozen_concat_np(x)),
                                  np.zeros((5, 4)))


def test_projector_fits_realizable_target():
    # regression oracle: the target is produced by a projector of the same
    # architecture, so gradient descent should drive the fit error far
    # below its initial value
    rng = np.random.default_rng(9)
    m = fresh(seed=1)
    m.expand(3)
    m.expand(3)
    teacher = fresh(seed=2)
    teacher.expand(3)
    teacher.expand(3)
    x = _probe(rng, 64, 8)
    z_old = m.frozen_concat_np(x)
    target = teacher.project_values(z_old)

    # leaves over the model's arrays: a step on a leaf's values is a step
    # on the model
    leaves = oracles.leaves_over({k: m.heads[k] for k in oracles.PROJECTOR})
    first_err = None
    for _ in range(1200):
        zn = oracles.constant(z_old)
        pred = oracles.projector_graph(m, zn, leaves)
        diff = oracles.sub(pred, oracles.constant(target))
        loss = oracles.scale(oracles.sum_squares(diff), 1.0 / len(x))
        if first_err is None:
            first_err = float(loss.values)
        ad.backward(loss)
        for p in leaves.values():
            p.values -= 0.05 * p.grad
    final_err = float(np.mean(np.sum((m.project_values(z_old) - target) ** 2, axis=1)))
    assert final_err < 0.02 * first_err


# ---------------------------------------------------------------------------
# invariants

def test_frozen_features_stable_under_current_task_updates():
    rng = np.random.default_rng(10)
    m = fresh()
    m.expand(3)
    m.expand(3)
    x = _probe(rng, 4, 8)
    before = m.extractors[0].forward_np(x).copy()
    for t in trainable(m):
        t += rng.normal(size=t.shape)
    np.testing.assert_array_equal(m.extractors[0].forward_np(x), before)


def test_frozen_extractors_refuse_in_place_writes(tmp_path):
    # expand freezes the finished extractor, and loading a checkpoint every
    # extractor but the last; the current extractor and the heads stay
    # writable
    m = fresh().expand(3).expand(2).expand(4)
    path = tmp_path / "m.ckpt"
    md.save_checkpoint(m, path)
    for model in (m, md.load_checkpoint(path)):
        for ext in model.extractors[:-1]:
            for p in ext.params.values():
                with pytest.raises(ValueError, match="read-only"):
                    p[0] = 0.0
                with pytest.raises(ValueError, match="read-only"):
                    p += 1.0
        for p in trainable(model):
            p[0] = p[0]
            p += 0.0


def test_label_ranges_disjoint_and_complete():
    m = fresh()
    m.expand(3)
    m.expand(5)
    m.expand(2)
    assert m.class_offsets == [(0, 3), (3, 8), (8, 10)]


def test_stage_param_views():
    m = fresh()
    m.expand(3)
    m.expand(3)
    everything = all_params(m)
    names = {name for name, _ in everything.items()}
    assert {"cls_w", "aux_w", "proj_w0", "f0/w0"} <= names
    # the view holds the model's arrays
    assert everything["cls_w"] is m.heads["cls_w"]


def test_separate_inter_head_flag():
    rng = np.random.default_rng(11)
    x = _probe(rng, 3, 8)
    tied = fresh(seed=3)
    tied.expand(3)
    tied.expand(3)
    z = tied.concat_features_np(x)
    assert tied.inter_head == "cls" and "inter_w" not in tied.heads
    np.testing.assert_array_equal(tied.head_np(tied.inter_head, z),
                                  tied.forward_concat_np(x))
    sep = fresh(seed=3, separate_inter_head=True)
    sep.expand(3)
    sep.expand(3)
    assert sep.inter_head == "inter" and "inter_w" in sep.heads
    z = sep.concat_features_np(x)
    assert not np.array_equal(sep.head_np(sep.inter_head, z),
                              sep.forward_concat_np(x))


# ---------------------------------------------------------------------------
# checkpointing

def test_checkpoint_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(12)
    m = fresh(seed=42)
    m.expand(3)
    m.expand(5)
    # make values non-trivial
    for t in trainable(m):
        t += rng.normal(size=t.shape)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    md.save_checkpoint(m, p1)
    loaded = md.load_checkpoint(p1)
    md.save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()

    x = rng.normal(size=(4, 8))
    np.testing.assert_array_equal(loaded.forward_concat_np(x),
                                  m.forward_concat_np(x))

    def aux_and_projection(model):
        return (model.head_np("aux", model.current_feature_np(x)),
                model.project_values(model.frozen_concat_np(x)))

    for a, b in zip(aux_and_projection(loaded), aux_and_projection(m)):
        np.testing.assert_array_equal(a, b)
    assert ({name: p.flags.writeable for name, p in all_params(loaded).items()}
            == {name: p.flags.writeable for name, p in all_params(m).items()})
    assert loaded.class_offsets == m.class_offsets


def test_checkpoint_rng_state_round_trip(tmp_path):
    m = fresh(seed=7)
    m.expand(3)
    path = tmp_path / "m.ckpt"
    md.save_checkpoint(m, path)
    loaded = md.load_checkpoint(path)
    np.testing.assert_array_equal(m.rng.normal(size=5), loaded.rng.normal(size=5))


def test_checkpoint_magic_validation(tmp_path):
    m = fresh()
    m.expand(3)
    path = tmp_path / "m.ckpt"
    md.save_checkpoint(m, path)
    doc = path.read_text().replace("CPNSLAB1", "NOTMAGIC")
    bad = tmp_path / "bad.ckpt"
    bad.write_text(doc)
    with pytest.raises(FormatError):
        md.load_checkpoint(bad)
    garbled = tmp_path / "garbled.ckpt"
    garbled.write_text("{not json")
    with pytest.raises(FormatError):
        md.load_checkpoint(garbled)


@pytest.mark.parametrize("edit", [
    lambda text: text[:len(text) // 2],
    lambda text: text.replace("CPNSLAB1", "NOTMAGIC"),
    lambda text: text.replace('"format_version":1', '"format_version":2'),
    lambda text: text.replace('"input_dim"', '"input_dimension"'),
    lambda text: re.sub(r'("cls_b":\{"data":\[)[^,]+', r'\1NaN', text, count=1),
    lambda text: "[]",
], ids=["truncated", "magic", "version", "field", "nan", "root"])
def test_every_checkpoint_format_error_names_the_file(tmp_path, edit):
    path = tmp_path / "m.ckpt"
    md.save_checkpoint(fresh().expand(3).expand(2), path)
    text = path.read_text()
    path.write_text(edit(text))
    assert path.read_text() != text
    with pytest.raises(FormatError,
                       match=f"^checkpoint {re.escape(str(path))}: "):
        md.load_checkpoint(path)


def _drop(key):
    def edit(doc):
        del doc[key]
    return edit


@pytest.mark.parametrize("edit", [
    _drop("heads"),
    _drop("extractors"),
    _drop("input_dim"),
    lambda doc: doc.update(feature_dim="x"),
], ids=["no heads", "no extractors", "no input_dim", "feature_dim x"])
def test_checkpoint_missing_or_mistyped_field_is_format_error(tmp_path, edit):
    m = fresh()
    m.expand(3)
    path = tmp_path / "m.ckpt"
    md.save_checkpoint(m, path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        md.load_checkpoint(path)


@pytest.mark.parametrize("kw", [{}, {"separate_inter_head": True}],
                         ids=["tied inter", "separate inter"])
def test_checkpoint_bytes_equal_one_plain_dump_across_a_stream(tmp_path, kw):
    # save_checkpoint reuses each extractor's params text while its bytes
    # are unchanged; every file must still be the plain document's bytes
    rng = np.random.default_rng(3)
    m = fresh(seed=5, **kw)
    path = tmp_path / "m.ckpt"
    for classes in (3, 2, 4):
        m.expand(classes)
        for t in trainable(m):
            t += rng.normal(size=t.shape)
        md.save_checkpoint(m, path)
        assert path.read_text() == oracles.plain_checkpoint_text(m)
    loaded = md.load_checkpoint(path)
    for name, p in all_params(m).items():
        np.testing.assert_array_equal(all_params(loaded)[name], p)


@pytest.mark.parametrize("change", ["in place", "new array", "reshaped"])
def test_checkpoint_text_follows_a_changed_frozen_extractor(tmp_path, change):
    # the cached text of an extractor is that of its bytes when it is saved;
    # a frozen one refuses an in-place write, so the current one is changed
    rng = np.random.default_rng(4)
    m = fresh(seed=2).expand(3).expand(2)
    for t in trainable(m):
        t += rng.normal(size=t.shape)
    path = tmp_path / "m.ckpt"
    md.save_checkpoint(m, path)
    ext = m.extractors[-1]
    text = ext._encoded[1]
    md.save_checkpoint(m, path)
    assert ext._encoded[1] is text  # reused, not re-encoded
    p = ext.params["b0"]
    if change == "in place":
        p[1] = np.nextafter(p[1], np.inf)
    elif change == "new array":
        ext.params["b0"] = p * 2.0
    else:  # same bytes, other shape
        ext.params["b0"] = p.reshape(1, -1)
    md.save_checkpoint(m, path)
    assert path.read_text() == oracles.plain_checkpoint_text(m)


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["cls_b", "extractor w1", "proj_w0"])
def test_checkpoint_with_a_non_finite_array_is_format_error(tmp_path, value,
                                                            where):
    path = tmp_path / "m.ckpt"
    md.save_checkpoint(fresh().expand(3).expand(2), path)
    doc = json.loads(path.read_text())
    if where == "cls_b":
        doc["heads"]["cls_b"]["data"][2] = value
    elif where == "extractor w1":
        doc["extractors"][0]["params"]["w1"]["data"][1][0] = value
    else:
        doc["heads"]["proj_w0"]["data"][0][3] = value
    # json writes the NaN / Infinity literals python's reader accepts
    path.write_text(json.dumps(doc))
    name = where.split()[-1]
    with pytest.raises(FormatError, match=f"{name}.*NaN or inf"):
        md.load_checkpoint(path)

