"""Stream generator and loader tests: overlap calibration, the spurious
shortcut trap audited by a linear probe, split arithmetic, and the tabular
round trip."""

import builtins
import os

import numpy as np
import pytest

import audits

from cpnslab import data as dt
from cpnslab.errors import (ConfigurationError, FormatError, InputError,
                            ParseError)


def cfg(**kw):
    kw.setdefault("classes_per_task", 2)
    kw.setdefault("num_tasks", 3)
    kw.setdefault("d_c", 2)
    kw.setdefault("d_s", 8)
    kw.setdefault("d_mc", 1)
    kw.setdefault("input_dim", 32)
    kw.setdefault("n_train_per_class", 60)
    kw.setdefault("n_test_per_class", 40)
    return dt.SyntheticScmConfig(**kw)


# ---------------------------------------------------------------------------
# config and geometry validation

def test_config_rejects_bad_fields():
    with pytest.raises(ConfigurationError):
        cfg(d_mc=2)  # must stay below d_c
    with pytest.raises(ConfigurationError):
        cfg(overlap=1.5)
    with pytest.raises(ConfigurationError):
        cfg(spurious_strength=-0.1)
    with pytest.raises(ConfigurationError):
        cfg(noise_sigma=-1.0)
    with pytest.raises(ConfigurationError):
        cfg(num_tasks=0)


def test_infeasible_geometry_rejected():
    # 2 consecutive frames of 8*4 causal dims plus spurious cannot fit in 32
    with pytest.raises(ConfigurationError):
        dt.gen_scm_stream(cfg(classes_per_task=8, d_c=4, d_s=8, input_dim=32))


# ---------------------------------------------------------------------------
# overlap calibration

def test_overlap_matches_configuration():
    for target in (0.0, 0.3, 0.7, 1.0):
        stream = dt.gen_scm_stream(cfg(overlap=target, seed=3))
        measured = audits.consecutive_overlap(stream)
        assert measured.shape == (2,)
        np.testing.assert_allclose(measured, target, atol=1e-6)


def test_zero_overlap_gives_orthogonal_subspaces():
    stream = dt.gen_scm_stream(cfg(overlap=0.0, seed=1))
    dirs = stream.factor_annotations["class_directions"]
    for t in range(2):
        old = np.concatenate([dirs[g] for g in range(2 * t, 2 * t + 2)])
        new = np.concatenate([dirs[g] for g in range(2 * t + 2, 2 * t + 4)])
        assert np.max(np.abs(old @ new.T)) < 1e-10


def test_class_directions_orthonormal_within_task():
    stream = dt.gen_scm_stream(cfg(seed=2))
    dirs = stream.factor_annotations["class_directions"]
    for t in range(3):
        frame = np.concatenate([dirs[g] for g in range(2 * t, 2 * t + 2)])
        gram = frame @ frame.T
        np.testing.assert_allclose(gram, np.eye(len(frame)), atol=1e-10)


def test_empirical_prototypes_track_annotations():
    # class means recover the annotated prototypes up to sampling noise
    stream = dt.gen_scm_stream(cfg(seed=4, n_train_per_class=400,
                                   spurious_strength=0.0))
    ann = stream.factor_annotations
    causal_cols = [i for i, tag in enumerate(ann["dim_tags"])
                   if tag in ("causal", "minimal_causal")]
    (x, y), _, (lo, hi) = stream.tasks[0]
    for g in range(lo, hi):
        mean = x[y == g].mean(axis=0)
        proto = ann["class_prototypes"][g]
        np.testing.assert_allclose(mean[causal_cols], proto[causal_cols],
                                   atol=0.15)
        assert np.max(np.abs(proto)) > 0.5


# ---------------------------------------------------------------------------
# shortcut trap

def test_full_strength_spurious_block_separates_train_only():
    stream = dt.gen_scm_stream(cfg(spurious_strength=1.0, seed=5))
    _, train_acc, test_acc = audits.spurious_gap(stream)
    assert train_acc == 1.0
    assert abs(test_acc - 1.0 / 6.0) < 0.1  # chance for 6 classes


def test_spurious_gap_certifies_the_trap():
    stream = dt.gen_scm_stream(cfg(spurious_strength=0.95, seed=6))
    gap, train_acc, test_acc = audits.spurious_gap(stream)
    assert gap > 0.4
    assert train_acc > 0.9


def test_minimal_causal_block_alone_separates_train():
    stream = dt.gen_scm_stream(cfg(seed=7))
    ann = stream.factor_annotations
    cols = [i for i, t in enumerate(ann["dim_tags"]) if t == "minimal_causal"]
    xtr = np.concatenate([tr[0][:, cols] for tr, _, _ in stream.tasks])
    ytr = np.concatenate([tr[1] for tr, _, _ in stream.tasks])
    assert audits.linear_probe_accuracy(xtr, ytr, xtr, ytr, 6) >= 0.95


def test_noise_block_carries_no_signal():
    stream = dt.gen_scm_stream(cfg(seed=8))
    ann = stream.factor_annotations
    cols = [i for i, t in enumerate(ann["dim_tags"]) if t == "noise"]
    assert cols, "configuration should leave pure-noise dimensions"
    (xtr, ytr), (xte, yte), _ = stream.tasks[0]
    acc = audits.linear_probe_accuracy(xtr[:, cols], ytr, xte[:, cols], yte, 2)
    assert abs(acc - 0.5) < 0.2


# ---------------------------------------------------------------------------
# stream structure

def test_stream_shapes_ranges_and_tags():
    stream = dt.gen_scm_stream(cfg(seed=9))
    assert len(stream.tasks) == 3
    for t, ((xtr, ytr), (xte, yte), (lo, hi)) in enumerate(stream.tasks):
        assert (lo, hi) == (2 * t, 2 * t + 2)
        assert xtr.shape == (120, 32) and xte.shape == (80, 32)
        assert set(np.unique(ytr)) == {lo, lo + 1}
    tags = stream.factor_annotations["dim_tags"]
    assert set(tags) == set(dt.DIM_TAGS)
    assert len(tags) == 32


def test_seed_determinism_and_sensitivity():
    a = dt.gen_scm_stream(cfg(seed=11))
    b = dt.gen_scm_stream(cfg(seed=11))
    c = dt.gen_scm_stream(cfg(seed=12))
    for (tra, _, _), (trb, _, _), (trc, _, _) in zip(a.tasks, b.tasks, c.tasks):
        np.testing.assert_array_equal(tra[0], trb[0])
        np.testing.assert_array_equal(tra[1], trb[1])
        assert not np.array_equal(tra[0], trc[0])


def test_stream_rejects_overlapping_ranges():
    x = np.zeros((2, 3))
    y = np.array([0, 1])
    t0 = ((x, y), (x, y), (0, 2))
    t1 = ((x, y + 1), (x, y + 1), (1, 3))
    with pytest.raises(InputError):
        dt.TaskStream(tasks=[t0, t1])


def test_stream_rejects_labels_outside_range():
    x = np.zeros((2, 3))
    t0 = ((x, np.array([0, 5])), (x, np.array([0, 1])), (0, 2))
    with pytest.raises(InputError):
        dt.TaskStream(tasks=[t0])


def test_stream_rejects_a_count_mismatch_and_an_empty_range():
    x, y = np.zeros((3, 3)), np.array([0, 1])
    with pytest.raises(InputError, match="train: 3 samples vs 2 labels"):
        dt.TaskStream(tasks=[((x, y), (x[:2], y), (0, 2))])
    with pytest.raises(InputError, match="empty label range"):
        dt.TaskStream(tasks=[((x[:2], y), (x[:2], y), (2, 2))])


# ---------------------------------------------------------------------------
# split_tasks

def fake_dataset(n_classes, n_per=6, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    y = np.repeat(np.arange(n_classes), n_per)
    x = rng.normal(size=(len(y), dim))
    return (x, y), (x.copy(), y.copy())


def test_split_equal_ten_ten():
    stream = dt.split_tasks(fake_dataset(100), 10, 10)
    assert len(stream.tasks) == 10
    assert all(hi - lo == 10 for _, _, (lo, hi) in stream.tasks)


def test_split_half_fifty_ten():
    stream = dt.split_tasks(fake_dataset(100), 50, 10)
    assert len(stream.tasks) == 6
    widths = [hi - lo for _, _, (lo, hi) in stream.tasks]
    assert widths == [50, 10, 10, 10, 10, 10]


def test_split_drops_surplus_classes():
    stream = dt.split_tasks(fake_dataset(101), 10, 10)
    assert len(stream.tasks) == 10
    kept = sum(len(tr[1]) for tr, _, _ in stream.tasks)
    assert kept == 100 * 6  # one class's samples are gone


def test_split_relabels_consistently():
    (xtr, ytr), test = fake_dataset(7, n_per=4)
    stream = dt.split_tasks(((xtr, ytr), test), 3, 2, seed=5)
    assert len(stream.tasks) == 3
    for (sx, sy), _, (lo, hi) in stream.tasks:
        assert set(np.unique(sy)) == set(range(lo, hi))
        # samples that shared an original class still share a label
        for new_label in np.unique(sy):
            rows = sx[sy == new_label]
            orig = {int(ytr[np.where((xtr == r).all(axis=1))[0][0]])
                    for r in rows}
            assert len(orig) == 1


def test_split_seed_controls_order():
    a = dt.split_tasks(fake_dataset(20), 5, 5, seed=1)
    b = dt.split_tasks(fake_dataset(20), 5, 5, seed=1)
    c = dt.split_tasks(fake_dataset(20), 5, 5, seed=2)
    ya = a.tasks[0][0][1]
    np.testing.assert_array_equal(ya, b.tasks[0][0][1])
    assert not np.array_equal(a.tasks[0][0][0], c.tasks[0][0][0])


def test_split_validation():
    with pytest.raises(ConfigurationError):
        dt.split_tasks(fake_dataset(10), 0, 5)
    with pytest.raises(ConfigurationError):
        dt.split_tasks(fake_dataset(10), 5, -1)
    with pytest.raises(ConfigurationError):
        dt.split_tasks(fake_dataset(10), 11, 5)
    with pytest.raises(InputError):
        dt.split_tasks(np.zeros(3), 1, 1)


# ---------------------------------------------------------------------------
# tabular format

def test_table_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1000, 7)) * 10.0 ** rng.integers(-8, 8, size=(1000, 7))
    y = rng.integers(0, 5, size=1000)
    path = tmp_path / "t.tab"
    dt.save_table(path, x, y, 5)
    loaded = dt.load_table(path)
    np.testing.assert_array_equal(loaded.x, x)
    np.testing.assert_array_equal(loaded.y, y)
    assert loaded.n_classes == 5 and loaded.dim_tags is None


def test_table_sidecar_roundtrip(tmp_path):
    x = np.array([[1.5, -2.25, 0.0], [3.0, 4.0, 5.0]])
    y = np.array([0, 1])
    tags = ["causal", "spurious", "noise"]
    path = tmp_path / "t.tab"
    dt.save_table(path, x, y, 2, dim_tags=tags)
    loaded = dt.load_table(path)
    assert len(loaded) == 2
    assert loaded.dim_tags == tags


def test_untagged_save_over_a_tagged_table_reads_back_untagged(tmp_path):
    # the earlier save's sidecar must not lend its tags to the new table
    path = tmp_path / "t.tab"
    dt.save_table(path, np.ones((2, 2)), np.array([0, 1]), 2,
                  dim_tags=["causal", "noise"])
    x = np.array([[1.5, -2.25], [3.0, 4.0]])
    dt.save_table(path, x, np.array([1, 0]), 2)
    loaded = dt.load_table(path)
    assert loaded.dim_tags is None
    np.testing.assert_array_equal(loaded.x, x)
    assert os.listdir(tmp_path) == ["t.tab"]


def test_table_two_rows(tmp_path):
    path = tmp_path / "t.tab"
    path.write_text("cpns-tab v1 dims=2 classes=3\n0 1.0 2.0\n2 -1.0 0.5\n")
    loaded = dt.load_table(path)
    assert len(loaded) == 2
    np.testing.assert_array_equal(loaded.y, [0, 2])


def test_table_parse_error_names_line(tmp_path):
    path = tmp_path / "t.tab"
    path.write_text("cpns-tab v1 dims=2 classes=3\n0 1.0 2.0\n1 oops 0.5\n")
    with pytest.raises(ParseError, match="line 3"):
        dt.load_table(path)


def test_table_dim_mismatch_is_format_error(tmp_path):
    path = tmp_path / "t.tab"
    path.write_text("cpns-tab v1 dims=2 classes=3\n0 1.0 2.0 3.0\n")
    with pytest.raises(FormatError, match="line 2"):
        dt.load_table(path)


def test_table_label_out_of_range(tmp_path):
    path = tmp_path / "t.tab"
    path.write_text("cpns-tab v1 dims=1 classes=2\n5 1.0\n")
    with pytest.raises(FormatError, match="label 5"):
        dt.load_table(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "Infinity"])
def test_table_non_finite_feature_is_format_error(tmp_path, value):
    path = tmp_path / "t.tab"
    path.write_text(f"cpns-tab v1 dims=2 classes=3\n0 1.0 2.0\n"
                    f"1 0.5 {value}\n")
    with pytest.raises(FormatError, match="line 3: non-finite"):
        dt.load_table(path)


@pytest.mark.parametrize("sidecar", [False, True], ids=["table", "sidecar"])
def test_table_undecodable_text_is_parse_error(tmp_path, sidecar):
    path = tmp_path / "t.tab"
    dt.save_table(path, np.array([[1.0]]), np.array([0]), 1,
                  dim_tags=["causal"])
    bad = tmp_path / ("t.tab.factors" if sidecar else "t.tab")
    bad.write_bytes(b"\xff" + bad.read_bytes())
    with pytest.raises(ParseError, match=f"{bad}: not UTF-8"):
        dt.load_table(path)


def test_table_bad_header(tmp_path):
    path = tmp_path / "t.tab"
    path.write_text("cpns-tab v2 dims=1 classes=2\n0 1.0\n")
    with pytest.raises(ParseError, match="line 1"):
        dt.load_table(path)


def test_table_missing_file():
    with pytest.raises(InputError):
        dt.load_table("/nonexistent/place/t.tab")


@pytest.mark.parametrize("y,tags", [
    ([0, 2], None), ([-1, 0], None), ([0, 1], ["causal"]),
    ([0, 1], ["causal", "sparkly"])],
    ids=["label too large", "label negative", "tags miscounted",
         "tag unknown"])
def test_save_table_checks_before_writing(tmp_path, y, tags):
    path = tmp_path / "t.tab"
    with pytest.raises(InputError):
        dt.save_table(path, np.ones((2, 2)), np.array(y), 2, dim_tags=tags)
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("x,y,n_classes", [
    (np.ones((2, 0)), [0, 0], 1), (np.ones((0, 0)), [], 1),
    (np.ones((0, 2)), [], 0)],
    ids=["no columns", "no rows or columns", "no classes"])
def test_save_table_refuses_what_load_table_rejects(tmp_path, x, y,
                                                     n_classes):
    # load_table rejects dims < 1 and classes < 1, so save_table must not
    # write such a table
    with pytest.raises(InputError, match="must be positive"):
        dt.save_table(tmp_path / "t.tab", x, np.array(y, dtype=np.int64),
                      n_classes)
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_save_table_refuses_non_finite_features(tmp_path, value):
    # load_table rejects them, so save_table must not write them
    x = np.ones((2, 2))
    x[1, 0] = value
    with pytest.raises(InputError, match="finite"):
        dt.save_table(tmp_path / "t.tab", x, np.array([0, 1]), 2)
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("fail_at, tags", [
    (1, ["spurious", "causal"]), (2, ["spurious", "causal"]), (1, None)],
    ids=["table", "sidecar", "untagged"])
def test_a_save_stopped_midway_leaves_whole_files(tmp_path, monkeypatch,
                                                  fail_at, tags):
    # the fail_at-th file opened for writing takes half its text, then the
    # disk fills: both files are written before either is replaced, and an
    # untagged save removes the old sidecar only after its table is
    # written, so each file keeps its old bytes, and no temp file is left
    path = tmp_path / "t.tab"
    dt.save_table(path, np.ones((2, 2)), np.array([0, 1]), 2,
                  dim_tags=["causal", "noise"])
    old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real_open = builtins.open
    opened = []

    class HalfWrite:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            raise OSError("No space left on device")

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode:
            opened.append(file)
            if len(opened) == fail_at:
                return HalfWrite(fh)
        return fh

    monkeypatch.setattr(builtins, "open", failing_open)
    x = np.array([[1.5, -2.25], [3.0, 4.0]])
    with pytest.raises(OSError, match="No space"):
        dt.save_table(path, x, np.array([1, 0]), 2, dim_tags=tags)
    monkeypatch.undo()
    assert len(opened) == fail_at
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old


def test_table_bad_sidecar_tag(tmp_path):
    path = tmp_path / "t.tab"
    dt.save_table(path, np.array([[1.0]]), np.array([0]), 1)
    (tmp_path / "t.tab.factors").write_text("sparkly\n")
    with pytest.raises(FormatError, match="sparkly"):
        dt.load_table(path)
