"""Experiment runner and CLI tests.

Nearly everything here runs on deliberately tiny streams (two tasks, two
classes each, sixteen input dims) so the whole module stays in the
seconds range; the one exception is the ablation divergence pin, which
needs trap-full's data on two tasks (about 3 s).
CLI behavior is exercised in-process through cli.main(argv).
"""

import glob
import hashlib
import json
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from cpnslab import atomic
from cpnslab import autodiff as ad
from cpnslab import cli
from cpnslab import data as dt
from cpnslab import experiment as ex
from cpnslab import metrics as mt
from cpnslab import model as mdl
from cpnslab import risk as rk
from cpnslab.errors import (ConfigurationError, NumericsError, ParseError,
                            UsageError)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tiny_doc(out_dir, **overrides):
    doc = {
        "run_id": "t",
        "output_dir": str(out_dir),
        "seeds": [0],
        "data": {"kind": "synthetic", "num_tasks": 2, "classes_per_task": 2,
                 "d_c": 2, "d_s": 4, "d_mc": 1, "input_dim": 16,
                 "n_train_per_class": 30, "n_test_per_class": 15},
        "model": {"feature_dim": 8, "hidden_dims": [16]},
        "train": {"stage1_epochs": 2, "stage2_epochs": 3, "batch_size": 16,
                  "buffer_capacity": 40, "report_limit": 64},
        "metrics": {"probe_limit": 16},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _short_cls_column(doc):
    head = doc["heads"]["cls_w"]
    head["data"] = [row[:-1] for row in head["data"]]
    head["shape"][1] -= 1


def _set_first_extractor(key, value):
    return lambda doc: doc["extractors"][0].update({key: value})


def _add_first_extractor_param(name):
    return lambda doc: doc["extractors"][0]["params"].update(
        {name: {"shape": [1], "data": [1.0]}})


def _drop_heads(*names):
    def edit(doc):
        for name in names:
            del doc["heads"][name]
    return edit


def _set_head(name, rows):
    return lambda doc: doc["heads"].update(
        {name: {"shape": [len(rows), len(rows[0])], "data": rows}})


class _StopsMidWrite:
    """A text file that writes half of its first write and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        self.fh.flush()
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _stop_writing(monkeypatch, name, at=1):
    """Make `atomic_open`'s `at`-th write of the file `name` stop midway."""
    hits = []

    def fake_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if os.path.basename(path).startswith(f".{name}."):
            hits.append(path)
            if len(hits) == at:
                return _StopsMidWrite(fh)
        return fh
    monkeypatch.setattr(atomic, "open", fake_open, raising=False)


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# config parsing and validation


class TestConfigValidation:
    def test_minimal_document_parses(self, tmp_path):
        cfg = ex.config_from_dict(tiny_doc(tmp_path))
        assert cfg.seeds == (0,)
        assert cfg.scenario.startswith("scm-2x2")

    def test_unknown_top_level_key(self, tmp_path):
        doc = tiny_doc(tmp_path, mystery=1)
        with pytest.raises(ConfigurationError, match="mystery"):
            ex.config_from_dict(doc)

    def test_unknown_train_key(self, tmp_path):
        doc = tiny_doc(tmp_path)
        doc["train"]["learning_rate"] = 0.1
        with pytest.raises(ConfigurationError, match="learning_rate"):
            ex.config_from_dict(doc)

    def test_unknown_gen_key(self, tmp_path):
        doc = tiny_doc(tmp_path)
        doc["train"]["gen"] = {"alpha": 1.0, "zeta": 2.0}
        with pytest.raises(ConfigurationError, match="zeta"):
            ex.config_from_dict(doc)

    def test_missing_data_section(self, tmp_path):
        doc = tiny_doc(tmp_path)
        del doc["data"]
        with pytest.raises(ConfigurationError, match="data"):
            ex.config_from_dict(doc)

    def test_bad_data_kind(self, tmp_path):
        doc = tiny_doc(tmp_path)
        doc["data"] = {"kind": "parquet"}
        with pytest.raises(ConfigurationError, match="kind"):
            ex.config_from_dict(doc)

    def test_empty_seed_list(self, tmp_path):
        doc = tiny_doc(tmp_path, seeds=[])
        with pytest.raises(ConfigurationError, match="seed"):
            ex.config_from_dict(doc)

    def test_table_path_must_exist(self, tmp_path):
        doc = tiny_doc(tmp_path)
        doc["data"] = {"kind": "table", "path": str(tmp_path / "no.txt"),
                       "B": 2, "I": 2}
        with pytest.raises(ConfigurationError, match="exist"):
            ex.config_from_dict(doc)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            ex.load_config(str(path))

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            ex.load_config(str(tmp_path / "absent.json"))

    def test_bad_synthetic_field_propagates(self, tmp_path):
        doc = tiny_doc(tmp_path)
        doc["data"]["overlap"] = 1.5
        with pytest.raises(ConfigurationError):
            ex.config_from_dict(doc)

    # per array of tiny_doc's run (16 inputs, 2 tasks of 2 classes, 45 rows
    # per class, widths 16 -> 16 -> 8): the section values that make it
    # hold n float64 values times its other sizes, and the n that brings
    # it to 2**27 exactly
    @pytest.mark.parametrize("what,k,sections", [
        ("the stream's train and test inputs", 2 ** 21 - 15,
         lambda n: {"data": {"n_train_per_class": n}}),
        ("extractor layer 0", 2 ** 23,
         lambda n: {"model": {"hidden_dims": [n]}}),
        ("extractor layer 1", 2 ** 23,
         lambda n: {"model": {"feature_dim": n, "projector_hidden": 1}}),
        ("the last task's classifier", 2 ** 20,
         lambda n: {"data": {"num_tasks": 8},
                    "model": {"feature_dim": n, "hidden_dims": [],
                              "projector_hidden": 1}}),
        ("the projector's first layer", 2 ** 24,
         lambda n: {"model": {"projector_hidden": n}}),
    ], ids=["inputs", "layer 0", "layer 1", "classifier", "projector"])
    def test_each_array_may_reach_the_size_cap_and_no_more(self, tmp_path,
                                                           what, k, sections):
        # only configs are built here, never the arrays they describe
        assert ex.MAX_ARRAY_ELEMENTS == 2 ** 27
        for n in (k, k + 1):
            doc = tiny_doc(tmp_path)
            for section, values in sections(n).items():
                doc[section].update(values)
            if n == k:
                ex.config_from_dict(doc)
                continue
            with pytest.raises(ConfigurationError,
                               match=re.escape(f"{what} would hold")):
                ex.config_from_dict(doc)


# ---------------------------------------------------------------------------
# the incremental loop


class TestRunSeed:
    def test_two_task_run_produces_expected_artifacts(self, tmp_path):
        cfg = ex.config_from_dict(tiny_doc(tmp_path))
        rows = ex.run_experiment(cfg)
        assert len(rows) == 1
        seed_dir = tmp_path / "t" / "seed-0"
        names = sorted(os.listdir(seed_dir))
        assert names == ["epochs.jsonl", "summary.csv", "task-0.ckpt",
                         "task-0.eval.json", "task-1.ckpt",
                         "task-1.eval.json"]

    def test_eval_records_parse_and_validate(self, tmp_path):
        cfg = ex.config_from_dict(tiny_doc(tmp_path))
        ex.run_experiment(cfg)
        for t in (0, 1):
            with open(tmp_path / "t" / f"seed-{t and 0}" / f"task-{t}.eval.json") as fh:
                doc = json.load(fh)
            record = mt.EvalRecord(**doc)
            assert record.task_index == t
            assert len(record.per_task_acc) == t + 1
        assert record.cka_by_layer is not None
        assert record.old_new_errors is not None
        assert record.masking_curve is not None
        assert record.cf_quality is not None

    def test_summary_header_exact(self, tmp_path):
        cfg = ex.config_from_dict(tiny_doc(tmp_path))
        ex.run_experiment(cfg)
        for rel in ("t/summary.csv", "t/seed-0/summary.csv"):
            lines = (tmp_path / rel).read_text().splitlines()
            assert lines[0] == "method,scenario,seed,last,avg"

    def test_rerun_removes_the_stale_artifacts_of_an_earlier_run(self,
                                                                 tmp_path):
        seed_dir = tmp_path / "t" / "seed-0"
        long_doc = tiny_doc(tmp_path)
        long_doc["data"] = dict(long_doc["data"], num_tasks=3)
        ex.run_experiment(ex.config_from_dict(long_doc))
        assert (seed_dir / "task-2.ckpt").exists()
        (seed_dir / "notes.txt").write_text("kept")
        ex.run_experiment(ex.config_from_dict(tiny_doc(tmp_path)))
        assert sorted(os.listdir(seed_dir)) == [
            "epochs.jsonl", "notes.txt", "summary.csv", "task-0.ckpt",
            "task-0.eval.json", "task-1.ckpt", "task-1.eval.json"]
        log = (seed_dir / "epochs.jsonl").read_text().splitlines()
        assert len(log) == 2 * (2 + 3)

    def test_rerun_is_byte_identical_outside_epoch_log(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_doc(tmp_path / "out"))
        ex.run_experiment(ex.load_config(cfg_path))
        seed_dir = tmp_path / "out" / "t" / "seed-0"
        stable = [n for n in sorted(os.listdir(seed_dir))
                  if n != "epochs.jsonl"]
        before = {n: sha(seed_dir / n) for n in stable}
        ex.run_experiment(ex.load_config(cfg_path))
        after = {n: sha(seed_dir / n) for n in stable}
        assert before == after

    def test_epoch_log_stable_modulo_wall_times(self, tmp_path):
        cfg = ex.config_from_dict(tiny_doc(tmp_path))
        ex.run_experiment(cfg)
        log = tmp_path / "t" / "seed-0" / "epochs.jsonl"
        first = [json.loads(l) for l in log.read_text().splitlines()]
        ex.run_experiment(cfg)
        second = [json.loads(l) for l in log.read_text().splitlines()]
        assert len(first) == len(second)
        for a, b in zip(first, second):
            a.pop("wall_ms")
            b.pop("wall_ms")
            assert a == b

    @pytest.mark.parametrize("name", ["task-1.ckpt", "task-1.eval.json",
                                      "summary.csv"])
    def test_a_run_stopped_mid_write_leaves_no_partial_artifact(
            self, tmp_path, monkeypatch, name):
        cfg = ex.config_from_dict(tiny_doc(tmp_path))
        seed_dir = tmp_path / "t" / "seed-0"
        _stop_writing(monkeypatch, name)
        with pytest.raises(OSError, match="disk full"):
            ex.run_seed(cfg, 0)
        names = sorted(os.listdir(seed_dir))
        assert name not in names
        assert not [n for n in names if n.startswith(".")]
        # what was written before the stop is whole
        assert {"task-0.ckpt", "task-0.eval.json"} <= set(names)
        mdl.load_checkpoint(str(seed_dir / "task-0.ckpt"))
        json.loads((seed_dir / "task-0.eval.json").read_text())

    def test_a_stopped_epoch_log_write_keeps_the_earlier_tasks(
            self, tmp_path, monkeypatch):
        cfg = ex.config_from_dict(tiny_doc(tmp_path))
        whole = tmp_path / "whole"
        ex.run_seed(cfg, 0, out_dir=str(whole))
        want = [json.loads(line) for line in
                (whole / "epochs.jsonl").read_text().splitlines()]
        seed_dir = tmp_path / "t" / "seed-0"
        # the log is rewritten whole after each task: its second write is
        # the one after task 1
        _stop_writing(monkeypatch, "epochs.jsonl", at=2)
        with pytest.raises(OSError, match="disk full"):
            ex.run_seed(cfg, 0)
        text = (seed_dir / "epochs.jsonl").read_text()
        assert text.endswith("\n")
        got = [json.loads(line) for line in text.splitlines()]
        for doc in got + want:
            doc.pop("wall_ms")
        assert got == [doc for doc in want if doc["task"] == 0]
        assert len(got) == 2 + 3
        assert not [n for n in os.listdir(seed_dir) if n.startswith(".")]

    def test_a_stopped_rewrite_keeps_the_old_file(self, tmp_path,
                                                  monkeypatch):
        path = tmp_path / "summary.csv"
        ex._write_csv(path, "a,b", [(1, 2.5)])
        before = path.read_bytes()
        # the temp file is hidden from the `*` globs run_seed cleans with
        with atomic.atomic_open(path) as fh:
            fh.write("x")
            assert glob.glob(str(tmp_path / "*")) == [str(path)]
            assert len(os.listdir(tmp_path)) == 2
        assert path.read_text() == "x"
        ex._write_csv(path, "a,b", [(1, 2.5)])
        _stop_writing(monkeypatch, "summary.csv")
        with pytest.raises(OSError, match="disk full"):
            ex._write_csv(path, "a,b", [(3, 4.5)])
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["summary.csv"]

    def test_checkpoint_agrees_with_recorded_accuracy(self, tmp_path):
        cfg = ex.config_from_dict(tiny_doc(tmp_path))
        ex.run_experiment(cfg)
        model = mdl.load_checkpoint(str(tmp_path / "t" / "seed-0" / "task-1.ckpt"))
        stream = cfg.build_stream(0)
        hits = total = 0
        for _, (x, y), _ in stream.tasks:
            pred = np.argmax(model.forward_concat_np(x), axis=1)
            hits += int(np.sum(pred == y))
            total += len(y)
        with open(tmp_path / "t" / "seed-0" / "task-1.eval.json") as fh:
            record = mt.EvalRecord(**json.load(fh))
        assert hits / total == record.last_acc

    def test_distinct_seeds_produce_distinct_streams(self, tmp_path):
        cfg = ex.config_from_dict(tiny_doc(tmp_path, seeds=[0, 1]))
        rows = ex.run_experiment(cfg)
        assert [r["seed"] for r in rows] == [0, 1]
        a = cfg.build_stream(0).tasks[0][0][0]
        b = cfg.build_stream(1).tasks[0][0][0]
        assert not np.array_equal(a, b)

    def test_zeroed_knobs_match_baseline_trainer_summary(self, tmp_path):
        zero_train = {"stage1_epochs": 0, "stage2_epochs": 5,
                      "batch_size": 16, "buffer_capacity": 40,
                      "lam": 0.0, "gamma": 0.0, "nu": 0.0,
                      "report_limit": 64}
        doc_a = tiny_doc(tmp_path / "a", train=zero_train)
        doc_b = tiny_doc(tmp_path / "b", train=dict(zero_train),
                         use_baseline_trainer=True)
        ex.run_experiment(ex.config_from_dict(doc_a))
        ex.run_experiment(ex.config_from_dict(doc_b))
        csv_a = (tmp_path / "a" / "t" / "summary.csv").read_bytes()
        csv_b = (tmp_path / "b" / "t" / "summary.csv").read_bytes()
        assert csv_a == csv_b

    @pytest.mark.parametrize("baseline", [False, True])
    def test_no_run_path_builds_an_autodiff_node(self, tmp_path, monkeypatch,
                                                 baseline):
        # the parameters are plain arrays and every gradient is taken by
        # hand: a seed of either trainer, and evaluating its last
        # checkpoint, construct no graph node, not even a leaf
        built = []
        init = ad.Tensor.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        with open(os.path.join(ROOT, "configs", "smoke.json")) as fh:
            doc = json.load(fh)
        doc.update(output_dir=str(tmp_path), use_baseline_trainer=baseline)
        config = ex.config_from_dict(doc)
        _, (x, y), _ = config.build_stream(0).tasks[-1]
        table = tmp_path / "test.txt"
        dt.save_table(str(table), x, y, int(y.max()) + 1)
        out = tmp_path / "seed"
        monkeypatch.setattr(ad.Tensor, "__init__", counting)
        records, _ = ex.run_seed(config, 0, out_dir=str(out))
        last = out / f"task-{len(records) - 1}.ckpt"
        result = ex.evaluate_checkpoint(str(last), str(table))
        assert result["n_samples"] == len(y)
        assert len(built) == 0

    def test_no_run_path_runs_an_autodiff_backward(self, tmp_path,
                                                   monkeypatch):
        # both trainers, evaluation and the checkpoints compute their
        # gradients by hand; the autodiff graph is the tests' reference
        def refuse(root):
            raise AssertionError("autodiff.backward ran during a seed")

        monkeypatch.setattr(ad, "backward", refuse)
        with open(os.path.join(ROOT, "configs", "smoke.json")) as fh:
            doc = json.load(fh)
        for baseline in (False, True):
            doc.update(output_dir=str(tmp_path / str(baseline)),
                       use_baseline_trainer=baseline)
            records, _ = ex.run_seed(ex.config_from_dict(doc), 0)
            assert len(records) == doc["data"]["num_tasks"]

    def test_table_backed_stream(self, tmp_path):
        rng = np.random.default_rng(3)
        n, d, C = 240, 12, 6
        y = np.repeat(np.arange(C), n // C)
        centers = rng.normal(scale=4.0, size=(C, d))
        x = centers[y] + rng.normal(size=(n, d))
        # untagged, and tagged with no causal dimension: masking needs a
        # causal tag, and every task still writes its record
        for case, dim_tags in (("plain", None),
                               ("no-causal", ["noise"] * 9 + ["spurious"] * 3)):
            table_path = tmp_path / case / "tab.txt"
            table_path.parent.mkdir()
            dt.save_table(str(table_path), x, y.astype(np.int64), C, dim_tags)
            doc = tiny_doc(tmp_path / case)
            doc["data"] = {"kind": "table", "path": str(table_path),
                           "B": 2, "I": 2}
            doc["metrics"] = {"probe_limit": 8}
            rows = ex.run_experiment(ex.config_from_dict(doc))
            assert rows[0]["scenario"] == "tab.txt-B2-I2"
            assert 0.0 <= rows[0]["last"] <= 1.0
            seed_dir = tmp_path / case / "t" / "seed-0"
            for t in range(3):
                with open(seed_dir / f"task-{t}.eval.json") as fh:
                    assert json.load(fh)["masking_curve"] is None


    def test_evaluation_runs_each_extractor_once_per_test_set(
            self, tmp_path, monkeypatch):
        # an extractor is final once its task is trained, so evaluating task
        # t runs only the new extractor on sets 0..t and the older ones on
        # the new set t: 2t+1 (extractor, test set) activations, not (t+1)^2
        # or more
        doc = tiny_doc(tmp_path)
        doc["data"]["num_tasks"] = 4
        cfg = ex.config_from_dict(doc)
        test_xs = [x for _, (x, _), _ in cfg.build_stream(0).tasks]
        built, calls, evaluating = [], [], []

        class Recorded(mdl.ExpandableModel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        activations_np = mdl.FeatureExtractor.activations_np
        evaluate_task = ex.evaluate_task

        def counted_activations(ext, x):
            x = np.asarray(x)
            for j, xt in enumerate(test_xs):
                if evaluating and x.shape == xt.shape and np.array_equal(x, xt):
                    calls.append((evaluating[0], built[0].extractors.index(ext),
                                  j, len(x)))
            return activations_np(ext, x)

        def counted_evaluate(model, stream, task_index, *args):
            evaluating.append(task_index)
            try:
                return evaluate_task(model, stream, task_index, *args)
            finally:
                evaluating.pop()

        monkeypatch.setattr(ex.mdl, "ExpandableModel", Recorded)
        monkeypatch.setattr(mdl.FeatureExtractor, "activations_np",
                            counted_activations)
        monkeypatch.setattr(ex, "evaluate_task", counted_evaluate)
        records, _ = ex.run_seed(cfg, 0, out_dir=str(tmp_path / "run"))
        assert records[-1].masking_curve is not None
        for t in range(4):
            got = sorted(call[1:] for call in calls if call[0] == t)
            want = sorted([(t, j, len(test_xs[j])) for j in range(t + 1)]
                          + [(i, t, len(test_xs[t])) for i in range(t)])
            assert len(got) == 2 * t + 1
            assert got == want

    def test_evaluation_keeps_relu_masks_and_features(self, tmp_path):
        # what evaluation reads of an extractor's activations on a test
        # set: each hidden layer's ReLU mask, as bools, and the feature
        doc = tiny_doc(tmp_path, model={"feature_dim": 8,
                                        "hidden_dims": [16, 8]})
        doc["data"]["num_tasks"] = 3
        cfg = ex.config_from_dict(doc)
        stream = cfg.build_stream(0)
        model = mdl.ExpandableModel(input_dim=cfg.input_dim(stream),
                                    feature_dim=8, hidden_dims=(16, 8),
                                    seed=0)
        records, acts = [], []
        for t, (_, _, (lo, hi)) in enumerate(stream.tasks):
            model.expand(hi - lo)
            records.append(ex.evaluate_task(model, stream, t, records, acts,
                                            cfg.metrics, cfg.train.gen))
        test_xs = [x for _, (x, _), _ in stream.tasks]
        assert [len(set_acts) for set_acts in acts] == [3, 3, 3]
        for x, set_acts in zip(test_xs, acts):
            for ext, entry in zip(model.extractors, set_acts):
                *hiddens, feature = ext.activations_np(x)
                assert len(entry) == 3
                for mask, h in zip(entry, hiddens):
                    assert mask.dtype == bool
                    np.testing.assert_array_equal(mask, h > 0)
                assert entry[-1].dtype == np.float64
                assert entry[-1].tobytes() == feature.tobytes()
        # per row and extractor: one byte per hidden unit, eight per feature
        nbytes = sum(a.nbytes for set_acts in acts for entry in set_acts
                     for a in entry)
        assert nbytes == 3 * sum(len(x) * (16 + 8 + 8 * 8) for x in test_xs)

    def test_evaluation_rebuilds_from_the_files_a_run_leaves(self, tmp_path):
        # what a run resumed at task k has: task k's checkpoint and the
        # eval records of the tasks before it. From those alone, with the
        # evaluation cache rebuilt from empty, task k's record comes out
        # to the byte
        doc = tiny_doc(tmp_path)
        doc["data"]["num_tasks"] = 3
        cfg = ex.config_from_dict(doc)
        seed_dir = tmp_path / "run"
        ex.run_seed(cfg, 0, out_dir=str(seed_dir))
        stream = cfg.build_stream(0)
        texts = [(seed_dir / f"task-{k}.eval.json").read_text()
                 for k in range(3)]
        for k in range(3):
            model = mdl.load_checkpoint(str(seed_dir / f"task-{k}.ckpt"))
            records = [mt.EvalRecord(**json.loads(text))
                       for text in texts[:k]]
            record = ex.evaluate_task(model, stream, k, records, [],
                                      cfg.metrics, cfg.train.gen)
            assert record.masking_curve is not None
            assert ex._json_lines([record.to_json_dict()]) == texts[k]
            accs = [r.last_acc for r in records] + [record.last_acc]
            assert record.avg_acc == float(np.mean(accs))
        # the records must be exactly those of the earlier tasks
        with pytest.raises(UsageError, match="2 earlier records for task 1"):
            ex.evaluate_task(model, stream, 1, records, [], cfg.metrics,
                             cfg.train.gen)


# ---------------------------------------------------------------------------
# sweeps and ablations


class TestSweepAndAblate:
    def test_sweep_produces_one_row_per_value(self, tmp_path):
        cfg = ex.config_from_dict(tiny_doc(tmp_path))
        ex.run_sweep(cfg, "beta", [0.01, 0.05, 0.1])
        lines = (tmp_path / "t" / "sweep-beta.csv").read_text().splitlines()
        assert lines[0] == "value,last,avg"
        assert len(lines) == 4

    def test_single_value_sweep_matches_run(self, tmp_path):
        cfg = ex.config_from_dict(tiny_doc(tmp_path))
        rows = ex.run_experiment(cfg)
        sweep = ex.run_sweep(cfg, "beta", [0.03])  # the config's own value
        assert sweep[0][1] == rows[0]["last"]
        assert sweep[0][2] == rows[0]["avg"]

    def test_unknown_sweep_parameter(self, tmp_path):
        cfg = ex.config_from_dict(tiny_doc(tmp_path))
        with pytest.raises(ConfigurationError, match="sweep parameter"):
            ex.run_sweep(cfg, "mu", [0.1])

    def test_sweep_values_reach_the_trainer(self, tmp_path):
        cfg = ex.config_from_dict(tiny_doc(tmp_path))
        assert ex._with_param(cfg, "lambda", 0.9).train.lam == 0.9
        assert ex._with_param(cfg, "nu", 0.25).train.nu == 0.25
        assert ex._with_param(cfg, "gamma", 2.0).train.gamma == 2.0
        assert ex._with_param(cfg, "alpha", 0.5).train.gen.alpha == 0.5
        assert ex._with_param(cfg, "beta", 0.08).train.gen.beta == 0.08
        assert ex._with_param(cfg, "epsilon", 0.2).train.gen.epsilon == 0.2

    def test_ablation_emits_exactly_six_method_rows(self, tmp_path):
        cfg = ex.config_from_dict(tiny_doc(tmp_path))
        table = ex.run_ablation(cfg)
        lines = (tmp_path / "t" / "ablation.csv").read_text().splitlines()
        assert lines[0] == "method,scenario,seed,last,avg"
        methods = [l.split(",")[0] for l in lines[1:]]
        assert methods == list(ex.ABLATION_VARIANTS)
        assert len(table) == 6

    def test_a_diverging_ablation_names_the_variant_seed_and_task(
            self, tmp_path):
        doc = tiny_doc(tmp_path)
        doc["train"]["lr"] = 1e6
        cfg = ex.config_from_dict(doc)
        # the first variant diverges; the error says which one, and where
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericsError, match=r"^variant baseline: seed 0, task 0: "):
            ex.run_ablation(cfg)
        assert not (tmp_path / "t" / "ablation.csv").exists()

    def test_the_inter_only_variants_diverge_in_the_projector(self, tmp_path):
        # ROADMAP item 1(b), pinned on seed 0 of a two-task trap-full
        # stream: the variants with the intra term or without the inter
        # term finish; the two inter-only ones overflow in task 1 (at steps
        # 110 and 71), and the largest parameter is then the projector's.
        # Item 1(c)'s fix turns this test into "every variant finishes".
        with open(os.path.join(ROOT, "configs", "trap-full.json")) as fh:
            doc = json.load(fh)
        doc["data"]["num_tasks"] = 2
        doc.update(output_dir=str(tmp_path), seeds=[0])
        cfg = ex.config_from_dict(doc)
        failed = {}
        for variant in ex.ABLATION_VARIANTS:
            sub = replace(cfg, use_baseline_trainer=(variant == "baseline"),
                          train=ex.ablation_train_config(cfg.train, variant))
            try:
                # as cli.main runs it; pyproject turns the overflow
                # warnings into errors otherwise
                with np.errstate(over="ignore", invalid="ignore"):
                    ex.run_seed(sub, 0, out_dir=str(tmp_path / variant))
            except NumericsError as exc:
                failed[variant] = str(exc)
        assert sorted(failed) == ["+inter_2stage", "+inter_no2stage"]
        for message in failed.values():
            assert re.fullmatch(r"seed 0, task 1: non-finite gradient .*; "
                                r"largest \|value\| \S+ in 'proj_\w+'\)",
                                message), message

    def test_ablation_variant_knobs(self):
        from cpnslab.trainer import TrainConfig
        base = TrainConfig(stage1_epochs=4, stage2_epochs=6, lam=0.7,
                           gamma=0.5, nu=0.3)
        # a single-stage variant trains the 4 + 6 epochs in stage 2
        two_stages, one_stage = (4, 6), (0, 10)

        def epochs(c):
            return c.stage1_epochs, c.stage2_epochs

        b = ex.ablation_train_config(base, "baseline")
        assert (b.lam, b.gamma, b.nu) == (0, 0, 0)
        assert epochs(b) == one_stage
        intra = ex.ablation_train_config(base, "+intra")
        assert intra.lam == 0.0 and intra.nu == 0.3
        assert epochs(intra) == two_stages
        i1 = ex.ablation_train_config(base, "+inter_no2stage")
        assert i1.nu == 0.0 and i1.gamma == 0.0 and epochs(i1) == one_stage
        i2 = ex.ablation_train_config(base, "+inter_2stage")
        assert i2.nu == 0.0 and i2.lam == 0.7 and epochs(i2) == two_stages
        both = ex.ablation_train_config(base, "both_no2stage")
        assert both.lam == 0.7 and both.nu == 0.3
        assert epochs(both) == one_stage
        full = ex.ablation_train_config(base, "full")
        assert full.lam == 0.7 and epochs(full) == two_stages
        with pytest.raises(ConfigurationError):
            ex.ablation_train_config(base, "everything")


# ---------------------------------------------------------------------------
# CLI


def unset_thread_vars(monkeypatch):
    """Unset every variable `cli._pin_threads` writes, so that teardown
    restores each: `delenv` of an unset variable records nothing to undo,
    so each is first set through the monkeypatch."""
    for var in cli._THREAD_VARS:
        monkeypatch.setenv(var, "")
        monkeypatch.delenv(var)


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_doc(tmp_path / "out"))
        assert cli.main(["run", cfg_path]) == 0
        assert "summary.csv" in capsys.readouterr().out

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_doc(tmp_path, seeds=[]))
        assert cli.main(["run", cfg_path]) == 2
        assert "seed" in capsys.readouterr().err

    def test_divergence_of_a_valid_config_exits_four(self, tmp_path, capsys):
        doc = tiny_doc(tmp_path / "out")
        doc["train"]["lr"] = 1e6
        cfg_path = write_config(tmp_path, doc)
        assert cli.main(["run", cfg_path]) == 4
        out, err = capsys.readouterr()
        assert not out
        # one line: numpy's overflow warnings on the way are not repeated
        assert err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith("cpnslab: training diverged: seed 0, task 0: ")
        assert "non-finite gradient in 'f0/w0'" in err
        assert "Traceback" not in err

    def test_a_breached_risk_bound_exits_three(self, tmp_path, capsys,
                                               monkeypatch):
        # a scope whose violation mean exceeds its risk mean, m > r, breaks
        # the bound in the first per-epoch report
        monkeypatch.setattr(rk, "_scope", lambda *indicators: (0.0, 1.0, 0.0))
        cfg_path = write_config(tmp_path, tiny_doc(tmp_path / "out"))
        assert cli.main(["run", cfg_path]) == 3
        out, err = capsys.readouterr()
        assert not out
        assert err.count("\n") == 1
        assert err.startswith("cpnslab: invariant breach: violation total "
                              "1.0 exceeds risk total 0.0")
        assert not (tmp_path / "out" / "t" / "summary.csv").exists()

    def test_a_diverging_sweep_names_the_value(self, tmp_path, capsys):
        doc = tiny_doc(tmp_path / "out")
        doc["train"]["lr"] = 1e6
        cfg_path = write_config(tmp_path, doc)
        assert cli.main(["sweep", cfg_path, "--param", "lambda",
                         "--values", "0,1"]) == 4
        out, err = capsys.readouterr()
        assert not out
        assert err.count("\n") == 1
        assert err.startswith(
            "cpnslab: training diverged: value 0.0: seed 0, task 0: ")
        assert not (tmp_path / "out" / "t" / "sweep-lambda.csv").exists()

    @pytest.mark.parametrize("overrides", [
        {"train": {"batch_size": "32"}},
        {"model": {"hidden_dims": 5}},
        {"data": 7},
        {"seeds": "ab"},
    ], ids=["batch_size string", "hidden_dims int", "data int",
            "seeds string"])
    def test_wrong_typed_config_value_exits_two(self, tmp_path, capsys,
                                                overrides):
        cfg_path = write_config(tmp_path,
                                tiny_doc(tmp_path / "out", **overrides))
        assert cli.main(["run", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cpnslab: ") and "Traceback" not in err

    # values that older parsing coerced into something else, or that failed
    # only inside run_seed after the output directory existed; and keys
    # that no longer exist, even at what was their default
    @pytest.mark.parametrize("section,key,value", [
        (None, "use_baseline_trainer", "false"),
        (None, "seeds", "12"),
        (None, "seeds", [0, 1.5]),
        ("model", "separate_inter_head", "no"),
        ("train", "two_stage", False),
        ("metrics", "old_new", True),
        ("metrics", "cka", True),
        ("metrics", "masking", True),
        ("metrics", "cf_quality", True),
        ("model", "hidden_dims", [16.7]),
        ("train", "lr", float("nan")),
        ("train", "lr", float("inf")),
        ("train", "batch_size", 2.5),
        ("train", "batch_size", True),
        ("model", "feature_dim", 2.5),
        ("train", "optimizer", "sgd"),
        ("train", "schedule", "constant"),
        ("train", "buffer_policy", "herding"),
        ("train", "adam_eps", 1e-8),
        ("train", "adam_betas", [0.95, 0.999]),
        ("train", "gen", {"metric": "kl"}),
        ("data", "n_train_per_class", 30.5),
        (None, "seeds", [-1]),
        ("data", "seed", -1),
        ("model", "hidden_dims", [0]),
        ("model", "hidden_dims", [-2]),
        ("model", "projector_hidden", 0),
        ("model", "projector_hidden", -1),
        ("metrics", "masking_ks", [2, 0]),
        ("metrics", "masking_ks", [-1, 0]),
        (None, "seeds", [0, 0]),
        (None, "run_id", "."),
        (None, "run_id", ".."),
        (None, "run_id", "a/b"),
        (None, "run_id", "a\x00b"),
        (None, "run_id", "\ud800"),
        (None, "output_dir", "\x00"),
        (None, "output_dir", "\ud800"),
    ], ids=["baseline flag string", "seeds string", "seeds float",
            "inter head string", "two_stage unknown",
            "old_new removed", "cka removed", "masking removed",
            "cf_quality removed", "hidden_dims float",
            "lr nan", "lr inf", "batch_size float", "batch_size bool",
            "feature_dim float", "optimizer removed", "schedule removed",
            "buffer_policy removed", "adam_eps removed", "adam_betas removed",
            "gen metric removed", "data int float",
            "seeds negative", "data seed negative", "hidden_dims zero",
            "hidden_dims negative", "projector_hidden zero",
            "projector_hidden negative", "masking_ks decreasing",
            "masking_ks negative", "seeds repeat", "run_id dot",
            "run_id dotdot", "run_id slash", "run_id nul", "run_id surrogate",
            "output_dir nul", "output_dir surrogate"])
    def test_mistyped_value_exits_two_before_any_output(self, tmp_path,
                                                        section, key, value):
        doc = tiny_doc(tmp_path / "out")
        if key == "output_dir":  # a path that would have made `out`
            value = doc[key] + value
        (doc if section is None else doc[section])[key] = value
        cfg_path = write_config(tmp_path, doc)
        with pytest.raises(ConfigurationError, match=key):
            ex.load_config(cfg_path)
        assert cli.main(["run", cfg_path]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("B", 2.5), ("I", "2"), ("split_seed", 1.5), ("path", 7),
        ("split-seed", 1), ("split_seed", -1)])
    def test_mistyped_table_data_exits_two_before_any_output(self, tmp_path,
                                                             key, value):
        table = tmp_path / "t.txt"
        table.write_text("0 1.0 2.0\n1 3.0 4.0\n")
        doc = tiny_doc(tmp_path / "out")
        doc["data"] = {"kind": "table", "path": str(table), "B": 1, "I": 1,
                       key: value}
        cfg_path = write_config(tmp_path, doc)
        with pytest.raises(ConfigurationError, match=key):
            ex.load_config(cfg_path)
        assert cli.main(["run", cfg_path]) == 2
        assert not (tmp_path / "out").exists()

    def test_empty_task_split_exits_two_before_any_output(self, tmp_path):
        # classes 2 and 3 have one row each, and split_seed 1 puts class
        # 3's row in the train split, so task 1 has no test rows
        y = np.array([0] * 30 + [1] * 30 + [2, 3])
        table = tmp_path / "t.txt"
        dt.save_table(str(table), np.random.default_rng(0).normal(
            size=(len(y), 4)), y, 4)
        doc = tiny_doc(tmp_path / "out")
        doc["data"] = {"kind": "table", "path": str(table), "B": 3, "I": 1,
                       "split_seed": 1}
        cfg_path = write_config(tmp_path, doc)
        with pytest.raises(ConfigurationError, match="task 1: empty test"):
            ex.run_seed(ex.load_config(cfg_path), 0)
        assert cli.main(["run", cfg_path]) == 2
        assert not (tmp_path / "out" / "t" / "seed-0").exists()

    @pytest.mark.parametrize("gen", [{"metric": "bogus"}, {"alpha": 0.0},
                                     {"beta": -0.1}, {"epsilon": 0.0}])
    def test_bad_generator_config_fails_before_any_output(self, tmp_path,
                                                          gen):
        doc = tiny_doc(tmp_path / "out")
        doc["train"]["gen"] = gen
        cfg_path = write_config(tmp_path, doc)
        with pytest.raises(ConfigurationError):
            ex.load_config(cfg_path)
        assert cli.main(["run", cfg_path]) == 2
        assert not (tmp_path / "out").exists()

    # the table case's layer would ask for 2**47 values at once, a request
    # that fails without allocating
    @pytest.mark.parametrize("table,section,key,value,what", [
        (False, "data", "input_dim", 1_000_000_000, "inputs"),
        (False, "model", "hidden_dims", [1_000_000_000], "extractor layer 0"),
        (False, "data", "n_train_per_class", 1_000_000_000, "inputs"),
        (True, "model", "hidden_dims", [2 ** 45], "extractor layer 0"),
    ], ids=["input_dim", "hidden_dims", "n_train_per_class",
            "table hidden_dims"])
    def test_oversized_config_exits_two_before_allocating(
            self, tmp_path, capsys, table, section, key, value, what):
        doc = tiny_doc(tmp_path / "out")
        if table:  # 4 columns, 4 classes in two tasks
            path = tmp_path / "t.txt"
            y = np.repeat(np.arange(4), 10)
            dt.save_table(str(path), np.random.default_rng(0).normal(
                size=(len(y), 4)), y, 4)
            doc["data"] = {"kind": "table", "path": str(path), "B": 2,
                           "I": 2}
        doc[section][key] = value
        cfg_path = write_config(tmp_path, doc)
        # run unchecked, the config would try to allocate gigabytes. A
        # synthetic config is refused at load; a table's width is known
        # once the file is read, when the stream is built
        with pytest.raises(ConfigurationError, match=what):
            config = ex.load_config(cfg_path)
            assert table
            config.build_stream(0)
        assert cli.main(["run", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cpnslab: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_two(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.json")]) == 2

    def test_unknown_sweep_param_exits_two(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_doc(tmp_path / "out"))
        rc = cli.main(["sweep", cfg_path, "--param", "mu", "--values", "1"])
        assert rc == 2

    def test_bad_sweep_values_exit_two(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_doc(tmp_path / "out"))
        rc = cli.main(["sweep", cfg_path, "--param", "beta",
                       "--values", "0.1,zap"])
        assert rc == 2
        assert "zap" in capsys.readouterr().err
        # a bad value anywhere in the list stops the sweep before any run
        for param, values, shown in [("beta", "a,b", "a,b"),
                                     ("beta", ",", "','"),
                                     ("epsilon", "nan", "nan"),
                                     ("epsilon", "0.1,inf", "inf"),
                                     ("lambda", "0.1,-1", "non-negative"),
                                     ("lambda", "0.1,0.10,1e-1", "repeat")]:
            rc = cli.main(["sweep", cfg_path, "--param", param,
                           "--values", values])
            assert rc == 2
            assert shown in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_negative_seed_flag_exits_two_before_any_output(self, tmp_path,
                                                           capsys):
        cfg_path = write_config(tmp_path, tiny_doc(tmp_path / "out"))
        assert cli.main(["run", cfg_path, "--seed", "-1"]) == 2
        assert "seeds" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_flag_overrides_config(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_doc(tmp_path / "ignored"))
        target = tmp_path / "flagged"
        assert cli.main(["run", cfg_path, "--out", str(target)]) == 0
        assert (target / "t" / "summary.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_seed_flag_replaces_seed_list(self, tmp_path):
        cfg_path = write_config(tmp_path,
                                tiny_doc(tmp_path / "out", seeds=[0, 1, 2]))
        assert cli.main(["run", cfg_path, "--seed", "7"]) == 0
        lines = (tmp_path / "out" / "t" / "summary.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[2] == "7"

    def test_env_out_override(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, tiny_doc(tmp_path / "ignored"))
        target = tmp_path / "enved"
        monkeypatch.setenv("CPNSLAB_OUT", str(target))
        assert cli.main(["run", cfg_path]) == 0
        assert (target / "t" / "summary.csv").exists()

    def test_flag_beats_env_for_output(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, tiny_doc(tmp_path / "ignored"))
        monkeypatch.setenv("CPNSLAB_OUT", str(tmp_path / "from_env"))
        target = tmp_path / "from_flag"
        assert cli.main(["run", cfg_path, "--out", str(target)]) == 0
        assert (target / "t" / "summary.csv").exists()
        assert not (tmp_path / "from_env").exists()

    def test_threads_flag_pins_env(self, tmp_path, monkeypatch):
        unset_thread_vars(monkeypatch)
        cfg_path = write_config(tmp_path, tiny_doc(tmp_path / "out"))
        assert cli.main(["run", cfg_path, "--threads", "1"]) == 0
        assert os.environ["OMP_NUM_THREADS"] == "1"

    def test_threads_env_var(self, tmp_path, monkeypatch):
        unset_thread_vars(monkeypatch)
        monkeypatch.setenv("CPNSLAB_THREADS", "2")
        cfg_path = write_config(tmp_path, tiny_doc(tmp_path / "out"))
        assert cli.main(["run", cfg_path]) == 0
        assert os.environ["MKL_NUM_THREADS"] == "2"

    def test_nonpositive_threads_exit_two(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_doc(tmp_path / "out"))
        assert cli.main(["run", cfg_path, "--threads", "0"]) == 2

    def test_non_integer_threads_env_exits_two(self, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.setenv("CPNSLAB_THREADS", "abc")
        cfg_path = write_config(tmp_path, tiny_doc(tmp_path / "out"))
        assert cli.main(["run", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cpnslab: ") and "CPNSLAB_THREADS" in err
        assert not (tmp_path / "out").exists()

    def test_eval_prints_accuracy_json(self, tmp_path, capsys):
        doc = tiny_doc(tmp_path / "out")
        cfg = ex.config_from_dict(doc)
        ex.run_experiment(cfg)
        stream = cfg.build_stream(0)
        xs = np.concatenate([x for _, (x, _), _ in stream.tasks])
        ys = np.concatenate([y for _, (_, y), _ in stream.tasks])
        table_path = tmp_path / "eval.txt"
        dt.save_table(str(table_path), xs, ys, int(ys.max()) + 1)
        ckpt = tmp_path / "out" / "t" / "seed-0" / "task-1.ckpt"
        assert cli.main(["eval", str(ckpt), str(table_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) >= {"accuracy", "n_samples"}
        assert doc["n_samples"] == len(ys)

    def test_eval_missing_checkpoint_exits_two(self, tmp_path):
        assert cli.main(["eval", str(tmp_path / "no.ckpt"),
                         str(tmp_path / "no.txt")]) == 2

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--out", "o"]])
    def test_eval_rejects_the_run_options(self, tmp_path, flag):
        # eval writes no run directory and draws no seed; a flag it would
        # ignore is refused instead
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", str(tmp_path / "no.ckpt"),
                      str(tmp_path / "no.txt"), *flag])
        assert exc.value.code == 2

    @staticmethod
    def _eval_inputs(tmp_path):
        """A two-task checkpoint and a table it can score."""
        model = mdl.ExpandableModel(input_dim=16, feature_dim=8,
                                    hidden_dims=(16,), seed=0)
        model.expand(2).expand(2)
        ckpt = tmp_path / "task-1.ckpt"
        mdl.save_checkpoint(model, ckpt)
        rng = np.random.default_rng(0)
        table_path = tmp_path / "eval.txt"
        dt.save_table(str(table_path), rng.normal(size=(6, 16)),
                      np.arange(6) % 4, 4)
        return ckpt, table_path

    @pytest.mark.parametrize("edit", [
        _short_cls_column,
        _set_first_extractor("layer_dims", [16, 17, 8]),
        lambda doc: doc.update(class_offsets=[[0, 2], [1, 3]]),
        _set_first_extractor("frozen", False),
        _drop_heads("aux_w", "aux_b"),
        _set_head("intra_w", [[0.5, -0.5]]),
        _set_head("zzz_w", [[0.5, -0.5]]),
        _drop_heads("proj_w0", "proj_b0", "proj_w1", "proj_b1"),
        _add_first_extractor_param("zzz"),
        lambda doc: doc["heads"]["cls_b"]["data"].__setitem__(0, math.nan),
        lambda doc: doc["heads"]["cls_b"]["shape"].__setitem__(0, 5),
        lambda doc: doc.update(feature_dim="8"),
        lambda doc: doc.update(hidden_dims=["16"]),
        lambda doc: doc.update(class_offsets=[[0.0, 2.0], [2.0, 4.0]]),
        lambda doc: doc.update(separate_inter_head=0),
        lambda doc: doc.update(seed=0.0),
        _set_first_extractor("task_index", 0.0),
        lambda doc: doc["rng_state"]["state"].update(inc=-1),
        lambda doc: doc["rng_state"].update(uinteger=1.5),
    ], ids=["cls one column short", "layer_dims", "overlapping offsets",
            "extractor 0 not frozen", "aux head missing", "intra_w 1x2",
            "extra head", "projector missing", "extra extractor param",
            "nan in cls_b", "cls_b data not its shape header",
            "feature_dim a string", "hidden_dims strings",
            "class_offsets floats", "separate_inter_head 0", "seed a float",
            "task_index a float", "rng inc negative", "rng uinteger a float"])
    def test_eval_of_a_checkpoint_whose_parts_disagree_exits_two(
            self, tmp_path, capsys, edit):
        ckpt, table_path = self._eval_inputs(tmp_path)
        doc = json.loads(ckpt.read_text())
        edit(doc)
        ckpt.write_text(json.dumps(doc))
        assert cli.main(["eval", str(ckpt), str(table_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cpnslab: ") and err.count("\n") == 1

    @pytest.mark.parametrize("position", ["run config", "eval checkpoint",
                                          "eval table"])
    def test_undecodable_input_file_exits_two(self, tmp_path, capsys,
                                              position):
        ckpt, table_path = self._eval_inputs(tmp_path)
        cfg_path = write_config(tmp_path, tiny_doc(tmp_path / "out"))
        argv = (["run", cfg_path] if position == "run config"
                else ["eval", str(ckpt), str(table_path)])
        bad = {"run config": cfg_path, "eval checkpoint": ckpt,
               "eval table": table_path}[position]
        with open(bad, "rb") as fh:
            body = fh.read()
        with open(bad, "wb") as fh:
            fh.write(b"\xff" + body)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("cpnslab: ") and str(bad) in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_eval_of_a_truncated_checkpoint_exits_two_naming_it(self, tmp_path,
                                                                capsys):
        ckpt, table_path = self._eval_inputs(tmp_path)
        body = ckpt.read_bytes()
        ckpt.write_bytes(body[:len(body) // 2])
        assert cli.main(["eval", str(ckpt), str(table_path)]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err.startswith(f"cpnslab: checkpoint {ckpt}: not valid JSON")

    def test_eval_of_a_non_finite_table_exits_two(self, tmp_path, capsys):
        ckpt, table_path = self._eval_inputs(tmp_path)
        lines = table_path.read_text().splitlines()
        label, first, *rest = lines[3].split()
        lines[3] = " ".join([label, "nan", *rest])
        table_path.write_text("\n".join(lines) + "\n")
        assert cli.main(["eval", str(ckpt), str(table_path)]) == 2
        out, err = capsys.readouterr()
        assert not out and "line 4: non-finite feature" in err

    def test_eval_of_a_table_without_rows_exits_two(self, tmp_path, capsys):
        ckpt, table_path = self._eval_inputs(tmp_path)
        dt.save_table(str(table_path), np.empty((0, 16)), [], 4)
        assert cli.main(["eval", str(ckpt), str(table_path)]) == 2
        assert capsys.readouterr() == (
            "", f"cpnslab: table {table_path} has no rows to score\n")

    def test_ablate_writes_six_rows(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_doc(tmp_path / "out"))
        assert cli.main(["ablate", cfg_path]) == 0
        lines = (tmp_path / "out" / "t" / "ablation.csv").read_text().splitlines()
        assert len(lines) == 7
