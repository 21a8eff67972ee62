"""Experiment orchestration: config parsing, the incremental loop, artifact
persistence, and ablation/sensitivity sweeps.

A run walks the task stream with the expand / train / commit / evaluate
cycle once per seed, writing everything under output_dir/run_id/seed-{s}/:
per-epoch JSONL, one EvalRecord JSON per task, one checkpoint per task, and
a single-row CSV summary. A run-level summary.csv collects every seed. All
result artifacts are byte-stable under re-runs with the same config and
seed; the epoch log is excluded from that promise because it carries wall
times.
"""

import glob
import json
import math
import os
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Optional

import numpy as np

from . import counterfactual as cf
from . import data as dt
from . import metrics as mt
from . import model as mdl
from . import trainer as tr
from .atomic import atomic_open
from .errors import ConfigurationError, NumericsError, ParseError
from .risk import GenConfig

SUMMARY_HEADER = "method,scenario,seed,last,avg"
SWEEP_PARAMS = ("lambda", "gamma", "beta", "epsilon", "alpha", "nu")

# variant name -> TrainConfig fields it overrides, in table order
ABLATION_VARIANTS = {
    "baseline": dict(lam=0.0, gamma=0.0, nu=0.0),
    "+intra": dict(lam=0.0),
    "+inter_no2stage": dict(nu=0.0, gamma=0.0),
    "+inter_2stage": dict(nu=0.0, gamma=0.0),
    "both_no2stage": {},
    "full": {},
}
# the variants that train in one stage, on the stage-1 epochs as well
_SINGLE_STAGE_VARIANTS = ("baseline", "+inter_no2stage", "both_no2stage")


@dataclass
class MetricsConfig:
    """Mask sizes and probe cap; `evaluate_task` runs what the inputs allow."""
    masking_ks: tuple[int, ...] = (0, 2, 4, 8)
    probe_limit: int = 64

    def __post_init__(self):
        ks = self.masking_ks = tuple(int(k) for k in self.masking_ks)
        if min(ks, default=0) < 0 or any(b <= a for a, b in zip(ks, ks[1:])):
            raise ConfigurationError(f"masking_ks must be non-negative and "
                                     f"strictly increasing, got {ks}")
        if self.probe_limit < 1:
            raise ConfigurationError("probe_limit must be positive")


@dataclass
class TableDataConfig:
    """The keys of a `kind: "table"` data section."""
    path: str
    B: int
    I: int
    split_seed: int = 0

    def __post_init__(self):
        if self.split_seed < 0:
            raise ConfigurationError(
                f"data.split_seed must be non-negative, got {self.split_seed}")
        if not os.path.exists(self.path):
            raise ConfigurationError(f"table path does not exist: {self.path}")


@dataclass
class ModelConfig:
    feature_dim: int = 16
    hidden_dims: tuple[int, ...] = (32,)
    projector_hidden: Optional[int] = None
    separate_inter_head: bool = False

    def __post_init__(self):
        self.hidden_dims = tuple(int(v) for v in self.hidden_dims)
        projector = (self.feature_dim if self.projector_hidden is None
                     else self.projector_hidden)
        if min(self.feature_dim, projector, *self.hidden_dims) < 1:
            raise ConfigurationError(
                "feature_dim, hidden_dims and projector_hidden must be positive")


@dataclass
class ExperimentConfig:
    """Validated experiment description; see docs/formats.md for the JSON.
    `data` stays a dict; it is checked once, into the config of its kind."""

    data: dict
    run_id: str = "run"
    output_dir: str = "output"
    seeds: tuple[int, ...] = (0,)
    method_label: Optional[str] = None
    use_baseline_trainer: bool = False
    model: ModelConfig = field(default_factory=ModelConfig)
    train: tr.TrainConfig = field(default_factory=tr.TrainConfig)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)

    def __post_init__(self):
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ConfigurationError("seed list must be non-empty")
        if min(self.seeds) < 0:
            raise ConfigurationError(f"seeds must be non-negative, got {self.seeds}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError(f"seeds repeat: {list(self.seeds)}")
        # a run's directory must be a new name inside output_dir
        if self.run_id in ("", ".", "..") or "/" in self.run_id:
            raise ConfigurationError(f"bad run_id {self.run_id!r}")
        kind = self.data.get("kind")
        if kind not in ("synthetic", "table"):
            raise ConfigurationError(
                f"data.kind must be 'synthetic' or 'table', got {kind!r}")
        cls = TableDataConfig if kind == "table" else dt.SyntheticScmConfig
        keys = {k: v for k, v in self.data.items() if k != "kind"}
        self._source = cls(**_section_values("data", keys, cls))

    @property
    def scenario(self):
        s = self._source
        if isinstance(s, TableDataConfig):
            return f"{os.path.basename(s.path)}-B{s.B}-I{s.I}"
        return (f"scm-{s.classes_per_task}x{s.num_tasks}"
                f"-ov{s.overlap}-sp{s.spurious_strength}")

    @property
    def method(self):
        if self.method_label:
            return self.method_label
        if self.use_baseline_trainer:
            return "baseline"
        t = self.train
        degenerate = (t.lam == 0.0 and t.gamma == 0.0 and t.nu == 0.0
                      and t.stage1_epochs == 0)
        return "baseline" if degenerate else "cpns"

    def build_stream(self, seed):
        s = self._source
        if not isinstance(s, TableDataConfig):
            return dt.gen_scm_stream(replace(s, seed=s.seed + int(seed)))
        table = dt.load_table(s.path)
        n = len(table)
        split = max(1, int(0.8 * n))
        order = np.random.default_rng(s.split_seed).permutation(n)
        tr_idx, te_idx = order[:split], order[split:]
        dataset = ((table.x[tr_idx], table.y[tr_idx]),
                   (table.x[te_idx], table.y[te_idx]))
        stream = dt.split_tasks(dataset, s.B, s.I, seed=int(seed))
        if table.dim_tags is not None:
            stream.factor_annotations = {"dim_tags": table.dim_tags}
        return stream

    def input_dim(self, stream):
        return stream.tasks[0][0][0].shape[1]


# JSON type a config value must have, by the annotation of its field
_SCALAR_TYPES = {
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number",
            lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                       and math.isfinite(v))),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _check_value(path, value, hint):
    """Raise ConfigurationError unless `value` has the field type `hint`.

    bool takes only true/false, int only integers (not booleans), float
    any finite number; tuple[X, ...] takes a list of X; Optional[X] also
    takes null.
    """
    if typing.get_origin(hint) is typing.Union:
        if value is None:
            return
        (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) is tuple:
        item_hint = typing.get_args(hint)[0]
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{path} must be a list, got {value!r}")
        for i, item in enumerate(value):
            _check_value(f"{path}[{i}]", item, item_hint)
        return
    kind, ok = _SCALAR_TYPES[hint]
    if not ok(value):
        raise ConfigurationError(f"{path} must be {kind}, got {value!r}")


def _section_values(name, doc, cls):
    """Check one config section against the fields of dataclass `cls`.

    Returns the keyword arguments for `cls`: lists become tuples, and a
    field whose type is itself a dataclass is built from its own section.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{name} must be a JSON object, got {doc!r}")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigurationError(f"unknown {name} keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    values = {}
    for key, value in doc.items():
        path = key if name == "config" else f"{name}.{key}"
        hint = hints[key]
        if is_dataclass(hint):
            values[key] = hint(**_section_values(path, value, hint))
        elif hint is dict:
            if not isinstance(value, dict):
                raise ConfigurationError(
                    f"{path} must be a JSON object, got {value!r}")
            values[key] = dict(value)
        else:
            _check_value(path, value, hint)
            values[key] = tuple(value) if isinstance(value, list) else value
    return values


def config_from_dict(doc) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from a parsed JSON document.

    Every value must have the JSON type of its field (`_check_value`),
    data keys included, so a bad document raises ConfigurationError before
    anything runs.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError("config document must be a JSON object")
    # a TypeError or ValueError from the dataclass checks is a bad value too
    try:
        return ExperimentConfig(**_section_values("config", doc, ExperimentConfig))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad config value: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})")
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# evaluation helpers

def _extend_activations(model, test_sets, acts):
    """Bring acts[j][t], extractor t's `masks_np` on test set j (its hidden
    layers' bool ReLU masks, then its float64 feature), up to every
    extractor of the model and every set in `test_sets`.

    An extractor is final once its task is trained (`trainer._check_frozen`
    enforces it), so entries already in `acts` stay valid and only the
    missing ones are computed: after task t, extractor t on sets 0..t and
    extractors 0..t-1 on set t, 2t+1 forwards. Evaluation reads a hidden
    activation only through its mask, so that is all an entry keeps.
    """
    for j, (x, _) in enumerate(test_sets):
        if j == len(acts):
            acts.append([])
        done = len(acts[j])
        acts[j].extend(ext.masks_np(x) for ext in model.extractors[done:])


def _seen_set_outputs(model, acts, test_sets):
    """Predictions per test set and class-mean concatenated features."""
    preds, sums, counts = [], {}, {}
    for set_acts, (_, y) in zip(acts, test_sets):
        feats = np.concatenate([a[-1] for a in set_acts], axis=1)
        preds.append(np.argmax(model.head_np("cls", feats), axis=1))
        for c in np.unique(y):
            sums[int(c)] = sums.get(int(c), 0.0) + feats[y == c].sum(axis=0)
            counts[int(c)] = counts.get(int(c), 0) + int(np.sum(y == c))
    return preds, {c: sums[c] / counts[c] for c in sums}


def _cf_quality_probe(model, x, y, lo, cfgm: MetricsConfig, gen: GenConfig):
    xs, ys = x[:cfgm.probe_limit], y[:cfgm.probe_limit]
    feats = model.current_feature_np(xs)
    w = model.heads["intra_w"]
    b = model.heads["intra_b"]
    cfs, vals, _, _ = cf.generate_intra_batch(feats, ys - lo, w, b, gen.alpha,
                                              gen.epsilon)
    if model.task_count < 2:
        return mt.counterfactual_quality(model, feats, cfs, vals)
    proj = model.project_values(model.frozen_concat_np(xs))
    cfs_e, vals_e, _, _ = cf.generate_inter_batch(feats, proj, gen.beta,
                                                  gen.epsilon)
    return mt.counterfactual_quality(
        model, np.concatenate([feats, feats]), np.concatenate([cfs, cfs_e]),
        np.concatenate([vals, vals_e]), references=proj)


def evaluate_task(model, stream, task_index, history, acts,
                  cfgm: MetricsConfig, gen: GenConfig) -> mt.EvalRecord:
    """Build the EvalRecord after training task `task_index`.

    `history` and `acts` carry state from one task's evaluation to the
    next, so both start empty and see every task of one run in order:
    `history` gains this task's pooled accuracy, and `acts[j][t]`,
    extractor t's ReLU masks and feature on test set j, gains the 2t+1
    entries the new extractor and the new test set add
    (`_extend_activations`). The predictions and prototypes read `acts`
    once per set; the accuracies, the saliency and the k = 0 masking point
    read those predictions and masks, and only the masked passes (k > 0)
    run every extractor again.

    Each diagnostic is computed whenever its inputs allow: old-to-new
    error and CKA from the second task on, the masking curve when the
    stream's `dim_tags` hold a causal dimension that some `masking_ks`
    entry fits, and counterfactual quality after every task.
    """
    seen = stream.tasks[:task_index + 1]
    test_sets = [test for _, test, _ in seen]
    _extend_activations(model, test_sets, acts)
    preds, protos = _seen_set_outputs(model, acts, test_sets)
    per_task = [float(np.mean(p == y)) for p, (_, y) in zip(preds, test_sets)]
    hits = sum(int(np.sum(p == y)) for p, (_, y) in zip(preds, test_sets))
    total = sum(len(y) for _, y in test_sets)
    history.append(hits / total)
    last, avg = mt.incremental_accuracy(history)

    (x_cur, y_cur), _, (lo, hi) = stream.tasks[task_index]
    old_new = cka = None
    if task_index >= 1:
        old = [(p, y) for p, (_, y) in zip(preds[:task_index], test_sets)]
        old_new = mt.old_new_error(old, (lo, hi), protos)
        # balanced probe: an equal prefix from every seen task's test split
        per = max(1, (4 * cfgm.probe_limit) // len(test_sets))
        probe_x = np.concatenate([x[:per] for x, _ in test_sets])
        cka = mt.extractor_cka(model.extractors[task_index - 1],
                               model.extractors[task_index], probe_x)

    tags = (stream.factor_annotations or {}).get("dim_tags") or ()
    n_causal = sum(t in ("causal", "minimal_causal") for t in tags)
    ks = [k for k in cfgm.masking_ks if k <= n_causal]
    masking = (mt.masking_curve(model, test_sets, acts, preds, tags, ks)
               if n_causal and ks else None)

    quality = _cf_quality_probe(model, x_cur, y_cur, lo, cfgm, gen)

    return mt.EvalRecord(
        task_index=task_index, per_task_acc=per_task, last_acc=last,
        avg_acc=avg, old_new_errors=old_new, cka_by_layer=cka,
        masking_curve=masking, cf_quality=quality)


# ---------------------------------------------------------------------------
# the incremental loop

def _json_lines(docs):
    """Each doc as one canonical JSON line: sorted keys, no spaces."""
    return "".join(json.dumps(doc, sort_keys=True, separators=(",", ":"))
                   + "\n" for doc in docs)


def _write_json_lines(path, docs):
    """Replace the file whole (`atomic_open`) with one JSON line per doc."""
    with atomic_open(path) as fh:
        fh.write(_json_lines(docs))


def _write_csv(path, header, rows):
    """The header line, then one line per row; a float cell is written as
    its shortest exact repr. The file is replaced whole (`atomic_open`)."""
    with atomic_open(path) as fh:
        fh.write(header + "\n")
        for row in rows:
            cells = (repr(float(v)) if isinstance(v, float) else str(v)
                     for v in row)
            fh.write(",".join(cells) + "\n")


def run_seed(config: ExperimentConfig, seed: int, out_dir=None):
    """One full incremental pass; returns (records, summary_row_dict).

    Artifacts land under out_dir (default output_dir/run_id/seed-{seed}):
    epochs.jsonl, task-{t}.eval.json, task-{t}.ckpt, summary.csv. Files
    of those names left there by an earlier run are removed first, so a
    shorter rerun keeps none of the old tasks. Every file is replaced
    whole (`atomic_open`); the epoch log is rewritten after each task from
    the lines already encoded, so a stopped run leaves it ending at the
    last trained task. A stream with an empty train or test split in any
    task raises ConfigurationError before out_dir is made.
    """
    stream = config.build_stream(seed)
    for t, (train, test, _) in enumerate(stream.tasks):
        for split, (_, y) in (("train", train), ("test", test)):
            if not len(y):
                raise ConfigurationError(f"task {t}: empty {split} split")
    if out_dir is None:
        out_dir = os.path.join(config.output_dir, config.run_id,
                               f"seed-{seed}")
    os.makedirs(out_dir, exist_ok=True)
    for pattern in ("task-*.eval.json", "task-*.ckpt", "summary.csv",
                    "epochs.jsonl"):
        for path in glob.glob(os.path.join(glob.escape(out_dir), pattern)):
            os.remove(path)
    log_path = os.path.join(out_dir, "epochs.jsonl")

    model = mdl.ExpandableModel(
        input_dim=config.input_dim(stream),
        feature_dim=config.model.feature_dim,
        hidden_dims=config.model.hidden_dims,
        projector_hidden=config.model.projector_hidden,
        separate_inter_head=config.model.separate_inter_head,
        seed=seed)
    rng = np.random.default_rng(seed + 1)
    buffer = tr.RehearsalBuffer(config.train.buffer_capacity)
    train_fn = (tr.train_task_baseline if config.use_baseline_trainer
                else tr.train_task)

    history = []
    acts = []
    records = []
    log_text = ""
    for t, (train_split, _, (lo, hi)) in enumerate(stream.tasks):
        model.expand(hi - lo)
        try:
            result = train_fn(model, train_split, buffer if t else None,
                              config.train, rng)
        except NumericsError as exc:
            raise NumericsError(f"seed {seed}, task {t}: {exc}") from exc
        log_text += _json_lines(result["records"])
        with atomic_open(log_path) as fh:
            fh.write(log_text)
        tr.buffer_commit(buffer, train_split, model)

        record = evaluate_task(model, stream, t, history, acts,
                               config.metrics, config.train.gen)
        _write_json_lines(os.path.join(out_dir, f"task-{t}.eval.json"),
                          [record.to_json_dict()])
        mdl.save_checkpoint(model, os.path.join(out_dir, f"task-{t}.ckpt"))
        records.append(record)

    # keys in the column order of SUMMARY_HEADER
    row = {"method": config.method, "scenario": config.scenario,
           "seed": seed, "last": records[-1].last_acc,
           "avg": records[-1].avg_acc}
    _write_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_HEADER,
               [row.values()])
    return records, row


def _run_seeds(config: ExperimentConfig, base_dir):
    """run_seed for every seed of the config, under base_dir/seed-{seed}."""
    return [run_seed(config, seed,
                     out_dir=os.path.join(base_dir, f"seed-{seed}"))[1]
            for seed in config.seeds]


def _seed_mean(rows):
    return (float(np.mean([r["last"] for r in rows])),
            float(np.mean([r["avg"] for r in rows])))


def run_experiment(config: ExperimentConfig):
    """All seeds of a run; writes the run-level summary.csv and returns rows."""
    run_dir = os.path.join(config.output_dir, config.run_id)
    rows = _run_seeds(config, run_dir)
    _write_csv(os.path.join(run_dir, "summary.csv"), SUMMARY_HEADER,
               [row.values() for row in rows])
    return rows


# ---------------------------------------------------------------------------
# sweeps and ablations

def _with_param(config: ExperimentConfig, param, value):
    """The config with one generator/loss knob changed."""
    train = config.train
    if param in ("alpha", "beta", "epsilon"):
        train = replace(train, gen=replace(train.gen, **{param: float(value)}))
    else:
        train = replace(train, **{"lam" if param == "lambda" else param:
                                  float(value)})
    return replace(config, train=train)


def run_sweep(config: ExperimentConfig, param, values):
    """One run per value; emits sweep-{param}.csv with seed-averaged rows."""
    if param not in SWEEP_PARAMS:
        raise ConfigurationError(
            f"unknown sweep parameter {param!r}; pick one of {SWEEP_PARAMS}")
    if not values:
        raise ConfigurationError("sweep needs at least one value")
    # every value is checked, and every variant built, before the first run
    for value in values:
        _check_value(f"sweep value for {param}", value, float)
    if len(set(values)) != len(values):
        raise ConfigurationError(f"sweep values repeat: {values}")
    variants = [_with_param(config, param, value) for value in values]
    run_dir = os.path.join(config.output_dir, config.run_id)
    out_rows = []
    for value, variant in zip(values, variants):
        try:
            rows = _run_seeds(variant, os.path.join(
                run_dir, f"sweep-{param}", f"value-{value}"))
        except NumericsError as exc:
            raise NumericsError(f"value {value}: {exc}") from exc
        out_rows.append((float(value), *_seed_mean(rows)))
    _write_csv(os.path.join(run_dir, f"sweep-{param}.csv"), "value,last,avg",
               out_rows)
    return out_rows


def ablation_train_config(base: tr.TrainConfig, variant) -> tr.TrainConfig:
    """The six-variant grid over {intra, inter, two stages}. A single-stage
    variant, the baseline included, folds the stage-1 epochs into stage 2,
    so every variant trains the same number of epochs."""
    if variant not in ABLATION_VARIANTS:
        raise ConfigurationError(f"unknown ablation variant {variant!r}")
    config = replace(base, **ABLATION_VARIANTS[variant])
    if variant in _SINGLE_STAGE_VARIANTS:
        config = replace(config, stage1_epochs=0, stage2_epochs=(
            base.stage1_epochs + base.stage2_epochs))
    return config


def run_ablation(config: ExperimentConfig):
    """Six-variant ablation; emits ablation.csv with one row per variant."""
    run_dir = os.path.join(config.output_dir, config.run_id)
    table = []
    for variant in ABLATION_VARIANTS:
        sub = replace(config, method_label=variant,
                      use_baseline_trainer=(variant == "baseline"),
                      train=ablation_train_config(config.train, variant))
        try:
            rows = _run_seeds(sub, os.path.join(run_dir, "ablation", variant))
        except NumericsError as exc:
            raise NumericsError(f"variant {variant}: {exc}") from exc
        table.append((variant, *_seed_mean(rows)))
    _write_csv(os.path.join(run_dir, "ablation.csv"), SUMMARY_HEADER,
               [(variant, config.scenario, "mean", last, avg)
                for variant, last, avg in table])
    return table


def evaluate_checkpoint(ckpt_path, table_path):
    """Accuracy of a saved model over one tabular file."""
    model = mdl.load_checkpoint(ckpt_path)
    table = dt.load_table(table_path)
    pred = np.argmax(model.forward_concat_np(table.x), axis=1)
    return {"accuracy": float(np.mean(pred == table.y)),
            "n_samples": int(len(table)),
            "n_classes_model": int(model.total_classes),
            "n_classes_data": int(table.n_classes)}
