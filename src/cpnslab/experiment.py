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

import json
import math
import os
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import Optional

import numpy as np

from . import counterfactual as cf
from . import data as dt
from . import metrics as mt
from . import model as mdl
from . import trainer as tr
from .errors import ConfigurationError, ParseError
from .risk import GenConfig, check_proposition1
from .errors import PropositionViolation

SUMMARY_HEADER = "method,scenario,seed,last,avg"
SWEEP_PARAMS = ("lambda", "gamma", "beta", "epsilon", "alpha", "nu")

# variant name -> TrainConfig fields it overrides, in table order
ABLATION_VARIANTS = {
    "baseline": dict(lam=0.0, gamma=0.0, nu=0.0, stage1_epochs=0),
    "+intra": dict(lam=0.0, two_stage=True),
    "+inter_no2stage": dict(nu=0.0, gamma=0.0, two_stage=False),
    "+inter_2stage": dict(nu=0.0, gamma=0.0, two_stage=True),
    "both_no2stage": dict(two_stage=False),
    "full": dict(two_stage=True),
}


@dataclass
class MetricsConfig:
    old_new: bool = True
    cka: bool = True
    masking: bool = True
    cf_quality: bool = True
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
    """The keys of a `kind: "table"` data section; used to check their
    types, the section itself stays a dict."""
    path: str
    B: int
    I: int
    split_seed: int = 0


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
    """Validated experiment description; see docs/formats.md for the JSON."""

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
        if not self.run_id or "/" in self.run_id:
            raise ConfigurationError(f"bad run id {self.run_id!r}")
        kind = self.data.get("kind")
        if kind == "synthetic":
            extra = {k: v for k, v in self.data.items() if k != "kind"}
            self._scm = dt.SyntheticScmConfig(**extra)
        elif kind == "table":
            for key in ("path", "B", "I"):
                if key not in self.data:
                    raise ConfigurationError(f"table data needs {key!r}")
            if not os.path.exists(self.data["path"]):
                raise ConfigurationError(
                    f"table path does not exist: {self.data['path']}")
            self._scm = None
        else:
            raise ConfigurationError(
                f"data.kind must be 'synthetic' or 'table', got {kind!r}")

    @property
    def scenario(self):
        if self._scm is not None:
            s = self._scm
            return (f"scm-{s.classes_per_task}x{s.num_tasks}"
                    f"-ov{s.overlap}-sp{s.spurious_strength}")
        base = os.path.basename(str(self.data["path"]))
        return f"{base}-B{self.data['B']}-I{self.data['I']}"

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
        if self._scm is not None:
            fields = asdict(self._scm)
            fields["seed"] = self._scm.seed + int(seed)
            return dt.gen_scm_stream(dt.SyntheticScmConfig(**fields))
        table = dt.load_table(self.data["path"])
        n = len(table)
        split = max(1, int(0.8 * n))
        order = np.random.default_rng(self.data.get("split_seed", 0)).permutation(n)
        tr_idx, te_idx = order[:split], order[split:]
        dataset = ((table.x[tr_idx], table.y[tr_idx]),
                   (table.x[te_idx], table.y[te_idx]))
        stream = dt.split_tasks(dataset, int(self.data["B"]),
                                int(self.data["I"]), seed=int(seed))
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
    any finite number; tuple[X, ...] takes a list of X and tuple[X, Y] a
    list of exactly those; Optional[X] also takes null.
    """
    if typing.get_origin(hint) is typing.Union:
        if value is None:
            return
        (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{path} must be a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigurationError(
                f"{path} must have {len(args)} entries, got {value!r}")
        for i, (item, arg) in enumerate(zip(value, args)):
            _check_value(f"{path}[{i}]", item, arg)
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
    if "data" not in doc:
        raise ConfigurationError("config needs a 'data' section")
    data = doc["data"]
    kinds = {"synthetic": dt.SyntheticScmConfig, "table": TableDataConfig}
    if isinstance(data, dict) and data.get("kind") in kinds:
        _section_values("data", {k: v for k, v in data.items() if k != "kind"},
                        kinds[data["kind"]])
        if data["kind"] == "table" and data.get("split_seed", 0) < 0:
            raise ConfigurationError(
                f"data.split_seed must be non-negative, got {data['split_seed']}")
    # a TypeError or ValueError from the dataclass checks is a bad value too
    try:
        return ExperimentConfig(**_section_values("config", doc, ExperimentConfig))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad config value: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})")
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# evaluation helpers

def _seen_set_outputs(model, test_sets):
    """Predictions per test set and class-mean concatenated features.

    Each set's features are computed once and dropped after use; only the
    predictions and the per-class sums are kept.
    """
    preds, sums, counts = [], {}, {}
    for x, y in test_sets:
        feats = model.concat_features_np(x)
        preds.append(np.argmax(model.head_np("cls", feats), axis=1))
        for c in np.unique(y):
            sums[int(c)] = sums.get(int(c), 0.0) + feats[y == c].sum(axis=0)
            counts[int(c)] = counts.get(int(c), 0) + int(np.sum(y == c))
    return preds, {c: sums[c] / counts[c] for c in sums}


def _cf_quality_probe(model, x, y, lo, cfgm: MetricsConfig, gen: GenConfig):
    n = min(cfgm.probe_limit, len(x))
    if n == 0:
        return None
    xs, ys = x[:n], y[:n]
    feats = model.current_feature_np(xs)
    w = model.heads["intra_w"].values
    b = model.heads["intra_b"].values
    cfs, vals, _, _ = cf.generate_intra_batch(
        feats, ys - lo, w, b=b, alpha=gen.alpha, epsilon=gen.epsilon,
        metric=gen.metric)
    if model.task_count < 2:
        return mt.counterfactual_quality(model, feats, cfs, vals)
    proj = model.project_values(model.frozen_concat_np(xs))
    cfs_e, vals_e, _, _ = cf.generate_inter_batch(
        feats, proj, beta=gen.beta, epsilon=gen.epsilon, metric=gen.metric)
    return mt.counterfactual_quality(
        model, np.concatenate([feats, feats]), np.concatenate([cfs, cfs_e]),
        np.concatenate([vals, vals_e]), references=proj)


def evaluate_task(model, stream, task_index, history, cfgm: MetricsConfig,
                  gen: GenConfig) -> mt.EvalRecord:
    """Build the EvalRecord after training task `task_index`."""
    seen = stream.tasks[:task_index + 1]
    test_sets = [test for _, test, _ in seen]
    preds, protos = _seen_set_outputs(model, test_sets)
    per_task = [float(np.mean(p == y)) for p, (_, y) in zip(preds, test_sets)]
    hits = sum(int(np.sum(p == y)) for p, (_, y) in zip(preds, test_sets))
    total = sum(len(y) for _, y in test_sets)
    history.append(hits / total if total else float("nan"))
    last, avg = mt.incremental_accuracy(history)

    old_new = None
    if cfgm.old_new and task_index >= 1:
        _, _, (lo, hi) = stream.tasks[task_index]
        old = [(p, y) for p, (_, y) in zip(preds[:task_index], test_sets)]
        old_new = mt.old_new_error(old, (lo, hi), protos)

    cka = None
    if cfgm.cka and task_index >= 1:
        # balanced probe: an equal prefix from every seen task's test split
        per = max(1, (4 * cfgm.probe_limit) // len(test_sets))
        probe_x = np.concatenate([x[:per] for x, _ in test_sets])
        cka = mt.extractor_cka(model.extractors[task_index - 1],
                               model.extractors[task_index], probe_x)

    masking = None
    ann = stream.factor_annotations
    if cfgm.masking and ann and "dim_tags" in ann:
        tags = ann["dim_tags"]
        n_causal = sum(t in ("causal", "minimal_causal") for t in tags)
        ks = [k for k in cfgm.masking_ks if k <= n_causal]
        if ks:
            probe_x = np.concatenate([x for x, _ in test_sets])
            probe_y = np.concatenate([y for _, y in test_sets])
            masking = mt.masking_curve(model, probe_x, probe_y, tags, ks)

    quality = None
    if cfgm.cf_quality:
        (x_cur, y_cur), _, (lo, _) = stream.tasks[task_index]
        quality = _cf_quality_probe(model, x_cur, y_cur, lo, cfgm, gen)

    return mt.EvalRecord(
        task_index=task_index, per_task_acc=per_task, last_acc=last,
        avg_acc=avg, old_new_errors=old_new, cka_by_layer=cka,
        masking_curve=masking, cf_quality=quality)


# ---------------------------------------------------------------------------
# the incremental loop

def _write_json(path, doc):
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def _csv_row(method, scenario, seed, last, avg):
    return f"{method},{scenario},{seed},{repr(float(last))},{repr(float(avg))}"


def run_seed(config: ExperimentConfig, seed: int, out_dir=None):
    """One full incremental pass; returns (records, summary_row_dict).

    Artifacts land under out_dir (default output_dir/run_id/seed-{seed}):
    epochs.jsonl, task-{t}.eval.json, task-{t}.ckpt, summary.csv.
    """
    stream = config.build_stream(seed)
    if out_dir is None:
        out_dir = os.path.join(config.output_dir, config.run_id,
                               f"seed-{seed}")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "epochs.jsonl")
    if os.path.exists(log_path):
        os.remove(log_path)

    model = mdl.ExpandableModel(
        input_dim=config.input_dim(stream),
        feature_dim=config.model.feature_dim,
        hidden_dims=config.model.hidden_dims,
        projector_hidden=config.model.projector_hidden,
        separate_inter_head=config.model.separate_inter_head,
        seed=seed)
    rng = np.random.default_rng(seed + 1)
    buffer = tr.RehearsalBuffer(config.train.buffer_capacity,
                                config.train.buffer_policy)
    train_fn = (tr.train_task_baseline if config.use_baseline_trainer
                else tr.train_task)

    history = []
    records = []
    for t, (train_split, _, (lo, hi)) in enumerate(stream.tasks):
        model.expand(hi - lo)
        result = train_fn(model, train_split, buffer if t else None,
                          config.train, rng, log_path=log_path)
        tr.buffer_commit(buffer, train_split, model, rng=rng)

        record = evaluate_task(model, stream, t, history, config.metrics,
                               config.train.gen)
        final_report = result.get("final_report")
        if final_report is not None and not check_proposition1(final_report):
            raise PropositionViolation(
                f"task {t}: violation bound breached at write time")
        _write_json(os.path.join(out_dir, f"task-{t}.eval.json"),
                    record.to_json_dict())
        mdl.save_checkpoint(model, os.path.join(out_dir, f"task-{t}.ckpt"))
        records.append(record)

    last, avg = records[-1].last_acc, records[-1].avg_acc
    row = {"method": config.method, "scenario": config.scenario,
           "seed": seed, "last": last, "avg": avg}
    with open(os.path.join(out_dir, "summary.csv"), "w") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        fh.write(_csv_row(row["method"], row["scenario"], seed, last, avg) + "\n")
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
    with open(os.path.join(run_dir, "summary.csv"), "w") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for row in rows:
            fh.write(_csv_row(row["method"], row["scenario"], row["seed"],
                              row["last"], row["avg"]) + "\n")
    return rows


# ---------------------------------------------------------------------------
# sweeps and ablations

def _with_param(config: ExperimentConfig, param, value):
    """The config with one generator/loss knob changed."""
    if param not in SWEEP_PARAMS:
        raise ConfigurationError(
            f"unknown sweep parameter {param!r}; pick one of {SWEEP_PARAMS}")
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
        rows = _run_seeds(variant, os.path.join(run_dir, f"sweep-{param}",
                                                f"value-{value}"))
        out_rows.append((float(value), *_seed_mean(rows)))
    path = os.path.join(run_dir, f"sweep-{param}.csv")
    with open(path, "w") as fh:
        fh.write("value,last,avg\n")
        for value, last, avg in out_rows:
            fh.write(f"{repr(value)},{repr(last)},{repr(avg)}\n")
    return out_rows


def ablation_train_config(base: tr.TrainConfig, variant) -> tr.TrainConfig:
    """The six-variant grid over {intra, inter, two_stage}."""
    if variant not in ABLATION_VARIANTS:
        raise ConfigurationError(f"unknown ablation variant {variant!r}")
    return replace(base, **ABLATION_VARIANTS[variant])


def run_ablation(config: ExperimentConfig):
    """Six-variant ablation; emits ablation.csv with one row per variant."""
    run_dir = os.path.join(config.output_dir, config.run_id)
    table = []
    for variant in ABLATION_VARIANTS:
        sub = replace(config, method_label=variant,
                      use_baseline_trainer=(variant == "baseline"),
                      train=ablation_train_config(config.train, variant))
        rows = _run_seeds(sub, os.path.join(run_dir, "ablation", variant))
        table.append((variant, *_seed_mean(rows)))
    path = os.path.join(run_dir, "ablation.csv")
    with open(path, "w") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for variant, last, avg in table:
            fh.write(_csv_row(variant, config.scenario, "mean", last, avg) + "\n")
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
