"""Expansion-based incremental model.

One frozen feature extractor per finished task plus a trainable extractor
for the current task. A unified linear classifier reads the concatenation
of all extractor outputs; three narrow heads (auxiliary, intra-task,
inter-task) and a projector from frozen features into the current feature
space support the training losses. Expansion widens the classifier while
copying old weights verbatim, so old-class logits are untouched by the
expansion step itself.

Checkpoints are JSON documents tagged with the magic string "CPNSLAB1";
floats survive the round trip bit-exactly because python's repr of a
double is shortest-exact.
"""

from __future__ import annotations

import json

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError, FormatError, InputError, UsageError

CHECKPOINT_MAGIC = "CPNSLAB1"


def _init_matrix(rng, n_out, n_in):
    bound = 1.0 / np.sqrt(n_in)
    return rng.uniform(-bound, bound, size=(n_out, n_in))


def _init_bias(rng, n_out, n_in):
    bound = 1.0 / np.sqrt(n_in)
    return rng.uniform(-bound, bound, size=n_out)


class FeatureExtractor:
    """Small MLP mapping inputs to a d-dimensional feature vector.

    Hidden layers use ReLU; the feature output is linear. `params` maps
    `w{i}`/`b{i}` to leaves.
    """

    def __init__(self, layer_dims, rng):
        if len(layer_dims) < 2:
            raise ConfigurationError("extractor needs at least input and output dims")
        self.layer_dims = list(int(v) for v in layer_dims)
        self.params: dict[str, ad.Tensor] = {}
        for i, (n_in, n_out) in enumerate(zip(layer_dims[:-1], layer_dims[1:])):
            self.params[f"w{i}"] = ad.leaf(_init_matrix(rng, n_out, n_in))
            self.params[f"b{i}"] = ad.leaf(_init_bias(rng, n_out, n_in))

    @property
    def n_layers(self):
        return len(self.layer_dims) - 1

    def forward(self, x: ad.Tensor) -> ad.Tensor:
        """Graph-mode forward; gradients flow into x and the parameters."""
        h = x
        for i in range(self.n_layers):
            h = ad.linear(h, self.params[f"w{i}"], self.params[f"b{i}"])
            if i < self.n_layers - 1:
                h = ad.relu(h)
        return h

    def forward_np(self, x):
        """Plain-numpy forward for frozen/evaluation paths."""
        return self.activations_np(x)[-1]

    def activations_np(self, x):
        """Per-layer activations (post-ReLU hiddens, then the feature)."""
        acts = []
        h = np.asarray(x, dtype=np.float64)
        for i in range(self.n_layers):
            h = h @ self.params[f"w{i}"].values.T + self.params[f"b{i}"].values
            if i < self.n_layers - 1:
                h = np.maximum(h, 0.0)
            acts.append(h)
        return acts


class ExpandableModel:
    """Holds the extractor stack, the widening classifier, and the heads.

    Task t state after `expand` was called t+1 times:
      extractors[0..t-1] frozen (by position alone), extractors[t] trainable;
      cls head over (t+1)*d concatenated features -> all seen classes;
      aux head over f_t -> |C_t|+1 logits (absent at t=0);
      intra head over f_t -> |C_t| logits;
      inter head: weight-tied to cls by default, separate on request;
      projector: t*d -> d (absent at t=0).
    """

    def __init__(self, input_dim, feature_dim=32, hidden_dims=(64,),
                 projector_hidden=None, separate_inter_head=False, seed=0):
        self.input_dim = int(input_dim)
        self.feature_dim = int(feature_dim)
        self.hidden_dims = tuple(int(v) for v in hidden_dims)
        self.projector_hidden = int(projector_hidden if projector_hidden
                                    is not None else feature_dim)
        self.separate_inter_head = bool(separate_inter_head)
        self.seed = int(seed)
        self.rng = np.random.default_rng(seed)
        self.extractors: list[FeatureExtractor] = []
        self.heads: dict[str, ad.Tensor] = {}
        self.class_offsets: list[tuple[int, int]] = []

    # -- bookkeeping ---------------------------------------------------

    @property
    def task_count(self):
        return len(self.extractors)

    @property
    def current_task(self):
        if not self.extractors:
            raise UsageError("model has no tasks yet")
        return len(self.extractors) - 1

    @property
    def total_classes(self):
        return self.class_offsets[-1][1] if self.class_offsets else 0

    @property
    def current_class_count(self):
        if not self.class_offsets:
            raise UsageError("model has no tasks yet")
        lo, hi = self.class_offsets[-1]
        return hi - lo

    @property
    def inter_head(self):
        """The head the inter-scope terms read: its own or the classifier."""
        return "inter" if self.separate_inter_head else "cls"

    # -- expansion -----------------------------------------------------

    def expand(self, new_class_count):
        if new_class_count <= 0:
            raise ConfigurationError(
                f"new_class_count must be positive, got {new_class_count}")
        t = self.task_count  # index of the task being opened
        d = self.feature_dim
        dims = [self.input_dim, *self.hidden_dims, d]
        self.extractors.append(FeatureExtractor(dims, self.rng))

        old_total = self.total_classes
        new_total = old_total + new_class_count
        width = (t + 1) * d
        w = np.zeros((new_total, width))
        b = np.zeros(new_total)
        if t > 0:
            w[:old_total, :t * d] = self.heads["cls_w"].values
            b[:old_total] = self.heads["cls_b"].values
        w[old_total:] = _init_matrix(self.rng, new_class_count, width)
        b[old_total:] = _init_bias(self.rng, new_class_count, width)
        self.heads["cls_w"] = ad.leaf(w)
        self.heads["cls_b"] = ad.leaf(b)

        self.heads["intra_w"] = ad.leaf(_init_matrix(self.rng, new_class_count, d))
        self.heads["intra_b"] = ad.leaf(_init_bias(self.rng, new_class_count, d))

        if t >= 1:
            n_aux = new_class_count + 1
            self.heads["aux_w"] = ad.leaf(_init_matrix(self.rng, n_aux, d))
            self.heads["aux_b"] = ad.leaf(_init_bias(self.rng, n_aux, d))
            h = self.projector_hidden
            self.heads["proj_w0"] = ad.leaf(_init_matrix(self.rng, h, t * d))
            self.heads["proj_b0"] = ad.leaf(_init_bias(self.rng, h, t * d))
            self.heads["proj_w1"] = ad.leaf(_init_matrix(self.rng, d, h))
            self.heads["proj_b1"] = ad.leaf(_init_bias(self.rng, d, h))
            if self.separate_inter_head:
                self.heads["inter_w"] = ad.leaf(_init_matrix(self.rng, new_total, width))
                self.heads["inter_b"] = ad.leaf(_init_bias(self.rng, new_total, width))

        self.class_offsets.append((old_total, new_total))
        return self

    # -- forward passes (plain numpy) -----------------------------------

    def _check_input(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.input_dim:
            raise InputError(
                f"input dim {x.shape[-1]} does not match model input {self.input_dim}")
        return x

    def concat_features_np(self, x):
        """Per-extractor features in task order, concatenated."""
        x = self._check_input(x)
        return np.concatenate([ext.forward_np(x) for ext in self.extractors],
                              axis=-1)

    def current_feature_np(self, x):
        x = self._check_input(x)
        return self.extractors[-1].forward_np(x)

    def frozen_concat_np(self, x):
        """Concatenated frozen features [f_0 .. f_{t-1}], numpy only."""
        if self.task_count < 2:
            raise UsageError("no frozen extractors before the second task")
        x = self._check_input(x)
        return np.concatenate(
            [ext.forward_np(x) for ext in self.extractors[:-1]], axis=-1)

    def forward_concat_np(self, x):
        if not self.extractors:
            raise UsageError("model has no extractors")
        return self.head_np("cls", self.concat_features_np(x))

    def _head(self, name):
        if f"{name}_w" not in self.heads:
            raise UsageError(f"the model has no {name} head")
        return self.heads[f"{name}_w"], self.heads[f"{name}_b"]

    def head_np(self, name, z):
        """Logits of head `name` from already-computed features; the numpy
        twin of `head_graph`."""
        w, b = self._head(name)
        return z @ w.values.T + b.values

    def project_values(self, z_old):
        """Apply the projector to already-computed frozen features."""
        if "proj_w0" not in self.heads:
            raise UsageError("projector is absent on the first task")
        h = np.asarray(z_old) @ self.heads["proj_w0"].values.T + self.heads["proj_b0"].values
        h = np.maximum(h, 0.0)
        return h @ self.heads["proj_w1"].values.T + self.heads["proj_b1"].values

    # -- graph-mode builders (the tests' reference graphs, no run path) --

    def current_feature_graph(self, x_node: ad.Tensor) -> ad.Tensor:
        return self.extractors[-1].forward(x_node)

    def head_graph(self, name, feat_node: ad.Tensor) -> ad.Tensor:
        return ad.linear(feat_node, *self._head(name))

    # -- parameter views -------------------------------------------------

    def frozen_snapshot(self):
        """Copies of every frozen extractor parameter, for stability checks."""
        return {f"f{t}/{name}": p.values.copy()
                for t, ext in enumerate(self.extractors[:-1])
                for name, p in ext.params.items()}


# ---------------------------------------------------------------------------
# checkpointing

def _array_in(entry, shape=None):
    """The array of a `{"shape", "data"}` entry; its data must match its
    header, and the header `shape` when one is given."""
    arr = np.asarray(entry["data"], dtype=np.float64)
    if arr.shape != tuple(entry["shape"]):
        raise FormatError(
            f"array shape {arr.shape} does not match header {entry['shape']}")
    if shape is not None and arr.shape != shape:
        raise FormatError(f"array shape {arr.shape} is not {shape}")
    return arr


def save_checkpoint(model: ExpandableModel, path):
    """Write the model as a canonical JSON document.

    Serialization is deterministic (sorted keys, fixed separators) and
    floats round-trip bit-exactly, so identical models produce identical
    bytes.
    """
    doc = {
        "magic": CHECKPOINT_MAGIC,
        "format_version": 1,
        "input_dim": model.input_dim,
        "feature_dim": model.feature_dim,
        "hidden_dims": list(model.hidden_dims),
        "projector_hidden": model.projector_hidden,
        "separate_inter_head": model.separate_inter_head,
        "seed": model.seed,
        "class_offsets": [list(pair) for pair in model.class_offsets],
        "rng_state": model.rng.bit_generator.state,
        "extractors": [
            {
                "task_index": t,
                "layer_dims": ext.layer_dims,
                "frozen": t < model.task_count - 1,
                "params": {
                    name: {"shape": list(p.values.shape),
                           "data": p.values.tolist()}
                    for name, p in ext.params.items()
                },
            }
            for t, ext in enumerate(model.extractors)
        ],
        "heads": {
            name: {"shape": list(t.values.shape), "data": t.values.tolist()}
            for name, t in model.heads.items()
        },
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def load_checkpoint(path) -> ExpandableModel:
    """Read a checkpoint; a missing or mistyped field raises FormatError."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"checkpoint is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("magic") != CHECKPOINT_MAGIC:
        raise FormatError(
            f"bad checkpoint magic: expected {CHECKPOINT_MAGIC!r}, "
            f"got {doc.get('magic')!r}" if isinstance(doc, dict)
            else "checkpoint root is not an object")
    if doc.get("format_version") != 1:
        raise FormatError(f"unsupported checkpoint version {doc.get('format_version')!r}")
    try:
        return _model_from_doc(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(
            f"malformed checkpoint field: {type(exc).__name__}: {exc}") from exc


def _head_shapes(model):
    """The shape of every head `expand` leaves after the model's tasks,
    worked out from its sizes and class offsets."""
    t = model.task_count
    if t == 0:
        return {}
    d, h = model.feature_dim, model.projector_hidden
    lo, total = model.class_offsets[-1]
    new = total - lo
    shapes = {"cls_w": (total, t * d), "cls_b": (total,),
              "intra_w": (new, d), "intra_b": (new,)}
    if t >= 2:
        shapes.update(aux_w=(new + 1, d), aux_b=(new + 1,),
                      proj_w0=(h, (t - 1) * d), proj_b0=(h,),
                      proj_w1=(d, h), proj_b1=(d,))
        if model.separate_inter_head:
            shapes.update(inter_w=(total, t * d), inter_b=(total,))
    return shapes


def _model_from_doc(doc):
    """Build the model and check that its parts fit: each extractor's
    position and the set and shapes of its parameters, the class offsets,
    and the set and shapes of the heads."""
    model = ExpandableModel(
        input_dim=doc["input_dim"],
        feature_dim=doc["feature_dim"],
        hidden_dims=doc["hidden_dims"],
        projector_hidden=doc["projector_hidden"],
        separate_inter_head=doc["separate_inter_head"],
        seed=doc["seed"],
    )
    dims = [model.input_dim, *model.hidden_dims, model.feature_dim]
    shapes = {}
    for i, (n_in, n_out) in enumerate(zip(dims[:-1], dims[1:])):
        shapes[f"w{i}"], shapes[f"b{i}"] = (n_out, n_in), (n_out,)
    last = len(doc["extractors"]) - 1
    for t, ext_doc in enumerate(doc["extractors"]):
        if (ext_doc["task_index"] != t or ext_doc["frozen"] is not (t < last)
                or ext_doc["layer_dims"] != dims):
            raise FormatError(f"extractor {t}: task_index, frozen or layer_dims "
                              f"disagree with its position or the model")
        if set(ext_doc["params"]) != set(shapes):
            raise FormatError(f"extractor {t}: params {sorted(ext_doc['params'])} "
                              f"are not {sorted(shapes)}")
        ext = FeatureExtractor.__new__(FeatureExtractor)
        ext.layer_dims = dims
        ext.params = {name: ad.leaf(_array_in(ext_doc["params"][name], shape))
                      for name, shape in shapes.items()}
        model.extractors.append(ext)
    offsets = model.class_offsets = [tuple(p) for p in doc["class_offsets"]]
    ends = [hi for _, hi in offsets]
    if (len(offsets) != model.task_count or any(hi <= lo for lo, hi in offsets)
            or offsets != list(zip([0, *ends], ends))):
        raise FormatError(f"class_offsets {doc['class_offsets']!r} are not "
                          "contiguous ranges from 0, one per extractor")
    head_shapes = _head_shapes(model)
    if set(doc["heads"]) != set(head_shapes):
        raise FormatError(f"heads {sorted(doc['heads'])} are not the "
                          f"{sorted(head_shapes)} of a {model.task_count}-task "
                          "model")
    for name, shape in sorted(head_shapes.items()):
        model.heads[name] = ad.leaf(_array_in(doc["heads"][name], shape))
    model.rng.bit_generator.state = doc["rng_state"]
    return model
