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
from .atomic import atomic_open, canonical_json
from .errors import ConfigurationError, FormatError, InputError, UsageError

CHECKPOINT_MAGIC = "CPNSLAB1"


def _init_matrix(rng, n_out, n_in):
    bound = 1.0 / np.sqrt(n_in)
    return rng.uniform(-bound, bound, size=(n_out, n_in))


def _init_bias(rng, n_out, n_in):
    bound = 1.0 / np.sqrt(n_in)
    return rng.uniform(-bound, bound, size=n_out)


def _layer_table(dims):
    """The layout table of an MLP with these widths: (weight, bias, rows,
    fan-in) per linear layer, input first."""
    return [(f"w{i}", f"b{i}", n_out, n_in)
            for i, (n_in, n_out) in enumerate(zip(dims[:-1], dims[1:]))]


def _draw(rng, table):
    """Fresh arrays for every layer of a layout table, drawn in its order."""
    arrays = {}
    for w, b, rows, fan_in in table:
        arrays[w] = _init_matrix(rng, rows, fan_in)
        arrays[b] = _init_bias(rng, rows, fan_in)
    return arrays


def mlp_activations(params, prefix, n_layers, x):
    """Per-layer activations of the MLP `{prefix}w{i}`/`{prefix}b{i}` of
    `params`: post-ReLU hiddens, then the linear output. Each layer adds
    its bias and applies its ReLU in place on its fresh product, the
    elementwise operations of `x @ w.T + b` and `np.maximum(x, 0.0)`
    without their temporaries."""
    acts = []
    for i in range(n_layers):
        x = x @ params[f"{prefix}w{i}"].T
        x += params[f"{prefix}b{i}"]
        if i < n_layers - 1:
            np.maximum(x, 0.0, out=x)
        acts.append(x)
    return acts


class FeatureExtractor:
    """Small MLP mapping inputs to a d-dimensional feature vector.

    Hidden layers use ReLU; the feature output is linear. `params` maps
    `w{i}`/`b{i}` to the given float64 arrays. `_encoded` is the
    checkpoint text of `params` with the bytes it encodes, or None
    (`_params_text`).
    """

    def __init__(self, layer_dims, arrays):
        self.layer_dims = list(int(v) for v in layer_dims)
        self.params: dict[str, np.ndarray] = dict(arrays)
        self._encoded = None

    @property
    def n_layers(self):
        return len(self.layer_dims) - 1

    def forward_np(self, x):
        """Plain-numpy forward for frozen/evaluation paths."""
        return self.activations_np(x)[-1]

    def activations_np(self, x):
        """Per-layer activations (post-ReLU hiddens, then the feature)."""
        return mlp_activations(self.params, "", self.n_layers,
                               np.asarray(x, dtype=np.float64))

    def masks_np(self, x):
        """What evaluation keeps of `activations_np`: each hidden layer's
        ReLU mask `h > 0.0` (bool), then the float64 feature."""
        *hiddens, feature = self.activations_np(x)
        return [h > 0.0 for h in hiddens] + [feature]


def _freeze(extractors):
    """Make every array of `extractors` read-only: a write to one raises."""
    for ext in extractors:
        for p in ext.params.values():
            p.flags.writeable = False


class ExpandableModel:
    """Holds the extractor stack, the widening classifier, and the heads.

    Task t state after `expand` was called t+1 times:
      extractors[0..t-1] frozen (read-only arrays), extractors[t] trainable;
      cls head over (t+1)*d concatenated features -> all seen classes;
      aux head over f_t -> |C_t|+1 logits (absent at t=0);
      intra head over f_t -> |C_t| logits;
      inter head: weight-tied to cls by default, separate on request;
      projector: t*d -> d (absent at t=0).

    `heads` maps `{head}_w`/`{head}_b` to plain float64 arrays, as each
    extractor's `params` does; no parameter is a graph node.
    """

    def __init__(self, input_dim, feature_dim, hidden_dims,
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
        self.heads: dict[str, np.ndarray] = {}
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

    def _head_table(self):
        """The layout of every head after the model's tasks, in the order
        `expand` draws them; cls comes first with its full shape."""
        if not self.class_offsets:
            return []
        t, d, h = self.current_task, self.feature_dim, self.projector_hidden
        total = self.total_classes
        new = self.current_class_count
        table = [("cls_w", "cls_b", total, (t + 1) * d),
                 ("intra_w", "intra_b", new, d)]
        if t >= 1:
            table += [("aux_w", "aux_b", new + 1, d),
                      ("proj_w0", "proj_b0", h, t * d),
                      ("proj_w1", "proj_b1", d, h)]
            if self.separate_inter_head:
                table.append(("inter_w", "inter_b", total, (t + 1) * d))
        return table

    def expand(self, new_class_count):
        if new_class_count <= 0:
            raise ConfigurationError(
                f"new_class_count must be positive, got {new_class_count}")
        _freeze(self.extractors[-1:])  # the finished extractor, if any
        dims = [self.input_dim, *self.hidden_dims, self.feature_dim]
        self.extractors.append(
            FeatureExtractor(dims, _draw(self.rng, _layer_table(dims))))
        old_total = self.total_classes
        self.class_offsets.append((old_total, old_total + new_class_count))
        (_, _, new_total, width), *rest = self._head_table()
        # widen the classifier: the old block verbatim, fresh rows below it
        w = np.zeros((new_total, width))
        b = np.zeros(new_total)
        if old_total:
            w[:old_total, :width - self.feature_dim] = self.heads["cls_w"]
            b[:old_total] = self.heads["cls_b"]
        w[old_total:] = _init_matrix(self.rng, new_class_count, width)
        b[old_total:] = _init_bias(self.rng, new_class_count, width)
        self.heads["cls_w"] = w
        self.heads["cls_b"] = b
        self.heads.update(_draw(self.rng, rest))
        return self

    # -- forward passes (plain numpy) -----------------------------------

    def _check_input(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.input_dim:
            raise InputError(
                f"input dim {x.shape[-1]} does not match model input {self.input_dim}")
        return x

    def _feature_table(self, extractors, x, out=None):
        """The features of `extractors` in order, side by side: each one's
        block is written into one table, the bits `np.concatenate` gives.
        The table is `out` when given, which must have exactly its shape."""
        x = self._check_input(x)
        d = self.feature_dim
        shape = x.shape[:-1] + (len(extractors) * d,)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape:
            raise UsageError(f"feature table of shape {out.shape}, not {shape}")
        for t, ext in enumerate(extractors):
            out[..., t * d:(t + 1) * d] = ext.forward_np(x)
        return out

    def concat_features_np(self, x):
        """Per-extractor features in task order, concatenated."""
        return self._feature_table(self.extractors, x)

    def current_feature_np(self, x):
        x = self._check_input(x)
        return self.extractors[-1].forward_np(x)

    def frozen_concat_np(self, x, out=None):
        """Concatenated frozen features [f_0 .. f_{t-1}], numpy only; with
        `out`, written into it (a row slice of a larger table, say)."""
        if self.task_count < 2:
            raise UsageError("no frozen extractors before the second task")
        return self._feature_table(self.extractors[:-1], x, out)

    def forward_concat_np(self, x):
        if not self.extractors:
            raise UsageError("model has no extractors")
        return self.head_np("cls", self.concat_features_np(x))

    def _head(self, name):
        if f"{name}_w" not in self.heads:
            raise UsageError(f"the model has no {name} head")
        return self.heads[f"{name}_w"], self.heads[f"{name}_b"]

    def head_np(self, name, z):
        """Logits of head `name` from already-computed features."""
        w, b = self._head(name)
        return z @ w.T + b

    def project_values(self, z_old):
        """Apply the projector to already-computed frozen features."""
        if "proj_w0" not in self.heads:
            raise UsageError("projector is absent on the first task")
        return mlp_activations(self.heads, "proj_", 2, np.asarray(z_old))[-1]

    # -- graph-mode builder (the tests' reference graphs, no run path) ---

    def current_feature_graph(self, x_node, leaves):
        """The current extractor's forward as a graph from `x_node`, with
        `leaves` mapping its `w{i}`/`b{i}` to nodes over its arrays; the
        gradients flow into x_node and those nodes."""
        h = x_node
        n = self.extractors[-1].n_layers
        for i in range(n):
            h = ad.linear(h, leaves[f"w{i}"], leaves[f"b{i}"])
            if i < n - 1:
                h = ad.relu(h)
        return h


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


def _array_out(values):
    return {"shape": list(values.shape), "data": values.tolist()}


def _params_text(ext):
    """The checkpoint text of an extractor's `params`.

    Writing floats as text is most of a checkpoint's cost, and every later
    checkpoint of a run holds the frozen extractors again. So the text is
    kept on the extractor with the bytes it encodes and reused while they
    are unchanged: a run encodes each extractor once, when its task is
    checkpointed, not again at every later task.
    """
    key = [(name, p.shape, p.tobytes()) for name, p in ext.params.items()]
    if ext._encoded is None or ext._encoded[0] != key:
        ext._encoded = (key, canonical_json(
            {name: _array_out(p) for name, p in ext.params.items()}))
    return ext._encoded[1]


def save_checkpoint(model: ExpandableModel, path):
    """Write the model as a canonical JSON document.

    Serialization is deterministic (sorted keys, fixed separators) and
    floats round-trip bit-exactly, so identical models produce identical
    bytes. The file is replaced whole (`atomic_open`). Each extractor's
    params text comes from `_params_text` and replaces the first
    `"params":null` of its entry, and the entries replace the first
    `"extractors":null` of the document: the keys that sort before those
    hold only booleans and numbers, so the first null is the placeholder.
    """
    last = model.task_count - 1
    extractors = ",".join(
        canonical_json({"task_index": t, "layer_dims": ext.layer_dims,
                        "frozen": t < last, "params": None})
        .replace('"params":null', '"params":' + _params_text(ext), 1)
        for t, ext in enumerate(model.extractors))
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
        "extractors": None,
        "heads": {name: _array_out(a) for name, a in model.heads.items()},
    }
    text = canonical_json(doc).replace('"extractors":null',
                                       f'"extractors":[{extractors}]', 1)
    with atomic_open(path) as fh:
        fh.write(text)
        fh.write("\n")


def load_checkpoint(path) -> ExpandableModel:
    """Read a checkpoint; undecodable text or a missing, mistyped or
    inconsistent field raises FormatError, its message led by the path."""
    try:
        return _read_checkpoint(path)
    except FormatError as exc:
        raise FormatError(f"checkpoint {path}: {exc}") from exc


def _read_checkpoint(path):
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"not UTF-8 text ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("magic") != CHECKPOINT_MAGIC:
        raise FormatError(
            f"bad magic: expected {CHECKPOINT_MAGIC!r}, "
            f"got {doc.get('magic')!r}" if isinstance(doc, dict)
            else "the root is not an object")
    if doc.get("format_version") != 1:
        raise FormatError(f"unsupported version {doc.get('format_version')!r}")
    try:
        return _model_from_doc(doc)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(
            f"malformed field: {type(exc).__name__}: {exc}") from exc


def _arrays_in(entries, table, what):
    """The arrays of `entries`, which must be exactly the layers of a
    layout table, each with the table's shape."""
    shapes = {}
    for w, b, rows, fan_in in table:
        shapes[w], shapes[b] = (rows, fan_in), (rows,)
    if set(entries) != set(shapes):
        raise FormatError(f"{what} {sorted(entries)} are not {sorted(shapes)}")
    arrays = {name: _array_in(entries[name], shape)
              for name, shape in shapes.items()}
    bad = sorted(name for name, a in arrays.items() if not np.isfinite(a).all())
    if bad:
        raise FormatError(f"{what} {bad} hold NaN or inf")
    return arrays


def _integers(value):
    """Whether `value` is an int (no bool) or a list of them at any depth."""
    if isinstance(value, list):
        return all(map(_integers, value))
    return type(value) is int


def _model_from_doc(doc):
    """Build the model and check that its parts fit: the types of the
    architecture and RNG fields, the class offsets, each extractor's
    position and the set and shapes of its parameters, and the set and
    shapes of the heads. Every extractor but the last is loaded frozen."""
    for key in ("input_dim", "feature_dim", "hidden_dims",
                "projector_hidden", "seed", "class_offsets"):
        if not _integers(doc[key]):
            raise FormatError(f"{key} {doc[key]!r} is not made of integers")
    if type(doc["separate_inter_head"]) is not bool:
        raise FormatError("separate_inter_head is not a boolean")
    rng = doc["rng_state"]
    if not _integers([rng["state"]["state"], rng["state"]["inc"],
                      rng["has_uint32"], rng["uinteger"]]):
        raise FormatError("rng_state is not made of integers")
    model = ExpandableModel(
        input_dim=doc["input_dim"],
        feature_dim=doc["feature_dim"],
        hidden_dims=doc["hidden_dims"],
        projector_hidden=doc["projector_hidden"],
        separate_inter_head=doc["separate_inter_head"],
        seed=doc["seed"],
    )
    last = len(doc["extractors"]) - 1
    offsets = [tuple(p) for p in doc["class_offsets"]]
    ends = [hi for _, hi in offsets]
    if (len(offsets) != last + 1 or any(hi <= lo for lo, hi in offsets)
            or offsets != list(zip([0, *ends], ends))):
        raise FormatError(f"class_offsets {doc['class_offsets']!r} are not "
                          "contiguous ranges from 0, one per extractor")
    dims = [model.input_dim, *model.hidden_dims, model.feature_dim]
    layers = _layer_table(dims)
    for t, ext_doc in enumerate(doc["extractors"]):
        if (ext_doc["task_index"] != t or ext_doc["frozen"] is not (t < last)
                or ext_doc["layer_dims"] != dims
                or not _integers([ext_doc["task_index"],
                                  ext_doc["layer_dims"]])):
            raise FormatError(f"extractor {t}: task_index, frozen or layer_dims "
                              f"disagree with its position or the model")
        arrays = _arrays_in(ext_doc["params"], layers, f"extractor {t}: params")
        model.extractors.append(FeatureExtractor(dims, arrays))
    _freeze(model.extractors[:-1])
    model.class_offsets = offsets
    model.heads.update(_arrays_in(doc["heads"], model._head_table(), "heads"))
    model.rng.bit_generator.state = rng
    return model
