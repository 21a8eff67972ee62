"""Task streams for class-incremental runs.

Two sources feed the engine: a synthetic generator whose ground truth is a
structural causal model with annotated causal, minimal-causal, spurious, and
noise dimensions, and a plain-text tabular loader for externally extracted
features.  Both produce a TaskStream: an ordered list of
(train split, test split, label range) triples with pairwise disjoint ranges.

The synthetic stream is built so that two things hold exactly by
construction: the maximum cosine between consecutive tasks' class prototypes
(restricted to causal dimensions) equals the configured overlap, and the
spurious dimensions carry the label signal at the configured rate in the
train split while being label-independent in the test split. The stream
keeps the ground truth in its `factor_annotations`; the tests audit both
properties against it.
"""

import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .atomic import atomic_open
from .errors import ConfigurationError, FormatError, InputError, ParseError

DIM_TAGS = ("causal", "minimal_causal", "spurious", "noise")

# margins of the class-mean coefficients along each causal direction; the
# minimal-causal subset gets the larger one so it alone separates the train
# split, which is exactly the shortcut a greedy learner will take
MC_MARGIN = 3.0
C_MARGIN = 1.5
SPUR_MARGIN = 3.0
COEFF_SD = 0.3


@dataclass
class SyntheticScmConfig:
    """Knobs of the generative model.

    d_c causal directions per class, of which the first d_mc carry the
    largest margins; d_s spurious dimensions shared by the whole stream;
    overlap is the cosine between consecutive tasks' causal subspaces and
    spurious_strength the train-time rate at which the spurious block agrees
    with the label.
    """

    classes_per_task: int = 4
    num_tasks: int = 5
    d_c: int = 2
    d_s: int = 8
    d_mc: int = 1
    overlap: float = 0.7
    spurious_strength: float = 0.95
    noise_sigma: float = 0.1
    input_dim: int = 64
    seed: int = 0
    n_train_per_class: int = 100
    n_test_per_class: int = 50

    def __post_init__(self):
        for name in ("classes_per_task", "num_tasks", "d_c", "d_mc",
                     "input_dim", "n_train_per_class", "n_test_per_class"):
            if int(getattr(self, name)) < 1:
                raise ConfigurationError(f"{name} must be a positive integer")
        if self.d_s < 0:
            raise ConfigurationError("d_s must be non-negative")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        if not self.d_mc < self.d_c:
            raise ConfigurationError(
                f"d_mc must be smaller than d_c, got {self.d_mc} >= {self.d_c}")
        if self.d_c > self.input_dim:
            raise ConfigurationError(
                f"d_c {self.d_c} exceeds input_dim {self.input_dim}")
        if not 0.0 <= self.overlap <= 1.0:
            raise ConfigurationError(f"overlap must be in [0, 1], got {self.overlap}")
        if not 0.0 <= self.spurious_strength <= 1.0:
            raise ConfigurationError(
                f"spurious_strength must be in [0, 1], got {self.spurious_strength}")
        if self.noise_sigma < 0.0:
            raise ConfigurationError("noise_sigma must be non-negative")


@dataclass
class TaskStream:
    """Ordered tasks plus optional ground-truth factor annotations.

    tasks: list of ((x_train, y_train), (x_test, y_test), (lo, hi)) with
    labels in [lo, hi). Construction validates range disjointness and label
    membership, so downstream code can rely on both.
    """

    tasks: list
    factor_annotations: Optional[dict] = None

    def __post_init__(self):
        ranges = [rng for _, _, rng in self.tasks]
        for i, (lo, hi) in enumerate(ranges):
            if not lo < hi:
                raise InputError(f"task {i}: empty label range [{lo}, {hi})")
            for j in range(i):
                lo2, hi2 = ranges[j]
                if lo < hi2 and lo2 < hi:
                    raise InputError(
                        f"label ranges of tasks {j} and {i} overlap: "
                        f"[{lo2}, {hi2}) vs [{lo}, {hi})")
        for i, (train, test, (lo, hi)) in enumerate(self.tasks):
            for split_name, (x, y) in (("train", train), ("test", test)):
                x = np.asarray(x)
                y = np.asarray(y)
                if len(x) != len(y):
                    raise InputError(
                        f"task {i} {split_name}: {len(x)} samples vs {len(y)} labels")
                if len(y) and (y.min() < lo or y.max() >= hi):
                    raise InputError(
                        f"task {i} {split_name}: labels outside [{lo}, {hi})")


def _orthonormal_rows(rng, k, dim, orthogonal_to=None):
    """k orthonormal row vectors in R^dim, optionally orthogonal to a frame."""
    basis = rng.normal(size=(k, dim))
    if orthogonal_to is not None and len(orthogonal_to):
        basis = basis - (basis @ orthogonal_to.T) @ orthogonal_to
    q, _ = np.linalg.qr(basis.T)
    return q.T[:k]


def _frame_sequence(rng, num_tasks, count, dim, overlap):
    """Per-task frames of `count` orthonormal rows with controlled overlap.

    Frame t+1 is s * frame_t + sqrt(1 - s^2) * W with W orthonormal and
    orthogonal to frame_t, which keeps every frame orthonormal and makes the
    inner product between matching rows of consecutive frames exactly s.
    """
    frames = [_orthonormal_rows(rng, count, dim)]
    s = float(overlap)
    mix = np.sqrt(max(0.0, 1.0 - s * s))
    for _ in range(1, num_tasks):
        w = _orthonormal_rows(rng, count, dim, orthogonal_to=frames[-1])
        frames.append(s * frames[-1] + mix * w)
    return frames


def gen_scm_stream(config: SyntheticScmConfig) -> TaskStream:
    """Generate the synthetic stream.

    Geometry: the input space is partitioned into a minimal-causal block, a
    causal block, a spurious block, and a noise remainder.  Each class owns
    d_c orthonormal directions (d_mc in the minimal-causal block, the rest in
    the causal block); its samples are the margin-weighted sum of those
    directions plus coefficient jitter, a per-class spurious pattern gated by
    spurious_strength on the train split only, and isotropic Gaussian noise.
    Consecutive tasks' direction frames are rotated against each other so the
    class-prototype cosine equals config.overlap.
    """
    cfg = config
    K, T = cfg.classes_per_task, cfg.num_tasks
    n_classes = K * T
    # two consecutive frames must coexist inside each causal sub-block
    depth = 2 if T > 1 else 1
    mc_size = depth * K * cfg.d_mc
    c_size = depth * K * (cfg.d_c - cfg.d_mc)
    causal_size = mc_size + c_size
    if causal_size + cfg.d_s > cfg.input_dim:
        raise ConfigurationError(
            "infeasible geometry: need "
            f"{depth}*{K}*{cfg.d_c} causal dims + {cfg.d_s} spurious dims "
            f"but input_dim is {cfg.input_dim}")

    rng = np.random.default_rng(cfg.seed)
    mc_slice = slice(0, mc_size)
    c_slice = slice(mc_size, causal_size)
    spur_slice = slice(causal_size, causal_size + cfg.d_s)

    dim_tags = ["noise"] * cfg.input_dim
    dim_tags[mc_slice] = ["minimal_causal"] * mc_size
    dim_tags[c_slice] = ["causal"] * c_size
    dim_tags[spur_slice] = ["spurious"] * cfg.d_s

    mc_frames = _frame_sequence(rng, T, K * cfg.d_mc, mc_size, cfg.overlap)
    c_frames = _frame_sequence(rng, T, K * (cfg.d_c - cfg.d_mc), c_size,
                               cfg.overlap)

    # one spurious pattern per class; orthonormal rows when they fit, unit
    # vectors otherwise, so a linear probe on the block can read the label
    if cfg.d_s == 0:
        patterns = np.zeros((n_classes, 0))
    elif cfg.d_s >= n_classes:
        patterns = _orthonormal_rows(rng, n_classes, cfg.d_s)
    else:
        patterns = rng.normal(size=(n_classes, cfg.d_s))
        patterns /= np.linalg.norm(patterns, axis=1, keepdims=True)
    patterns = SPUR_MARGIN * patterns

    margins = np.concatenate([np.full(cfg.d_mc, MC_MARGIN),
                              np.full(cfg.d_c - cfg.d_mc, C_MARGIN)])

    class_directions = {}
    class_prototypes = {}
    for t in range(T):
        for k in range(K):
            dirs = np.zeros((cfg.d_c, cfg.input_dim))
            dirs[:cfg.d_mc, mc_slice] = \
                mc_frames[t][k * cfg.d_mc:(k + 1) * cfg.d_mc]
            dirs[cfg.d_mc:, c_slice] = \
                c_frames[t][k * (cfg.d_c - cfg.d_mc):
                            (k + 1) * (cfg.d_c - cfg.d_mc)]
            g = t * K + k
            class_directions[g] = dirs
            class_prototypes[g] = margins @ dirs

    def sample_class(g, n, aligned_rate):
        dirs = class_directions[g]
        coeff = margins + COEFF_SD * rng.normal(size=(n, cfg.d_c))
        x = coeff @ dirs
        if cfg.d_s:
            pick = rng.integers(0, n_classes, size=n)
            if aligned_rate > 0.0:
                own = rng.random(n) < aligned_rate
                pick = np.where(own, g, pick)
            x[:, spur_slice] += patterns[pick]
        x += cfg.noise_sigma * rng.normal(size=(n, cfg.input_dim))
        return x

    tasks = []
    for t in range(T):
        lo, hi = t * K, (t + 1) * K
        splits = []
        for n, rate in ((cfg.n_train_per_class, cfg.spurious_strength),
                        (cfg.n_test_per_class, 0.0)):
            xs = [sample_class(g, n, rate) for g in range(lo, hi)]
            ys = [np.full(n, g, dtype=np.int64) for g in range(lo, hi)]
            x = np.concatenate(xs)
            y = np.concatenate(ys)
            perm = rng.permutation(len(x))
            splits.append((x[perm], y[perm]))
        tasks.append((splits[0], splits[1], (lo, hi)))

    annotations = {
        "dim_tags": dim_tags,
        "class_directions": class_directions,
        "class_prototypes": class_prototypes,
        "margins": margins,
    }
    return TaskStream(tasks=tasks, factor_annotations=annotations)


def split_tasks(dataset, B: int, I: int, seed=0) -> TaskStream:
    """Split a labeled dataset into a first task of B classes then tasks of I.

    dataset is ((x_train, y_train), (x_test, y_test)). Class order is
    shuffled by the seed, classes are relabeled to consecutive ids in that
    order, and classes beyond the last full increment are dropped.
    """
    if B < 1 or I < 1:
        raise ConfigurationError(f"B and I must be positive, got B={B} I={I}")
    try:
        (x_train, y_train), (x_test, y_test) = dataset
    except (TypeError, ValueError):
        raise InputError(
            "dataset must be ((x_train, y_train), (x_test, y_test))")
    x_train = np.asarray(x_train, dtype=np.float64)
    x_test = np.asarray(x_test, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.int64)
    y_test = np.asarray(y_test, dtype=np.int64)

    classes = np.unique(np.concatenate([y_train, y_test]))
    if B > len(classes):
        raise ConfigurationError(
            f"first task wants {B} classes but only {len(classes)} exist")
    order = np.random.default_rng(seed).permutation(classes)
    num_incr = (len(classes) - B) // I
    kept = order[:B + num_incr * I]
    # new id by position in the sorted classes; dropped classes keep -1
    new_id = np.full(len(classes), -1, dtype=np.int64)
    new_id[np.searchsorted(classes, kept)] = np.arange(len(kept))

    def remap(x, y, members):
        mask = np.isin(y, members)
        return x[mask], new_id[np.searchsorted(classes, y[mask])]

    tasks = []
    start = 0
    for t in range(1 + num_incr):
        width = B if t == 0 else I
        members = kept[start:start + width]
        lo, hi = start, start + width
        tasks.append((remap(x_train, y_train, members),
                      remap(x_test, y_test, members), (lo, hi)))
        start += width
    return TaskStream(tasks=tasks, factor_annotations=None)


# ---------------------------------------------------------------------------
# tabular text format

HEADER_PREFIX = "cpns-tab v1"


def save_table(path, x, y, n_classes, dim_tags=None):
    """Write samples in the tabular text format; floats keep full precision.

    With dim_tags, writes a sidecar file `<path>.factors` holding one tag
    per dimension; without, removes one an earlier save left. The shapes,
    the finiteness of x, the label range and the tags are checked first,
    so bad input raises InputError before any file is written, and what
    is written `load_table` reads back. Each file is replaced whole
    (`atomic_open`), and both are written before either replaces its
    target, so a save stopped midway leaves the earlier pair.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or len(x) != len(y):
        raise InputError(f"bad table shapes: x {x.shape}, y {y.shape}")
    if not np.isfinite(x).all():
        raise InputError("table features must be finite")
    dims = x.shape[1]
    if dims < 1 or n_classes < 1:
        raise InputError(
            f"dims and classes must be positive, got {dims} and {n_classes}")
    if len(y) and (y.min() < 0 or y.max() >= n_classes):
        raise InputError(f"labels outside [0, {n_classes})")
    if dim_tags is not None:
        if len(dim_tags) != dims:
            raise InputError(
                f"{len(dim_tags)} tags for {dims} dimensions")
        for tag in dim_tags:
            if tag not in DIM_TAGS:
                raise InputError(f"unknown dimension tag {tag!r}")
    lines = [f"{HEADER_PREFIX} dims={dims} classes={int(n_classes)}"]
    for label, row in zip(y, x):
        lines.append(str(int(label)) + " "
                     + " ".join(repr(float(v)) for v in row))
    sidecar = str(path) + ".factors"
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")
        if dim_tags is not None:
            with atomic_open(sidecar) as tags:
                tags.write("\n".join(dim_tags) + "\n")
        elif os.path.exists(sidecar):
            os.remove(sidecar)


class Table:
    """Loaded tabular data: x, y, declared class count, optional dim tags."""

    __slots__ = ("x", "y", "n_classes", "dim_tags")

    def __init__(self, x, y, n_classes, dim_tags=None):
        self.x = x
        self.y = y
        self.n_classes = n_classes
        self.dim_tags = dim_tags

    def __len__(self):
        return len(self.y)


def load_table(path) -> Table:
    """Parse the tabular text format written by save_table.

    Errors carry 1-based line numbers: undecodable text and unparseable
    values raise ParseError; dimension or label-range inconsistencies and
    non-finite features raise FormatError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})")
    if not lines:
        raise ParseError(f"{path}: empty file, missing header")
    header = lines[0].split()
    if (len(header) != 4 or " ".join(header[:2]) != HEADER_PREFIX
            or not header[2].startswith("dims=")
            or not header[3].startswith("classes=")):
        raise ParseError(f"{path} line 1: bad header {lines[0]!r}")
    try:
        dims = int(header[2][len("dims="):])
        n_classes = int(header[3][len("classes="):])
    except ValueError:
        raise ParseError(f"{path} line 1: bad header {lines[0]!r}")
    if dims < 1 or n_classes < 1:
        raise FormatError(f"{path} line 1: dims and classes must be positive")

    xs, ys = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != dims + 1:
            raise FormatError(
                f"{path} line {lineno}: expected {dims + 1} fields, "
                f"got {len(fields)}")
        try:
            label = int(fields[0])
        except ValueError:
            raise ParseError(f"{path} line {lineno}: bad label {fields[0]!r}")
        try:
            row = [float(v) for v in fields[1:]]
        except ValueError:
            raise ParseError(f"{path} line {lineno}: non-numeric feature")
        if not all(map(math.isfinite, row)):
            raise FormatError(f"{path} line {lineno}: non-finite feature")
        if not 0 <= label < n_classes:
            raise FormatError(
                f"{path} line {lineno}: label {label} outside "
                f"[0, {n_classes})")
        ys.append(label)
        xs.append(row)

    x = np.array(xs, dtype=np.float64).reshape(len(xs), dims)
    y = np.array(ys, dtype=np.int64)

    dim_tags = None
    sidecar = str(path) + ".factors"
    if os.path.exists(sidecar):
        try:
            with open(sidecar, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{sidecar}: not UTF-8 text ({exc})")
        dim_tags = [t.strip() for t in text.splitlines() if t.strip()]
        if len(dim_tags) != dims:
            raise FormatError(
                f"{sidecar}: {len(dim_tags)} tags for {dims} dimensions")
        for i, tag in enumerate(dim_tags, start=1):
            if tag not in DIM_TAGS:
                raise FormatError(f"{sidecar} line {i}: unknown tag {tag!r}")
    return Table(x, y, n_classes, dim_tags)
