"""Outside-in span tracing for one seed run.

The tracer replaces public functions of the cpnslab modules with thin
wrappers that record a span per call: name, start, end and the id of the
enclosing span, all under one trace id per seed run. Spans stay in memory
until the run ends; `aggregate` then turns them into per-layer totals,
self times and the counts recorded at the same boundaries.

A wrapper has to sit where the caller looks the name up. `trainer`
imports `empirical_cpns_risk` by name and `run_seed` calls `evaluate_task`
as a module global, so `Tracer.patch` rebinds every cpnslab module
attribute that holds the original function, not only the defining one.
"""

import functools
import inspect
import json
import sys
import time

import numpy as np

# generator time is attributed to the nearest enclosing caller of these,
# as "<generator>.<role>_s"
GENERATOR_CALLERS = {
    "trainer.train_task": "trainer",
    "risk.empirical_cpns_risk": "risk",
    "experiment.evaluate_task": "probe",
}
GENERATORS = {"counterfactual.intra": "alpha", "counterfactual.inter": "beta"}


class Tracer:
    """Records spans and boundary counts for one trace id."""

    def __init__(self, trace_id):
        self.trace_id = trace_id
        self.spans = []            # [span_id, parent_id, name, start, end]
        self.counts = {}           # "<name>.<counter>" -> number
        self._stack = []

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if on_return is not None:
                on_return(self, name, args, kwargs, out)
            return out
        return traced

    def patch(self, owner, attr, name, on_return=None):
        """Wrap `owner.attr` and every cpnslab module binding of it."""
        original = getattr(owner, attr)
        traced = self.wrap(original, name, on_return)
        holders = [(owner, attr)]
        if inspect.ismodule(owner):
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("cpnslab.") or mod is owner:
                    continue
                for key, value in vars(mod).items():
                    if value is original:
                        holders.append((mod, key))
        for holder, key in holders:
            setattr(holder, key, traced)

    def dump(self, path):
        doc = {"trace_id": self.trace_id, "counts": self.counts,
               "spans": [{"id": s[0], "parent": s[1], "name": s[2],
                          "start": s[3], "end": s[4]} for s in self.spans]}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _count_rows(tracer, name, args, kwargs, out):
    # one output row per input row
    tracer.add(f"{name}.rows", len(out))


def _generator_stats(fn, init_key):
    """Waste ratios from the (cfs, vals, scales, degenerate) return value."""
    sig = inspect.signature(fn)

    def on_return(tracer, name, args, kwargs, out):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        init = float(bound.arguments[init_key])
        eps = float(bound.arguments["epsilon"])
        _, vals, scales, degenerate = out
        live = ~np.asarray(degenerate, dtype=bool)
        tracer.add(f"{name}.rows", len(live))
        tracer.add(f"{name}.degenerate", int(len(live) - live.sum()))
        tracer.add(f"{name}.halvings_sum",
                   float(np.sum(np.log2(init / scales[live]))))
        tracer.add(f"{name}.budget_sum", float(np.sum(vals[live] / eps)))
    return on_return


def install(tracer):
    """Wrap the public layer boundaries that one seed run crosses."""
    from cpnslab import (autodiff, counterfactual, data, experiment, metrics,
                         model, trainer)

    tracer.patch(autodiff, "backward", "autodiff.backward")
    tracer.patch(trainer, "train_task", "trainer.train_task")
    tracer.patch(trainer, "train_task_baseline", "trainer.train_task")
    tracer.patch(trainer, "optimizer_step", "trainer.optimizer_step")
    tracer.patch(trainer, "buffer_commit", "trainer.buffer_commit")
    tracer.patch(trainer, "empirical_cpns_risk", "risk.empirical_cpns_risk")
    tracer.patch(model.ExpandableModel, "current_feature_graph",
                 "model.current_feature_graph")
    tracer.patch(model.ExpandableModel, "frozen_concat_np",
                 "model.frozen_concat_np", _count_rows)
    tracer.patch(model, "save_checkpoint", "model.save_checkpoint")
    tracer.patch(model, "load_checkpoint", "model.load_checkpoint")
    for name, init_key in GENERATORS.items():
        attr = f"generate_{name.split('.')[1]}_batch"
        fn = getattr(counterfactual, attr)
        tracer.patch(counterfactual, attr, name, _generator_stats(fn, init_key))
    tracer.patch(experiment, "run_seed", "experiment.run_seed")
    tracer.patch(experiment, "evaluate_task", "experiment.evaluate_task")
    for attr in ("masking_curve", "old_new_error", "extractor_cka",
                 "counterfactual_quality"):
        tracer.patch(metrics, attr, f"metrics.{attr}")
    tracer.patch(data, "gen_scm_stream", "data.gen_scm_stream")


def self_times(spans):
    """Per-span self time: duration minus the time its children cover.

    Spans come from one thread, so children never overlap each other and
    their durations can simply be summed.
    """
    child_time = [0.0] * len(spans)
    for sid, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    return [end - start - child_time[sid]
            for sid, _, _, start, end in spans]


def _caller(spans, sid):
    parent = spans[sid][1]
    while parent is not None:
        role = GENERATOR_CALLERS.get(spans[parent][2])
        if role is not None:
            return role
        parent = spans[parent][1]
    return "other"


def aggregate(tracer):
    """Layer totals of one trace: calls, inclusive s, self_s and counts."""
    spans = tracer.spans
    out = {}
    for (sid, _, name, start, end), own in zip(spans, self_times(spans)):
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start)
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
        if name in GENERATORS:
            key = f"{name}.{_caller(spans, sid)}_s"
            out[key] = out.get(key, 0.0) + (end - start)
    out.update(tracer.counts)
    for name in GENERATORS:
        rows = out.get(f"{name}.rows", 0)
        live = rows - out.get(f"{name}.degenerate", 0)
        out[f"{name}.degenerate_frac"] = (rows - live) / rows if rows else 0.0
        out[f"{name}.halvings_mean"] = (
            out.get(f"{name}.halvings_sum", 0.0) / live if live else 0.0)
        out[f"{name}.budget_use"] = (
            out.get(f"{name}.budget_sum", 0.0) / live if live else 0.0)
    return out
