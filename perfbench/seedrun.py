"""One seed of one workload, in a fresh single-threaded process.

    python3 perfbench/seedrun.py --config CFG --seed N --out DIR [--trace FILE]

Pins every BLAS/OpenMP pool to one thread before numpy is imported, times
set-up (imports, `load_config`, `build_stream`) and one
`experiment.run_seed`, then checks the artifacts it wrote and prints one
JSON object as its last line. With --trace the public layer functions are
wrapped by `spans.install` and the spans are written to FILE.

Without --trace a `SpeedProbe` samples the host's speed all through
set-up and the seed, and the timings are reported both as measured
(`*_wall_s`) and scaled to the reference host speed (`seed_s`, `setup_s`,
`train_steps_per_s`); see `SpeedProbe`.

The checks, none of them inside the timed region: every `task-t.ckpt`
reloads through `model.load_checkpoint` and reproduces the per-task
accuracies of `task-t.eval.json` exactly on the stream's test splits, and
the epoch log has one record per configured epoch. The SHA-256 of the
result artifacts is returned so the caller can require it to be the same
across runs of one workload and seed.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


class CheckFailed(Exception):
    """An artifact disagrees with what the run reported."""


def artifact_digest(out_dir):
    """SHA-256 over every result artifact except the timed epoch log."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name == "epochs.jsonl":
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            body = fh.read()
        h.update(f"{name}\0{len(body)}\0".encode())
        h.update(body)
    return h.hexdigest()


def configured_steps(config):
    """Optimizer steps one seed takes, counted from the config alone."""
    d, t = config.data, config.train
    per_task = d["classes_per_task"] * d["n_train_per_class"]
    batches = math.ceil(per_task / t.batch_size)
    return d["num_tasks"] * (t.stage1_epochs + t.stage2_epochs) * batches


class SpeedProbe:
    """Samples how fast the host runs while the program runs.

    The shared host this benchmark was built on runs the same seed up to
    1.6x slower in phases lasting from seconds to minutes, and the slowdown
    is the same for the program's CPU time as for its wall time. So every
    PERIOD_S of wall time a SIGALRM handler runs a fixed chunk of small
    numpy products and dict stores, much like a training step but with no
    cpnslab code in it: a program change cannot move it, only the host's
    speed can. Python runs the handler in the main thread between
    bytecodes, so the chunks fall inside the program's run, evenly spread
    over its wall time, and cost about 4% of it.

    `spent` is the probe's own time inside an interval, which is taken out
    of every timing. `slowdown` is the mean chunk time over REFERENCE_S,
    about the chunk time of that host (a 2-vCPU Xeon VM at 2.1 GHz) in its
    fast phases. The program slows less than the chunk: over 14 to 25
    seeds of each workload in one process, log(seed time) followed
    log(chunk time) with slope 0.75 (trap-full, long-stream) to 0.89
    (trap-baseline), with a residual of 3-5% against 10-12% unscaled. So
    timings are divided by `factor`, slowdown ** EXPONENT, and read as on
    a host running at the reference speed.
    """

    PERIOD_S = 0.05
    LOOPS = 200
    REFERENCE_S = 0.0015
    EXPONENT = 0.8

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(64, 32))
        self._w = rng.normal(size=(32, 16))
        self._busy = False
        self.samples = []          # (start, seconds) of each chunk
        self._work()               # warm up before the first sample

    def _work(self):
        import numpy as np
        sink = {}
        for i in range(self.LOOPS):
            h = np.maximum(self._a @ self._w, 0.0)
            sink[i % 7] = float(h.sum()) + (h.T @ self._a)[0, 0]

    def _chunk(self, signum, frame):
        if self._busy:             # a chunk outlasted the period
            return
        self._busy = True
        t0 = time.perf_counter()
        self._work()
        self.samples.append((t0, time.perf_counter() - t0))
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._chunk)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, t0, t1):
        return sum(d for s, d in self.samples if t0 <= s < t1)

    def slowdown(self):
        return statistics.fmean(d for _, d in self.samples) / self.REFERENCE_S

    def factor(self):
        return self.slowdown() ** self.EXPONENT


def verify(out_dir, config, stream):
    """Check the artifacts of one seed; returns (digest, checkpoint bytes)."""
    import numpy as np
    from cpnslab import model as mdl

    tasks = stream.tasks
    for t in range(len(tasks)):
        with open(os.path.join(out_dir, f"task-{t}.eval.json")) as fh:
            recorded = json.load(fh)["per_task_acc"]
        reloaded = mdl.load_checkpoint(os.path.join(out_dir, f"task-{t}.ckpt"))
        recomputed = [
            float(np.mean(np.argmax(reloaded.forward_concat_np(x), axis=1) == y))
            for _, (x, y), _ in tasks[:t + 1]]
        if recomputed != recorded:
            raise CheckFailed(f"task {t}: reloaded checkpoint gives accuracies "
                              f"{recomputed}, eval record says {recorded}")
    with open(os.path.join(out_dir, "epochs.jsonl")) as fh:
        epochs = [json.loads(line) for line in fh]
    want = len(tasks) * (config.train.stage1_epochs + config.train.stage2_epochs)
    if len(epochs) != want:
        raise CheckFailed(f"epoch log has {len(epochs)} records, want {want}")
    ckpt_bytes = sum(os.path.getsize(p)
                     for p in glob.glob(os.path.join(out_dir, "task-*.ckpt")))
    return artifact_digest(out_dir), ckpt_bytes


def run(config_path, seed, out_dir, trace_path=None):
    """Set up, run and check one seed; returns the result document."""
    tracer = probe = None
    if trace_path is None:
        probe = SpeedProbe()
        probe.start()
    from cpnslab import experiment as ex
    if trace_path is not None:
        import spans
        tracer = spans.Tracer(f"{os.path.basename(config_path)}/{seed}")
        spans.install(tracer)
        root = tracer.open("perfbench.seed_run")
    try:
        config = ex.load_config(config_path)
        stream = config.build_stream(seed)
        t0 = time.perf_counter()
        records, _ = ex.run_seed(config, seed, out_dir=out_dir)
        t1 = time.perf_counter()
        digest, ckpt_bytes = verify(out_dir, config, stream)
    finally:
        if probe is not None:
            probe.stop()
        if tracer is not None:
            tracer.close(root)
    with open(os.path.join(out_dir, "epochs.jsonl")) as fh:
        train_wall_s = sum(json.loads(line)["wall_ms"] for line in fh) / 1000.0
    setup_wall_s, seed_wall_s = t0 - T_START, t1 - t0
    doc = {
        "setup_wall_s": setup_wall_s,
        "seed_wall_s": seed_wall_s,
        "train_wall_s": train_wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ckpt_bytes": ckpt_bytes,
        "last_acc": records[-1].last_acc,
        "avg_acc": records[-1].avg_acc,
        "digest": digest,
    }
    steps = configured_steps(config)
    if probe is not None:
        factor = probe.factor()
        setup_net_s = setup_wall_s - probe.spent(T_START, t0)
        seed_net_s = seed_wall_s - probe.spent(t0, t1)
        # the epochs are sampled as densely as the whole seed
        train_net_s = train_wall_s * seed_net_s / seed_wall_s
        doc.update({
            "slowdown": probe.slowdown(),
            "probe_chunks": len(probe.samples),
            "seed_net_s": seed_net_s,
            "setup_s": setup_net_s / factor,
            "seed_s": seed_net_s / factor,
            "train_steps_per_s": steps * factor / train_net_s,
        })
    if tracer is not None:
        tracer.dump(trace_path)
        doc["layers"] = spans.aggregate(tracer)
    return doc


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace")
    args = parser.parse_args(argv)
    try:
        doc = run(args.config, args.seed, args.out, args.trace)
        doc["ok"] = True
    except Exception as exc:  # any failure of the run is a measured outcome
        traceback.print_exc(file=sys.stderr)
        doc = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    doc["env"] = environment()
    print(json.dumps(doc))
    return 0 if doc["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
