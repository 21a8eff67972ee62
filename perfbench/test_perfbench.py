"""Tests of the benchmark itself, on the workload sized like configs/smoke.json.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench  # noqa: E402
import seedrun  # noqa: E402
import spans  # noqa: E402


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", str(tmp_path))
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(work, capsys, trace):
    bench.main(["--workload", "smoke", "--seed", "0", "--seconds", "0",
                "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    end_to_end, per_layer = bench.load_spec()
    units = per_layer if trace else end_to_end
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= bench.MIN_RUNS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        printed = [ln for ln in lines[:-1] if ln.split()[:1] == [name]]
        assert len(printed) == 1 and printed[0].split()[2] == unit
        assert "n=" in printed[0] or "runs passed" in printed[0]


def _run_smoke_seed(work):
    from cpnslab import experiment as ex
    config = ex.load_config(bench.write_config("smoke"))
    stream = config.build_stream(0)
    out_dir = str(work / "clean")
    ex.run_seed(config, 0, out_dir=out_dir)
    return config, stream, out_dir


def _outcome(out_dir, config, stream):
    """What a benchmark run reports for these artifacts."""
    try:
        digest, _ = seedrun.verify(out_dir, config, stream)
    except Exception as exc:  # the run boundary counts any failure
        return {"ok": False, "traced": False, "seed": 0, "error": repr(exc)}
    return {"ok": True, "traced": False, "seed": 0, "digest": digest}


def _first_data_digit(raw):
    at = raw.index(b'"data":[[') + len(b'"data":[[')
    while not raw[at:at + 1].isdigit():
        at += 1
    return at


@pytest.mark.parametrize("where", ["structure", "data digit"])
def test_one_corrupted_checkpoint_byte_fails_the_run(work, where):
    config, stream, clean = _run_smoke_seed(work)
    copies = [clean]
    for name in ("copy", "corrupt"):
        copies.append(str(work / name))
        shutil.copytree(clean, copies[-1])
    path = os.path.join(copies[-1], "task-0.ckpt")
    with open(path, "rb") as fh:
        raw = bytearray(fh.read())
    at = 0 if where == "structure" else _first_data_digit(raw)
    raw[at] = ord("7") if raw[at] != ord("7") else ord("3")
    with open(path, "wb") as fh:
        fh.write(raw)

    results = [_outcome(d, config, stream) for d in copies]
    bench.mark_digest_mismatches(results)
    metrics, _ = bench.summarize(results, 0, {"passed_frac": "fraction"})
    assert [r["ok"] for r in results] == [True, True, False]
    assert 1.0 - metrics["passed_frac"] > 0.0

    clean_only = [_outcome(d, config, stream) for d in copies[:2]]
    bench.mark_digest_mismatches(clean_only)
    metrics, _ = bench.summarize(clean_only, 0, {"passed_frac": "fraction"})
    assert metrics["passed_frac"] == 1.0


def test_self_times_sum_to_no_more_than_the_root_span(work):
    trace_path = str(work / "smoke.spans.json")
    doc = bench.run_child(bench.write_config("smoke"), 0, 0, trace_path,
                          timeout=120)
    assert doc["ok"], doc.get("error")
    with open(trace_path) as fh:
        trace = json.load(fh)
    rows = [(s["id"], s["parent"], s["name"], s["start"], s["end"])
            for s in trace["spans"]]
    roots = [r for r in rows if r[1] is None]
    assert [r[2] for r in roots] == ["perfbench.seed_run"]
    root_s = roots[0][4] - roots[0][3]
    own = spans.self_times(rows)
    assert min(own) >= -1e-9
    assert sum(own) <= root_s + 1e-9
    names = {r[2] for r in rows}
    assert {"experiment.run_seed", "trainer.train_task",
            "risk.empirical_cpns_risk", "counterfactual.intra",
            "counterfactual.inter", "model.load_checkpoint"} <= names
    # the generators are reached from the trainer, the risk report and the
    # evaluation probe, and each call is attributed to exactly one of them
    layers = doc["layers"]
    for gen in spans.GENERATORS:
        parts = [layers.get(f"{gen}.{role}_s", 0.0)
                 for role in ("trainer", "risk", "probe")]
        assert min(parts) > 0.0
        assert sum(parts) == pytest.approx(layers[f"{gen}.s"])


def test_speed_probe_samples_inside_the_run_and_uninstalls():
    probe = seedrun.SpeedProbe()
    probe.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            sum(range(1000))
        t1 = time.perf_counter()
    finally:
        probe.stop()
    assert len(probe.samples) >= 3
    assert 0.0 < probe.spent(t0, t1) < 0.5 * (t1 - t0)
    assert probe.slowdown() > 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_exits_nonzero_without_a_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trap-full",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
