"""Byte identity: seed 0 of every benchmark workload writes the recorded
artifacts, bit for bit.

artifact_digests.json holds, per workload, the digest of the seed's
artifacts (checkpoints, eval records, summary) and of its epoch log with
the timings removed (losses and risk reports). A change that moves one
bit of them fails here; a change that moves bits on purpose records the
new digests in the same change and says which moved. The bits depend on
the numpy and BLAS builds, so the platform the digests were taken on is
compared first.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from cpnslab import experiment as ex

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
# what perfbench/seedrun.py sets when it is imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

with open(os.path.join(HERE, "artifact_digests.json")) as _fh:
    EXPECTED = json.load(_fh)


@pytest.fixture(scope="module")
def bench():
    """perfbench's `run` and `seedrun` modules; the thread-count variables
    that `seedrun` sets on import are restored."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        for var in THREAD_VARS:
            mp.setenv(var, os.environ.get(var, ""))
        import run
        import seedrun
    return run, seedrun


def platform():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def epochs_digest(path):
    """SHA-256 of the epoch log with each record's wall_ms removed, the
    records re-serialized with sorted keys, one a line."""
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    h = hashlib.sha256()
    for record in records:
        del record["wall_ms"]
        h.update((json.dumps(record, sort_keys=True) + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("workload", ["trap-full", "trap-baseline",
                                      "long-stream"])
def test_seed_zero_writes_the_recorded_bytes(tmp_path, monkeypatch, bench,
                                             workload):
    assert platform() == EXPECTED["platform"], (
        "the recorded digests were taken on another numpy or BLAS build")
    run, seedrun = bench
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    out = tmp_path / "seed-0"
    ex.run_seed(ex.load_config(run.write_config(workload)), 0, out_dir=out)
    want = EXPECTED["seeds"][f"{workload}/seed-0"]
    assert (epochs_digest(out / "epochs.jsonl")
            == want["epochs_without_wall_ms"])
    assert seedrun.artifact_digest(out) == want["artifacts"]
