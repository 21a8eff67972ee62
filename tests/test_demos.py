"""The demos still run against the package API and the shipped configs."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_demo(name):
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.join("demos", name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_counterfactual_probe_demo_runs():
    assert "flip rate" in _run_demo("counterfactual_probe.py")


def test_shortcut_trap_demo_runs():
    out = _run_demo("shortcut_trap.py")
    assert "baseline  last" in out and "cpns      last" in out
    assert "mean drop" in out
