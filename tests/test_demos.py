"""The demos still run against the package API.

`demos/shortcut_trap.py` is left out: it takes about half a minute and
uses only `config_from_dict` and `run_seed`, which the experiment tests
already cover.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_counterfactual_probe_demo_runs():
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.join("demos", "counterfactual_probe.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "flip rate" in proc.stdout
