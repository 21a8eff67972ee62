"""Baseline versus counterfactually regularized training on a shortcut trap.

The stream's spurious block agrees with the label on 95% of training rows
and is shuffled at test time, so a learner that leans on it pays at test
time. This script trains both methods on the seeds of
configs/trap-baseline.json and configs/trap-full.json, then prints the
incremental accuracies, the old-to-new error by overlap group, and the
saliency-masking curve side by side.

Run from the repository root:

    python3 demos/shortcut_trap.py
"""

import os
import tempfile
from dataclasses import replace

import numpy as np

from cpnslab import experiment as ex

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "configs")


def run(out, name):
    """Every seed of configs/<name>.json, its output under `out`."""
    config = replace(ex.load_config(os.path.join(CONFIGS, f"{name}.json")),
                     output_dir=out)
    records, rows = [], []
    for seed in config.seeds:
        recs, row = ex.run_seed(config, seed)
        records.append(recs)
        rows.append(row)
    return records, rows


def seed_mean(rows, key):
    return float(np.mean([r[key] for r in rows]))


def main():
    with tempfile.TemporaryDirectory() as out:
        print("training configs/trap-baseline.json and "
              "configs/trap-full.json ...")
        base_recs, base_rows = run(out, "trap-baseline")
        full_recs, full_rows = run(out, "trap-full")

    print("\nincremental accuracy (seed means)")
    for name, rows in (("baseline", base_rows), ("cpns", full_rows)):
        print(f"  {name:9s} last {seed_mean(rows, 'last'):.4f} "
              f"avg {seed_mean(rows, 'avg'):.4f}")

    print("\nold-to-new error by overlap group (final task, seed means)")
    for name, recs in (("baseline", base_recs), ("cpns", full_recs)):
        groups = {g: np.mean([r[-1].old_new_errors[g] for r in recs])
                  for g in ("low", "medium", "high")}
        print(f"  {name:9s} " + "  ".join(f"{g} {v:.4f}"
                                           for g, v in groups.items()))

    print("\naccuracy after masking the top-k salient causal inputs")
    for name, recs in (("baseline", base_recs), ("cpns", full_recs)):
        ks = [k for k, _ in recs[0][-1].masking_curve]
        curve = np.mean([[a for _, a in r[-1].masking_curve] for r in recs],
                        axis=0)
        drop = float(np.mean(-np.diff(curve))) if len(curve) > 1 else 0.0
        pts = "  ".join(f"k={k} {a:.4f}" for k, a in zip(ks, curve))
        print(f"  {name:9s} {pts}  (mean drop {drop:.4f})")


if __name__ == "__main__":
    main()
