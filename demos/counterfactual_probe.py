"""What the two counterfactual generators actually produce.

Trains a model on the first two tasks of configs/trap-full.json, then
generates within-task counterfactuals (label flipped under the config's
divergence budget) and cross-task counterfactuals (interpolation toward
the projected old representation), and compares them against random
perturbations of the same magnitude.

Run from the repository root:

    python3 demos/counterfactual_probe.py
"""

import os
import tempfile
from dataclasses import replace

import numpy as np

from cpnslab import counterfactual as cf
from cpnslab import experiment as ex
from cpnslab import metrics as mt
from cpnslab import model as mdl

CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "configs", "trap-full.json")


def train_two_task(seed=0):
    """(model, stream, config): a model trained on the first two tasks of
    configs/trap-full.json's stream, that stream and the config. The run
    is the package's own (`run_seed`), in a temporary directory, and the
    model is its checkpoint after the second task."""
    config = ex.load_config(CONFIG)
    config = replace(config, data=dict(config.data, num_tasks=2))
    with tempfile.TemporaryDirectory() as out_dir:
        ex.run_seed(config, seed, out_dir=out_dir)
        model = mdl.load_checkpoint(os.path.join(out_dir, "task-1.ckpt"))
    return model, config.build_stream(seed), config


def main():
    print("training a two-task model on configs/trap-full.json ...")
    model, stream, config = train_two_task()
    gen = config.train.gen
    xte, yte = stream.tasks[1][1]
    lo = stream.tasks[1][2][0]
    n = 128
    xs, ys = xte[:n], yte[:n]
    feats = model.current_feature_np(xs)
    w = model.heads["intra_w"]
    b = model.heads["intra_b"]

    cfs, vals, _, _ = cf.generate_intra_batch(feats, ys - lo, w, b, gen.alpha,
                                              gen.epsilon)
    pfr, lkld, _ = mt.counterfactual_quality(model, feats, cfs, vals)
    print(f"\nwithin-task generator: flip rate {pfr:.3f} "
          f"at mean divergence {lkld:.4f}")

    # one multiplicative correction: backtracking lands below the requested
    # budget, so the first round's realized divergence recalibrates it
    budget = lkld
    for _ in range(2):
        rng = np.random.default_rng(7)
        rand, rand_vals, _, _ = cf.perturb_random(feats, budget, rng)
        pfr_r, lkld_r, _ = mt.counterfactual_quality(model, feats, rand,
                                                     rand_vals)
        budget *= lkld / max(lkld_r, 1e-12)
    print(f"random perturbation:   flip rate {pfr_r:.3f} "
          f"at mean divergence {lkld_r:.4f}")
    print("targeted perturbations of the same size flip far more labels;"
          "\nthe necessity signal is in the direction, not the magnitude.")

    # the config's inter budget (gen.beta) barely moves a feature; opened
    # up, the interpolation toward the old representation shows
    proj = model.project_values(model.frozen_concat_np(xs))
    inter, inter_vals, _, _ = cf.generate_inter_batch(feats, proj, beta=0.25,
                                                      epsilon=0.5)
    _, _, hss = mt.counterfactual_quality(model, feats, inter, inter_vals,
                                          references=proj)
    # the factual features taken as their own counterfactuals: the same
    # mean cosine to the projection
    _, _, hss_factual = mt.counterfactual_quality(
        model, feats, feats, np.zeros(n), references=proj)
    print(f"\ncross-task generator: similarity to the projected old "
          f"representation {hss:.3f}")
    print(f"factual features:     {hss_factual:.3f}")
    print("the generator interpolates toward the old representation, so "
          "its samples\nprobe the shared structure the projector has "
          "learned.")


if __name__ == "__main__":
    main()
