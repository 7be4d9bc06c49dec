#!/usr/bin/env python3
"""Measure how the skip-weight penalty shapes the architecture weights.

Runs the same short search twice (identical seed) with the skip-fairness
coefficient off and on, against a candidate set of parameter-free ops plus a
deliberately under-trained attention op, and writes the per-epoch mean
softmax weight of every candidate to a CSV for plotting.

Usage: python scripts/skip_dominance_study.py --out runs/fairness.csv
"""

import argparse
import csv
from pathlib import Path


from dasvit import AdamW, FairnessConfig, OpSpec, Supernet
from dasvit.data import (BatchPlan, RNG_STAGE, epoch_batches, make_synthetic,
                         rng_for, split_dataset)
from dasvit.ops import ModelDims
from dasvit.search import SearchState, bilevel_epoch

CANDIDATES = [OpSpec("zero"), OpSpec("identity"), OpSpec("msa", heads=4)]
DIMS = ModelDims(dim=32, patch=4, image=8, classes=2)


def run(skip_coefficient: float, seed: int, epochs: int, weight_lr: float):
    dataset = make_synthetic(2, 64, 8, seed=seed)
    split = split_dataset(len(dataset), 0.5, seed)
    plan = BatchPlan(batch_size=16, seed=seed)
    supernet = Supernet(DIMS, CANDIDATES, 2, rng_for(seed, RNG_STAGE, 1))
    state = SearchState(
        model=supernet, alpha=supernet.alpha,
        w_opt=AdamW(supernet.weight_parameters(), lr=weight_lr, weight_decay=5e-2),
        a_opt=AdamW(supernet.alpha_parameters(), lr=0.05, weight_decay=1e-3),
        fairness=FairnessConfig(a=skip_coefficient, b=0.0))
    trajectory = []
    for epoch in range(epochs):
        state.epoch = epoch
        bilevel_epoch(
            state,
            epoch_batches(dataset, split.train_indices, plan, epoch, "train"),
            epoch_batches(dataset, split.val_indices, plan, epoch, "val"))
        weights = supernet.alpha.weights()
        trajectory.append({spec.name: float(weights[:, k].mean())
                           for k, spec in enumerate(CANDIDATES)})
    return trajectory


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("runs/fairness.csv"))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--weight-lr", type=float, default=1e-4)
    parser.add_argument("--skip-coefficient", type=float, default=1.0)
    args = parser.parse_args()
    if args.epochs < 1:
        parser.error("--epochs must be at least 1")

    runs = {
        "penalty_off": run(0.0, args.seed, args.epochs, args.weight_lr),
        "penalty_on": run(args.skip_coefficient, args.seed, args.epochs,
                          args.weight_lr),
    }

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "epoch", "candidate", "mean_weight"])
        for name, rows in runs.items():
            for epoch, weights in enumerate(rows):
                for candidate, weight in weights.items():
                    writer.writerow([name, epoch, candidate, repr(weight)])

    final_off = runs["penalty_off"][-1]["identity"]
    final_on = runs["penalty_on"][-1]["identity"]
    print(f"final mean identity weight: off={final_off:.4f} on={final_on:.4f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
