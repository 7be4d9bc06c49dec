#!/usr/bin/env python3
"""End-to-end desk-scale demo: search, analyze, and retrain.

Runs in a few minutes on one CPU core and leaves every artifact under the
output directory:

    search/            alpha_history.csv, search_log.jsonl, prune.jsonl,
                       stage_*.ckpt, genotype.json
    retrain_searched/  metrics.csv, model.ckpt  (the genotype the desk search
                       found; at this tiny budget it is often attention-free
                       and stuck at chance on the class-token readout)
                       Absent when the search refuses to derive a genotype
                       (every edge into a node Zero-dominant): the refusal's
                       first line is printed and reported under "searched".
    retrain_reference/ metrics.csv, model.ckpt  (the reference encoder
                       structure at desk dims; trains to ~100%)

Usage: python scripts/desk_search.py --out runs/desk [--seed 0]
"""

import argparse
import dataclasses
import json
from pathlib import Path

from dasvit import (desk_config, evaluate, load_genotype, retrain, run_search,
                    searched_encoder_genotype)
from dasvit.errors import GenotypeError
from dasvit.genotype import cost_report
from dasvit.search import build_datasets


def _retrain_and_score(genotype, cfg, out_dir):
    model, _ = retrain(genotype, cfg, out_dir)
    train_ds, test_ds = build_datasets(cfg, cfg.seed)
    return {
        "train": evaluate(model, train_ds, cfg.retrain.batch_size),
        "test": evaluate(model, test_ds, cfg.retrain.batch_size),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("runs/desk"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--retrain-epochs", type=int, default=100)
    args = parser.parse_args()
    if args.retrain_epochs < 1:
        parser.error("--retrain-epochs must be at least 1")

    cfg = desk_config(seed=args.seed)
    cfg = dataclasses.replace(cfg, retrain=dataclasses.replace(
        cfg.retrain, epochs=args.retrain_epochs,
        warmup_epochs=min(cfg.retrain.warmup_epochs, args.retrain_epochs)))

    print("== search ==")
    try:
        result = run_search(cfg, args.out / "search")
    except GenotypeError as exc:
        # a refused derivation still leaves the reference retrain worth running
        refusal = str(exc).splitlines()[0]
        print(f"search refused: {refusal}")
        searched_scores = {"refused": refusal}
    else:
        print(f"schedule: {result.schedule}")
        print(f"genotype: {result.genotype_path}")

        print("== analyze ==")
        genotype = load_genotype(result.genotype_path)
        print(cost_report(genotype).table())

        print("== retrain: searched genotype ==")
        searched_scores = _retrain_and_score(genotype, cfg,
                                             args.out / "retrain_searched")

    print("== retrain: reference encoder structure ==")
    reference = searched_encoder_genotype(cfg.model.dims(), depth=4, heads=4,
                                          ratio=0.5)
    reference_scores = _retrain_and_score(reference, cfg,
                                          args.out / "retrain_reference")

    print(json.dumps({"searched": searched_scores, "reference": reference_scores},
                     indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
