"""Command-line entry point: `dasvit {search,retrain,eval,analyze}`.

Thread count is controlled by DASVIT_THREADS (default 1): it is mapped onto
the BLAS thread-count variables before numpy loads, so the default run is
single-threaded and bitwise reproducible. Heavy imports therefore happen
inside the handlers, not at module import time.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path


def _configure_threads() -> None:
    threads = os.environ.get("DASVIT_THREADS", "1")
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ.setdefault(var, threads)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dasvit",
        description="Differentiable encoder-architecture search at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None,
                       help="JSON run config; defaults to the desk preset")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory for run artifacts")

    p = sub.add_parser("search", help="run the staged bi-level search")
    common(p)
    p.add_argument("--stages", type=int, default=None,
                   help="cap the number of progressive stages")
    p.add_argument("--resume", type=Path, default=None,
                   help="stage checkpoint to continue from")

    p = sub.add_parser("retrain", help="train a derived architecture from scratch")
    common(p)
    p.add_argument("--genotype", type=Path, required=True)
    p.add_argument("--resume", type=Path, default=None,
                   help="retraining checkpoint to continue from")

    p = sub.add_parser("eval", help="score a trained checkpoint on a dataset split")
    common(p)
    p.add_argument("--genotype", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")

    p = sub.add_parser("analyze", help="closed-form cost report for a genotype")
    p.add_argument("--genotype", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None,
                   help="also write the report as JSON to this file")
    return parser


def _load_config(path, seed):
    from .config import desk_config, load_config

    cfg = load_config(path) if path is not None else desk_config()
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=int(seed)).validate()
    return cfg


def _cmd_search(args) -> int:
    from .search import run_search

    out = args.out or Path("runs/search")
    cfg = _load_config(args.config, args.seed)
    result = run_search(cfg, out, stages=args.stages, resume=args.resume)
    doc = {
        "genotype": str(result.genotype_path),
        "alpha_history": str(result.history_path),
        "search_log": str(result.log_path),
        "schedule": [{"candidates": c, "layers": l} for c, l in result.schedule],
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_retrain(args) -> int:
    from .genotype import load_genotype
    from .search import retrain

    out = args.out or Path("runs/retrain")
    cfg = _load_config(args.config, args.seed)
    _, history = retrain(load_genotype(args.genotype), cfg, out, resume=args.resume)
    final = history[-1] if history else {}
    print(json.dumps({"out": str(out), "final": final}, indent=2, sort_keys=True))
    return 0


def _cmd_eval(args) -> int:
    import numpy as np

    from .data import load_parameters, write_json
    from .genotype import DerivedModel, load_genotype
    from .search import (build_datasets, check_genotype_dims, evaluate,
                         load_run_checkpoint)

    cfg = _load_config(args.config, args.seed)
    genotype = load_genotype(args.genotype)
    check_genotype_dims("eval", genotype, cfg)
    # no seed check: scoring a model on another seed's split is legitimate
    arrays, _ = load_run_checkpoint(args.checkpoint, "eval", "retrain", genotype=genotype)
    model = DerivedModel(genotype, np.random.default_rng(0))
    load_parameters(model.named_parameters(), arrays, args.checkpoint)
    train_ds, test_ds = build_datasets(cfg, cfg.seed)
    dataset = train_ds if args.split == "train" else test_ds
    result = evaluate(model, dataset, cfg.retrain.batch_size)
    doc = {"split": args.split, **result}
    print(json.dumps(doc, indent=2, sort_keys=True))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        write_json(args.out, doc)
    return 0


def _cmd_analyze(args) -> int:
    from .data import write_json
    from .genotype import cost_report, load_genotype

    report = cost_report(load_genotype(args.genotype))
    print(report.table())
    doc = dataclasses.asdict(report)
    print(json.dumps(doc, indent=2, sort_keys=True))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        write_json(args.out, doc)
    return 0


_HANDLERS = {
    "search": _cmd_search,
    "retrain": _cmd_retrain,
    "eval": _cmd_eval,
    "analyze": _cmd_analyze,
}


def main(argv=None) -> int:
    _configure_threads()
    args = _build_parser().parse_args(argv)
    from .errors import DasvitError

    try:
        return _HANDLERS[args.command](args)
    except DasvitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
