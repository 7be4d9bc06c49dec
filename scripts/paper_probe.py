#!/usr/bin/env python3
"""Time and size bilevel search steps at the paper's geometry.

Builds the supernet of one search stage at ``paper_defaults()`` geometry
(D=768, 224x224 images, 16x16 patches, the 8/12/16-head registry), with the
depth the search schedule gives that stage, and the last candidates of the
registry as its survivors (stage 1 keeps all eight). It then runs bilevel
steps on one synthetic training batch and one validation batch, and prints
one JSON object:

* ``build_s``: seconds to build the supernet and both optimizers;
* per step, ``alpha_s`` and ``weight_s``: seconds of the architecture and
  weight phases, each with its optimizer step, and both losses;
* ``rss_after_build_mb`` and ``peak_rss_mb``: the process's peak resident
  set after the build and after the last step;
* ``bytes``: the weights (architecture logits included), the AdamW moments
  of both optimizers, and the gradients left by the last step.

    OPENBLAS_NUM_THREADS=1 python scripts/paper_probe.py --batch 2 --stage 1
    python scripts/paper_probe.py --geometry desk --batch 4 --stage 2

The probe sets no memory cap of its own; bound it from the shell, for
example with ``ulimit -v 6815744`` (6.5 GiB).
"""

import argparse
import json
import resource
import time

import numpy as np

from dasvit import Supernet, bilevel_epoch, desk_config, paper_defaults, schedule_preview
from dasvit.data import RNG_STAGE, Batch, rng_for
from dasvit.search import SearchState, _build_optimizers

GEOMETRIES = {"paper": paper_defaults, "desk": desk_config}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def probe(geometry: str, stage: int, batch: int, steps: int, seed: int) -> dict:
    cfg = GEOMETRIES[geometry]()
    schedule = schedule_preview(cfg)
    if not 1 <= stage <= len(schedule):
        raise SystemExit(f"--stage: the schedule has stages 1 to {len(schedule)}")
    count, layers = schedule[stage - 1]
    candidates = list(cfg.candidates)[-count:]
    dims = cfg.model.dims()

    start = time.perf_counter()
    net = Supernet.from_config(cfg, candidates, layers, rng_for(seed, RNG_STAGE, stage))
    state = SearchState(net, net.alpha, *_build_optimizers(net, cfg), fairness=cfg.fairness)
    build_s = time.perf_counter() - start
    rss_after_build = peak_rss_mb()

    rng = np.random.default_rng(seed)
    shape = (batch, dims.image, dims.image, dims.channels)
    labels = np.arange(batch) % dims.classes
    train, val = (Batch(rng.standard_normal(shape).astype(np.float32), labels,
                        np.arange(batch), split) for split in ("train", "val"))

    alpha_step, alpha_done = state.a_opt.step, []

    def timed_alpha_step():
        alpha_step()
        alpha_done.append(time.perf_counter())

    state.a_opt.step = timed_alpha_step
    per_step = []
    for _ in range(steps):
        start = time.perf_counter()
        bilevel_epoch(state, [train], [val])
        end = time.perf_counter()
        log = state.log[-1]
        per_step.append({"alpha_s": alpha_done[-1] - start, "weight_s": end - alpha_done[-1],
                         "loss_val": log.loss_val, "loss_train": log.loss_train})

    params = net.named_parameters().values()
    moments = [a for opt in (state.w_opt, state.a_opt) for a in (*opt.m.values(),
                                                                  *opt.v.values())]
    return {
        "geometry": geometry, "stage": stage, "batch": batch, "layers": layers,
        "candidates": [spec.name for spec in candidates],
        "parameters": sum(p.data.size for p in params),
        "build_s": build_s, "steps": per_step,
        "rss_after_build_mb": rss_after_build, "peak_rss_mb": peak_rss_mb(),
        "bytes": {"weights": sum(p.data.nbytes for p in params),
                  "moments": sum(a.nbytes for a in moments),
                  "gradients": sum(p.grad.nbytes for p in params if p.grad is not None)},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--geometry", choices=sorted(GEOMETRIES), default="paper")
    parser.add_argument("--stage", type=int, default=1)
    parser.add_argument("--batch", type=int, default=2)
    parser.add_argument("--steps", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.batch < 1 or args.steps < 1:
        parser.error("--batch and --steps must be at least 1")
    print(json.dumps(probe(args.geometry, args.stage, args.batch, args.steps, args.seed),
                     indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
