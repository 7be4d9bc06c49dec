"""The three benchmark workloads, each as one repeatable unit of work.

A unit builds its inputs from the seed alone, runs the program through its
public API, checks the outputs, and returns what the timing hooks cannot see:
when it started and ended, the images one step consumes, the logged losses,
the check results and a sha256 over its artifacts. The seed is the only
input that varies; every size below is fixed so that runs of different
seeds do the same amount of work, except that the candidates surviving the
desk search's pruning depend on the seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from dasvit import config, data, genotype, ops, optim, search, supernet
from dasvit.errors import GenotypeError

#: Bilevel steps in one search_mid unit (the batches of epoch 0, in order).
MID_STEPS = 3
#: Held-out passes per search_desk unit: one pass over its 64 images takes
#: under 0.1 s, too short to time steadily once.
DESK_EVAL_REPEATS = 10
#: Desk schedule the paper fixes: (candidates, layers) per stage.
DESK_SCHEDULE = [(8, 2), (5, 4), (3, 6)]
#: Retrained genotype: depth, attention heads and MLP ratio at D=192.
RETRAIN_DEPTH, RETRAIN_HEADS, RETRAIN_RATIO = 6, 12, 0.5


@dataclass
class UnitResult:
    start: float                       # perf_counter when the unit began
    end: float                         # perf_counter when its last output was done
    images_per_step: int               # images through fwd+bwd+update per step
    losses: list[float]                # every logged loss
    loss_final: float                  # mean training loss of the final epoch
    digest: str                        # sha256 over the unit's artifacts
    checks: dict[str, bool] = field(default_factory=dict)
    derived: bool = True               # a genotype was derived and written


def mid_config(seed: int) -> config.RunConfig:
    """D=192, 32x32 synthetic images in 10 classes, patch 4 (64 patches), B=16."""
    return config.RunConfig(
        seed=seed,
        model=config.ModelConfig(dim=192, patch=4, image=32, classes=10),
        search=config.SearchConfig(batch_size=16),
        retrain=config.RetrainConfig(epochs=1, warmup_epochs=0, batch_size=16,
                                     eval_every=1),
        data=config.DataConfig(synthetic=config.SyntheticConfig(
            classes=10, per_class=16, image=32)),
    ).validate()


def dir_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def arrays_digest(arrays: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode() + b"\0")
        h.update(arrays[name].tobytes())
    return h.hexdigest()


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _stage_supernet(cfg: config.RunConfig, arrays: dict, extras: dict):
    """The supernet a stage checkpoint describes, weights and logits loaded."""
    net = supernet.Supernet(
        cfg.model.dims(), [ops.OpSpec.from_json(d) for d in extras["candidates"]],
        int(extras["layers"]), data.rng_for(cfg.seed, data.RNG_STAGE, int(extras["stage"])),
        lam=cfg.selector.lam, grad_mode=cfg.selector.grad_mode,
        shared_alpha=cfg.search.shared_alpha, pre_norm=cfg.model.pre_norm,
        final_norm=cfg.model.final_norm, alpha_init_std=cfg.search.alpha_init_std)
    named = dict(net.weight_parameters())
    named["alpha.logits"] = net.alpha.logits
    for name, p in named.items():
        p.data = arrays[name]
    return net, set(named) == set(arrays)


def search_desk(seed: int, out: Path) -> UnitResult:
    """run_search(desk_config(seed)): all three stages, every artifact written.

    On about half of all seeds the desk search ends with alpha weights that
    are Zero-dominant on every edge into a node, and ``derive_genotype``
    refuses with GenotypeError after the last stage; that is the search's
    documented outcome, so such a unit has no genotype to check. The
    supernets are rebuilt from the stage checkpoints either way.
    """
    start = time.perf_counter()
    cfg = config.desk_config(seed)
    try:
        derived = search.run_search(cfg, out).genotype
    except GenotypeError as exc:
        if "Zero-dominant" not in str(exc):
            raise
        derived = None
    end = time.perf_counter()
    stages = [data.load_checkpoint(out / f"stage_{k}.ckpt") for k in (1, 2, 3)]
    schedule = [(len(extras["candidates"]), int(extras["layers"])) for _, extras in stages]
    nets = [_stage_supernet(cfg, *stage) for stage in stages]
    # stage 1 holds all eight candidates whatever the seed, so every seed
    # evaluates the same amount of work; the later stages' survivors differ
    net = nets[0][0]
    _, held_out = search.build_datasets(cfg, seed)
    for _ in range(DESK_EVAL_REPEATS):
        ev = search.evaluate(net, held_out, cfg.search.batch_size)
    log = [json.loads(line) for line in (out / "search_log.jsonl").read_text().splitlines()]
    last_epoch = log[-1]["epoch"]
    final = [r["loss_train"] for r in log if r["epoch"] == last_epoch]
    losses = [r[k] for r in log for k in ("loss_val", "loss_train")]
    return UnitResult(
        start=start, end=end, images_per_step=2 * cfg.search.batch_size,
        losses=losses, loss_final=sum(final) / len(final),
        digest=dir_digest(out), derived=derived is not None,
        checks={
            "schedule": schedule == search.schedule_preview(cfg) == DESK_SCHEDULE,
            "checkpoints_complete": all(complete for _, complete in nets),
            "genotype_reloads": derived is None
            or genotype.load_genotype(out / "genotype.json") == derived,
            "losses_finite": _finite(losses),
            "eval_top1_in_range": 0.0 <= ev["top1"] <= 1.0,
        })


def search_mid(seed: int, out: Path) -> UnitResult:
    """Stage-1 supernet of the paper registry, driven step by step."""
    start = time.perf_counter()
    cfg = mid_config(seed)
    train, held_out = search.build_datasets(cfg, seed)
    split = data.split_dataset(len(train), cfg.search.val_fraction, seed)
    plan = data.BatchPlan(batch_size=cfg.search.batch_size, seed=seed, drop_last=True)
    net = supernet.Supernet(cfg.model.dims(), list(cfg.candidates),
                            cfg.search.first_layers,
                            data.rng_for(seed, data.RNG_STAGE, 1),
                            lam=cfg.selector.lam)
    state = search.SearchState(
        model=net, alpha=net.alpha,
        w_opt=optim.AdamW(net.weight_parameters(), lr=cfg.search.lr,
                          weight_decay=cfg.search.weight_decay),
        a_opt=optim.AdamW(net.alpha_parameters(), lr=cfg.search.arch_lr,
                          weight_decay=cfg.search.arch_weight_decay),
        fairness=cfg.fairness)
    train_b = data.epoch_batches(train, split.train_indices, plan, 0, "train")
    val_b = data.epoch_batches(train, split.val_indices, plan, 0, "val")
    search.bilevel_epoch(state, train_b[:MID_STEPS], val_b[:MID_STEPS])
    end = time.perf_counter()
    ev = search.evaluate(net, held_out, cfg.search.batch_size)
    losses = [v for s in state.log for v in (s.loss_val, s.loss_train)]
    final = [s.loss_train for s in state.log]
    return UnitResult(
        start=start, end=end, images_per_step=2 * cfg.search.batch_size,
        losses=losses, loss_final=sum(final) / len(final),
        digest=arrays_digest(net.named_arrays()),
        checks={
            "steps": len(state.log) == MID_STEPS,
            "losses_finite": _finite(losses),
            "eval_top1_in_range": 0.0 <= ev["top1"] <= 1.0,
        })


def retrain_mid(seed: int, out: Path) -> UnitResult:
    """retrain() of the searched encoder at D=192, depth 6, evaluating once."""
    start = time.perf_counter()
    cfg = mid_config(seed)
    g = genotype.searched_encoder_genotype(cfg.model.dims(), RETRAIN_DEPTH,
                                           heads=RETRAIN_HEADS, ratio=RETRAIN_RATIO)
    out.mkdir(parents=True, exist_ok=True)
    genotype.save_genotype(g, out / "genotype.json")
    reloaded = genotype.load_genotype(out / "genotype.json")
    search.retrain(reloaded, cfg, out)
    end = time.perf_counter()
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    losses = [float(r["loss"]) for r in rows]
    train_rows = [float(r["loss"]) for r in rows if r["split"] == "train"]
    tests = [float(r["top1"]) for r in rows if r["split"] == "test"]
    return UnitResult(
        start=start, end=end, images_per_step=cfg.retrain.batch_size,
        losses=losses, loss_final=train_rows[-1],
        digest=dir_digest(out),
        checks={
            "genotype_reloads": reloaded == g,
            "losses_finite": bool(losses) and _finite(losses),
            "eval_top1_in_range": bool(tests) and all(0.0 <= t <= 1.0 for t in tests),
        })


WORKLOADS = {"search_desk": search_desk, "search_mid": search_mid,
             "retrain_mid": retrain_mid}
#: The hook at which a workload's first step is ready (see Instrument).
READY_AT = {"search_desk": "bilevel_epoch", "search_mid": "bilevel_epoch",
            "retrain_mid": "epoch_batches"}
#: Seconds one unit takes on a 2-vCPU Xeon VM at the benchmark's first
#: version. A timed run does round(--seconds / this) units, at least two, so
#: every run of a workload repeats the same number of units.
NOMINAL_UNIT_S = {"search_desk": 10.0, "search_mid": 13.0, "retrain_mid": 9.0}
