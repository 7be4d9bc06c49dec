"""Bi-level search: alternating architecture/weight updates, progressive
prune-and-deepen staging, genotype derivation, and derived-model retraining.

Each stage trains a supernet (depth grows stage by stage) with one batch
pair per step: an architecture update on the validation batch (plus the
fairness term), then a weight update on the training batch. At stage end the
lowest-scoring candidates are pruned and the next, deeper supernet inherits
every surviving parameter bank.

The architecture gradient defaults to the first-order approximation; the
unrolled variant (virtual weight step plus finite-difference second-order
correction) sits behind ``search.unrolled``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import backward, cross_entropy, dtype_scope, finite_pass, frozen
from .config import RunConfig, save_config
from .data import (Batch, BatchPlan, Dataset, MetricsWriter, RNG_RETRAIN, RNG_STAGE,
                   epoch_batches, load_checkpoint, load_parameters, make_synthetic,
                   load_cifar10, resize_images, rng_for, save_checkpoint,
                   sequential_batches, split_dataset, topk_accuracy)
from .errors import ConfigError, DataError, GenotypeError, NonFiniteError, SearchAbort
from .fairness import FairnessConfig, skip_fairness, type_fairness
from .genotype import (DerivedModel, Genotype, genotype_to_json, make_genotype,
                       save_genotype)
from .ops import CELL_EDGES, INTERMEDIATE_NODES, NUM_EDGES, ModelDims, OpSpec
from .optim import AdamW, LrSchedule
from .supernet import AlphaTable, Supernet


def schedule_preview(cfg: RunConfig, stages: int | None = None) -> list[tuple[int, int]]:
    """The (candidate count, depth) sequence the search will emit."""
    n = stages if stages is not None else cfg.search.stages
    out = []
    count = len(cfg.candidates)
    for s in range(n):
        out.append((count, cfg.search.first_layers + s * cfg.search.layer_increment))
        count -= cfg.search.prune_per_stage[s]
    return out


# -- candidate scoring and pruning -----------------------------------------------


def score_candidates(alpha: AlphaTable, mode: str = "mean") -> list[tuple[OpSpec, float]]:
    """Rank candidates by softmax weight aggregated over every (layer, edge).

    Descending score; ties resolve to registry order.
    """
    w = alpha.weights()
    if mode == "mean":
        scores = w.mean(axis=(0, 1))
    elif mode == "max":
        scores = w.max(axis=(0, 1))
    else:
        raise ConfigError(f"score_candidates: unknown mode {mode!r}")
    order = sorted(range(len(alpha.candidates)), key=lambda k: (-scores[k], k))
    return [(alpha.candidates[k], float(scores[k])) for k in order]


def prune_candidates(alpha: AlphaTable, count: int, mode: str = "mean") -> list[OpSpec]:
    """Drop the `count` lowest-ranked candidates; survivors keep registry order."""
    if count <= 0:
        return list(alpha.candidates)
    ranking = score_candidates(alpha, mode)
    kept = {spec for spec, _ in ranking[:len(ranking) - count]}
    survivors = [spec for spec in alpha.candidates if spec in kept]
    if len(survivors) < 2:
        raise ConfigError(
            f"prune: only {len(survivors)} candidates would remain; search degenerates")
    return survivors


def advance_stage(old: Supernet, survivors: list[OpSpec], new_layers: int,
                  cfg: RunConfig, seed: int, stage_index: int) -> Supernet:
    """Build the next-stage supernet, inheriting weights and logits.

    Every weight whose name the old supernet also has (the embedding, the
    selector, and each surviving candidate's bank in the layers both stages
    share) is copied bitwise; new layers initialize fresh. Architecture
    logits keep the surviving columns; per-layer tables give new layers the
    mean of the inherited rows.
    """
    new = Supernet.from_config(cfg, survivors, new_layers,
                               rng_for(seed, RNG_STAGE, stage_index))
    old_arrays = old.named_arrays()
    inherited = {n: p for n, p in new.weight_parameters().items() if n in old_arrays}
    load_parameters(inherited, {n: old_arrays[n] for n in inherited},
                    f"stage {stage_index - 1} supernet")
    cols = [old.candidates.index(spec) for spec in survivors]
    kept = old.alpha.logits.data[:, :, cols]
    if new.alpha.shared:
        new.alpha.logits.data = kept.copy()
    else:
        rows = np.empty((new_layers, NUM_EDGES, len(survivors)), dtype=kept.dtype)
        shared_rows = min(kept.shape[0], new_layers)
        rows[:shared_rows] = kept[:shared_rows]
        rows[shared_rows:] = kept.mean(axis=0)
        new.alpha.logits.data = rows
    return new


# -- genotype derivation ------------------------------------------------------------


def derive_genotype(alpha: AlphaTable, dims: ModelDims, depth: int) -> Genotype:
    """Discretize: per intermediate node keep the two strongest incoming edges,
    each with its best non-Zero candidate.

    Edge strength is the max non-Zero softmax weight (layer-averaged); ties
    prefer the lower edge index, candidate ties the registry order.
    """
    w = alpha.weights().mean(axis=0)  # (edges, candidates)
    cands = alpha.candidates
    nonzero = [k for k, s in enumerate(cands) if s.kind != "zero"]
    if not nonzero:
        raise GenotypeError("derive: no non-Zero candidate available")
    zero_cols = [k for k, s in enumerate(cands) if s.kind == "zero"]
    nodes = []
    for target in INTERMEDIATE_NODES:
        incoming = [i for i, (_, t) in enumerate(CELL_EDGES) if t == target]
        if zero_cols and all(
                max(w[e, k] for k in zero_cols) > max(w[e, k] for k in nonzero)
                for e in incoming):
            raise GenotypeError(
                f"derive: every incoming edge of node {target} is Zero-dominant; "
                f"alpha weights:\n{np.array2string(w, precision=4)}")
        strength = {e: max(w[e, k] for k in nonzero) for e in incoming}
        kept = sorted(incoming, key=lambda e: (-strength[e], e))[:2]
        pairs = []
        for e in kept:
            best = sorted(nonzero, key=lambda k: (-w[e, k], k))[0]
            pairs.append((CELL_EDGES[e][0], cands[best]))
        nodes.append(pairs)
    return make_genotype(dims, depth, nodes[0], nodes[1])


# -- bi-level optimization ---------------------------------------------------------


@dataclass
class StepLog:
    stage: int
    epoch: int
    step: int
    loss_val: float
    loss_train: float
    l1: float
    l2: float
    l_fair: float
    lr: float


@dataclass
class SearchState:
    """Everything the bi-level loop mutates, bundled for instrumentation."""

    model: object                       # forward(images) -> logits Tensor
    alpha: AlphaTable
    w_opt: AdamW
    a_opt: AdamW
    fairness: FairnessConfig
    unrolled: bool = False
    xi: float = 0.0
    stage: int = 1
    epoch: int = 0
    log: list[StepLog] = field(default_factory=list)


def _logits_and_loss(model, batch: Batch):
    logits = model.forward(batch.images)
    return logits, cross_entropy(logits, batch.labels)


def _grad_pass(state: SearchState, batch: Batch, freeze: AdamW | None = None,
               fair: bool = False) -> tuple[float, float, float]:
    """One forward/backward over `batch`, from cleared gradients.

    The tensors of the `freeze` optimizer are constants for the pass, so it
    records and computes only the other side's gradients; the two optimizers
    together hold every tensor that can receive one. With `fair` the fairness
    terms join the cross-entropy. The forward runs as a ``finite_pass``.
    Returns (loss, l1, l2), the fairness terms 0.0 without `fair`; the graph
    dies with this frame.
    """
    state.w_opt.zero_grad()
    state.a_opt.zero_grad()

    def forward():
        _, loss = _logits_and_loss(state.model, batch)
        if not fair:
            return (loss,)
        l1 = skip_fairness(state.alpha)
        l2 = type_fairness(state.alpha, state.fairness)
        return loss + (l1 * state.fairness.a + l2 * state.fairness.b), loss, l1, l2

    with frozen(freeze.params.values() if freeze is not None else ()):
        outs = finite_pass(forward)
        backward(outs[0])
    if not fair:
        return float(outs[0].data), 0.0, 0.0
    return tuple(float(t.data) for t in outs[1:])


def _unrolled_alpha_pass(state: SearchState, tb: Batch,
                         vb: Batch) -> tuple[float, float, float]:
    """Virtual-step architecture gradient with the finite-difference
    second-order correction, left in ``alpha.logits.grad``; returns the
    validation pass's (loss, l1, l2).

    No gradient is copied: a pass clears and reassigns every ``.grad`` and
    never writes into an array it handed out. The weights get their original
    arrays back also when a pass raises.
    """
    w_params, alpha, xi = state.w_opt.params, state.alpha, state.xi
    _grad_pass(state, tb, freeze=state.a_opt)
    originals = {n: p.data for n, p in w_params.items()}
    try:
        for n, p in w_params.items():
            p.data = originals[n] - xi * p.grad

        loss_val, l1, l2 = _grad_pass(state, vb, fair=True)
        g_alpha = alpha.logits.grad
        g_wprime = {n: p.grad for n, p in w_params.items()}

        norm = math.sqrt(sum(float((g**2).sum()) for g in g_wprime.values()))
        if norm > 0:
            eps = 0.01 / norm
            g_pm = []
            for sign in (1.0, -1.0):
                for n, p in w_params.items():
                    p.data = originals[n] + sign * eps * g_wprime[n]
                _grad_pass(state, tb, freeze=state.w_opt)
                g_pm.append(alpha.logits.grad)
            g_alpha = g_alpha - (xi / (2.0 * eps)) * (g_pm[0] - g_pm[1])
    finally:
        for n, p in w_params.items():
            p.data = originals[n]
    alpha.logits.grad = g_alpha
    return loss_val, l1, l2


def bilevel_epoch(state: SearchState, train_batches: list[Batch],
                  val_batches: list[Batch], lr: float | None = None) -> None:
    """One epoch of alternating updates over paired (val, train) batches."""
    if lr is not None:
        state.w_opt.set_lr(lr)
    for step, (tb, vb) in enumerate(zip(train_batches, val_batches)):
        if tb.split != "train" or vb.split != "val":
            raise DataError(
                f"bilevel: expected (train, val) batch pair, got ({tb.split}, {vb.split})")
        # architecture update on the validation batch
        if state.unrolled and state.xi != 0.0:
            loss_val, l1_v, l2_v = _unrolled_alpha_pass(state, tb, vb)
        else:
            loss_val, l1_v, l2_v = _grad_pass(state, vb, freeze=state.w_opt, fair=True)
        state.a_opt.step()

        # weight update on the training batch, architecture frozen
        loss_train, _, _ = _grad_pass(state, tb, freeze=state.a_opt)
        state.w_opt.step()

        fair = state.fairness
        state.log.append(StepLog(
            stage=state.stage, epoch=state.epoch, step=step,
            loss_val=loss_val, loss_train=loss_train,
            l1=l1_v, l2=l2_v, l_fair=fair.a * l1_v + fair.b * l2_v,
            lr=state.w_opt.lr))


# -- datasets ------------------------------------------------------------------------


def build_datasets(cfg: RunConfig, seed: int) -> tuple[Dataset, Dataset]:
    """(train, held-out) datasets per the data config."""
    if cfg.data.source == "synthetic":
        syn = cfg.data.synthetic
        train = make_synthetic(syn.classes, syn.per_class, syn.image, seed,
                               channels=syn.channels, noise=syn.noise)
        test = make_synthetic(syn.classes, max(1, syn.per_class // 4), syn.image,
                              seed + 1, channels=syn.channels, noise=syn.noise)
    else:
        if cfg.data.dir is None:
            raise DataError("data.dir: required for cifar10")
        train, test = load_cifar10(cfg.data.dir)
    if cfg.data.resize is not None:
        train = Dataset(resize_images(train.images, cfg.data.resize,
                                      cfg.data.resize_method),
                        train.labels, train.classes)
        test = Dataset(resize_images(test.images, cfg.data.resize,
                                     cfg.data.resize_method),
                       test.labels, test.classes)
    return train, test


def _norm_stats(cfg: RunConfig):
    if cfg.data.normalize_mean is None:
        return None
    return (np.asarray(cfg.data.normalize_mean, dtype=np.float32),
            np.asarray(cfg.data.normalize_std, dtype=np.float32))


# -- evaluation ----------------------------------------------------------------------


def evaluate(model, dataset: Dataset, batch_size: int, stats=None) -> dict:
    """Loss/top-1/top-5 of `model` over `dataset`, batched sequentially.

    Every tensor of ``model.named_parameters()`` is frozen for the pass, so
    no autodiff graph is recorded; each ``requires_grad`` flag is restored
    afterwards. Each batch's forward is a ``finite_pass`` over its logits
    and loss.
    """
    losses, top1, top5, total = 0.0, 0.0, 0.0, 0
    with frozen(model.named_parameters().values()):
        for batch in sequential_batches(dataset, batch_size, stats=stats):
            logits, loss = finite_pass(lambda: _logits_and_loss(model, batch))
            n = len(batch.labels)
            losses += float(loss.data) * n
            top1 += topk_accuracy(logits.data, batch.labels, 1) * n
            top5 += topk_accuracy(logits.data, batch.labels, 5) * n
            total += n
    return {"loss": losses / total, "top1": top1 / total, "top5": top5 / total}


# -- search driver -------------------------------------------------------------------


@dataclass
class SearchResult:
    genotype: Genotype
    out_dir: Path
    schedule: list[tuple[int, int]]
    state: SearchState
    genotype_path: Path
    history_path: Path
    log_path: Path


def _write_alpha_rows(writer, epoch: int, model: Supernet) -> None:
    logits = model.alpha.logits.data
    weights = model.alpha.weights()
    for layer in range(model.num_layers):
        row = model.alpha.row_for_layer(layer)
        for e in range(NUM_EDGES):
            for k, spec in enumerate(model.alpha.candidates):
                writer.writerow([epoch, layer, e, spec.name,
                                 repr(float(logits[row, e, k])),
                                 repr(float(weights[row, e, k]))])


def _build_optimizers(model: Supernet, cfg: RunConfig) -> tuple[AdamW, AdamW]:
    include_selector = cfg.selector.grad_mode == "score_scaling"
    w_opt = AdamW(model.weight_parameters(include_selector=include_selector),
                  lr=cfg.search.lr, weight_decay=cfg.search.weight_decay)
    a_opt = AdamW(model.alpha_parameters(), lr=cfg.search.arch_lr,
                  weight_decay=cfg.search.arch_weight_decay)
    return w_opt, a_opt


def _dump_diagnostics(out_dir: Path, state: SearchState, exc: Exception) -> Path:
    dump = {
        "error": str(exc),
        "stage": state.stage,
        "epoch": state.epoch,
        "alpha_logits": state.alpha.logits.data.tolist(),
        "alpha_weights": state.alpha.weights().tolist(),
        "last_steps": [asdict(entry) for entry in state.log[-5:]],
    }
    path = out_dir / "diagnostic.json"
    path.write_text(json.dumps(dump, indent=2, sort_keys=True) + "\n")
    return path


def _keep_rows(path: Path, keep, header: bool = False) -> None:
    """Rewrite the log at `path`, if any, with only the rows `keep` accepts;
    a header line is always kept."""
    if not path.exists():
        return
    lines = path.read_bytes().splitlines(keepends=True)
    head, rows = (lines[:1], lines[1:]) if header else ([], lines)
    path.write_bytes(b"".join(head + [row for row in rows if keep(row)]))


def run_search(cfg: RunConfig, out_dir, stages: int | None = None,
               resume=None) -> SearchResult:
    """Run the staged search end to end and write every artifact.

    Artifacts: config.json (effective), alpha_history.csv, search_log.jsonl,
    stage_<n>.ckpt(+.blob) at each stage end, genotype.json. Resuming points
    at a stage checkpoint and continues from the following stage; a refused
    checkpoint leaves `out_dir` untouched.
    """
    cfg = cfg.validate()
    seed = cfg.seed
    n_stages = cfg.search.stages if stages is None else min(stages, cfg.search.stages)
    if n_stages < 1:
        raise ConfigError("search: need at least one stage")
    total_epochs = cfg.search.epochs_per_stage * n_stages
    if cfg.search.warmup_epochs > total_epochs:
        raise ConfigError(
            f"search.warmup_epochs: {cfg.search.warmup_epochs} exceeds the "
            f"{total_epochs} searched epochs ({n_stages} stages of "
            f"{cfg.search.epochs_per_stage})")
    out = Path(out_dir)

    with dtype_scope(cfg.model.precision):
        train_ds, _ = build_datasets(cfg, seed)
        split = split_dataset(len(train_ds), cfg.search.val_fraction, seed)
        stats = _norm_stats(cfg)
        plan = BatchPlan(batch_size=cfg.search.batch_size, seed=seed,
                         drop_last=cfg.search.drop_last)

        w_sched = LrSchedule(base_lr=cfg.search.lr,
                             warmup_epochs=cfg.search.warmup_epochs,
                             warmup_start_lr=cfg.search.warmup_start_lr,
                             total_epochs=total_epochs, min_lr=cfg.search.min_lr)

        depths = [layers for _, layers in schedule_preview(cfg, n_stages)]
        start_stage = 1
        global_epoch = 0
        if resume is not None:
            arrays, extras = load_checkpoint(resume)
            if extras.get("kind") != "search-stage":
                raise ConfigError(f"resume: {resume} is a {extras.get('kind')!r} "
                                  "checkpoint, not a search-stage checkpoint")
            stage_done = int(extras["stage"])
            global_epoch = int(extras["global_epoch"])
            model = Supernet.from_config(
                cfg, [OpSpec.from_json(d) for d in extras["candidates"]],
                int(extras["layers"]), rng_for(seed, RNG_STAGE, stage_done))
            load_parameters(model.named_parameters(), arrays, resume)
            start_stage = stage_done + 1
            if start_stage > n_stages:
                raise ConfigError("resume: checkpoint already covers every stage")
        else:
            model = Supernet.from_config(cfg, list(cfg.candidates), depths[0],
                                         rng_for(seed, RNG_STAGE, 1))

        # nothing is written before the resume checkpoint has been accepted
        out.mkdir(parents=True, exist_ok=True)
        save_config(cfg, out / "config.json")
        # drop logged rows of the epochs this run (re)writes, so resuming into
        # the same directory leaves the logs of an uninterrupted run
        history_path = out / "alpha_history.csv"
        log_path = out / "search_log.jsonl"
        _keep_rows(history_path, lambda row: int(row.split(b",", 1)[0]) < global_epoch,
                   header=True)
        _keep_rows(log_path, lambda row: json.loads(row)["epoch"] < global_epoch)
        fresh_history = not history_path.exists() or history_path.stat().st_size == 0

        w_opt, a_opt = _build_optimizers(model, cfg)
        state = SearchState(model=model, alpha=model.alpha, w_opt=w_opt,
                            a_opt=a_opt, fairness=cfg.fairness,
                            unrolled=cfg.search.unrolled, xi=cfg.search.xi)
        schedule: list[tuple[int, int]] = []

        with open(history_path, "a", newline="") as history_fh, \
                open(log_path, "a") as log_fh:
            history = csv.writer(history_fh)
            if fresh_history:
                history.writerow(["epoch", "layer", "edge", "candidate", "logit",
                                  "softmax_weight"])
            try:
                for stage in range(start_stage, n_stages + 1):
                    if stage > 1:
                        survivors = prune_candidates(
                            model.alpha, cfg.search.prune_per_stage[stage - 2],
                            cfg.search.score_mode)
                        model = advance_stage(model, survivors, depths[stage - 1],
                                              cfg, seed, stage)
                        w_opt, a_opt = _build_optimizers(model, cfg)
                        state.model, state.alpha = model, model.alpha
                        state.w_opt, state.a_opt = w_opt, a_opt
                    state.stage = stage
                    schedule.append((len(model.candidates), model.num_layers))
                    for _ in range(cfg.search.epochs_per_stage):
                        state.epoch = global_epoch
                        lr = w_sched.lr_at(global_epoch)
                        train_b = epoch_batches(train_ds, split.train_indices, plan,
                                                global_epoch, "train", stats)
                        val_b = epoch_batches(train_ds, split.val_indices, plan,
                                              global_epoch, "val", stats)
                        mark = len(state.log)
                        bilevel_epoch(state, train_b, val_b, lr=lr)
                        for entry in state.log[mark:]:
                            log_fh.write(json.dumps(asdict(entry), sort_keys=True)
                                         + "\n")
                        _write_alpha_rows(history, global_epoch, model)
                        history_fh.flush()
                        log_fh.flush()
                        global_epoch += 1
                    arrays = model.named_arrays()
                    extras = {
                        "kind": "search-stage",
                        "stage": stage,
                        "layers": model.num_layers,
                        "global_epoch": global_epoch,
                        "seed": seed,
                        "candidates": [s.to_json() for s in model.candidates],
                    }
                    save_checkpoint(out / f"stage_{stage}.ckpt", arrays, extras)
            except NonFiniteError as exc:
                dump = _dump_diagnostics(out, state, exc)
                raise SearchAbort(
                    f"search aborted on a non-finite value at stage {state.stage} "
                    f"epoch {state.epoch}; diagnostics at {dump}", dump) from exc

        genotype = derive_genotype(model.alpha, cfg.model.dims(), depth=model.num_layers)
        genotype_path = out / "genotype.json"
        save_genotype(genotype, genotype_path)
        return SearchResult(genotype=genotype, out_dir=out, schedule=schedule,
                            state=state, genotype_path=genotype_path,
                            history_path=history_path, log_path=log_path)


# -- retraining ---------------------------------------------------------------------


def retrain(genotype: Genotype, cfg: RunConfig, out_dir,
            resume=None) -> tuple[DerivedModel, list[dict]]:
    """Train the derived model from scratch (or resume) with warmup+cosine AdamW.

    Token selection is not used; every token participates. Writes metrics.csv
    and model.ckpt under `out_dir`. A non-finite loss, logit or gradient
    aborts before the update, with the mid-epoch weights in abort.ckpt, a
    checkpoint `resume` refuses; model.ckpt and the epoch checkpoints only
    ever hold completed epochs.
    """
    cfg = cfg.validate()
    seed = cfg.seed
    out = Path(out_dir)

    with dtype_scope(cfg.model.precision):
        train_ds, test_ds = build_datasets(cfg, seed)
        if train_ds.classes != genotype.dims.classes:
            raise ConfigError(
                f"retrain: dataset has {train_ds.classes} classes but genotype "
                f"expects {genotype.dims.classes}")
        stats = _norm_stats(cfg)
        model = DerivedModel(genotype, rng_for(seed, RNG_RETRAIN),
                             pre_norm=cfg.model.pre_norm,
                             final_norm=cfg.model.final_norm)
        params = model.named_parameters()
        opt = AdamW(params, lr=cfg.retrain.lr, weight_decay=cfg.retrain.weight_decay)
        sched = LrSchedule(base_lr=cfg.retrain.lr,
                           warmup_epochs=cfg.retrain.warmup_epochs,
                           warmup_start_lr=cfg.retrain.warmup_start_lr,
                           total_epochs=cfg.retrain.epochs, min_lr=cfg.retrain.min_lr)
        plan = BatchPlan(batch_size=cfg.retrain.batch_size, seed=seed,
                         drop_last=cfg.retrain.drop_last)

        start_epoch = 0
        if resume is not None:
            arrays, extras = load_checkpoint(resume)
            if extras.get("kind") == "retrain-abort":
                raise ConfigError(
                    f"resume: {resume} holds mid-epoch weights of an aborted run; "
                    "resume from an epoch checkpoint instead")
            if extras.get("kind") != "retrain":
                raise ConfigError(f"resume: {resume} is a {extras.get('kind')!r} "
                                  "checkpoint, not a retraining checkpoint")
            if extras.get("genotype") != genotype_to_json(genotype):
                raise ConfigError("resume: checkpoint genotype differs from the "
                                  "requested genotype")
            load_parameters(params, arrays, resume, opt_state=opt.state_arrays())
            opt.load_state_arrays(arrays)
            start_epoch = int(extras["epoch"]) + 1
        out.mkdir(parents=True, exist_ok=True)
        save_config(cfg, out / "config.json")

        def checkpoint(name: str, **extras):
            arrays = model.named_arrays()
            arrays.update(opt.state_arrays())
            save_checkpoint(out / name, arrays, extras={
                "seed": seed, "genotype": genotype_to_json(genotype), **extras})

        def train_step(batch: Batch) -> tuple[float, float, float]:
            """One update; returns (loss, top-1, top-5) and drops the graph."""
            logits, loss = finite_pass(lambda: _logits_and_loss(model, batch))
            opt.zero_grad()
            backward(loss)
            opt.step()
            return (float(loss.data), topk_accuracy(logits.data, batch.labels, 1),
                    topk_accuracy(logits.data, batch.labels, 5))

        history: list[dict] = []
        def run_epoch(epoch: int, metrics: MetricsWriter):
            opt.set_lr(sched.lr_at(epoch))
            loss_sum, t1_sum, t5_sum, count = 0.0, 0.0, 0.0, 0
            try:
                for batch in epoch_batches(train_ds, np.arange(len(train_ds)),
                                           plan, epoch, "train", stats):
                    loss, t1, t5 = train_step(batch)
                    n = len(batch.labels)
                    loss_sum += loss * n
                    t1_sum += t1 * n
                    t5_sum += t5 * n
                    count += n
            except NonFiniteError as exc:
                checkpoint("abort.ckpt", kind="retrain-abort", aborted_in_epoch=epoch)
                raise SearchAbort(
                    f"retraining aborted on a non-finite value at epoch {epoch}; "
                    f"mid-epoch weights written to {out / 'abort.ckpt'}") from exc
            row = {"epoch": epoch, "split": "train", "loss": loss_sum / count,
                   "top1": t1_sum / count, "top5": t5_sum / count,
                   "lr": opt.lr}
            metrics.write(epoch, "train", row["loss"], row["top1"], row["top5"])
            history.append(row)
            if cfg.retrain.eval_every and (epoch + 1) % cfg.retrain.eval_every == 0:
                ev = evaluate(model, test_ds, cfg.retrain.batch_size, stats)
                metrics.write(epoch, "test", ev["loss"], ev["top1"], ev["top5"])
            if cfg.retrain.checkpoint_every and \
                    (epoch + 1) % cfg.retrain.checkpoint_every == 0:
                checkpoint(f"epoch_{epoch}.ckpt", kind="retrain", epoch=epoch)

        # as in run_search: a resume into the same directory rewrites the
        # epochs it runs, so its log matches an uninterrupted run's
        _keep_rows(out / "metrics.csv",
                   lambda row: int(row.split(b",", 1)[0]) < start_epoch, header=True)
        with MetricsWriter(out / "metrics.csv") as metrics:
            for epoch in range(start_epoch, cfg.retrain.epochs):
                run_epoch(epoch, metrics)
        checkpoint("model.ckpt", kind="retrain", epoch=cfg.retrain.epochs - 1)
        return model, history
