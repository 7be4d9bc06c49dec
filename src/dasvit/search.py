"""Bi-level search: alternating architecture/weight updates, progressive
prune-and-deepen staging, genotype derivation, and derived-model retraining.

Each stage trains a supernet (depth grows stage by stage) with one batch
pair per step: an architecture update on the validation batch (plus the
fairness term), then a weight update on the training batch. At stage end the
lowest-scoring candidates are pruned and the next, deeper supernet inherits
every surviving parameter bank.

The architecture gradient is first order when ``search.xi`` is 0, the
default; a positive ``xi`` takes the unrolled variant instead (a virtual
weight step of size ``xi`` plus the finite-difference second-order
correction).
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import backward, cross_entropy, finite_pass, frozen
from .config import RunConfig, save_config, schedule_preview
from .data import (Batch, BatchPlan, CIFAR10_MEAN, CIFAR10_STD, Dataset, RNG_RETRAIN,
                   RNG_STAGE, RunLog, epoch_batches, load_checkpoint, load_parameters,
                   make_synthetic, load_cifar10, manifest_value, normalize, resize_images,
                   rng_for, save_checkpoint, sequential_batches, split_dataset,
                   topk_accuracy, write_json)
from .errors import ConfigError, DataError, GenotypeError, NonFiniteError, SearchAbort
from .fairness import FairnessConfig, skip_fairness, type_fairness
from .genotype import (DerivedModel, Genotype, genotype_to_json, make_genotype,
                       save_genotype)
from .ops import CELL_EDGES, INTERMEDIATE_NODES, NUM_EDGES, ModelDims, OpSpec
from .optim import AdamW, LrSchedule
from .supernet import AlphaTable, Supernet


# -- candidate scoring and pruning -----------------------------------------------


def score_candidates(alpha: AlphaTable) -> list[tuple[OpSpec, float]]:
    """Rank candidates by softmax weight averaged over every edge.

    Descending score; ties resolve to registry order.
    """
    scores = alpha.weights().mean(axis=0)
    order = sorted(range(len(alpha.candidates)), key=lambda k: (-scores[k], k))
    return [(alpha.candidates[k], float(scores[k])) for k in order]


def prune_candidates(alpha: AlphaTable, count: int,
                     ranking: list[tuple[OpSpec, float]]) -> list[OpSpec]:
    """Drop the `count` lowest-ranked candidates of ``score_candidates(alpha)``,
    given as `ranking`; survivors keep registry order.
    """
    if count <= 0:
        return list(alpha.candidates)
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
    logits keep the surviving columns.
    """
    new = Supernet.from_config(cfg, survivors, new_layers,
                               rng_for(seed, RNG_STAGE, stage_index))
    old_arrays = old.named_arrays()
    inherited = {n: p for n, p in new.weight_parameters().items() if n in old_arrays}
    load_parameters(inherited, {n: old_arrays[n] for n in inherited},
                    f"stage {stage_index - 1} supernet")
    cols = [old.candidates.index(spec) for spec in survivors]
    new.alpha.logits.data = old.alpha.logits.data[:, cols].copy()  # C order
    return new


# -- genotype derivation ------------------------------------------------------------


def derive_genotype(alpha: AlphaTable, dims: ModelDims, depth: int) -> Genotype:
    """Discretize: per intermediate node keep the two strongest incoming edges,
    each with its best non-Zero candidate.

    Edge strength is the max non-Zero softmax weight; ties prefer the lower
    edge index, candidate ties the registry order.
    """
    w = alpha.weights()  # (edges, candidates)
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
    xi: float = 0.0                     # 0: first order; else the unrolled pass
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
        state.w_opt.lr = lr
    for step, (tb, vb) in enumerate(zip(train_batches, val_batches)):
        if tb.split != "train" or vb.split != "val":
            raise DataError(
                f"bilevel: expected (train, val) batch pair, got ({tb.split}, {vb.split})")
        # architecture update on the validation batch
        if state.xi != 0.0:
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
    """(train, held-out) datasets per the data config, at ``model.image``:
    synthetic data resized and never normalized, cifar10 loaded at that size
    and normalized by its train-split statistics."""
    if cfg.data.source == "synthetic":
        syn, channels = cfg.data.synthetic, cfg.model.channels
        train = make_synthetic(syn.classes, syn.per_class, syn.image, seed,
                               channels=channels, noise=syn.noise)
        test = make_synthetic(syn.classes, max(1, syn.per_class // 4), syn.image,
                              seed + 1, channels=channels, noise=syn.noise)
        for ds in (train, test):
            ds.images = resize_images(ds.images, cfg.model.image)
    else:
        if cfg.data.dir is None:
            raise DataError("data.dir: required for cifar10")
        train, test = load_cifar10(cfg.data.dir, cfg.model.image)
        for ds in (train, test):
            ds.images = normalize(ds.images, CIFAR10_MEAN, CIFAR10_STD)
    return train, test


# -- evaluation ----------------------------------------------------------------------


def evaluate(model, dataset: Dataset, batch_size: int) -> dict:
    """Loss/top-1/top-5 of `model` over `dataset`, batched sequentially.

    Every tensor of ``model.named_parameters()`` is frozen for the pass, so
    no autodiff graph is recorded; each ``requires_grad`` flag is restored
    afterwards. Each batch's forward is a ``finite_pass`` over its logits
    and loss.
    """
    losses, top1, top5, total = 0.0, 0.0, 0.0, 0
    with frozen(model.named_parameters().values()):
        for batch in sequential_batches(dataset, batch_size):
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


def _alpha_rows(epoch: int, model: Supernet):
    logits, weights = model.alpha.logits.data, model.alpha.weights()
    for e in range(NUM_EDGES):
        for k, spec in enumerate(model.alpha.candidates):
            yield [epoch, e, spec.name, repr(float(logits[e, k])),
                   repr(float(weights[e, k]))]


def _build_optimizers(model: Supernet, cfg: RunConfig) -> tuple[AdamW, AdamW]:
    w_opt = AdamW(model.weight_parameters(), lr=cfg.search.lr,
                  weight_decay=cfg.search.weight_decay)
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
    write_json(path, dump)
    return path


def load_run_checkpoint(path, command: str, kind: str, seed: int | None = None,
                        genotype: Genotype | None = None) -> tuple[dict, dict]:
    """The arrays and extras of the checkpoint at `path`, refused with an
    error prefixed `command` unless its kind is `kind` and, where given, its
    seed is `seed` and its genotype `genotype`."""
    arrays, extras = load_checkpoint(path)
    got = extras.get("kind")
    if got != kind:
        aborted = " (mid-epoch weights of an aborted run)" if got == "retrain-abort" else ""
        raise ConfigError(f"{command}: {path} is a {got!r} checkpoint{aborted}, "
                          f"not a {kind} checkpoint")
    if seed is not None and manifest_value(path, extras, "seed", int) != seed:
        raise ConfigError(f"{command}: {path} was written under seed {extras['seed']}, "
                          f"not the config's seed {seed}")
    if genotype is not None and extras.get("genotype") != genotype_to_json(genotype):
        raise ConfigError(f"{command}: {path}: checkpoint genotype differs from the "
                          "requested genotype")
    return arrays, extras


def _remove_stale(out: Path, resume, numbered: str, start: int, names) -> None:
    """Delete from `out` what an earlier run left that this run, fresh
    (`resume` None, `start` 0 or 1) or resumed from `resume`, writes again:
    ``<numbered>_<n>.ckpt`` for n >= `start`, and `names`. The checkpoint
    `resume` itself stays."""
    keep = None if resume is None else Path(resume).resolve()
    for path in out.glob("*"):
        n = re.fullmatch(rf"{numbered}_(\d+)\.ckpt", path.name)
        if (path.name in names or n and int(n[1]) >= start) and path.resolve() != keep:
            path.unlink()


def run_search(cfg: RunConfig, out_dir, stages: int | None = None,
               resume=None) -> SearchResult:
    """Run the staged search end to end and write every artifact.

    Artifacts (README §Artifacts): config.json, alpha_history.csv,
    search_log.jsonl, prune.jsonl, stage_<n>.ckpt, genotype.json.
    Resuming points at a stage checkpoint and continues from the following
    stage. A run first deletes from `out_dir` the checkpoints of the stages
    it runs (every stage when fresh), genotype.json and diagnostic.json; a
    refused config, checkpoint or log leaves `out_dir` untouched.
    """
    cfg = cfg.validate()
    seed = cfg.seed
    if stages is not None and stages < 1:
        raise ConfigError("search: need at least one stage")
    out = Path(out_dir)

    planned = schedule_preview(cfg)
    depths = [layers for _, layers in planned[:stages]]
    n_stages = len(depths)
    start_stage, global_epoch = 1, 0
    candidates, layers, built_at = list(cfg.candidates), depths[0], 1
    if resume is not None:
        arrays, extras = load_run_checkpoint(resume, "resume", "search-stage", seed)
        built_at = manifest_value(resume, extras, "stage", int)
        if built_at >= n_stages:
            raise ConfigError(f"resume: {resume} already covers every stage: it holds "
                              f"stage {built_at}, and the run has {n_stages}")
        global_epoch = manifest_value(resume, extras, "global_epoch", int)
        candidates = [
            OpSpec.from_json(d, f"checkpoint: {resume}: extras.candidates[{i}]")
            for i, d in enumerate(manifest_value(resume, extras, "candidates", list))]
        layers = manifest_value(resume, extras, "layers", int)
        start_stage = built_at + 1

    train_ds, _ = build_datasets(cfg, seed)
    split = split_dataset(len(train_ds), cfg.search.val_fraction, seed)
    n_train, n_val = len(split.train_indices), len(split.val_indices)
    if min(n_train, n_val) < cfg.search.batch_size:
        # a short last batch is dropped, so a smaller split gives no bilevel step
        raise ConfigError(f"search.batch_size: {cfg.search.batch_size} exceeds a search "
                          f"split ({n_train} training, {n_val} validation images)")
    plan = BatchPlan(batch_size=cfg.search.batch_size, seed=seed, drop_last=True)

    # spans every configured stage: a run capped by `stages` is a prefix
    w_sched = LrSchedule(cfg.search.lr, warmup_epochs=0,
                         total_epochs=len(planned) * cfg.search.epochs_per_stage)

    model = Supernet.from_config(cfg, candidates, layers, rng_for(seed, RNG_STAGE, built_at))
    if resume is not None:
        load_parameters(model.named_parameters(), arrays, resume)

    # a resume into its own directory rewrites the epochs it runs, so its
    # logs end as an uninterrupted run's
    history = RunLog(out / "alpha_history.csv", global_epoch, header=(
        "epoch", "edge", "candidate", "logit", "softmax_weight"))
    log = RunLog(out / "search_log.jsonl", global_epoch)
    prune = RunLog(out / "prune.jsonl", global_epoch, epoch_key="global_epoch")
    # nothing is written before the checkpoint and every log are accepted
    _remove_stale(out, resume, "stage", start_stage, ("genotype.json", "diagnostic.json"))
    out.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out / "config.json")

    state = SearchState(model, model.alpha, *_build_optimizers(model, cfg),
                        fairness=cfg.fairness, xi=cfg.search.xi)
    schedule: list[tuple[int, int]] = []

    with history, log, prune:
        try:
            for stage in range(start_stage, n_stages + 1):
                if stage > 1:
                    ranking = score_candidates(model.alpha)
                    survivors = prune_candidates(
                        model.alpha, cfg.search.prune_per_stage[stage - 2], ranking)
                    prune.write({
                        "stage": stage, "global_epoch": global_epoch,
                        "scores": [{"candidate": spec.name, "score": score}
                                   for spec, score in ranking],
                        "survivors": [spec.name for spec in survivors],
                    })
                    model = advance_stage(model, survivors, depths[stage - 1],
                                          cfg, seed, stage)
                    state.model, state.alpha = model, model.alpha
                    # the old optimizers' memory goes before the new ones take theirs
                    state.w_opt = state.a_opt = None
                    state.w_opt, state.a_opt = _build_optimizers(model, cfg)
                state.stage = stage
                schedule.append((len(model.candidates), model.num_layers))
                for _ in range(cfg.search.epochs_per_stage):
                    state.epoch = global_epoch
                    lr = w_sched.lr_at(global_epoch)
                    train_b = epoch_batches(train_ds, split.train_indices, plan,
                                            global_epoch, "train")
                    val_b = epoch_batches(train_ds, split.val_indices, plan,
                                          global_epoch, "val")
                    mark = len(state.log)
                    bilevel_epoch(state, train_b, val_b, lr=lr)
                    log.write(*(asdict(entry) for entry in state.log[mark:]))
                    history.write(*_alpha_rows(global_epoch, model))
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
                        history_path=history.path, log_path=log.path)


# -- retraining ---------------------------------------------------------------------


def check_genotype_dims(command: str, genotype: Genotype, cfg: RunConfig) -> None:
    """Refuse, prefixed `command`, a genotype whose dims differ from the
    config's model dims (classes included)."""
    if genotype.dims != cfg.model.dims():
        raise ConfigError(
            f"{command}: genotype dims {genotype.dims} do not match config model dims "
            f"{cfg.model.dims()}")


def retrain(genotype: Genotype, cfg: RunConfig, out_dir,
            resume=None) -> tuple[DerivedModel, list[dict]]:
    """Train the derived model from scratch (or resume) with warmup+cosine AdamW.

    Token selection is not used; every token participates. Writes metrics.csv
    and model.ckpt under `out_dir`. A non-finite loss, logit or gradient
    aborts before the update, with the mid-epoch weights in abort.ckpt, a
    checkpoint `resume` refuses; model.ckpt and the epoch checkpoints only
    ever hold completed epochs. A run, fresh or resumed, first deletes from
    `out_dir` the checkpoints of the epochs it runs, model.ckpt and abort.ckpt.
    A genotype whose dims differ from the config's, and a `resume` checkpoint
    of another kind, seed or genotype or one that already holds the last
    configured epoch, are refused before any data is built or `out_dir` is
    touched.
    """
    cfg = cfg.validate()
    check_genotype_dims("retrain", genotype, cfg)
    seed = cfg.seed
    out = Path(out_dir)

    start_epoch = 0
    if resume is not None:
        arrays, extras = load_run_checkpoint(resume, "resume", "retrain", seed,
                                             genotype)
        start_epoch = manifest_value(resume, extras, "epoch", int) + 1
        if start_epoch >= cfg.retrain.epochs:
            raise ConfigError(
                f"resume: {resume} already covers every epoch: it holds epoch "
                f"{start_epoch - 1}, and retrain.epochs is {cfg.retrain.epochs}")

    train_ds, test_ds = build_datasets(cfg, seed)
    model = DerivedModel(genotype, rng_for(seed, RNG_RETRAIN))
    params = model.named_parameters()
    opt = AdamW(params, lr=cfg.retrain.lr, weight_decay=cfg.retrain.weight_decay)
    sched = LrSchedule(cfg.retrain.lr, cfg.retrain.warmup_epochs, cfg.retrain.epochs)
    plan = BatchPlan(batch_size=cfg.retrain.batch_size, seed=seed)
    if resume is not None:
        load_parameters(params, arrays, resume, opt_state=opt.state_arrays())
    metrics = RunLog(out / "metrics.csv", start_epoch,
                     header=("epoch", "split", "loss", "top1", "top5"))
    _remove_stale(out, resume, "epoch", start_epoch, ("model.ckpt", "abort.ckpt"))
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
    def run_epoch(epoch: int):
        opt.lr = sched.lr_at(epoch)
        loss_sum, t1_sum, t5_sum, count = 0.0, 0.0, 0.0, 0
        try:
            for batch in epoch_batches(train_ds, np.arange(len(train_ds)),
                                       plan, epoch, "train"):
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
               "top1": t1_sum / count, "top5": t5_sum / count, "lr": opt.lr}
        metrics.write([epoch, "train", row["loss"], row["top1"], row["top5"]])
        history.append(row)
        if cfg.retrain.eval_every and (epoch + 1) % cfg.retrain.eval_every == 0:
            ev = evaluate(model, test_ds, cfg.retrain.batch_size)
            metrics.write([epoch, "test", ev["loss"], ev["top1"], ev["top5"]])
        if cfg.retrain.checkpoint_every and \
                (epoch + 1) % cfg.retrain.checkpoint_every == 0:
            checkpoint(f"epoch_{epoch}.ckpt", kind="retrain", epoch=epoch)

    with metrics:
        for epoch in range(start_epoch, cfg.retrain.epochs):
            run_epoch(epoch)
    checkpoint("model.ckpt", kind="retrain", epoch=cfg.retrain.epochs - 1)
    return model, history
