import csv
import dataclasses
import gc
import json
import os
import re
import resource
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

import dasvit
from dasvit import (AdamW, AlphaTable, DerivedModel, FairnessConfig, OpSpec, Supernet,
                    derive_genotype, desk_config, dtype_scope, run_search, retrain,
                    schedule_preview, score_candidates, searched_encoder_genotype)
from dasvit import autodiff as ad
from dasvit.config import SyntheticConfig
from dasvit.data import (RNG_STAGE, BatchPlan, epoch_batches, load_checkpoint,
                         make_synthetic, rng_for, save_checkpoint, split_dataset)
from dasvit import search as search_mod
from dasvit.errors import (ConfigError, DataError, GenotypeError, NonFiniteError,
                           SearchAbort)
from dasvit.genotype import genotype_to_json
from dasvit.ops import CellValue, ModelDims, build_op
from dasvit.search import (SearchState, _grad_pass, _unrolled_alpha_pass,
                           advance_stage, bilevel_epoch, prune_candidates)
from dasvit.supernet import mixed_edge_forward
from oracles import edit_manifest, softmax_np

DESK8 = [
    OpSpec("zero"), OpSpec("identity"),
    OpSpec("msa", heads=2), OpSpec("msa", heads=4), OpSpec("msa", heads=8),
    OpSpec("mlp", ratio=0.5), OpSpec("mlp", ratio=3.0), OpSpec("mlp", ratio=4.0),
]
DIMS = ModelDims(dim=16, patch=4, image=8, classes=2)


def _small_cfg(seed=0, **search_overrides):
    cfg = desk_config(seed=seed)
    search = dataclasses.replace(cfg.search, batch_size=8, **search_overrides)
    data = dataclasses.replace(
        cfg.data, synthetic=SyntheticConfig(classes=2, per_class=32, image=8))
    return dataclasses.replace(cfg, search=search, data=data)


# -- schedule ------------------------------------------------------------------------


def test_schedule_preview_matches_default_plan():
    assert schedule_preview(desk_config()) == [(8, 2), (5, 4), (3, 6)]


# -- candidate scoring / pruning -------------------------------------------------------


def _table(logits, candidates=None):
    table = AlphaTable(candidates or DESK8, rng=np.random.default_rng(0))
    table.logits.data = logits
    return table


def test_uniform_alpha_scores_follow_registry_order():
    ranking = score_candidates(_table(np.zeros((5, 8))))
    assert [spec.name for spec, _ in ranking] == [s.name for s in DESK8]
    scores = [s for _, s in ranking]
    assert all(abs(s - 0.125) < 1e-12 for s in scores)


def test_saturated_candidate_ranks_first():
    logits = np.zeros((5, 8))
    logits[:, 6] = 30.0
    ranking = score_candidates(_table(logits))
    assert ranking[0][0].name == "mlp_r3"
    assert ranking[0][1] > 0.99


def test_scores_match_loop_oracle(rng):
    logits = rng.standard_normal((5, 8))
    got = dict((s.name, v) for s, v in score_candidates(_table(logits)))
    for k, spec in enumerate(DESK8):
        acc = [softmax_np(logits[e].astype(np.float64))[k] for e in range(5)]
        assert got[spec.name] == pytest.approx(float(np.mean(acc)), rel=1e-12)


def test_prune_keeps_registry_order_and_guards_degeneracy():
    logits = np.zeros((5, 8))
    logits[:, [1, 4, 6]] = -5.0  # push identity, msa_h8, mlp_r3 to the bottom
    table = _table(logits)
    survivors = prune_candidates(table, 3, score_candidates(table))
    assert [s.name for s in survivors] == ["zero", "msa_h2", "msa_h4", "mlp_r0.5",
                                           "mlp_r4"]
    table = _table(np.zeros((5, 8)))
    with pytest.raises(ConfigError, match="degenerate"):
        prune_candidates(table, 7, score_candidates(table))


def _dims_cfg(**search_overrides):
    """The desk config at DIMS."""
    cfg = desk_config()
    return dataclasses.replace(
        cfg, model=dataclasses.replace(cfg.model, dim=DIMS.dim),
        search=dataclasses.replace(cfg.search, **search_overrides))


def test_advance_stage_inherits_banks_and_drops_pruned():
    cfg = _dims_cfg()
    with dtype_scope("float32"):
        old = Supernet.from_config(cfg, DESK8, 2, np.random.default_rng(0))
        old.alpha.logits.data = np.random.default_rng(1).standard_normal(
            old.alpha.logits.shape).astype(np.float32)
        survivors = prune_candidates(old.alpha, 3, score_candidates(old.alpha))
        new = advance_stage(old, survivors, new_layers=4, cfg=cfg, seed=0,
                            stage_index=2)
        fresh = Supernet.from_config(cfg, survivors, 4, rng_for(0, RNG_STAGE, 2))
    assert new.num_layers == 4 and len(new.candidates) == 5
    old_w, new_w, fresh_w = (net.weight_parameters() for net in (old, new, fresh))
    assert not np.array_equal(old_w["embed.pos"].data, fresh_w["embed.pos"].data)
    for name, p in new_w.items():
        if name.startswith(("embed.", "selector.")):
            np.testing.assert_array_equal(p.data, old_w[name].data)
        elif name.startswith(("cells.2.", "cells.3.")):
            # layers beyond the old depth keep their fresh initialization
            np.testing.assert_array_equal(p.data, fresh_w[name].data)
        else:
            assert name.startswith(("cells.0.", "cells.1.")) and name in old_w
    pruned = {s.name for s in DESK8} - {s.name for s in survivors}
    new_names = set(new.named_arrays())
    assert not any(p in name for name in new_names for p in pruned)
    # shared-layer banks copy bitwise
    for layer in range(2):
        for e in range(5):
            for spec in survivors:
                if spec.kind in ("zero", "identity"):
                    continue
                k_old = old.candidates.index(spec)
                k_new = new.candidates.index(spec)
                for pname, p_new in new.cells[layer][e].ops[k_new] \
                        .named_parameters().items():
                    p_old = old.cells[layer][e].ops[k_old].named_parameters()[pname]
                    np.testing.assert_array_equal(p_new.data, p_old.data)
    # alpha columns follow the survivors
    cols = [old.candidates.index(s) for s in survivors]
    np.testing.assert_array_equal(new.alpha.logits.data,
                                  old.alpha.logits.data[:, cols])
    assert new.alpha.logits.data.flags.c_contiguous


# -- genotype derivation ---------------------------------------------------------------


def _hardened_table(assignment):
    logits = np.zeros((5, len(DESK8)))
    names = [s.name for s in DESK8]
    for edge, name in enumerate(assignment):
        logits[edge, names.index(name)] = 40.0
    return _table(logits)


def test_hand_built_alpha_reproduces_reference_structure():
    table = _hardened_table(["mlp_r0.5", "mlp_r0.5", "mlp_r0.5", "zero", "msa_h4"])
    g = derive_genotype(table, DIMS, depth=2)
    expected = searched_encoder_genotype(DIMS, depth=2, heads=4, ratio=0.5)
    assert g == expected


def test_uniform_alpha_derivation_is_deterministic():
    a = derive_genotype(_table(np.zeros((5, 8))), DIMS, depth=2)
    b = derive_genotype(_table(np.zeros((5, 8))), DIMS, depth=2)
    assert a == b
    # ties resolve to the lowest edge index and the first non-Zero candidate
    assert all(spec.name == "identity" for _, spec in a.nodes[0])
    assert [src for src, _ in a.nodes[1]] == [0, 1]


def test_saturated_alpha_derivation_matches_assignment():
    table = _hardened_table(["msa_h2", "mlp_r4", "identity", "zero", "mlp_r0.5"])
    g = derive_genotype(table, DIMS, depth=1)
    assert g.nodes[0] == ((0, OpSpec("msa", heads=2)), (1, OpSpec("mlp", ratio=4.0)))
    assert g.nodes[1] == ((0, OpSpec("identity")), (2, OpSpec("mlp", ratio=0.5)))


def test_zero_dominant_node_raises_with_alpha_dump():
    table = _hardened_table(["zero"] * 5)
    with pytest.raises(GenotypeError, match="Zero-dominant"):
        derive_genotype(table, DIMS, depth=1)


# -- bi-level mechanics ----------------------------------------------------------------


TOY_CANDIDATES = [OpSpec("zero"), OpSpec("identity")]


class ToyMixtureModel:
    """Flattened-feature mixture of {Zero, Identity} with a linear head.

    Small enough that the engine's alternation is observable: identity raises
    the feature scale, so on a separable task its weight should climb.
    """

    def __init__(self, n_features, classes, seed, direction=None, bias=None):
        rng = np.random.default_rng(seed)
        self.alpha = AlphaTable(TOY_CANDIDATES, rng=rng)
        self.ops = [build_op(s, n_features, rng) for s in TOY_CANDIDATES]
        if direction is None:
            w = 0.02 * rng.standard_normal((n_features, classes))
        else:
            w = np.stack([-direction, direction], axis=1)
        self.head_w = ad.parameter(np.asarray(w, dtype=ad.default_dtype()), "head_w")
        b = np.zeros(classes) if bias is None else bias
        self.head_b = ad.parameter(np.asarray(b, dtype=ad.default_dtype()), "head_b")

    def forward(self, images):
        x = ad.as_tensor(images.reshape(images.shape[0], -1))
        mixed = mixed_edge_forward(CellValue(x), self.ops, self.alpha.edge_rows()[0])
        return mixed @ self.head_w + self.head_b

    def weight_parameters(self):
        return {"head_w": self.head_w, "head_b": self.head_b}

    def alpha_parameters(self):
        return {"alpha.logits": self.alpha.logits}


def _toy_setup(seed=1, arch_lr=0.05, w_lr=0.05, fairness=None):
    with dtype_scope("float64"):
        ds = make_synthetic(2, 32, 8, seed=0)
        flat = ds.images.reshape(len(ds), -1).astype(np.float64)
        mu0 = flat[ds.labels == 0].mean(axis=0)
        mu1 = flat[ds.labels == 1].mean(axis=0)
        d = mu1 - mu0
        d /= np.linalg.norm(d)
        mid = 0.5 * (mu0 + mu1) @ d
        model = ToyMixtureModel(flat.shape[1], 2, seed=seed, direction=d,
                                bias=np.array([mid, -mid]))
        state = SearchState(
            model=model, alpha=model.alpha,
            w_opt=AdamW(model.weight_parameters(), lr=w_lr),
            a_opt=AdamW(model.alpha_parameters(), lr=arch_lr),
            fairness=fairness or FairnessConfig(a=0.0, b=0.0))
        return ds, model, state


def test_identity_weight_climbs_when_identity_helps():
    ds, model, state = _toy_setup()
    split = split_dataset(len(ds), 0.5, 0)
    plan = BatchPlan(batch_size=16, seed=0)
    trajectory = []
    with dtype_scope("float64"):
        for epoch in range(20):
            state.epoch = epoch
            tb = epoch_batches(ds, split.train_indices, plan, epoch, "train")
            vb = epoch_batches(ds, split.val_indices, plan, epoch, "val")
            bilevel_epoch(state, tb, vb)
            trajectory.append(float(model.alpha.weights()[0, 1]))
    assert all(b >= a for a, b in zip(trajectory, trajectory[1:]))
    assert trajectory[-1] > trajectory[0] + 0.05


def test_unrolled_gradient_with_zero_xi_equals_first_order():
    ds, model, state = _toy_setup()
    split = split_dataset(len(ds), 0.5, 0)
    plan = BatchPlan(batch_size=16, seed=0)
    with dtype_scope("float64"):
        tb = epoch_batches(ds, split.train_indices, plan, 0, "train")[0]
        vb = epoch_batches(ds, split.val_indices, plan, 0, "val")[0]
        state.xi = 0.0
        _unrolled_alpha_pass(state, tb, vb)
        grad = model.alpha.logits.grad
        _grad_pass(state, vb)
        direct = model.alpha.logits.grad
        np.testing.assert_allclose(grad, direct, rtol=1e-12, atol=1e-15)


class _UnrolledToy:
    """Mixture with a parameterized candidate so the train loss couples
    weights and architecture (the second-order correction is nonzero)."""

    CANDS = [OpSpec("zero"), OpSpec("identity"), OpSpec("mlp", ratio=1.0)]

    def __init__(self, n_features, classes, seed):
        rng = np.random.default_rng(seed)
        self.alpha = AlphaTable(self.CANDS, rng=rng)
        self.ops = [build_op(s, n_features, rng) for s in self.CANDS]
        self.head_w = ad.parameter(0.5 * rng.standard_normal((n_features, classes)),
                                   "head_w")
        self.head_b = ad.parameter(np.zeros(classes), "head_b")

    def forward(self, images):
        x = ad.as_tensor(images.reshape(images.shape[0], -1))
        mixed = mixed_edge_forward(CellValue(x), self.ops, self.alpha.edge_rows()[0])
        return mixed @ self.head_w + self.head_b

    def weight_parameters(self):
        out = {"head_w": self.head_w, "head_b": self.head_b}
        for i, op in enumerate(self.ops):
            for name, p in op.named_parameters().items():
                out[f"op{i}.{name}"] = p
        return out


def test_unrolled_gradient_matches_virtual_step_objective():
    """FD oracle through the whole unrolled objective: L(alpha) evaluated at
    w - xi * grad_w L_train(w, alpha), including the gradient's own alpha
    dependence. The analytic path approximates the Hessian-vector product by
    finite differences, so agreement is capped around 1e-5, not 1e-12."""
    with dtype_scope("float64"):
        ds = make_synthetic(2, 16, 4, seed=0)
        split = split_dataset(len(ds), 0.5, 0)
        plan = BatchPlan(batch_size=16, seed=0)
        tb = epoch_batches(ds, split.train_indices, plan, 0, "train")[0]
        vb = epoch_batches(ds, split.val_indices, plan, 0, "val")[0]

        model = _UnrolledToy(48, 2, seed=2)
        xi = 0.1
        state = SearchState(model=model, alpha=model.alpha,
                            w_opt=AdamW(model.weight_parameters(), lr=0.05),
                            a_opt=AdamW({"alpha.logits": model.alpha.logits}, lr=0.05),
                            fairness=FairnessConfig(a=0.0, b=0.0), xi=xi)
        _unrolled_alpha_pass(state, tb, vb)
        analytic = model.alpha.logits.grad

        w_params = state.w_opt.params

        def objective():
            _grad_pass(state, tb)
            g_w = {n: p.grad.copy() for n, p in w_params.items()}
            originals = {n: p.data.copy() for n, p in w_params.items()}
            for n, p in w_params.items():
                p.data = originals[n] - xi * g_w[n]
            value = float(ad.cross_entropy(model.forward(vb.images), vb.labels).data)
            for n, p in w_params.items():
                p.data = originals[n]
            return value

        h = 1e-5
        numeric = np.zeros_like(model.alpha.logits.data)
        flat = model.alpha.logits.data.reshape(-1)
        nf = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = objective()
            flat[i] = orig - h
            fm = objective()
            flat[i] = orig
            nf[i] = (fp - fm) / (2.0 * h)

        scale = max(np.abs(numeric).max(), 1e-8)
        assert np.abs(analytic - numeric).max() / scale < 1e-3

        # sanity: the correction matters, i.e. first-order alone is worse
        _grad_pass(state, vb)
        first_order = model.alpha.logits.grad
        assert np.abs(first_order - numeric).max() / scale > \
            np.abs(analytic - numeric).max() / scale


def test_search_runs_with_unrolled_flag(tmp_path, monkeypatch):
    """A positive search.xi alone takes the unrolled pass on every step."""
    passes = []
    unrolled = search_mod._unrolled_alpha_pass

    def counting(state, tb, vb):
        passes.append(state.xi)
        return unrolled(state, tb, vb)

    monkeypatch.setattr(search_mod, "_unrolled_alpha_pass", counting)
    cfg = _small_cfg(seed=5, stages=1, epochs_per_stage=1, xi=1e-3,
                     prune_per_stage=[0, 0, 0])
    result = run_search(cfg, tmp_path / "unrolled")
    assert result.schedule == [(8, 2)]
    assert result.state.log and passes == [1e-3] * len(result.state.log)


def test_unrolled_step_runs_and_differs_from_first_order():
    ds, model, state = _toy_setup()
    split = split_dataset(len(ds), 0.5, 0)
    plan = BatchPlan(batch_size=16, seed=0)
    with dtype_scope("float64"):
        tb = epoch_batches(ds, split.train_indices, plan, 0, "train")[0]
        vb = epoch_batches(ds, split.val_indices, plan, 0, "val")[0]
        state.xi = 0.05
        _unrolled_alpha_pass(state, tb, vb)
        grad = model.alpha.logits.grad
        _grad_pass(state, vb)
        assert not np.allclose(grad, model.alpha.logits.grad)


@pytest.mark.filterwarnings("ignore:invalid value")
def test_unrolled_pass_restores_the_weights_when_a_pass_raises():
    ds, model, state = _toy_setup()
    split = split_dataset(len(ds), 0.5, 0)
    plan = BatchPlan(batch_size=16, seed=0)
    held = {n: (p.data, p.data.copy()) for n, p in state.w_opt.params.items()}
    with dtype_scope("float64"):
        tb = epoch_batches(ds, split.train_indices, plan, 0, "train")[0]
        vb = epoch_batches(ds, split.val_indices, plan, 0, "val")[0]
        vb = dataclasses.replace(vb, images=np.full_like(vb.images, np.nan))
        state.xi = 0.05
        with pytest.raises(NonFiniteError, match="^weighted_sum produced non-finite values$"):
            _unrolled_alpha_pass(state, tb, vb)
    for n, p in state.w_opt.params.items():
        assert p.data is held[n][0] and np.array_equal(p.data, held[n][1]), n


def test_frozen_architecture_reduces_to_plain_training():
    split_seed = 0
    with dtype_scope("float64"):
        ds = make_synthetic(2, 32, 8, seed=0)
        split = split_dataset(len(ds), 0.5, split_seed)
        plan = BatchPlan(batch_size=16, seed=0)

        _, engine_model, state = _toy_setup(seed=3)
        state.a_opt.lr = 0.0
        for epoch in range(3):
            state.epoch = epoch
            tb = epoch_batches(ds, split.train_indices, plan, epoch, "train")
            vb = epoch_batches(ds, split.val_indices, plan, epoch, "val")
            bilevel_epoch(state, tb, vb)

        _, manual_model, _ = _toy_setup(seed=3)
        manual_opt = AdamW(manual_model.weight_parameters(), lr=0.05)
        for epoch in range(3):
            for tb in epoch_batches(ds, split.train_indices, plan, epoch, "train"):
                manual_opt.zero_grad()
                loss = ad.cross_entropy(manual_model.forward(tb.images), tb.labels)
                ad.backward(loss)
                manual_opt.step()

        np.testing.assert_array_equal(engine_model.head_w.data, manual_model.head_w.data)
        np.testing.assert_array_equal(engine_model.head_b.data, manual_model.head_b.data)
        np.testing.assert_array_equal(engine_model.alpha.logits.data,
                                      state.alpha.logits.data)


def test_each_phase_computes_only_the_gradients_it_updates():
    """The alpha step sees its alpha gradient bitwise (first order: the one an
    unfrozen pass gives) and no weight gradient; the weight step sees no alpha
    gradient. Both for the first-order and the unrolled alpha pass."""
    for unrolled in (False, True):
        with dtype_scope("float64"):
            ds = make_synthetic(2, 16, 8, seed=0)
            split = split_dataset(len(ds), 0.5, 0)
            plan = BatchPlan(batch_size=8, seed=0)
            tb = epoch_batches(ds, split.train_indices, plan, 0, "train")[:1]
            vb = epoch_batches(ds, split.val_indices, plan, 0, "val")[:1]
            sup = Supernet(DIMS, DESK8, 2, np.random.default_rng(0))
            state = SearchState(model=sup, alpha=sup.alpha,
                                w_opt=AdamW(sup.weight_parameters(), lr=0.01),
                                a_opt=AdamW(sup.alpha_parameters(), lr=0.01),
                                fairness=FairnessConfig(), xi=0.01 if unrolled else 0.0)
            weights = sup.weight_parameters()

            if unrolled:
                _unrolled_alpha_pass(state, tb[0], vb[0])
            else:
                _grad_pass(state, vb[0], fair=True)
                assert all(p.grad is not None for p in weights.values())
            expected = sup.alpha.logits.grad

            seen = {}

            def spy(opt, key):
                step = opt.step

                def wrapped():
                    seen[key] = {n: p.grad for n, p in sup.named_parameters().items()
                                 if p.grad is not None}
                    seen[key + "_alpha"] = (None if sup.alpha.logits.grad is None
                                            else sup.alpha.logits.grad.copy())
                    step()

                opt.step = wrapped

            spy(state.a_opt, "alpha_step")
            spy(state.w_opt, "weight_step")
            bilevel_epoch(state, tb, vb)

        assert set(seen["alpha_step"]) == {"alpha.logits"}
        np.testing.assert_array_equal(seen["alpha_step_alpha"], expected)
        assert "alpha.logits" not in seen["weight_step"]
        assert set(seen["weight_step"]) == set(weights)
        assert all(p.requires_grad for p in sup.named_parameters().values())


def test_alpha_and_weight_batches_stay_disjoint(tmp_path, monkeypatch):
    """The alpha passes only ever see validation samples, the weight passes
    only training samples."""
    seen = {"alpha": set(), "weight": set()}
    grad_pass = search_mod._grad_pass

    def spy(state, batch, freeze=None, fair=False):
        side = "alpha" if freeze is state.w_opt else "weight"
        seen[side].update(int(i) for i in batch.indices)
        return grad_pass(state, batch, freeze, fair)

    monkeypatch.setattr(search_mod, "_grad_pass", spy)
    cfg = _small_cfg(seed=2, stages=1, epochs_per_stage=2, prune_per_stage=[0, 0, 0])
    run_search(cfg, tmp_path / "run")
    split = split_dataset(64, cfg.search.val_fraction, cfg.seed)
    assert seen["alpha"] and seen["alpha"] <= set(split.val_indices.tolist())
    assert seen["weight"] and seen["weight"] <= set(split.train_indices.tolist())


def test_batch_tag_mismatch_is_rejected():
    ds, model, state = _toy_setup()
    plan = BatchPlan(batch_size=16, seed=0)
    batches = epoch_batches(ds, np.arange(len(ds)), plan, 0, "train")
    with pytest.raises(Exception, match="train, val|batch pair"):
        bilevel_epoch(state, batches, batches)


# -- full runs ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("search") / "desk"
    cfg = _small_cfg(seed=1, epochs_per_stage=2)
    return run_search(cfg, out), cfg


def test_desk_run_schedule_and_genotype(desk_run):
    result, _ = desk_run
    assert result.schedule == [(8, 2), (5, 4), (3, 6)]
    doc = json.loads(result.genotype_path.read_text())
    assert [len(pairs) for pairs in doc["nodes"]] == [2, 2]


def test_prune_log_records_each_stage_boundarys_scores_and_survivors(desk_run,
                                                                    monkeypatch):
    result, cfg = desk_run
    entries = [json.loads(line) for line in
               (result.out_dir / "prune.jsonl").read_text().splitlines()]
    assert [e["stage"] for e in entries] == [2, 3]
    for entry in entries:
        arrays, extras = load_checkpoint(result.out_dir / f"stage_{entry['stage'] - 1}.ckpt")
        _, entered = load_checkpoint(result.out_dir / f"stage_{entry['stage']}.ckpt")
        table = _table(arrays["alpha.logits"],
                       [OpSpec.from_json(d) for d in extras["candidates"]])
        assert entry["global_epoch"] == extras["global_epoch"]
        assert set(entry) == {"stage", "global_epoch", "scores", "survivors"}
        assert entry["scores"] == [{"candidate": spec.name, "score": score}
                                   for spec, score in score_candidates(table)]
        assert entry["survivors"] == [OpSpec.from_json(d).name
                                      for d in entered["candidates"]]

    # the search scores each boundary once
    scored = []
    score = search_mod.score_candidates
    monkeypatch.setattr(search_mod, "score_candidates",
                        lambda *args: scored.append(None) or score(*args))
    run_search(_small_cfg(seed=1, epochs_per_stage=1), result.out_dir.parent / "once")
    assert len(scored) == 2


def test_pruned_candidates_never_reappear(desk_run):
    result, _ = desk_run
    seen = []
    for stage in (1, 2, 3):
        arrays, extras = load_checkpoint(result.out_dir / f"stage_{stage}.ckpt")
        names = {s["kind"] + str(s.get("heads", s.get("ratio", "")))
                 for s in extras["candidates"]}
        seen.append(names)
        bank_names = set(arrays)
        for prev, prev_names in enumerate(seen[:-1]):
            gone = prev_names - names
            for g in gone:
                assert not any(g in n for n in bank_names)
    assert len(seen[0]) == 8 and len(seen[1]) == 5 and len(seen[2]) == 3
    assert seen[2] <= seen[1] <= seen[0]


def test_alpha_history_rows_ordered_and_normalized(desk_run):
    result, _ = desk_run
    with open(result.history_path) as fh:
        rows = list(csv.DictReader(fh))
    keys = [(int(r["epoch"]), int(r["edge"])) for r in rows]
    assert keys == sorted(keys)
    # one row per (epoch, edge, candidate)
    assert len({(k, r["candidate"]) for k, r in zip(keys, rows)}) == len(rows)
    sums = {}
    for r in rows:
        key = (int(r["epoch"]), int(r["edge"]))
        sums[key] = sums.get(key, 0.0) + float(r["softmax_weight"])
    assert all(abs(total - 1.0) < 1e-9 for total in sums.values())


def test_search_log_carries_loss_components(desk_run):
    result, _ = desk_run
    lines = [json.loads(line) for line in result.log_path.read_text().splitlines()]
    assert lines
    for entry in lines:
        for key in ("loss_val", "loss_train", "l1", "l2", "l_fair", "lr"):
            assert key in entry
        assert entry["l_fair"] == pytest.approx(0.5 * entry["l1"] + 0.5 * entry["l2"])


def test_resume_from_stage_checkpoint_matches_uninterrupted(tmp_path):
    # two epochs a stage: the capped run's lr at epoch 1 is that of the full
    # schedule only if it is built over every configured stage
    cfg = _small_cfg(seed=1, epochs_per_stage=2)
    full = run_search(cfg, tmp_path / "full")

    partial_dir = tmp_path / "partial"
    run_search(cfg, partial_dir, stages=1)
    assert (partial_dir / "stage_1.ckpt").read_bytes() == \
        (tmp_path / "full" / "stage_1.ckpt").read_bytes()
    resumed = run_search(cfg, tmp_path / "resumed",
                         resume=partial_dir / "stage_1.ckpt")

    assert resumed.genotype == full.genotype
    for name in ("stage_2.ckpt", "stage_3.ckpt"):
        assert (tmp_path / "resumed" / name).read_bytes() == \
            (tmp_path / "full" / name).read_bytes(), name

    def rows_from(path):
        with open(path) as fh:
            return [r for r in csv.reader(fh)][1:]

    full_rows = [r for r in rows_from(full.history_path) if int(r[0]) >= 2]
    resumed_rows = rows_from(resumed.history_path)
    assert resumed_rows == full_rows

    # resumed into its own directory, which already logs epochs 0-5 and ends
    # each log in a line cut short by a kill, the run rewrites epochs 2-5 and
    # leaves every file as the uninterrupted run did
    inplace = tmp_path / "inplace"
    shutil.copytree(tmp_path / "full", inplace)
    for name, tail in (("alpha_history.csv", b"1"),
                       ("search_log.jsonl", b'{"epoch": 5, "l1": 0.'),
                       ("prune.jsonl", b'{"global_epoch": 4, "sc')):
        with open(inplace / name, "ab") as fh:
            fh.write(tail)
    run_search(cfg, inplace, resume=inplace / "stage_1.ckpt")
    files = sorted(p.name for p in (tmp_path / "full").iterdir())
    assert sorted(p.name for p in inplace.iterdir()) == files
    for name in files:
        assert (inplace / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name


def test_search_resume_refuses_a_checkpoint_missing_an_array(tmp_path):
    cfg = _small_cfg(seed=5, stages=1, epochs_per_stage=1, prune_per_stage=[0])
    run_search(cfg, tmp_path / "run")
    manifest = tmp_path / "run" / "stage_1.ckpt"
    # an earlier version's stage checkpoint holds a (1, edges, candidates) table
    older = tmp_path / "run" / "older.ckpt"
    arrays, extras = load_checkpoint(manifest)
    arrays["alpha.logits"] = arrays["alpha.logits"][None]
    save_checkpoint(older, arrays, extras)
    edit_manifest(manifest, lambda doc: doc["arrays"].pop("selector.wq"))
    cfg = dataclasses.replace(cfg, search=dataclasses.replace(
        cfg.search, stages=2, prune_per_stage=[0, 0]))
    with pytest.raises(DataError, match=f"{manifest}: no array 'selector.wq'"):
        run_search(cfg, tmp_path / "resumed", resume=manifest)
    with pytest.raises(DataError, match=re.escape(
            f"{older}: array 'alpha.logits' has shape (1, 5, 8), expected (5, 8)")):
        run_search(cfg, tmp_path / "resumed", resume=older)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_nonfinite_loss_aborts_with_diagnostics(tmp_path):
    cfg = _small_cfg(seed=0, stages=1, epochs_per_stage=2, lr=1e30,
                     prune_per_stage=[0, 0, 0])
    with pytest.raises(SearchAbort, match="non-finite") as excinfo:
        run_search(cfg, tmp_path / "blowup")
    # the replay names the primitive where per-primitive checks stop the run
    assert str(excinfo.value.__cause__) == "matmul produced non-finite values"
    dump = json.loads((tmp_path / "blowup" / "diagnostic.json").read_text())
    assert "alpha_logits" in dump and "error" in dump


def test_failed_search_closes_its_logs(tmp_path, monkeypatch):
    """An error other than NonFiniteError (here at the first stage boundary)
    must still close alpha_history.csv and search_log.jsonl."""
    def refuse(*args, **kwargs):
        raise ConfigError("prune refused")

    monkeypatch.setattr(search_mod, "prune_candidates", refuse)
    cfg = _small_cfg(seed=0, stages=2, epochs_per_stage=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        try:
            run_search(cfg, tmp_path / "failed")
        except ConfigError as exc:
            assert "prune refused" in str(exc)
        else:
            raise AssertionError("the injected failure did not propagate")
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert (tmp_path / "failed" / "search_log.jsonl").read_text()


FROZEN_FIRST_ORDER_LOGITS = np.array([
    [0.00037108543625861, -0.00275270614305057, 0.00553066741289079,
     -0.00173400638648354],
    [0.00452384431451754, -0.00264690537306567, 0.00414873868072203,
     0.00347541980390282],
    [0.00548671794910463, -0.00362849339141048, 0.00046227049315611,
     0.00305661426778235],
    [0.00401954361664661, -0.00383381143736796, 0.00372389101471616,
     0.00284085868319052],
    [-0.00432793723797991, -0.00262217449482129, 0.0028948643717163,
     -0.00149251058624691],
])


def test_first_order_search_regression_trajectory(tmp_path):
    """With fairness off the loop is plain first-order alternation; pin it."""
    cfg = desk_config(seed=7)
    cfg = dataclasses.replace(
        cfg,
        model=dataclasses.replace(cfg.model, dim=16),
        candidates=[OpSpec("zero"), OpSpec("identity"), OpSpec("msa", heads=2),
                    OpSpec("mlp", ratio=0.5)],
        fairness=FairnessConfig(a=0.0, b=0.0),
        search=dataclasses.replace(cfg.search, stages=1, epochs_per_stage=2,
                                   batch_size=8, prune_per_stage=[0]),
        data=dataclasses.replace(
            cfg.data, synthetic=SyntheticConfig(classes=2, per_class=16, image=8)))
    with dtype_scope("float64"):
        result = run_search(cfg, tmp_path / "regression")
    np.testing.assert_allclose(result.state.alpha.logits.data,
                               FROZEN_FIRST_ORDER_LOGITS, rtol=0, atol=1e-6)


# -- retraining ----------------------------------------------------------------------


def _retrain_cfg(epochs, seed=0, **kw):
    cfg = desk_config(seed=seed)
    return dataclasses.replace(cfg, retrain=dataclasses.replace(
        cfg.retrain, epochs=epochs, warmup_epochs=min(3, epochs - 1), **kw))


def test_retrain_epoch_zero_uses_warmup_start_lr(tmp_path):
    cfg = _retrain_cfg(2)
    g = searched_encoder_genotype(cfg.model.dims(), depth=1, heads=4)
    _, history = retrain(g, cfg, tmp_path / "r")
    assert history[0]["lr"] == pytest.approx(1e-6, rel=1e-12)


def test_retrain_metrics_are_deterministic(tmp_path):
    cfg = _retrain_cfg(3)
    g = searched_encoder_genotype(cfg.model.dims(), depth=1, heads=4)
    retrain(g, cfg, tmp_path / "a")
    retrain(g, cfg, tmp_path / "b")
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
        (tmp_path / "b" / "metrics.csv").read_bytes()


def test_retrain_resume_matches_straight_run(tmp_path):
    g = searched_encoder_genotype(desk_config().model.dims(), depth=1, heads=4)
    cfg = _retrain_cfg(6, checkpoint_every=3)
    retrain(g, cfg, tmp_path / "straight")

    retrain(g, cfg, tmp_path / "tail",
            resume=tmp_path / "straight" / "epoch_2.ckpt")

    assert (tmp_path / "straight" / "model.ckpt").read_bytes() == \
        (tmp_path / "tail" / "model.ckpt").read_bytes()

    def rows(path):
        with open(path) as fh:
            return [r for r in csv.reader(fh)][1:]

    straight_rows = [r for r in rows(tmp_path / "straight" / "metrics.csv")
                     if int(r[0]) >= 3]
    tail_rows = rows(tmp_path / "tail" / "metrics.csv")
    assert tail_rows == straight_rows


def test_retrain_resume_into_its_own_directory_matches_straight_run(tmp_path):
    g = searched_encoder_genotype(desk_config().model.dims(), depth=1, heads=4)
    cfg = _retrain_cfg(6, checkpoint_every=3, eval_every=2)
    retrain(g, cfg, tmp_path / "straight")

    # the copy already logs epochs 0-5 and ends in a line cut short by a kill;
    # resuming from epoch 2 rewrites 3-5
    inplace = tmp_path / "inplace"
    shutil.copytree(tmp_path / "straight", inplace)
    with open(inplace / "metrics.csv", "ab") as fh:
        fh.write(b"1")
    retrain(g, cfg, inplace, resume=inplace / "epoch_2.ckpt")
    files = sorted(p.name for p in (tmp_path / "straight").iterdir())
    assert sorted(p.name for p in inplace.iterdir()) == files
    for name in files:
        assert (inplace / name).read_bytes() == \
            (tmp_path / "straight" / name).read_bytes(), name


def test_a_failed_log_cut_keeps_the_log(tmp_path, monkeypatch):
    g = searched_encoder_genotype(desk_config().model.dims(), depth=1, heads=4)
    cfg = _retrain_cfg(4, checkpoint_every=2)
    out = tmp_path / "run"
    retrain(g, cfg, out)
    before = (out / "metrics.csv").read_bytes()
    calls, rename = [], os.replace

    def refuse(src, dst):
        if Path(dst).name != "metrics.csv":
            return rename(src, dst)
        calls.append(Path(dst).name)
        raise OSError("injected rename failure")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="injected"):
        retrain(g, cfg, out, resume=out / "epoch_1.ckpt")
    monkeypatch.undo()
    assert calls == ["metrics.csv"]
    assert (out / "metrics.csv").read_bytes() == before
    assert not list(out.glob("*.tmp"))


def test_retrain_resume_refuses_a_checkpoint_missing_optimizer_state(tmp_path):
    g = searched_encoder_genotype(desk_config().model.dims(), depth=1, heads=4)
    cfg = _retrain_cfg(2, checkpoint_every=1)
    retrain(g, cfg, tmp_path / "run")
    manifest = tmp_path / "run" / "epoch_0.ckpt"
    edit_manifest(manifest, lambda doc: doc["arrays"].pop("opt.v.embed.pos"))
    with pytest.raises(DataError, match="no array 'opt.v.embed.pos'"):
        retrain(g, cfg, tmp_path / "resumed", resume=manifest)


def test_retrain_abort_writes_a_checkpoint_resume_refuses(tmp_path, monkeypatch):
    g = searched_encoder_genotype(desk_config().model.dims(), depth=1, heads=4)
    cfg = _retrain_cfg(3, checkpoint_every=1)
    out = tmp_path / "run"
    retrain(g, cfg, out)
    good = {"epoch_0.ckpt": (out / "epoch_0.ckpt").read_bytes()}

    epochs, epoch_1_losses = [], []

    def batches(*args, **kwargs):
        epochs.append(args[3])
        return epoch_batches(*args, **kwargs)

    def nonfinite_at_third_step_of_epoch_1(logits, labels):
        if epochs[-1] == 1:
            epoch_1_losses.append(None)
            if len(epoch_1_losses) == 3:
                raise NonFiniteError("cross_entropy produced non-finite values")
        return ad.cross_entropy(logits, labels)

    monkeypatch.setattr(search_mod, "epoch_batches", batches)
    monkeypatch.setattr(search_mod, "cross_entropy", nonfinite_at_third_step_of_epoch_1)
    with pytest.raises(SearchAbort, match="abort.ckpt"):
        retrain(g, cfg, out)
    monkeypatch.undo()

    _, extras = load_checkpoint(out / "abort.ckpt")
    assert extras["kind"] == "retrain-abort"
    assert extras["aborted_in_epoch"] == 1 and "epoch" not in extras
    # the fresh rerun removed the first run's model.ckpt and later epochs; its
    # own completed epoch rewrote epoch_0.ckpt with the same bytes
    assert {name: (out / name).read_bytes() for name in good} == good
    for name in ("model.ckpt", "epoch_1.ckpt", "epoch_2.ckpt"):
        assert not (out / name).exists(), name
    with pytest.raises(ConfigError, match="aborted"):
        retrain(g, cfg, tmp_path / "resumed", resume=out / "abort.ckpt")


def test_retrain_refuses_a_nonfinite_gradient_before_the_update(tmp_path, monkeypatch):
    g = searched_encoder_genotype(desk_config().model.dims(), depth=1, heads=4)
    opts, before, passes = [], {}, []

    class Recording(AdamW):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opts.append(self)

    def backward_then_poison(loss):
        ad.backward(loss)
        passes.append(None)
        if len(passes) == 3:
            params = opts[0].params
            before.update({n: p.data.copy() for n, p in params.items()})
            last = params[list(params)[-1]]
            last.grad = np.full_like(last.grad, np.inf)

    monkeypatch.setattr(search_mod, "AdamW", Recording)
    monkeypatch.setattr(search_mod, "backward", backward_then_poison)
    with pytest.raises(SearchAbort, match="abort.ckpt") as excinfo:
        retrain(g, _retrain_cfg(2), tmp_path / "run")
    assert "AdamW: gradient of" in str(excinfo.value.__cause__)
    arrays, extras = load_checkpoint(tmp_path / "run" / "abort.ckpt")
    assert extras["kind"] == "retrain-abort" and arrays["opt.step"][0] == 2
    for name, weights in before.items():
        assert np.isfinite(arrays[name]).all(), name
        assert np.array_equal(arrays[name], weights), name


@pytest.mark.filterwarnings("ignore:invalid value")
def test_evaluate_names_the_primitive_behind_a_nonfinite_logit():
    dims = ModelDims(dim=16, patch=4, image=8, classes=2)
    model = DerivedModel(searched_encoder_genotype(dims, depth=1, heads=2),
                         np.random.default_rng(0))
    model.named_parameters()["embed.cls"].data[...] = np.inf
    with pytest.raises(NonFiniteError, match="^broadcast_to produced non-finite values$"):
        search_mod.evaluate(model, make_synthetic(2, 4, 8, seed=0), batch_size=3)


@pytest.mark.skipif(getattr(ad._process_libc(), "mallopt", None) is None,
                    reason="the C library has no mallopt")
def test_a_repeated_evaluation_reuses_its_pages():
    # retrain_mid's model shape over its 40 held-out images
    dims = ModelDims(dim=192, patch=4, image=32, classes=10)
    model = DerivedModel(searched_encoder_genotype(dims, depth=6, heads=12, ratio=0.5),
                         np.random.default_rng(0))
    held_out = make_synthetic(10, 4, 32, seed=5)
    search_mod.evaluate(model, held_out, batch_size=16)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    search_mod.evaluate(model, held_out, batch_size=16)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= 300, f"{faults} minor page faults in a second evaluation"


def _no_datasets(*args):
    raise AssertionError("datasets built before the resume was refused")


@pytest.mark.parametrize("entry", ["search", "retrain"])
def test_a_refused_resume_leaves_no_run_directory(tmp_path, monkeypatch, entry):
    kind = "search-stage" if entry == "search" else "retrain"
    wrong = "retrain" if entry == "search" else "search-stage"
    g = searched_encoder_genotype(desk_config().model.dims(), depth=1, heads=4)
    cases = [({"kind": wrong}, f"is a '{wrong}' checkpoint"),
             ({"kind": kind, "seed": 1}, "was written under seed 1, not the config's seed 7")]
    if entry == "retrain":  # at and past the last of the config's 2 epochs
        cases += [({"kind": kind, "seed": 7, "genotype": genotype_to_json(g), "epoch": epoch},
                   f"already covers every epoch: it holds epoch {epoch}, and "
                   "retrain.epochs is 2") for epoch in (1, 3)]
    else:  # at and past the run's one stage
        cases += [({"kind": kind, "seed": 7, "stage": stage},
                   f"already covers every stage: it holds stage {stage}, and the run "
                   "has 1") for stage in (1, 3)]
    # every refusal comes before any data is built
    monkeypatch.setattr(search_mod, "build_datasets", _no_datasets)
    for extras, message in cases:
        ckpt = tmp_path / "other.ckpt"
        save_checkpoint(ckpt, {"w": np.zeros(1, dtype=np.float32)}, extras)
        out = tmp_path / "fresh" / "run"
        with pytest.raises(ConfigError, match=f"^resume: {ckpt} {message}"):
            if entry == "search":
                run_search(_small_cfg(seed=7, stages=1, epochs_per_stage=1), out,
                           resume=ckpt)
            else:
                retrain(g, _retrain_cfg(2, seed=7), out, resume=ckpt)
        assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize("entry", ["search", "retrain", "fresh-search"])
def test_a_failed_resume_in_place_leaves_no_later_artifact(tmp_path, monkeypatch, entry):
    """Before it writes, a resume deletes the earlier run's artifacts it would
    write again, so one that fails keeps none of them but the checkpoint; a
    fresh run deletes every one of them."""
    out = tmp_path / "run"
    if entry == "retrain":
        g = searched_encoder_genotype(desk_config().model.dims(), depth=1, heads=4)
        cfg = _retrain_cfg(4, checkpoint_every=1)
        retrain(g, cfg, out)
        resume, later = out / "epoch_1.ckpt", {"epoch_2", "epoch_3", "model"}
    else:
        cfg = _small_cfg(seed=5, epochs_per_stage=1)
        run_search(cfg, out)
        resume, later = out / "stage_1.ckpt", {"stage_2", "stage_3", "genotype"}
        if entry == "fresh-search":
            resume, later = None, later | {"stage_1"}

    def stems():
        return {p.name.split(".")[0] for p in out.iterdir()}

    assert later <= stems()
    kept = {p.name: p.read_bytes() for p in out.glob(f"{resume.name}*")} if resume else {}

    def nonfinite(*args, **kwargs):
        raise NonFiniteError("injected")

    with pytest.raises(SearchAbort):
        if entry != "retrain":  # the first epoch of the first stage it runs
            monkeypatch.setattr(search_mod, "bilevel_epoch", nonfinite)
            run_search(cfg, out, resume=resume)
        else:  # the first step of epoch 2
            monkeypatch.setattr(search_mod, "cross_entropy", nonfinite)
            retrain(g, cfg, out, resume=resume)
    assert not later & stems()
    assert {name: (out / name).read_bytes() for name in kept} == kept


def test_remove_stale_spares_the_resumed_checkpoint_and_earlier_stages(tmp_path):
    files = ["stage_1.ckpt", "stage_2.ckpt", "stage_10.ckpt", "stage_3.ckpt",
             "stage_3.ckpt.tmp", "genotype.json", "config.json"]
    for name in files:
        (tmp_path / name).write_bytes(b"")
    search_mod._remove_stale(tmp_path, tmp_path / "stage_3.ckpt", "stage", 2,
                             ("genotype.json",))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "stage_1.ckpt", "stage_3.ckpt", "stage_3.ckpt.tmp"]


def test_every_artifact_a_run_writes_is_in_the_readme_tables(tmp_path):
    readme = (Path(dasvit.__file__).resolve().parents[2] / "README.md").read_text()
    artifacts = readme[readme.index("\n## Artifacts\n"):]
    artifacts = artifacts[:artifacts.index("\n## ", 1)]
    run_search(_small_cfg(seed=5, stages=1, epochs_per_stage=1, prune_per_stage=[0]),
               tmp_path / "search")
    g = searched_encoder_genotype(desk_config().model.dims(), depth=1, heads=4)
    retrain(g, _retrain_cfg(1, checkpoint_every=1), tmp_path / "retrain")
    names = {re.sub(r"_\d+\.", "_<n>.", p.name) for p in tmp_path.glob("*/*")}
    assert {"stage_<n>.ckpt", "epoch_<n>.ckpt", "metrics.csv"} <= names
    assert not [n for n in names if n.endswith(".blob")]
    assert sorted(n for n in names if f"`{n}`" not in artifacts) == []


def test_retrain_rejects_class_mismatch(tmp_path):
    cfg = _retrain_cfg(2)
    wrong = ModelDims(dim=32, patch=4, image=8, classes=5)
    g = searched_encoder_genotype(wrong, depth=1, heads=4)
    with pytest.raises(ConfigError, match="classes"):
        retrain(g, cfg, tmp_path / "bad")


@pytest.mark.parametrize("field, value", [("dim", 16), ("patch", 2), ("image", 16)])
def test_retrain_refuses_a_genotype_of_other_dims(tmp_path, monkeypatch, field, value):
    """Refused before any data is built or `out` exists, naming both dims."""
    cfg = _retrain_cfg(1)
    dims = dataclasses.replace(cfg.model.dims(), **{field: value})
    g = searched_encoder_genotype(dims, depth=1, heads=4)

    def no_data(*args):
        raise AssertionError("retrain built datasets for a genotype it refuses")

    monkeypatch.setattr(search_mod, "build_datasets", no_data)
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=r"^retrain: genotype dims") as refused:
        retrain(g, cfg, out)
    assert f"{field}={value}" in str(refused.value)
    assert f"{field}={getattr(cfg.model, field)}" in str(refused.value)
    assert not out.exists()
