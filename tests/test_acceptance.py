"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -s` to see them).

Targets and tolerances are pinned here; nothing is deferred to calibration.
"""

import dataclasses
import json
import math

import numpy as np

from dasvit import (AdamW, AlphaTable, DerivedModel, FairnessConfig, OpSpec,
                    Selector, Supernet, Tensor, classic_encoder_genotype,
                    cost_report, derive_genotype, desk_config, dtype_scope, evaluate,
                    retrain, run_search, searched_encoder_genotype, skip_fairness,
                    type_fairness)
from dasvit import autodiff as ad
from dasvit.config import SyntheticConfig
from dasvit.data import (BatchPlan, epoch_batches, load_checkpoint, make_synthetic,
                         rng_for, split_dataset, RNG_STAGE)
from dasvit.ops import CellValue, ModelDims, MsaOp, build_op
from dasvit.search import SearchState, bilevel_epoch, build_datasets
from dasvit.supernet import MixedEdge
from oracles import analytic_grads, max_rel_err, numerical_grads, topk_oracle

DESK8 = [
    OpSpec("zero"), OpSpec("identity"),
    OpSpec("msa", heads=2), OpSpec("msa", heads=4), OpSpec("msa", heads=8),
    OpSpec("mlp", ratio=0.5), OpSpec("mlp", ratio=3.0), OpSpec("mlp", ratio=4.0),
]
GRAD_TOL = 1e-5


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


# -- 1. gradient fidelity ---------------------------------------------------------------


def test_criterion_1_gradient_fidelity():
    errors: dict[str, float] = {}
    with dtype_scope("float64"):
        rng = np.random.default_rng(0)

        def fd_error(f, wrt):
            return max_rel_err(analytic_grads(f, wrt), numerical_grads(f, wrt))

        # every candidate operation at dims <= (2, 3, 8)
        for spec in DESK8:
            op = build_op(spec, dim=8, rng=rng)
            x = Tensor(rng.standard_normal((2, 3, 8)), requires_grad=True)
            proj = Tensor(rng.standard_normal((2, 3, 8)))
            wrt = [x] + list(op.named_parameters().values())
            errors[spec.name] = fd_error(lambda: (op.forward(CellValue(x)) * proj).sum(), wrt)

        # one mixed edge over the full eight-candidate registry
        edge = MixedEdge(DESK8, dim=8, rng=rng)
        alpha = Tensor(rng.standard_normal(8), requires_grad=True)
        x = Tensor(rng.standard_normal((1, 2, 8)), requires_grad=True)
        proj = Tensor(rng.standard_normal((1, 2, 8)))
        wrt = [alpha, x] + list(edge.named_parameters().values())
        errors["mixed_edge"] = fd_error(
            lambda: (edge.forward(CellValue(x), ad.softmax(alpha)) * proj).sum(), wrt)

        # one full cell (reduced candidate set keeps the runtime budget)
        cell_cands = [OpSpec("zero"), OpSpec("identity"), OpSpec("msa", heads=2),
                      OpSpec("mlp", ratio=0.5)]
        sup = Supernet(ModelDims(dim=4, patch=4, image=8, classes=2), cell_cands,
                       1, np.random.default_rng(1))
        a = Tensor(rng.standard_normal((1, 2, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 2, 4)), requires_grad=True)
        proj = Tensor(rng.standard_normal((1, 2, 4)))
        wrt = [a, b, sup.alpha.logits] + [
            p for l in range(1) for e in range(5)
            for p in sup.cells[l][e].named_parameters().values()]
        errors["cell"] = fd_error(lambda: (sup.cell(0, CellValue(a), CellValue(b),
                                                     sup.alpha.edge_rows()) * proj).sum(), wrt)

        # token selector in score_scaling mode (clear of selection boundaries)
        sel = Selector(8, 0.5, "score_scaling", np.random.default_rng(2))
        sel.wq.data *= 25.0
        sel.wk.data *= 25.0
        xs = Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True)
        scores = sel.scores(xs[:, 1:]).data
        margins = -np.diff(np.sort(scores, axis=1)[:, ::-1], axis=1)
        assert margins.min() > 1e-3
        proj = Tensor(rng.standard_normal((2, 3, 8)))
        errors["token_selector"] = fd_error(
            lambda: (sel.select(xs)[0] * proj).sum(), [xs, sel.wq, sel.wk])

        # fairness loss over the one-row table, away from hinge kinks
        table = AlphaTable(DESK8, rng=np.random.default_rng(3))
        table.logits.data = 0.05 * rng.standard_normal((5, 8))
        fair = FairnessConfig()
        errors["fairness"] = fd_error(
            lambda: skip_fairness(table) * fair.a + type_fairness(table, fair) * fair.b,
            [table.logits])

    worst = max(errors.values())
    ok = worst < GRAD_TOL
    _report(1, ok, f"max FD rel. error {worst:.2e} over {len(errors)} surfaces "
                   f"(tol {GRAD_TOL:.0e})")
    assert ok, errors


# -- 2. reference cost reproduction ------------------------------------------------------


def test_criterion_2_cost_counters_hit_reference_table():
    full = ModelDims(dim=768, patch=16, image=224, classes=100)
    searched = searched_encoder_genotype(full, depth=12, heads=12, ratio=0.5)
    baseline = classic_encoder_genotype(full, depth=12, heads=12, ratio=4.0)

    checks = {
        "searched params 50.4M +-3%": (cost_report(searched).params, 50.4e6, 0.03),
        "baseline params 85.8M +-3%": (cost_report(baseline).params, 85.8e6, 0.03),
        "searched flops 9.9G +-10%": (cost_report(searched).flops, 9.9e9, 0.10),
        "baseline flops 12.0G +-10%": (cost_report(baseline).flops, 12.0e9, 0.10),
    }
    results = {name: abs(got - target) / target <= tol
               for name, (got, target, tol) in checks.items()}
    detail = "; ".join(
        f"{name.split()[0]} {kind}={got / scale:.2f}{unit} ({'ok' if results[name] else 'off'})"
        for name, (got, target, tol), kind, scale, unit in [
            (n, checks[n], n.split()[1], 1e6 if "params" in n else 1e9,
             "M" if "params" in n else "G")
            for n in checks])
    _report(2, all(results.values()), detail)
    failed = [name for name, ok in results.items() if not ok]
    # The baseline-encoder FLOPs target is unreachable: its own parameter
    # count (85.8M, reproduced above) already implies ~16.9 GMACs of dense
    # projections per image, 40% above the 12.0G target, under the same
    # convention that reproduces the searched model's 9.9G. The README's
    # Testing section carries the full analysis; the assertion stays as stated.
    assert not failed, f"cost targets missed: {failed}"


# -- 3. discretization consistency ------------------------------------------------------


def test_criterion_3_hardened_supernet_matches_derived_model():
    dims = ModelDims(dim=32, patch=4, image=8, classes=2)
    names = [s.name for s in DESK8]
    nonzero = [n for n in names if n != "zero"]
    worst = 0.0
    with dtype_scope("float64"):
        images = make_synthetic(2, 4, 8, seed=99).images.astype(np.float64)
        for seed in range(10):
            pick = np.random.default_rng(1000 + seed)
            sup = Supernet(dims, DESK8, 2, np.random.default_rng(seed),
                           lam=1.0, grad_mode="gather_only")
            assignment = [str(pick.choice(nonzero)) for _ in range(5)]
            assignment[int(pick.integers(2, 5))] = "zero"  # one dropped edge into n1
            logits = np.zeros_like(sup.alpha.logits.data)
            for e, name in enumerate(assignment):
                logits[e, names.index(name)] = 40.0
            sup.alpha.logits.data = logits
            genotype = derive_genotype(sup.alpha, dims, depth=2)
            derived = DerivedModel.from_supernet(sup, genotype)
            a = sup.forward(images).data
            b = derived.forward(images).data
            worst = max(worst, float(np.abs(a - b).max()))
    ok = worst < 1e-5
    _report(3, ok, f"max |supernet - derived| logit gap {worst:.2e} over 10 seeds "
                   f"(tol 1e-5)")
    assert ok


# -- 4. schedule and pruning --------------------------------------------------------------


def test_criterion_4_desk_search_schedule_and_genotype(tmp_path):
    result = run_search(desk_config(seed=0), tmp_path / "desk")
    schedule_ok = result.schedule == [(8, 2), (5, 4), (3, 6)]

    candidate_sets = []
    for stage in (1, 2, 3):
        _, extras = load_checkpoint(result.out_dir / f"stage_{stage}.ckpt")
        candidate_sets.append({json.dumps(c, sort_keys=True)
                               for c in extras["candidates"]})
    prune_ok = (len(candidate_sets[0]), len(candidate_sets[1]),
                len(candidate_sets[2])) == (8, 5, 3)
    irreversible = candidate_sets[2] <= candidate_sets[1] <= candidate_sets[0]

    doc = json.loads(result.genotype_path.read_text())
    genotype_ok = [len(pairs) for pairs in doc["nodes"]] == [2, 2] and \
        doc["dims"]["depth"] == 6

    ok = schedule_ok and prune_ok and irreversible and genotype_ok
    _report(4, ok, f"schedule {result.schedule}, candidate sets "
                   f"{[len(c) for c in candidate_sets]}, genotype nodes "
                   f"{[len(p) for p in doc['nodes']]}")
    assert ok


# -- 5. fairness efficacy -------------------------------------------------------------------


def _skip_dominance_run(a: float, seed: int = 3, epochs: int = 10) -> float:
    """Parameter-free ops against an under-trained MSA; returns the final
    mean Identity weight."""
    cands = [OpSpec("zero"), OpSpec("identity"), OpSpec("msa", heads=4)]
    dims = ModelDims(dim=32, patch=4, image=8, classes=2)
    ds = make_synthetic(2, 64, 8, seed=seed)
    split = split_dataset(len(ds), 0.5, seed)
    plan = BatchPlan(batch_size=16, seed=seed)
    sup = Supernet(dims, cands, 2, rng_for(seed, RNG_STAGE, 1))
    state = SearchState(
        model=sup, alpha=sup.alpha,
        w_opt=AdamW(sup.weight_parameters(), lr=1e-4, weight_decay=5e-2),
        a_opt=AdamW(sup.alpha_parameters(), lr=0.05, weight_decay=1e-3),
        fairness=FairnessConfig(a=a, b=0.0))
    for epoch in range(epochs):
        state.epoch = epoch
        bilevel_epoch(state,
                      epoch_batches(ds, split.train_indices, plan, epoch, "train"),
                      epoch_batches(ds, split.val_indices, plan, epoch, "val"))
    identity_col = [i for i, s in enumerate(cands) if s.kind == "identity"][0]
    return float(sup.alpha.weights()[:, identity_col].mean())


def test_criterion_5_fairness_suppresses_skip_weight():
    with_penalty = _skip_dominance_run(a=1.0)
    without = _skip_dominance_run(a=0.0)
    suppressed = with_penalty < without

    # and the type hinge is exactly zero iff every per-edge type sum is in range
    cfg = FairnessConfig()
    equivalence_ok = True
    rng = np.random.default_rng(4)
    for _ in range(50):
        table = AlphaTable(DESK8, rng=np.random.default_rng(0))
        table.logits.data = rng.standard_normal((5, 8)) * rng.uniform(0.1, 4.0)
        w = table.weights()
        sums = []
        for kind in ("zero", "identity", "msa", "mlp"):
            cols = [i for i, s in enumerate(DESK8) if s.kind == kind]
            sums.append(w[:, cols].sum(axis=-1))
        in_range = all(((s >= cfg.gamma_min) & (s <= cfg.gamma_max)).all()
                       for s in sums)
        value = float(type_fairness(table, cfg).data)
        equivalence_ok &= (value == 0.0) == in_range

    ok = suppressed and equivalence_ok
    _report(5, ok, f"final mean Identity weight {with_penalty:.4f} (a=1) < "
                   f"{without:.4f} (a=0): {suppressed}; type-hinge zero iff "
                   f"in-range: {equivalence_ok}")
    assert ok


# -- 6. token-selection memory ----------------------------------------------------------------


def test_criterion_6_token_selection_memory_and_topk():
    with dtype_scope("float64"):
        rng = np.random.default_rng(0)
        msa = MsaOp(OpSpec("msa", heads=2), dim=16, rng=np.random.default_rng(0))
        x = Tensor(rng.standard_normal((1, 65, 16)))  # 64 patches + class token
        # attention over (B, N, D) tokens forms B * heads * N * N scores
        full_elements = x.shape[0] * msa.heads * x.shape[1] ** 2
        msa.forward(CellValue(x))
        sel = Selector(16, 0.5, "gather_only", np.random.default_rng(1))
        reduced, _ = sel.select(x)
        msa.forward(CellValue(reduced))
        ratio = reduced.shape[0] * msa.heads * reduced.shape[1] ** 2 / full_elements
    ratio_ok = ratio <= 0.27

    mismatches = 0
    rng = np.random.default_rng(7)
    with dtype_scope("float64"):
        for trial in range(1000):
            n = int(rng.integers(4, 40))
            lam = float(rng.uniform(0.05, 1.0))
            k = int(math.floor(lam * n))
            if k < 1:
                continue
            x = rng.standard_normal((1, n + 1, 4))
            if trial % 5 == 0:
                x[0, 2] = x[0, 1 + n // 2]  # duplicate tokens force tied scores
            sel = Selector(4, lam, "gather_only", np.random.default_rng(trial))
            scores = sel.scores(Tensor(x[:, 1:])).data[0]
            _, idx = sel.select(Tensor(x))
            expected = topk_oracle(scores.tolist(), k)
            mismatches += idx[0].tolist() != expected
    trials_ok = mismatches == 0

    ok = ratio_ok and trials_ok
    _report(6, ok, f"score-matrix element ratio {ratio:.4f} (<= 0.27); "
                   f"top-k mismatches {mismatches}/1000")
    assert ok


# -- 7. end-to-end learnability -----------------------------------------------------------------


def test_criterion_7_derived_model_learns_synthetic_task(tmp_path):
    cfg = desk_config(seed=0)  # 100 retrain epochs at D=32, batch 16
    genotype = searched_encoder_genotype(cfg.model.dims(), depth=4, heads=4,
                                         ratio=0.5)
    model, history = retrain(genotype, cfg, tmp_path / "retrain")
    train_ds, _ = build_datasets(cfg, cfg.seed)
    final = evaluate(model, train_ds, batch_size=64)
    ok = final["top1"] > 0.95 and len(history) <= 100
    _report(7, ok, f"train top-1 {final['top1']:.3f} after {len(history)} epochs "
                   f"(threshold 0.95 within 100)")
    assert ok


# -- 8. determinism ---------------------------------------------------------------------------


def test_criterion_8_bitwise_determinism(tmp_path):
    cfg = desk_config(seed=5)
    cfg = dataclasses.replace(
        cfg,
        search=dataclasses.replace(cfg.search, epochs_per_stage=1, batch_size=8),
        retrain=dataclasses.replace(cfg.retrain, epochs=3, warmup_epochs=1),
        data=dataclasses.replace(cfg.data,
                                 synthetic=SyntheticConfig(classes=2, per_class=32,
                                                           image=8)))

    search_files = ["genotype.json", "alpha_history.csv", "search_log.jsonl",
                    "config.json", "stage_1.ckpt", "stage_3.ckpt"]
    run_search(cfg, tmp_path / "s1")
    run_search(cfg, tmp_path / "s2")
    search_same = {
        name: (tmp_path / "s1" / name).read_bytes() ==
              (tmp_path / "s2" / name).read_bytes()
        for name in search_files
    }

    genotype = searched_encoder_genotype(cfg.model.dims(), depth=2, heads=4)
    retrain(genotype, cfg, tmp_path / "r1")
    retrain(genotype, cfg, tmp_path / "r2")
    retrain_files = ["metrics.csv", "model.ckpt"]
    retrain_same = {
        name: (tmp_path / "r1" / name).read_bytes() ==
              (tmp_path / "r2" / name).read_bytes()
        for name in retrain_files
    }

    ok = all(search_same.values()) and all(retrain_same.values())
    diffs = [n for n, same in {**search_same, **retrain_same}.items() if not same]
    _report(8, ok, "all artifacts byte-identical across repeated runs"
            if ok else f"artifacts differ: {diffs}")
    assert ok
