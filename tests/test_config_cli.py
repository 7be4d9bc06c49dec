import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dasvit
from dasvit import desk_config, load_config, save_config, searched_encoder_genotype, \
    save_genotype
from dasvit.cli import main
from dasvit.config import config_from_json, config_to_json
from dasvit.errors import ConfigError
from dasvit.data import make_synthetic
from dasvit.genotype import DerivedModel
from dasvit.ops import ModelDims, OpSpec
from dasvit.search import build_datasets, evaluate
from dasvit.supernet import Supernet
from oracles import JSON_VALUES, json_paths, set_json_path, topk_oracle


# -- config round trip -----------------------------------------------------------------


def test_unknown_keys_are_rejected_with_path():
    doc = config_to_json(desk_config())
    doc["search"]["bogus"] = 1
    with pytest.raises(ConfigError, match=r"config\.search\.bogus"):
        config_from_json(doc)
    doc = config_to_json(desk_config())
    doc["mystery"] = {}
    with pytest.raises(ConfigError, match=r"config\.mystery"):
        config_from_json(doc)


def test_selector_lambda_key_uses_the_json_alias():
    doc = config_to_json(desk_config())
    assert "lambda" in doc["selector"]
    doc["selector"]["lambda"] = 0.75
    cfg = config_from_json(doc)
    assert cfg.selector.lam == 0.75


def test_config_file_roundtrip(tmp_path):
    cfg = desk_config(seed=42)
    path = tmp_path / "config.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_paper_scale_defaults_hold_reference_hyperparameters():
    from dasvit.config import paper_defaults

    cfg = paper_defaults()
    assert (cfg.search.batch_size, cfg.retrain.batch_size) == (64, 128)
    assert cfg.search.lr == cfg.retrain.lr == 1e-3
    assert cfg.search.weight_decay == cfg.retrain.weight_decay == 5e-2
    assert (cfg.search.stages, cfg.search.epochs_per_stage) == (3, 30)
    assert (cfg.retrain.epochs, cfg.retrain.warmup_epochs) == (500, 20)
    assert cfg.retrain.warmup_start_lr == 1e-6
    assert len(cfg.candidates) == 8


def test_cifar_source_fills_normalization_stats():
    from dasvit.data import CIFAR10_MEAN, CIFAR10_STD

    cfg = desk_config()
    cfg = dataclasses.replace(cfg, data=dataclasses.replace(
        cfg.data, source="cifar10", dir="/tmp/anything")).validate()
    assert cfg.data.normalize_mean == list(CIFAR10_MEAN)
    assert cfg.data.normalize_std == list(CIFAR10_STD)
    echoed = config_to_json(cfg)
    assert echoed["data"]["normalize_mean"] == list(CIFAR10_MEAN)


def test_resize_flag_reshapes_datasets():
    from dasvit.search import build_datasets

    cfg = desk_config()
    cfg = dataclasses.replace(cfg, data=dataclasses.replace(
        cfg.data, resize=16, resize_method="nearest")).validate()
    train, test = build_datasets(cfg, 0)
    assert train.images.shape[1:3] == (16, 16)
    assert test.images.shape[1:3] == (16, 16)


def test_candidate_validation_against_embedding_width():
    cfg = desk_config()
    doc = config_to_json(cfg)
    doc["candidates"].append({"kind": "msa", "heads": 12})  # 32 % 12 != 0
    with pytest.raises(ConfigError, match="msa_h12"):
        config_from_json(doc)


def test_duplicate_candidates_are_rejected_with_both_paths():
    doc = config_to_json(desk_config())
    doc["candidates"].append({"kind": "msa", "heads": 2})
    with pytest.raises(ConfigError,
                       match=r"candidates\[8\]: msa_h2 duplicates candidates\[2\]"):
        config_from_json(doc)


def test_retrain_warmup_longer_than_training_is_rejected():
    doc = config_to_json(desk_config())
    doc["retrain"]["epochs"] = 1
    with pytest.raises(ConfigError, match="retrain.warmup_epochs: 5 exceeds"):
        config_from_json(doc)


@pytest.mark.parametrize("doc, message", [
    ({"model": {"dim": "x"}}, r"config\.model\.dim: expected an integer, got 'x'"),
    ({"search": {"prune_per_stage": 3}},
     r"config\.search\.prune_per_stage: expected a list, got 3"),
    ({"selector": {"lambda": None}},
     r"config\.selector\.lambda: expected a finite number, got None"),
], ids=["model.dim", "search.prune_per_stage", "selector.lambda"])
def test_config_type_errors_name_their_path(doc, message):
    with pytest.raises(ConfigError, match=message):
        config_from_json(doc)


CONFIG_PATHS = list(json_paths(config_to_json(desk_config())))


@settings(max_examples=400)
@given(st.sampled_from(CONFIG_PATHS), JSON_VALUES)
def test_any_json_value_at_a_config_path_is_accepted_or_a_config_error(path, value):
    doc = config_to_json(desk_config())
    set_json_path(doc, path, value)
    try:
        config_from_json(doc)
    except ConfigError:
        pass


# -- cli -----------------------------------------------------------------------------


def _tiny_search_config(tmp_path, seed=1):
    cfg = desk_config(seed=seed)
    cfg = dataclasses.replace(
        cfg,
        search=dataclasses.replace(cfg.search, epochs_per_stage=1, batch_size=8),
        data=dataclasses.replace(
            cfg.data,
            synthetic=dataclasses.replace(cfg.data.synthetic, per_class=32)),
    )
    path = tmp_path / "tiny.json"
    save_config(cfg, path)
    return path


def test_cli_import_leaves_numpy_unloaded():
    """DASVIT_THREADS only takes effect if numpy loads after main() sets the
    BLAS variables, so importing the CLI must not load it."""
    code = "import sys, dasvit.cli; assert 'numpy' not in sys.modules, 'numpy loaded'"
    src = str(Path(dasvit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_cli_search_writes_artifacts_and_is_seed_stable(tmp_path, capsys):
    cfg_path = _tiny_search_config(tmp_path, seed=5)
    out_a = tmp_path / "a"
    assert main(["search", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["schedule"][0] == {"candidates": 8, "layers": 2}
    genotype_a = (out_a / "genotype.json").read_bytes()
    assert (out_a / "config.json").exists()

    out_b = tmp_path / "b"
    assert main(["search", "--config", str(cfg_path), "--out", str(out_b),
                 "--seed", "5"]) == 0
    capsys.readouterr()
    assert (out_b / "genotype.json").read_bytes() == genotype_a


def test_cli_search_stages_flag_caps_the_schedule(tmp_path, capsys):
    cfg_path = _tiny_search_config(tmp_path, seed=5)
    out = tmp_path / "one_stage"
    assert main(["search", "--config", str(cfg_path), "--out", str(out),
                 "--stages", "1"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["schedule"] == [{"candidates": 8, "layers": 2}]
    assert (out / "stage_1.ckpt").exists()
    assert not (out / "stage_2.ckpt").exists()


def test_cli_analyze_pre_norm_toggle_changes_counts(tmp_path, capsys):
    genotype = searched_encoder_genotype(desk_config().model.dims(), depth=2,
                                         heads=4)
    path = tmp_path / "g.json"
    save_genotype(genotype, path)
    assert main(["analyze", "--genotype", str(path)]) == 0
    out = capsys.readouterr().out
    with_norms = json.loads(out[out.index("{"):])["params"]
    assert main(["analyze", "--genotype", str(path), "--no-pre-norm"]) == 0
    out = capsys.readouterr().out
    without = json.loads(out[out.index("{"):])["params"]
    # each of the 8 parameterized ops in the 2-layer model drops a 2*D norm
    assert with_norms - without == 8 * 2 * 32


def test_cli_search_missing_data_dir_fails_cleanly(tmp_path, capsys):
    cfg = desk_config()
    cfg = dataclasses.replace(cfg, data=dataclasses.replace(
        cfg.data, source="cifar10", dir=str(tmp_path / "absent")))
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    code = main(["search", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert "directory" in err


def test_cli_retrain_eval_analyze_pipeline(tmp_path, capsys):
    cfg = desk_config(seed=3)
    cfg = dataclasses.replace(cfg, retrain=dataclasses.replace(
        cfg.retrain, epochs=8, warmup_epochs=2))
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg, cfg_path)

    genotype = searched_encoder_genotype(cfg.model.dims(), depth=2, heads=4)
    geno_path = tmp_path / "genotype.json"
    save_genotype(genotype, geno_path)

    out = tmp_path / "retrain"
    assert main(["retrain", "--config", str(cfg_path), "--genotype", str(geno_path),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "metrics.csv").exists()

    assert main(["eval", "--config", str(cfg_path), "--genotype", str(geno_path),
                 "--checkpoint", str(out / "model.ckpt"), "--split", "train"]) == 0
    scores = json.loads(capsys.readouterr().out)
    assert set(scores) == {"split", "loss", "top1", "top5"}
    assert scores["top5"] >= scores["top1"]

    report_path = tmp_path / "report.json"
    assert main(["analyze", "--genotype", str(geno_path), "--out",
                 str(report_path)]) == 0
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    assert report["params"] > 0 and report["flops"] > 0

    # a checkpoint trained for one genotype cannot be scored as another
    other = searched_encoder_genotype(cfg.model.dims(), depth=2, heads=8)
    other_path = tmp_path / "other.json"
    save_genotype(other, other_path)
    code = main(["eval", "--config", str(cfg_path), "--genotype", str(other_path),
                 "--checkpoint", str(out / "model.ckpt")])
    err = capsys.readouterr().err
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("trained_pre_norm, message", [
    (True, "array 'layers.0.n0.0.mlp_r0.5.norm_b' matches no parameter"),
    (False, "no array 'layers.0.n0.0.mlp_r0.5.norm_g'"),
])
def test_cli_eval_refuses_a_checkpoint_of_another_norm_layout(tmp_path, capsys,
                                                              trained_pre_norm, message):
    cfg = desk_config(seed=3)
    cfg = dataclasses.replace(cfg, retrain=dataclasses.replace(
        cfg.retrain, epochs=1, warmup_epochs=0))
    paths = {}
    for pre_norm in (True, False):
        paths[pre_norm] = tmp_path / f"pre_norm_{pre_norm}.json"
        save_config(dataclasses.replace(cfg, model=dataclasses.replace(
            cfg.model, pre_norm=pre_norm)), paths[pre_norm])
    geno_path = tmp_path / "genotype.json"
    save_genotype(searched_encoder_genotype(cfg.model.dims(), depth=1, heads=4),
                  geno_path)
    out = tmp_path / "retrain"
    assert main(["retrain", "--config", str(paths[trained_pre_norm]), "--genotype",
                 str(geno_path), "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["eval", "--config", str(paths[not trained_pre_norm]), "--genotype",
                 str(geno_path), "--checkpoint", str(out / "model.ckpt")])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.startswith("error:") and message in captured.err


def test_cli_search_resume_refuses_a_retraining_checkpoint(tmp_path, capsys):
    cfg = desk_config(seed=3)
    cfg = dataclasses.replace(cfg, retrain=dataclasses.replace(
        cfg.retrain, epochs=1, warmup_epochs=0))
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg, cfg_path)
    geno_path = tmp_path / "genotype.json"
    save_genotype(searched_encoder_genotype(cfg.model.dims(), depth=1, heads=4),
                  geno_path)
    out = tmp_path / "retrain"
    assert main(["retrain", "--config", str(cfg_path), "--genotype", str(geno_path),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["search", "--config", str(cfg_path), "--out", str(tmp_path / "s"),
                 "--resume", str(out / "model.ckpt")])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.startswith("error:")
    assert f"{out / 'model.ckpt'} is a 'retrain' checkpoint" in captured.err
    assert not (tmp_path / "s").exists()


def test_cli_retrain_rejects_dim_mismatch(tmp_path, capsys):
    cfg_path = _tiny_search_config(tmp_path)
    wrong_dims = dataclasses.replace(desk_config().model, dim=16).dims()
    genotype = searched_encoder_genotype(wrong_dims, depth=1, heads=4)
    geno_path = tmp_path / "wrong.json"
    save_genotype(genotype, geno_path)
    code = main(["retrain", "--config", str(cfg_path), "--genotype", str(geno_path),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert "dims" in err


def test_cli_analyze_full_scale_matches_reference_costs(tmp_path, capsys):
    genotype = searched_encoder_genotype(
        dataclasses.replace(desk_config().model, dim=768, patch=16, image=224,
                            classes=100).dims(),
        depth=12, heads=12, ratio=0.5)
    path = tmp_path / "full.json"
    save_genotype(genotype, path)
    assert main(["analyze", "--genotype", str(path)]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    assert abs(report["params"] - 50.4e6) / 50.4e6 < 0.03
    assert abs(report["flops"] - 9.9e9) / 9.9e9 < 0.10


def test_evaluate_constant_logits_score_chance():
    from dasvit.data import make_synthetic

    class ConstantModel:
        def forward(self, images):
            from dasvit.autodiff import Tensor

            return Tensor(np.zeros((images.shape[0], 10)))

        def named_parameters(self):
            return {}

    ds = make_synthetic(classes=10, per_class=10, image=8, seed=0)
    scores = evaluate(ConstantModel(), ds, batch_size=25)
    assert scores["top1"] == pytest.approx(0.1)
    assert scores["top5"] == pytest.approx(0.5)


@pytest.mark.parametrize("kind", ["supernet", "derived"])
def test_evaluate_records_no_graph_and_restores_flags(kind):
    dims = ModelDims(dim=16, patch=4, image=8, classes=2)
    rng = np.random.default_rng(0)
    if kind == "supernet":
        cands = [OpSpec("zero"), OpSpec("identity"), OpSpec("msa", heads=2),
                 OpSpec("mlp", ratio=0.5)]
        model = Supernet(dims, cands, 2, rng)
    else:
        model = DerivedModel(searched_encoder_genotype(dims, depth=2, heads=2), rng)
    params = model.named_parameters()
    params[sorted(params)[0]].requires_grad = False
    before = {name: p.requires_grad for name, p in params.items()}

    outputs = []
    forward = model.forward

    def spy(images):
        outputs.append(forward(images))
        return outputs[-1]

    model.forward = spy
    evaluate(model, make_synthetic(2, 4, 8, seed=0), batch_size=3)
    assert len(outputs) == 3
    assert not any(out.requires_grad or out._parents for out in outputs)
    assert {name: p.requires_grad for name, p in params.items()} == before


def test_evaluate_matches_hand_scoring(tmp_path):
    cfg = desk_config(seed=9)
    cfg = dataclasses.replace(cfg, retrain=dataclasses.replace(
        cfg.retrain, epochs=4, warmup_epochs=1))
    from dasvit import retrain

    genotype = searched_encoder_genotype(cfg.model.dims(), depth=1, heads=4)
    model, _ = retrain(genotype, cfg, tmp_path / "run")
    train_ds, _ = build_datasets(cfg, cfg.seed)
    subset = train_ds.subset(np.arange(20))
    got = evaluate(model, subset, batch_size=20)
    logits = model.forward(subset.images).data
    hits1 = hits5 = 0
    for i in range(20):
        ranked = topk_oracle(logits[i].tolist(), k=2)
        hits1 += int(ranked[0] == subset.labels[i])
        hits5 += int(subset.labels[i] in ranked)  # 2 classes: top-5 clamps to all
    assert got["top1"] == pytest.approx(hits1 / 20)
    assert got["top5"] == pytest.approx(hits5 / 20)
