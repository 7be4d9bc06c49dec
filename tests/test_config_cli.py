import dataclasses
import json
import os
import re
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
from dasvit.config import (config_from_json, config_to_json, paper_defaults,
                           schedule_preview)
from dasvit.errors import ConfigError
from dasvit.data import Dataset, load_checkpoint, make_synthetic, save_checkpoint
from dasvit.genotype import DerivedModel, genotype_to_json
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
    from dasvit import optim
    from dasvit.config import paper_defaults

    cfg = paper_defaults()
    assert (cfg.search.batch_size, cfg.retrain.batch_size) == (64, 128)
    assert cfg.search.lr == cfg.retrain.lr == 1e-3
    assert cfg.search.weight_decay == cfg.retrain.weight_decay == 5e-2
    assert (len(schedule_preview(cfg)), cfg.search.epochs_per_stage) == (3, 30)
    assert (cfg.retrain.epochs, cfg.retrain.warmup_epochs) == (500, 20)
    assert optim.WARMUP_START_LR == 1e-6
    assert len(cfg.candidates) == 8
    assert cfg.data.synthetic.classes == cfg.model.classes == 10


def test_validate_leaves_a_cifar_config_as_it_was_read():
    """Normalization follows the source, so validating a cifar10 config adds
    nothing to it: the echoed document is the one that was read."""
    doc = config_to_json(desk_config())
    doc["model"]["classes"] = 10
    doc["data"].update(source="cifar10", dir="absent")
    cfg = config_from_json(doc)
    assert config_to_json(cfg) == doc
    assert config_to_json(cfg.validate()) == doc


def test_resize_flag_reshapes_datasets():
    """Every split is resized to model.image; synthetic images are generated
    at data.synthetic.image with model.channels channels."""
    from dasvit.search import build_datasets

    cfg = desk_config()
    cfg = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, image=16,
                                                             channels=1)).validate()
    assert cfg.data.synthetic.image == 8
    train, test = build_datasets(cfg, 0)
    assert train.images.shape[1:] == test.images.shape[1:] == (16, 16, 1)


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
    ({"candidates": [{"kind": "zero"}, {"kind": "msa"}]},
     r"config\.candidates\[1\]: OpSpec: msa requires a positive integer head count"),
    # accepted: an integer given for a float field is read and echoed as a float
    ({"search": {"lr": 1}}, None),
    # seven candidates, so the default schedule (prune 3, then 2) leaves every stage two
    ({"candidates": [{"kind": "zero"}] + [{"kind": "mlp", "ratio": r} for r in range(1, 7)]},
     None),
], ids=["model.dim", "search.prune_per_stage", "selector.lambda", "msa-without-heads",
        "search.lr-integer", "mlp-ratio-integer"])
def test_config_type_errors_name_their_path(doc, message):
    if message is not None:
        with pytest.raises(ConfigError, match=message):
            config_from_json(doc)
        return
    echoed = config_to_json(config_from_json(doc))
    for path in json_paths(doc):
        given, got = doc, echoed
        for key in path:
            given, got = given[key], got[key]
        if type(given) is int:
            assert type(got) is float and got == given, path


CONFIG_PATHS = list(json_paths(config_to_json(desk_config())))


def test_the_config_has_these_leaves():
    """Every knob of the config, by path; adding or removing one edits this list."""
    def leaves(doc, prefix=""):
        for key, value in doc.items():
            if isinstance(value, dict):
                yield from leaves(value, f"{prefix}{key}.")
            else:
                yield prefix + key

    assert list(leaves(config_to_json(paper_defaults()))) == [
        "seed",
        "model.dim", "model.patch", "model.image", "model.channels", "model.classes",
        "candidates",
        "selector.lambda",
        "fairness.a", "fairness.b", "fairness.zeta1", "fairness.zeta2",
        "fairness.gamma_min", "fairness.gamma_max",
        "search.epochs_per_stage", "search.first_layers",
        "search.layer_increment", "search.prune_per_stage", "search.batch_size",
        "search.lr", "search.weight_decay", "search.arch_lr",
        "search.arch_weight_decay", "search.xi", "search.val_fraction",
        "search.alpha_init_std",
        "retrain.epochs", "retrain.warmup_epochs",
        "retrain.batch_size", "retrain.lr", "retrain.weight_decay",
        "retrain.checkpoint_every", "retrain.eval_every",
        "data.source", "data.dir", "data.synthetic.classes", "data.synthetic.per_class",
        "data.synthetic.image", "data.synthetic.noise"]


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


@pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"[" * 100_000], ids=["utf16-bom", "deep"])
@pytest.mark.parametrize("command, option, what", [
    ("search", "--config", "config"), ("analyze", "--genotype", "genotype")])
def test_cli_refuses_a_file_that_is_not_json_with_one_error_line(tmp_path, capsys, command,
                                                                 option, what, raw):
    """Bytes that are not UTF-8, or a document nested past the parser's depth,
    are refused as invalid JSON naming the file, not with a traceback."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    if command == "search":
        with pytest.raises(ConfigError, match=f"^config: invalid JSON in {bad}: "):
            load_config(bad)
    out = tmp_path / "out"
    code = main([command, option, str(bad), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.startswith(f"error: {what}: invalid JSON in {bad}: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_cli_search_missing_data_dir_fails_cleanly(tmp_path, capsys):
    cfg = desk_config()
    cfg = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, classes=10),
                              data=dataclasses.replace(cfg.data, source="cifar10",
                                                       dir=str(tmp_path / "absent")))
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    code = main(["search", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert "directory" in err


@pytest.mark.parametrize("command, changes, message", [
    ("search", {"data": {"normalize_mean": [0.5, 0.5], "normalize_std": [0.2] * 3}},
     "config.data.normalize_mean: unknown key"),
    ("search", {"data": {"normalize_std": [0.2, 0, 0.2]}},
     "config.data.normalize_std: unknown key"),
    ("search", {"seed": -1}, "seed: must be >= 0, got -1"),
    ("search", {"model": {"patch": 3}},
     "model: ModelDims: image size 8 not divisible by patch 3"),
    ("retrain", {"model": {"dim": 0}}, "model: ModelDims: all dimensions must be positive"),
    ("search", {"candidates": [{"kind": "zero"}], "search": {"prune_per_stage": []}},
     "candidates: every candidate is zero; nothing would train"),
    ("search", {"search": {"batch_size": 0}}, "search.batch_size: must be >= 1, got 0"),
    ("retrain", {"retrain": {"batch_size": 0}}, "retrain.batch_size: must be >= 1, got 0"),
    ("search", {"search": {"warmup_epochs": -1}},
     "config.search.warmup_epochs: unknown key"),
    ("retrain", {"retrain": {"warmup_epochs": -2}},
     "retrain.warmup_epochs: must be >= 0, got -2"),
    ("search", {"search": {"prune_per_stage": [-1, 2, 0]}},
     "search.prune_per_stage[0]: must be >= 0, got -1"),
    ("search", {"search": {"prune_per_stage": [3, 4, 0]}},
     "search.prune_per_stage[1]: pruning 4 leaves 1 candidates for stage 3"),
    ("search", {"search": {"layer_increment": -1}},
     "search.layer_increment: -1 leaves 0 layers for stage 3"),
    ("search", {"search": {"first_layers": 0}}, "search.first_layers: must be >= 1, got 0"),
    ("search", {"search": {"xi": -0.001}}, "search.xi: must be >= 0, got -0.001"),
    ("retrain", {"retrain": {"epochs": 0, "warmup_epochs": 0}},
     "retrain.epochs: must be >= 1, got 0"),
    ("retrain", {"retrain": {"epochs": -1}}, "retrain.epochs: must be >= 1, got -1"),
    ("retrain", {"retrain": {"checkpoint_every": -1}},
     "retrain.checkpoint_every: must be >= 0, got -1"),
    ("retrain", {"retrain": {"eval_every": -1}}, "retrain.eval_every: must be >= 0, got -1"),
    ("retrain", {"data": {"synthetic": {"classes": 2, "per_class": 0}}},
     "data.synthetic.per_class: must be >= 1, got 0"),
    ("search", {"data": {"synthetic": {"classes": 2, "image": 0}}},
     "data.synthetic.image: must be >= 1, got 0"),
    ("search", {"data": {"synthetic": {"classes": 2, "image": -8}}},
     "data.synthetic.image: must be >= 1, got -8"),
    ("search", {"selector": {"lambda": 0.2}},
     "selector.lambda: 0.2 keeps none of 4 patch tokens"),
    ("retrain", {"model": {"patch": 8}}, "selector.lambda: 0.5 keeps none of 1 patch tokens"),
    ("search", {"search": {"lr": -1}}, "search.lr: must be >= 0, got -1.0"),
    ("search", {"search": {"weight_decay": -5}}, "search.weight_decay: must be >= 0, got -5.0"),
    ("search", {"search": {"warmup_start_lr": -1}},
     "config.search.warmup_start_lr: unknown key"),
    ("search", {"search": {"min_lr": -1}}, "config.search.min_lr: unknown key"),
    ("search", {"search": {"arch_lr": -1}}, "search.arch_lr: must be >= 0, got -1.0"),
    ("search", {"search": {"arch_weight_decay": -1}},
     "search.arch_weight_decay: must be >= 0, got -1.0"),
    ("retrain", {"retrain": {"lr": -1}}, "retrain.lr: must be >= 0, got -1.0"),
    ("retrain", {"retrain": {"weight_decay": -1}},
     "retrain.weight_decay: must be >= 0, got -1.0"),
    ("retrain", {"retrain": {"warmup_start_lr": -1}},
     "config.retrain.warmup_start_lr: unknown key"),
    ("retrain", {"retrain": {"min_lr": -1}}, "config.retrain.min_lr: unknown key"),
    ("search", {"search": {"alpha_init_std": -1.0}},
     "search.alpha_init_std: must be >= 0, got -1.0"),
    ("search", {"data": {"synthetic": {"classes": 2, "noise": -0.5}}},
     "data.synthetic.noise: must be >= 0, got -0.5"),
    # keys since removed, each with a value it once accepted
    ("search", {"search": {"score_mode": "mean"}}, "config.search.score_mode: unknown key"),
    ("search", {"search": {"drop_last": True}}, "config.search.drop_last: unknown key"),
    ("search", {"search": {"unrolled": True}}, "config.search.unrolled: unknown key"),
    ("search", {"retrain": {"drop_last": False}}, "config.retrain.drop_last: unknown key"),
    ("search", {"data": {"resize_method": "bilinear"}},
     "config.data.resize_method: unknown key"),
    ("search", {"data": {"resize": 8}}, "config.data.resize: unknown key"),
    ("search", {"data": {"synthetic": {"channels": 3}}},
     "config.data.synthetic.channels: unknown key"),
    ("search", {"model": {"precision": "float32"}}, "config.model.precision: unknown key"),
    ("search", {"model": {"pre_norm": True}}, "config.model.pre_norm: unknown key"),
    ("retrain", {"model": {"final_norm": False}}, "config.model.final_norm: unknown key"),
    ("search", {"search": {"shared_alpha": True}}, "config.search.shared_alpha: unknown key"),
    ("search", {"search": {"stages": 3}}, "config.search.stages: unknown key"),
    ("search", {"selector": {"grad_mode": "gather_only"}},
     "config.selector.grad_mode: unknown key"),
    ("search", {"data": {"synthetic": {"classes": 3}}},
     "data.synthetic.classes: 3, but model.classes is 2"),
    ("retrain", {"data": {"synthetic": {"classes": 1}}},
     "data.synthetic.classes: 1, but model.classes is 2"),
    ("search", {"data": {"source": "cifar10", "dir": "absent"}},
     "model.classes: 2, but cifar10 has 10 classes"),
    ("retrain", {"model": {"classes": 10, "channels": 1},
                 "data": {"source": "cifar10", "dir": "absent"}},
     "model.channels: 1, but cifar10 has 3 channels"),
], ids=["mean-length", "std-zero", "seed-negative", "patch-not-dividing", "dim-zero",
        "zero-only", "search-batch-size", "retrain-batch-size",
        "search-warmup-negative", "retrain-warmup-negative", "prune-negative",
        "prune-to-one", "depth-to-zero", "first-layers-zero", "xi-negative",
        "retrain-epochs-zero", "retrain-epochs-negative", "checkpoint-every-negative",
        "eval-every-negative", "synthetic-per-class-zero", "synthetic-image-zero",
        "synthetic-image-negative", "lambda-keeps-none", "patch-keeps-none",
        "search-lr-negative", "search-weight-decay-negative",
        "search-warmup-start-lr-negative", "search-min-lr-negative", "arch-lr-negative",
        "arch-weight-decay-negative", "retrain-lr-negative", "retrain-weight-decay-negative",
        "retrain-warmup-start-lr-negative", "retrain-min-lr-negative",
        "alpha-init-std-negative", "synthetic-noise-negative",
        "score-mode", "search-drop-last", "unrolled", "retrain-drop-last", "resize-method",
        "resize-image", "synthetic-channels", "precision", "pre-norm", "final-norm",
        "shared-alpha", "search-stages", "grad-mode", "synthetic-classes",
        "synthetic-one-class", "cifar-classes", "cifar-channels"])
def test_cli_refuses_a_config_the_run_cannot_use(tmp_path, capsys, command, changes,
                                                 message):
    doc = config_to_json(desk_config())
    for section, leaves in changes.items():
        if isinstance(doc[section], dict):
            doc[section].update(leaves)
        else:
            doc[section] = leaves
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        config_from_json(doc)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    if command == "retrain":
        save_genotype(searched_encoder_genotype(desk_config().model.dims(), depth=1,
                                                heads=4), tmp_path / "genotype.json")
        argv += ["--genotype", str(tmp_path / "genotype.json")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["search", "retrain", "eval"])
def test_cli_refuses_a_negative_seed_override(tmp_path, capsys, command):
    """``--seed`` replaces the validated config's seed, so it is checked again."""
    out = tmp_path / "out"
    argv = [command, "--seed", "-1", "--out", str(out)]
    if command != "search":
        argv += ["--genotype", str(tmp_path / "genotype.json")]
    if command == "eval":
        argv += ["--checkpoint", str(tmp_path / "model.ckpt")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err == "error: seed: must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("changes, message", [
    ({"search": {"batch_size": 200}},
     "search.batch_size: 200 exceeds a search split (128 training, 128 validation images)"),
    ({"search": {"val_fraction": 0.999}},
     "search.batch_size: 16 exceeds a search split (0 training, 256 validation images)"),
], ids=["batch-size", "val-fraction"])
def test_cli_refuses_a_search_that_cannot_take_a_step(tmp_path, capsys, changes, message):
    """The search drops a short last batch, so a split smaller than a batch
    would run no bilevel step and derive its genotype from the initial alpha."""
    doc = config_to_json(desk_config())
    for section, leaves in changes.items():
        doc[section].update(leaves)
    config_from_json(doc)  # valid as a config; refused once the splits are drawn
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["search", "--config", str(cfg_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


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


def test_cli_eval_refuses_a_checkpoint_without_norm_arrays(tmp_path, capsys):
    """A checkpoint whose candidates carry no pre-norm, as a post-norm run of
    an older version wrote it, is refused by the first array it lacks."""
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
    arrays, extras = load_checkpoint(out / "model.ckpt")
    post_norm = tmp_path / "post_norm.ckpt"
    save_checkpoint(post_norm, {n: a for n, a in arrays.items()
                                if not n.endswith((".norm_g", ".norm_b"))}, extras)
    code = main(["eval", "--config", str(cfg_path), "--genotype", str(geno_path),
                 "--checkpoint", str(post_norm)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.startswith("error:")
    assert "no array 'layers.0.n0.0.mlp_r0.5.norm_g'" in captured.err


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


@pytest.mark.parametrize("command, key, value", [
    ("search", "layers", ...),     # ...: the key is missing
    ("search", "stage", "x"),
    ("search", "global_epoch", -1),
    ("search", "candidates", None),
    ("search", "candidates", [None]),
    ("search", "seed", ...),
    ("retrain", "epoch", ...),
    ("retrain", "epoch", True),
    ("retrain", "seed", True),
], ids=["no-layers", "stage-x", "negative-global-epoch", "null-candidates",
        "null-candidate", "no-seed", "no-epoch", "bool-epoch", "bool-seed"])
def test_cli_resume_refuses_malformed_checkpoint_extras(tmp_path, capsys, command,
                                                        key, value):
    cfg = desk_config()
    genotype = searched_encoder_genotype(cfg.model.dims(), depth=1, heads=4)
    geno_path = tmp_path / "genotype.json"
    save_genotype(genotype, geno_path)
    extras = {
        "search": {"kind": "search-stage", "stage": 1, "layers": 2, "global_epoch": 3,
                   "seed": 0, "candidates": [s.to_json() for s in cfg.candidates]},
        "retrain": {"kind": "retrain", "seed": 0, "epoch": 0,
                    "genotype": genotype_to_json(genotype)},
    }[command]
    if value is ...:
        del extras[key]
    else:
        extras[key] = value
    ckpt = tmp_path / "damaged.ckpt"
    save_checkpoint(ckpt, {"w": np.zeros(1, dtype=np.float32)}, extras)
    out = tmp_path / "out"
    argv = [command, "--out", str(out), "--resume", str(ckpt)]
    if command == "retrain":
        argv += ["--genotype", str(geno_path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert f"checkpoint: {ckpt}: extras" in captured.err
    assert key in captured.err
    assert not out.exists()


def test_cli_resume_refuses_a_malformed_log_line_and_changes_nothing(tmp_path, capsys):
    cfg_path = _tiny_search_config(tmp_path)
    out = tmp_path / "run"
    assert main(["search", "--config", str(cfg_path), "--out", str(out),
                 "--stages", "1"]) == 0
    capsys.readouterr()
    log = out / "search_log.jsonl"
    lines = log.read_bytes().splitlines(keepends=True)
    assert len(lines) >= 3
    # a line with no epoch key; a line nested past the JSON parser's depth
    for bad_line in (b'{"step": 1}\n', b"[" * 100_000 + b"\n"):
        log.write_bytes(lines[0] + bad_line + b"".join(lines[2:]))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        code = main(["search", "--config", str(cfg_path), "--out", str(out),
                     "--resume", str(out / "stage_1.ckpt")])
        captured = capsys.readouterr()
        assert code == 1 and not captured.out
        assert captured.err.startswith(f"error: log: {log}: line 2 has no readable epoch")
        assert captured.err.count("\n") == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


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


def _retrain_inputs(tmp_path, cfg):
    """Config and genotype files for a 1-epoch CLI retrain, and its out dir."""
    cfg = dataclasses.replace(cfg, retrain=dataclasses.replace(
        cfg.retrain, epochs=1, warmup_epochs=0))
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg, cfg_path)
    geno_path = tmp_path / "genotype.json"
    save_genotype(searched_encoder_genotype(cfg.model.dims(), depth=1, heads=4),
                  geno_path)
    return cfg_path, geno_path, tmp_path / "retrain"


def test_cli_eval_refuses_an_abort_checkpoint(tmp_path, capsys, monkeypatch):
    import dasvit.search as search_mod
    from dasvit import autodiff as ad
    from dasvit.errors import NonFiniteError

    cfg_path, geno_path, out = _retrain_inputs(tmp_path, desk_config(seed=3))
    losses = []

    def nonfinite_at_second_step(logits, labels):
        losses.append(None)
        if len(losses) == 2:
            raise NonFiniteError("cross_entropy produced non-finite values")
        return ad.cross_entropy(logits, labels)

    monkeypatch.setattr(search_mod, "cross_entropy", nonfinite_at_second_step)
    assert main(["retrain", "--config", str(cfg_path), "--genotype", str(geno_path),
                 "--out", str(out)]) == 1
    monkeypatch.undo()
    capsys.readouterr()
    code = main(["eval", "--config", str(cfg_path), "--genotype", str(geno_path),
                 "--checkpoint", str(out / "abort.ckpt")])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.startswith(
        f"error: eval: {out / 'abort.ckpt'} is a 'retrain-abort' checkpoint")


def test_cli_eval_rejects_dim_mismatch(tmp_path, capsys):
    cfg = desk_config(seed=3)
    cfg_path, geno_path, out = _retrain_inputs(tmp_path, cfg)
    assert main(["retrain", "--config", str(cfg_path), "--genotype", str(geno_path),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    synthetic = dataclasses.replace(cfg.data.synthetic, image=16)
    wide = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, image=16),
                               data=dataclasses.replace(cfg.data, synthetic=synthetic))
    wide_path = tmp_path / "image16.json"
    save_config(wide, wide_path)
    code = main(["eval", "--config", str(wide_path), "--genotype", str(geno_path),
                 "--checkpoint", str(out / "model.ckpt")])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.startswith("error: eval: genotype dims")
    assert "image=8" in captured.err and "image=16" in captured.err


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
    subset = Dataset(train_ds.images[:20], train_ds.labels[:20], train_ds.classes)
    got = evaluate(model, subset, batch_size=20)
    logits = model.forward(subset.images).data
    hits1 = hits5 = 0
    for i in range(20):
        ranked = topk_oracle(logits[i].tolist(), k=2)
        hits1 += int(ranked[0] == subset.labels[i])
        hits5 += int(subset.labels[i] in ranked)  # 2 classes: top-5 clamps to all
    assert got["top1"] == pytest.approx(hits1 / 20)
    assert got["top5"] == pytest.approx(hits5 / 20)
