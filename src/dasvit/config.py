"""Run configuration: one JSON document with defaults for every tunable.

Unknown keys are rejected with their JSON path; the effective (post-default)
config is echoed into every run directory so a run can be reproduced from
its artifacts alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .data import CIFAR10_MEAN, CIFAR10_STD, write_json
from .errors import ConfigError
from .fairness import FairnessConfig
from .ops import DEFAULT_CANDIDATES, ModelDims, OpSpec, as_json, read_json


@dataclass
class ModelConfig:
    dim: int = 768
    patch: int = 16
    image: int = 224
    channels: int = 3
    classes: int = 10
    # not fields, so not config keys: the benchmark still reads them
    # (ROADMAP direction 2); the model is always pre-norm with a final norm
    pre_norm = True
    final_norm = True

    def dims(self) -> ModelDims:
        return ModelDims(dim=self.dim, patch=self.patch, image=self.image,
                         classes=self.classes, channels=self.channels)


@dataclass
class SelectorConfig:
    lam: float = field(default=0.5, metadata={"json": "lambda"})
    # not a field, so not a config key: the benchmark still reads it
    # (ROADMAP direction 2); kept patches are always scaled by their score
    grad_mode = "score_scaling"


@dataclass
class SearchConfig:
    stages: int = 3
    epochs_per_stage: int = 30
    first_layers: int = 2
    layer_increment: int = 2
    prune_per_stage: list[int] = field(default_factory=lambda: [3, 2, 0])
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 5e-2
    warmup_epochs: int = 0
    warmup_start_lr: float = 1e-6
    min_lr: float = 0.0
    arch_lr: float = 1e-3
    arch_weight_decay: float = 1e-3
    xi: float = 0.0  # virtual-step size of the second-order gradient; 0: first order
    val_fraction: float = 0.5
    alpha_init_std: float = 1e-3
    # not a field, so not a config key: the benchmark still reads it
    # (ROADMAP direction 2); every layer reads the one alpha row
    shared_alpha = True


@dataclass
class RetrainConfig:
    epochs: int = 500
    warmup_epochs: int = 20
    warmup_start_lr: float = 1e-6
    batch_size: int = 128
    lr: float = 1e-3
    weight_decay: float = 5e-2
    min_lr: float = 0.0
    checkpoint_every: int = 0  # 0: final checkpoint only
    eval_every: int = 0        # 0: never run the held-out split during training


@dataclass
class SyntheticConfig:
    classes: int = 10
    per_class: int = 128
    image: int = 224  # generated at this side length, then resized to model.image
    noise: float = 0.05


@dataclass
class DataConfig:
    source: str = "synthetic"
    dir: str | None = None
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)
    normalize_mean: list[float] | None = None
    normalize_std: list[float] | None = None


@dataclass
class RunConfig:
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)
    candidates: list[OpSpec] = field(default_factory=lambda: list(DEFAULT_CANDIDATES))
    selector: SelectorConfig = field(default_factory=SelectorConfig)
    fairness: FairnessConfig = field(default_factory=FairnessConfig)
    search: SearchConfig = field(default_factory=SearchConfig)
    retrain: RetrainConfig = field(default_factory=RetrainConfig)
    data: DataConfig = field(default_factory=DataConfig)

    def validate(self) -> "RunConfig":
        n_patches = self.model.dims().n_patches  # divisibility and positivity checks
        lam = self.selector.lam
        if not 0 < lam <= 1:
            raise ConfigError(f"selector.lambda: must lie in (0, 1], got {lam}")
        if math.floor(lam * n_patches) < 1:
            raise ConfigError(f"selector.lambda: {lam} keeps none of {n_patches} "
                              "patch tokens; it must keep at least one")
        if not self.candidates:
            raise ConfigError("candidates: must not be empty")
        names = [spec.name for spec in self.candidates]
        for i, spec in enumerate(self.candidates):
            if spec.kind == "msa" and self.model.dim % spec.heads != 0:
                raise ConfigError(
                    f"candidates[{i}]: {spec.name} incompatible with embedding dim "
                    f"{self.model.dim}")
            if spec.name in names[:i]:
                raise ConfigError(f"candidates[{i}]: {spec.name} duplicates "
                                  f"candidates[{names.index(spec.name)}]")
        s = self.search
        if s.stages < 1 or s.epochs_per_stage < 1:
            raise ConfigError("search: stages and epochs_per_stage must be >= 1")
        if s.warmup_epochs > s.stages * s.epochs_per_stage:
            raise ConfigError(f"search.warmup_epochs: {s.warmup_epochs} exceeds the "
                              f"{s.stages * s.epochs_per_stage} searched epochs")
        if len(s.prune_per_stage) < s.stages:
            raise ConfigError(
                f"search.prune_per_stage: need at least {s.stages} entries")
        for i, count in enumerate(s.prune_per_stage):
            if count < 0:
                raise ConfigError(f"search.prune_per_stage[{i}]: must be >= 0, got {count}")
        left = len(self.candidates)
        for i, count in enumerate(s.prune_per_stage[:s.stages - 1]):
            left -= count
            if left < 2:
                raise ConfigError(
                    f"search.prune_per_stage[{i}]: pruning {count} leaves {left} "
                    f"candidates for stage {i + 2}; a stage needs at least 2")
        if s.first_layers < 1:
            raise ConfigError(f"search.first_layers: must be >= 1, got {s.first_layers}")
        last_depth = s.first_layers + (s.stages - 1) * s.layer_increment
        if last_depth < 1:
            raise ConfigError(
                f"search.layer_increment: {s.layer_increment} leaves {last_depth} "
                f"layers for stage {s.stages}; a stage needs at least 1")
        if s.xi < 0:
            raise ConfigError(f"search.xi: must be >= 0, got {s.xi}")
        if not 0 < s.val_fraction < 1:
            raise ConfigError("search.val_fraction: must lie in (0, 1)")
        r, syn = self.retrain, self.data.synthetic
        for key, value, least in (
                ("search.batch_size", s.batch_size, 1), ("retrain.batch_size", r.batch_size, 1),
                ("search.warmup_epochs", s.warmup_epochs, 0),
                ("search.lr", s.lr, 0), ("search.weight_decay", s.weight_decay, 0),
                ("search.warmup_start_lr", s.warmup_start_lr, 0), ("search.min_lr", s.min_lr, 0),
                ("search.arch_lr", s.arch_lr, 0),
                ("search.arch_weight_decay", s.arch_weight_decay, 0),
                ("retrain.lr", r.lr, 0), ("retrain.weight_decay", r.weight_decay, 0),
                ("retrain.warmup_start_lr", r.warmup_start_lr, 0),
                ("retrain.min_lr", r.min_lr, 0),
                ("retrain.warmup_epochs", r.warmup_epochs, 0), ("retrain.epochs", r.epochs, 1),
                ("retrain.checkpoint_every", r.checkpoint_every, 0),
                ("retrain.eval_every", r.eval_every, 0),
                ("data.synthetic.per_class", syn.per_class, 1),
                ("data.synthetic.image", syn.image, 1)):
            if value < least:
                raise ConfigError(f"{key}: must be >= {least}, got {value}")
        if r.warmup_epochs > r.epochs:
            raise ConfigError(
                f"retrain.warmup_epochs: {r.warmup_epochs} exceeds retrain.epochs {r.epochs}")
        if self.data.source not in ("synthetic", "cifar10"):
            raise ConfigError(f"data.source: unknown source {self.data.source!r}")
        m = self.model
        if self.data.source == "synthetic" and self.data.synthetic.classes != m.classes:
            raise ConfigError(f"data.synthetic.classes: {self.data.synthetic.classes}, "
                              f"but model.classes is {m.classes}")
        if self.data.source == "cifar10":
            for key, have, need in (("classes", m.classes, 10), ("channels", m.channels, 3)):
                if have != need:
                    raise ConfigError(f"model.{key}: {have}, but cifar10 has {need} {key}")
        if (self.data.normalize_mean is None) != (self.data.normalize_std is None):
            raise ConfigError("data: normalize_mean and normalize_std go together")
        if self.data.source == "cifar10" and self.data.normalize_mean is None:
            # the dataset's computed per-channel statistics become part of the
            # effective config so the echoed file reproduces the run
            self.data.normalize_mean = list(CIFAR10_MEAN)
            self.data.normalize_std = list(CIFAR10_STD)
        mean, std = self.data.normalize_mean, self.data.normalize_std
        if mean is not None:
            for key, values in (("mean", mean), ("std", std)):
                if len(values) != self.model.channels:
                    raise ConfigError(f"data.normalize_{key}: {len(values)} entries, but "
                                      f"model.channels is {self.model.channels}")
            if min(std) <= 0:
                raise ConfigError(f"data.normalize_std: entries must be > 0, got {std}")
        return self


# -- json round trip -----------------------------------------------------------------

def config_to_json(cfg: RunConfig) -> dict:
    return as_json(cfg)


def config_from_json(doc: dict) -> RunConfig:
    return read_json(RunConfig, doc, "config").validate()


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config: file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {p}: {exc}") from None
    return config_from_json(doc)


def save_config(cfg: RunConfig, path) -> None:
    write_json(path, config_to_json(cfg))


# -- presets ----------------------------------------------------------------------


def paper_defaults() -> RunConfig:
    """Full-scale defaults: ViT-size dims, 3x30 search epochs, 500 retrain epochs."""
    return RunConfig().validate()


def desk_config(seed: int = 0) -> RunConfig:
    """Small, fast configuration that exercises the whole pipeline in minutes.

    The embedding width (32) cannot host 12 or 16 attention heads, so the
    desk registry swaps the head counts to {2, 4, 8} while keeping the same
    zero/identity/3xMSA/3xMLP structure.
    """
    cfg = RunConfig(
        seed=seed,
        model=ModelConfig(dim=32, patch=4, image=8, channels=3, classes=2),
        candidates=[
            OpSpec("zero"),
            OpSpec("identity"),
            OpSpec("msa", heads=2),
            OpSpec("msa", heads=4),
            OpSpec("msa", heads=8),
            OpSpec("mlp", ratio=0.5),
            OpSpec("mlp", ratio=3.0),
            OpSpec("mlp", ratio=4.0),
        ],
        search=SearchConfig(stages=3, epochs_per_stage=3, batch_size=16),
        retrain=RetrainConfig(epochs=100, warmup_epochs=5, batch_size=16),
        data=DataConfig(source="synthetic",
                        synthetic=SyntheticConfig(classes=2, per_class=128, image=8)),
    )
    return cfg.validate()
