"""AdamW with decoupled weight decay, and the warmup+cosine epoch schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, NonFiniteError, OptimizerError


@dataclass
class LrSchedule:
    """Linear warmup to `base_lr`, then cosine decay toward `min_lr`.

    The schedule is evaluated per epoch. lr(0) == warmup_start_lr when warmup
    is enabled, lr(warmup_epochs) == base_lr exactly, and the cosine tail
    approaches (without necessarily reaching) min_lr at the final epoch.
    """

    base_lr: float
    warmup_epochs: int = 0
    warmup_start_lr: float = 1e-6
    total_epochs: int = 1
    min_lr: float = 0.0

    def __post_init__(self):
        if self.total_epochs < 1:
            raise ConfigError("LrSchedule: total_epochs must be >= 1")
        if not 0 <= self.warmup_epochs <= self.total_epochs:
            raise ConfigError("LrSchedule: warmup_epochs out of range")

    def lr_at(self, epoch: int) -> float:
        if not 0 <= epoch < self.total_epochs:
            raise ConfigError(
                f"LrSchedule: epoch {epoch} outside [0, {self.total_epochs})")
        if epoch < self.warmup_epochs:
            frac = epoch / self.warmup_epochs
            return self.warmup_start_lr + (self.base_lr - self.warmup_start_lr) * frac
        span = self.total_epochs - self.warmup_epochs
        if span <= 0:
            return self.base_lr
        progress = (epoch - self.warmup_epochs) / span
        cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.min_lr + (self.base_lr - self.min_lr) * cosine


class AdamW:
    """AdamW over named parameters.

    Weight decay is decoupled: it multiplies the parameter directly and never
    enters the moment estimates. Moments use the standard bias correction.
    A step refuses a missing or non-finite gradient before it changes any
    weight, moment or the step count.
    """

    def __init__(self, params: dict[str, Tensor], lr: float,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        if not params:
            raise OptimizerError("AdamW: empty parameter set")
        self.params = dict(params)
        self.lr = float(lr)
        self.betas = (float(betas[0]), float(betas[1]))
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def set_lr(self, lr: float) -> None:
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise OptimizerError(f"AdamW: parameter {name!r} has no gradient")
            if not np.isfinite(p.grad).all():
                raise NonFiniteError(f"AdamW: gradient of {name!r} is non-finite")
        self.step_count += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        for name, p in self.params.items():
            g = p.grad
            if self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data -= self.lr * update

    # -- checkpoint support -------------------------------------------------------

    def state_arrays(self, prefix: str = "opt") -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for name in self.params:
            out[f"{prefix}.m.{name}"] = self.m[name]
            out[f"{prefix}.v.{name}"] = self.v[name]
        out[f"{prefix}.step"] = np.array([self.step_count], dtype=np.int64)
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], prefix: str = "opt") -> None:
        for name in self.params:
            self.m[name] = arrays[f"{prefix}.m.{name}"].copy()
            self.v[name] = arrays[f"{prefix}.v.{name}"].copy()
        self.step_count = int(arrays[f"{prefix}.step"][0])
