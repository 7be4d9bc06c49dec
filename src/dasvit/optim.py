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
        # warmup_epochs <= epoch < total_epochs, so the span is at least 1
        progress = (epoch - self.warmup_epochs) / (self.total_epochs - self.warmup_epochs)
        cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.min_lr + (self.base_lr - self.min_lr) * cosine


#: Most elements one vectorized operation of `AdamW.step` touches.
CHUNK = 1 << 15


class AdamW:
    """AdamW over named parameters.

    Weight decay is decoupled: it multiplies the parameter directly and never
    enters the moment estimates. Moments use the standard bias correction.
    A step refuses a missing or non-finite gradient before it changes any
    weight, moment or the step count.

    The moments of all parameters live in one flat `m` and one flat `v`
    buffer; ``m[name]`` and ``v[name]`` are views into them in the
    parameter's shape. A step runs over blocks of at most `CHUNK` elements:
    a run of consecutive parameters whose gradients are gathered into one
    buffer, or a `CHUNK`-sized slice of a larger parameter. Every element
    sees the same operations, in the same order, as a per-tensor update.

    That state is one ``np.zeros`` array from the heap whose freed pages the
    process keeps (see `autodiff`): a rebuilt optimizer reuses the old one's pages.
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
        (first, p0), *rest = self.params.items()
        dtype = p0.data.dtype
        for name, p in rest:
            if p.data.dtype != dtype:
                raise OptimizerError(
                    f"AdamW: parameter {name!r} is {p.data.dtype}, but {first!r} "
                    f"is {dtype}; one optimizer steps one dtype")
        sizes = [p.data.size for p in self.params.values()]
        total, width = sum(sizes), min(CHUNK, sum(sizes))
        # the moments, then the gather, scratch and update buffers of a block
        state = np.zeros(2 * total + 3 * width, dtype)
        self._m, self._v = state[:total], state[total:2 * total]
        self._grad, self._tmp, self._upd = state[2 * total:].reshape(3, width)
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        # groups: runs of consecutive parameters of at most CHUNK elements in
        # total; a larger parameter is a group of its own
        groups: list[list[str]] = []
        filled = offset = 0
        for (name, p), size in zip(self.params.items(), sizes):
            self.m[name] = self._m[offset:offset + size].reshape(p.data.shape)
            self.v[name] = self._v[offset:offset + size].reshape(p.data.shape)
            offset += size
            if not groups or filled + size > CHUNK:
                groups.append([])
                filled = 0
            groups[-1].append(name)
            filled += size
        # blocks: (names, tensors, part, m, v, updates); `part` is None for a
        # gathered run, whose `updates` are views of the update buffer in each
        # tensor's shape, or the slice of one larger tensor's flat elements
        self._blocks: list[tuple] = []
        offset = 0
        for names in groups:
            tensors = [self.params[n] for n in names]
            size = sum(t.data.size for t in tensors)
            if size > CHUNK:
                for lo in range(0, size, CHUNK):
                    hi = min(lo + CHUNK, size)
                    self._add_block(names, tensors, slice(lo, hi), offset + lo,
                                    [self._upd[:hi - lo]])
            else:
                updates, at = [], 0
                for t in tensors:
                    updates.append(self._upd[at:at + t.data.size].reshape(t.data.shape))
                    at += t.data.size
                self._add_block(names, tensors, None, offset, updates)
            offset += size

    def _add_block(self, names, tensors, part, offset, updates) -> None:
        size = sum(u.size for u in updates)
        self._blocks.append((names, tensors, part, self._m[offset:offset + size],
                             self._v[offset:offset + size], updates))

    def set_lr(self, lr: float) -> None:
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def _gather(self, tensors, part) -> np.ndarray:
        """The block's gradients as one flat array."""
        if part is not None:
            return tensors[0].grad.reshape(-1)[part]
        if len(tensors) == 1:
            return tensors[0].grad.reshape(-1)
        grads = [t.grad for t in tensors]
        size = sum(g.size for g in grads)
        return np.concatenate(grads, axis=None, out=self._grad[:size])

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise OptimizerError(f"AdamW: parameter {name!r} has no gradient")
        # every block is checked before any is updated; the gather buffer is
        # shared, so the update gathers each block again
        for names, tensors, part, _, _, _ in self._blocks:
            g = self._gather(tensors, part)
            if not np.isfinite(g).all():
                bad = next(n for n, t in zip(names, tensors) if not np.isfinite(t.grad).all())
                raise NonFiniteError(f"AdamW: gradient of {bad!r} is non-finite")
        self.step_count += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        decay = 1.0 - self.lr * self.weight_decay
        for _, tensors, part, m, v, updates in self._blocks:
            g = self._gather(tensors, part)
            tmp = self._tmp[:g.size]
            upd = self._upd[:g.size]
            # m*b1 + (1-b1)*g;  v*b2 + ((1-b2)*g)*g;  (m/bc1) / (sqrt(v/bc2) + eps)
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=tmp)
            v *= b2
            np.multiply(g, 1.0 - b2, out=tmp)
            v += np.multiply(tmp, g, out=tmp)
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            np.divide(m, bc1, out=upd)
            upd /= tmp
            upd *= self.lr
            for t, u in zip(tensors, updates):
                if part is not None:
                    if not t.data.flags.c_contiguous:
                        t.data = np.ascontiguousarray(t.data)
                    d = t.data.reshape(-1)[part]
                else:
                    d = t.data
                if self.weight_decay:
                    d *= decay
                d -= u

    # -- checkpoint support -------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The moments and step count, keyed ``opt.m.<name>``, ``opt.v.<name>``
        and ``opt.step``."""
        out: dict[str, np.ndarray] = {}
        for name in self.params:
            out[f"opt.m.{name}"] = self.m[name]
            out[f"opt.v.{name}"] = self.v[name]
        out["opt.step"] = np.array([self.step_count], dtype=np.int64)
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy saved moments into the flat buffers; a missing or misshapen
        array is refused by key before anything is copied."""
        if "opt.step" not in arrays:
            raise OptimizerError("AdamW: no array 'opt.step'")
        pairs = []
        for name in self.params:
            for kind, dest in (("m", self.m[name]), ("v", self.v[name])):
                key = f"opt.{kind}.{name}"
                if key not in arrays:
                    raise OptimizerError(f"AdamW: no array {key!r}")
                if arrays[key].shape != dest.shape:
                    raise OptimizerError(f"AdamW: array {key!r} has shape "
                                         f"{arrays[key].shape}, expected {dest.shape}")
                pairs.append((dest, arrays[key]))
        for dest, src in pairs:
            dest[...] = src
        self.step_count = int(arrays["opt.step"][0])
