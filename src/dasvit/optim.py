"""AdamW with decoupled weight decay, and the warmup+cosine epoch schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, NonFiniteError, OptimizerError


#: Learning rate of a schedule's first warmup epoch.
WARMUP_START_LR = 1e-6


@dataclass
class LrSchedule:
    """Linear warmup from `WARMUP_START_LR` to `base_lr`, then cosine decay toward 0.

    The schedule is evaluated per epoch. lr(0) == WARMUP_START_LR when warmup
    is enabled, lr(warmup_epochs) == base_lr exactly, and the cosine tail
    approaches (without necessarily reaching) 0 at the final epoch.
    """

    base_lr: float
    warmup_epochs: int = 0
    total_epochs: int = 1

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
            return WARMUP_START_LR + (self.base_lr - WARMUP_START_LR) * frac
        # warmup_epochs <= epoch < total_epochs, so the span is at least 1
        progress = (epoch - self.warmup_epochs) / (self.total_epochs - self.warmup_epochs)
        cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.base_lr * cosine


#: Most elements one vectorized operation of `AdamW.step` touches.
CHUNK = 1 << 15
#: AdamW's moment decay rates and denominator guard, as published.
BETAS = (0.9, 0.999)
EPS = 1e-8


class AdamW:
    """AdamW over named parameters.

    Weight decay is decoupled: it multiplies the parameter directly and never
    enters the moment estimates. Moments use the standard bias correction.
    A step refuses a missing or non-finite gradient before it changes any
    weight, moment or the step count.

    The moments of all parameters live in one flat `m` and one flat `v`
    buffer; ``m[name]`` and ``v[name]`` are views into them in the
    parameter's shape. A step cuts that flat order into windows of `CHUNK`
    elements and runs one block of vector operations per window. A block is
    a list of segments ``(name, tensor, lo, hi, update)``: flat elements
    ``lo:hi`` of one tensor, and that segment's view of the update buffer,
    in the tensor's shape when the segment covers the whole tensor. Every
    element sees the same operations, in the same order, as a per-tensor
    update.

    That state, the step count aside, is one ``np.zeros`` array from the heap
    whose freed pages the process keeps (see `autodiff`): a rebuilt
    optimizer reuses the old one's pages.
    """

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.0):
        if not params:
            raise OptimizerError("AdamW: empty parameter set")
        self.params = dict(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self._step = np.zeros(1, np.int64)
        (first, p0), *rest = self.params.items()
        dtype = p0.data.dtype
        for name, p in rest:
            if p.data.dtype != dtype:
                raise OptimizerError(
                    f"AdamW: parameter {name!r} is {p.data.dtype}, but {first!r} "
                    f"is {dtype}; one optimizer steps one dtype")
        total = sum(p.data.size for p in self.params.values())
        width = min(CHUNK, total)
        # the moments, then the gather, scratch and update buffers of a block
        state = np.zeros(2 * total + 3 * width, dtype)
        self._m, self._v = state[:total], state[total:2 * total]
        self._grad, self._tmp, self._upd = state[2 * total:].reshape(3, width)
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        windows: list[list[tuple]] = [[] for _ in range(0, total, CHUNK)]
        offset = 0
        for name, p in self.params.items():
            size = p.data.size
            self.m[name] = self._m[offset:offset + size].reshape(p.data.shape)
            self.v[name] = self._v[offset:offset + size].reshape(p.data.shape)
            lo = 0
            while lo < size:
                at = (offset + lo) % CHUNK
                hi = min(size, lo + CHUNK - at)
                update = self._upd[at:at + hi - lo]
                if hi - lo == size:
                    update = update.reshape(p.data.shape)
                windows[(offset + lo) // CHUNK].append((name, p, lo, hi, update))
                lo = hi
            offset += size
        # blocks: (segments, m, v) of each window
        self._blocks = [(segments, self._m[at:at + CHUNK], self._v[at:at + CHUNK])
                        for at, segments in zip(range(0, total, CHUNK), windows)]

    @property
    def step_count(self) -> int:
        return int(self._step[0])

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def _gather(self, segments, size: int) -> np.ndarray:
        """The block's `size` gradient elements as one flat array."""
        grads = [t.grad if hi - lo == t.data.size else t.grad.reshape(-1)[lo:hi]
                 for _, t, lo, hi, _ in segments]
        return np.concatenate(grads, axis=None, out=self._grad[:size])

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise OptimizerError(f"AdamW: parameter {name!r} has no gradient")
        # every block is checked before any is updated; the gather buffer is
        # shared, so the update gathers each block again
        for segments, m, _ in self._blocks:
            if not np.isfinite(self._gather(segments, m.size)).all():
                bad = next(name for name, t, *_ in segments if not np.isfinite(t.grad).all())
                raise NonFiniteError(f"AdamW: gradient of {bad!r} is non-finite")
        self._step += 1
        b1, b2 = BETAS
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        decay = 1.0 - self.lr * self.weight_decay
        for segments, m, v in self._blocks:
            g = self._gather(segments, m.size)
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
            tmp += EPS
            np.divide(m, bc1, out=upd)
            upd /= tmp
            upd *= self.lr
            for _, t, lo, hi, u in segments:
                if hi - lo == t.data.size:
                    d = t.data
                else:
                    if not t.data.flags.c_contiguous:
                        t.data = np.ascontiguousarray(t.data)
                    d = t.data.reshape(-1)[lo:hi]
                if self.weight_decay:
                    d *= decay
                d -= u

    # -- checkpoint support -------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The moments, keyed ``opt.m.<name>`` and ``opt.v.<name>``, and the
        one-element step count ``opt.step``: the optimizer's own arrays, so
        ``data.load_parameters(..., opt_state=opt.state_arrays())`` restores
        them in place."""
        out: dict[str, np.ndarray] = {}
        for name in self.params:
            out[f"opt.m.{name}"] = self.m[name]
            out[f"opt.v.{name}"] = self.v[name]
        out["opt.step"] = self._step
        return out
