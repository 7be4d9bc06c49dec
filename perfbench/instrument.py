"""Timing hooks and the span tracer, installed from outside the program.

Every hook wraps a public dasvit function or method where it is bound: a
function imported by name into several modules (``dasvit.search`` imports
``backward`` and ``evaluate`` by name, for example) is replaced in each of
them, and methods are replaced on their class. ``Instrument.close`` puts every
original back, so timed and traced units can alternate in one process.

Step boundaries come from the optimizer: a training step ends when the weight
optimizer's ``AdamW.step`` returns. The first step of an epoch starts when
``bilevel_epoch`` is entered or ``epoch_batches`` returns; every later step
starts where the previous one ended. In a bilevel step the architecture
optimizer's ``step`` separates the alpha phase from the weight phase.

With ``spans=False`` only those boundary hooks are installed; this is the
timed configuration. With ``spans=True`` every layer boundary records a span
(name, start, end, parent span, step id, phase) and the autodiff primitive
constructor ``Tensor._from_op`` feeds exact counters. With ``memory=True``
tracemalloc runs and phase peaks are read at the same boundaries. With
``stop_when_ready`` the unit is cut off where its first step would start,
which is how set-up alone is measured in a fresh process.
"""

from __future__ import annotations

import collections
import sys
import time
import tracemalloc

import numpy as np

from dasvit import autodiff, data, fairness, genotype, ops, optim, search, selector, supernet

MB = float(1 << 20)
ALPHA_PARAM = "alpha.logits"

#: Free functions that get a span, by the name the span carries.
SPAN_FUNCTIONS = {
    "autodiff.backward": autodiff.backward,
    "autodiff.matmul": autodiff.matmul,
    "autodiff.gelu": autodiff.gelu,
    "autodiff.softmax": autodiff.softmax,
    "autodiff.layer_norm": autodiff.layer_norm,
    "autodiff.cross_entropy": autodiff.cross_entropy,
    "fairness.skip_fairness": fairness.skip_fairness,
    "fairness.type_fairness": fairness.type_fairness,
    "search.prune_candidates": search.prune_candidates,
    "search.advance_stage": search.advance_stage,
    "search.derive_genotype": search.derive_genotype,
    "data.sequential_batches": data.sequential_batches,
    "data.save_checkpoint": data.save_checkpoint,
    "data.make_synthetic": data.make_synthetic,
}

#: Methods that get a span: (span name, class, attribute).
SPAN_METHODS = (
    ("ops.msa_forward", ops.MsaOp, "forward"),
    ("ops.mlp_forward", ops.MlpOp, "forward"),
    ("ops.zero_forward", ops.ZeroOp, "forward"),
    ("ops.embed", ops.EmbedParams, "embed"),
    ("ops.classify", ops.EmbedParams, "classify"),
    ("selector.select", selector.Selector, "select"),
    ("selector.scores", selector.Selector, "scores"),
    ("supernet.forward", supernet.Supernet, "forward"),
    ("supernet.mixed_edge", supernet.MixedEdge, "forward"),
    ("genotype.derived_forward", genotype.DerivedModel, "forward"),
)


class Ready(Exception):
    """Raised by a set-up probe when the first step is about to start."""


def _dasvit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dasvit" or name.startswith("dasvit."))]


class Instrument:
    """Hooks for one unit of work; read the fields after ``close``."""

    def __init__(self, spans: bool = False, memory: bool = False,
                 stop_when_ready: str | None = None):
        self.spans_on = spans
        self.memory_on = memory
        # "bilevel_epoch" or "epoch_batches": the hook that marks the first
        # step as ready; reaching it records ready_at and raises Ready
        self.stop_when_ready = stop_when_ready
        self.ready_at: float | None = None
        self._undo: list = []
        # step bookkeeping (always on)
        self.steps: list[float] = []
        self.first_step_start: float | None = None
        self.evals: list[tuple[float, int, float]] = []  # (seconds, images, top1)
        self._step_start: float | None = None
        self._in_step = False
        self._bilevel = False
        self.phase = "none"
        # spans: (id, name, start, end, parent id, step id, phase)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        # exact counters; all but checkpoint_bytes count inside steps only
        self.counts: collections.Counter = collections.Counter()
        self.primitive_ops: collections.Counter = collections.Counter()
        # memory
        self.mem = {"alpha_phase_peak": 0, "weight_phase_peak": 0,
                    "live_at_weight_phase_start": 0, "train_step_peak": 0,
                    "eval_peak": 0}
        self._weight_phase_seen = False
        self._step_peak = 0
        self.grad_bytes = {"alpha": 0, "all": 0}

    # -- installing and removing hooks -----------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod in _dasvit_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _method(self, cls, attr, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> "Instrument":
        self._rebind(search.bilevel_epoch, self._wrap_bilevel(search.bilevel_epoch))
        self._rebind(data.epoch_batches, self._wrap_epoch_batches(data.epoch_batches))
        self._rebind(search.evaluate, self._wrap_evaluate(search.evaluate))
        self._method(optim.AdamW, "step", self._wrap_optim_step(optim.AdamW.step))
        if self.spans_on:
            for name, fn in SPAN_FUNCTIONS.items():
                self._rebind(fn, self._spanned(name, fn))
            for name, cls, attr in SPAN_METHODS:
                self._method(cls, attr, self._spanned(name, cls.__dict__[attr]))
            self._method(autodiff.Tensor, "_from_op",
                         staticmethod(self._wrap_from_op(
                             autodiff.Tensor.__dict__["_from_op"].__func__)))
        if self.memory_on:
            tracemalloc.start()
        return self

    def close(self) -> None:
        if self.memory_on:
            tracemalloc.stop()
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Instrument":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- spans --------------------------------------------------------------------------

    def _open(self, name: str) -> tuple:
        sid = len(self.spans)
        self.spans.append(None)  # reserved; filled in by _close
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        step = len(self.steps) if self._in_step else -1
        return sid, name, parent, step, self.phase, time.perf_counter()

    def _close(self, opened: tuple) -> None:
        end = time.perf_counter()
        self._stack.pop()
        sid, name, parent, step, phase, start = opened
        self.spans[sid] = (sid, name, start, end, parent, step, phase)

    def _spanned(self, name, fn):
        counted = name in ("ops.zero_forward", "autodiff.layer_norm",
                           "supernet.mixed_edge")
        is_matmul = name == "autodiff.matmul"

        def wrapper(*args, **kwargs):
            if self._in_step:
                if counted:
                    self.counts[name + ".calls"] += 1
                if name == "supernet.forward" and self.phase == "weight" \
                        and not self._weight_phase_seen:
                    self._weight_phase_seen = True
                    if self.memory_on:
                        self.mem["live_at_weight_phase_start"] = max(
                            self.mem["live_at_weight_phase_start"],
                            tracemalloc.get_traced_memory()[0])
            opened = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(opened)
            if name == "data.save_checkpoint":
                self.counts["checkpoint_bytes"] += sum(
                    np.asarray(a).nbytes for a in args[1].values())
            if self._in_step:
                if is_matmul:
                    a = args[0].data if hasattr(args[0], "data") else np.asarray(args[0])
                    self.counts["matmul_macs"] += int(out.data.size) * int(a.shape[-1])
                elif name == "selector.select":
                    self.counts["selector.kept"] += int(out[1].shape[1])
                    self.counts["selector.patches"] += int(args[1].shape[1]) - 1
            if name == "autodiff.backward" and self.memory_on and self.phase == "alpha":
                self._leaf_grad_bytes(args[0])
            return out

        return wrapper

    def _wrap_from_op(self, fn):
        def from_op(data_, parents, backward, op):
            out = fn(data_, parents, backward, op)
            if self._in_step:
                self.counts["primitives"] += 1
                self.counts["output_bytes"] += data_.nbytes
                self.primitive_ops[op] += 1
            return out

        return from_op

    def _leaf_grad_bytes(self, loss) -> None:
        """Leaf-gradient bytes left by an alpha-phase backward, and the alpha share."""
        seen, stack = set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._backward is None:
                if node.grad is not None:
                    self.grad_bytes["all"] += node.grad.nbytes
                    if node.name == ALPHA_PARAM:
                        self.grad_bytes["alpha"] += node.grad.nbytes
            else:
                stack.extend(node._parents)

    # -- step boundaries ----------------------------------------------------------------

    def _begin_step(self) -> None:
        self._step_start = time.perf_counter()
        self._in_step = True
        self._weight_phase_seen = False
        self.phase = "alpha" if self._bilevel else "train"
        if self.memory_on:
            tracemalloc.reset_peak()
            self._step_peak = 0

    def _leave_steps(self) -> None:
        self._in_step = False
        self.phase = "none"

    def _check_ready(self, hook: str) -> None:
        if self.stop_when_ready == hook:
            self.ready_at = time.perf_counter()
            raise Ready(hook)

    def _wrap_bilevel(self, fn):
        def bilevel_epoch(*args, **kwargs):
            self._check_ready("bilevel_epoch")
            self._bilevel = True
            self._begin_step()
            sid = self._open("search.bilevel_epoch") if self.spans_on else None
            try:
                return fn(*args, **kwargs)
            finally:
                if sid is not None:
                    self._close(sid)
                self._bilevel = False
                self._leave_steps()

        return bilevel_epoch

    def _wrap_epoch_batches(self, fn):
        def epoch_batches(*args, **kwargs):
            sid = self._open("data.epoch_batches") if self.spans_on else None
            try:
                out = fn(*args, **kwargs)
            finally:
                if sid is not None:
                    self._close(sid)
            self._check_ready("epoch_batches")
            self._begin_step()
            return out

        return epoch_batches

    def _wrap_evaluate(self, fn):
        def evaluate(model, dataset, *args, **kwargs):
            self._leave_steps()
            if self.memory_on:
                tracemalloc.reset_peak()
            sid = self._open("search.evaluate") if self.spans_on else None
            start = time.perf_counter()
            try:
                out = fn(model, dataset, *args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                if sid is not None:
                    self._close(sid)
            if self.memory_on:
                self.mem["eval_peak"] = max(self.mem["eval_peak"],
                                            tracemalloc.get_traced_memory()[1])
            self.evals.append((seconds, len(dataset), float(out["top1"])))
            return out

        return evaluate

    def _wrap_optim_step(self, fn):
        def step(opt):
            is_alpha = ALPHA_PARAM in opt.params
            name = "optim.alpha_step" if is_alpha else "optim.weight_step"
            if self._in_step:
                self.counts["optim.updated_elements"] += sum(
                    int(p.data.size) for p in opt.params.values())
            sid = self._open(name) if self.spans_on else None
            try:
                fn(opt)
            finally:
                if sid is not None:
                    self._close(sid)
            if not self._in_step:
                return
            if self.memory_on:
                peak = tracemalloc.get_traced_memory()[1]
                self._step_peak = max(self._step_peak, peak)
                key = "alpha_phase_peak" if is_alpha else (
                    "weight_phase_peak" if self._bilevel else None)
                if key:
                    self.mem[key] = max(self.mem[key], peak)
                tracemalloc.reset_peak()
            if is_alpha:
                self.phase = "weight"
                return
            end = time.perf_counter()
            if self.first_step_start is None:
                self.first_step_start = self._step_start
            self.steps.append(end - self._step_start)
            if self.memory_on:
                self.mem["train_step_peak"] = max(self.mem["train_step_peak"],
                                                  self._step_peak)
            self._begin_step()

        return step

    # -- per-layer summary --------------------------------------------------------------

    def span_totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds, in steps
        and outside them, and inclusive seconds per phase."""
        child = collections.defaultdict(float)
        for sp in self.spans:
            if sp is not None and sp[4] >= 0:
                child[sp[4]] += sp[3] - sp[2]
        out: dict = {}
        for sid, name, start, end, _, step, phase in (s for s in self.spans if s):
            t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "step_s": 0.0, "phase_s": {}})
            dur = end - start
            t["calls"] += 1
            t["s"] += dur
            t["self_s"] += dur - child.get(sid, 0.0)
            if step >= 0:
                t["step_s"] += dur
                t["phase_s"][phase] = t["phase_s"].get(phase, 0.0) + dur
        return out

    def exact_counts(self) -> dict:
        """Counters that must repeat exactly for a given workload and seed."""
        out = dict(self.counts)
        out.update({f"primitive.{k}": v for k, v in self.primitive_ops.items()})
        out["steps"] = len(self.steps)
        return dict(sorted(out.items()))

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,step,phase\n")
            for sid, name, start, end, parent, step, phase in (s for s in self.spans if s):
                fh.write(f"{sid},{name},{start!r},{end!r},{parent},{step},{phase}\n")
