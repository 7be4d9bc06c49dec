"""The benchmark's timing and span hooks still find every function and method
they wrap, and put each original back on close; its step boundaries still
come from the optimizer; its workloads still build their config and rebuild a
supernet from a stage checkpoint."""

import dataclasses
import importlib
import sys
import tracemalloc
from pathlib import Path

import dasvit
from dasvit import Supernet, desk_config, run_search, search
from dasvit.config import SyntheticConfig
from dasvit.data import (RNG_STAGE, BatchPlan, epoch_batches, load_checkpoint, rng_for,
                         split_dataset)

PERFBENCH = Path(dasvit.__file__).resolve().parents[2] / "perfbench"


def _bindings():
    """Every attribute of every loaded dasvit module and of each class in it."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "dasvit" or name.startswith("dasvit.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def test_traced_instrument_hooks_resolve_and_close_restores_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    instrument = importlib.import_module("instrument")
    before = _bindings()

    ins = instrument.Instrument(spans=True, memory=True).install()
    try:
        assert tracemalloc.is_tracing()
        for _, cls, attr in instrument.SPAN_METHODS:
            original = before[(cls.__module__, cls.__name__, attr)]
            assert cls.__dict__[attr] is not original, f"{cls.__name__}.{attr}"
        for name, fn in instrument.SPAN_FUNCTIONS.items():
            assert getattr(sys.modules[fn.__module__], fn.__name__) is not fn, name
    finally:
        ins.close()

    assert not tracemalloc.is_tracing()
    after = _bindings()
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert not moved


def _two_desk_bilevel_steps(instrument, **kwargs):
    """The instrument, and both optimizers, after two desk bilevel steps
    from seed 2 under an ``instrument.Instrument(**kwargs)``."""
    cfg = desk_config(seed=2).validate()
    train, _ = search.build_datasets(cfg, cfg.seed)
    split = split_dataset(len(train), cfg.search.val_fraction, cfg.seed)
    plan = BatchPlan(batch_size=cfg.search.batch_size, seed=cfg.seed, drop_last=True)
    net = Supernet.from_config(cfg, list(cfg.candidates), cfg.search.first_layers,
                               rng_for(cfg.seed, RNG_STAGE, 1))
    w_opt, a_opt = search._build_optimizers(net, cfg)
    state = search.SearchState(model=net, alpha=net.alpha, w_opt=w_opt,
                               a_opt=a_opt, fairness=cfg.fairness)
    train_b = epoch_batches(train, split.train_indices, plan, 0, "train")[:2]
    val_b = epoch_batches(train, split.val_indices, plan, 0, "val")[:2]
    ins = instrument.Instrument(**kwargs).install()
    try:
        search.bilevel_epoch(state, train_b, val_b)
    finally:
        ins.close()
    return ins, w_opt, a_opt


def test_timed_instrument_counts_two_bilevel_steps_and_every_updated_element(monkeypatch):
    """Two bilevel steps under the timing hooks end exactly two steps, and the
    elements counted as updated are both optimizers' parameters, once per step."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    instrument = importlib.import_module("instrument")
    ins, w_opt, a_opt = _two_desk_bilevel_steps(instrument)
    assert len(ins.steps) == 2
    sizes = sum(p.data.size for opt in (w_opt, a_opt) for p in opt.params.values())
    assert ins.counts["optim.updated_elements"] == 2 * sizes


def test_traced_instrument_runs_two_bilevel_steps_and_repeats_its_counts(monkeypatch):
    """Under the span and memory hooks, which wrap ``Tensor._from_op`` and
    walk the graph's ``_parents``, ``_backward`` and ``grad`` from the loss,
    two bilevel steps complete, and every exact counter repeats in a second
    run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    instrument = importlib.import_module("instrument")
    runs = [_two_desk_bilevel_steps(instrument, spans=True, memory=True)[0]
            for _ in range(2)]
    for ins in runs:
        assert len(ins.steps) == 2
        assert ins.counts["primitives"] == sum(ins.primitive_ops.values()) > 0
        assert ins.mem["weight_phase_peak"] > 0 and ins.mem["alpha_phase_peak"] > 0
    first, second = runs
    assert first.counts == second.counts
    assert first.primitive_ops == second.primitive_ops
    assert first.grad_bytes == second.grad_bytes


def test_workloads_config_and_stage_supernet_match_the_program(tmp_path, monkeypatch):
    """A config field or Supernet keyword the benchmark reads and the program
    no longer has fails here, not in a benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    assert workloads.mid_config(0).validate().model.dim == 192

    cfg = desk_config(seed=1)
    cfg = dataclasses.replace(
        cfg, search=dataclasses.replace(cfg.search, epochs_per_stage=1, batch_size=8,
                                        prune_per_stage=[]),
        data=dataclasses.replace(cfg.data, synthetic=SyntheticConfig(
            classes=2, per_class=16, image=8)))
    run_search(cfg, tmp_path / "run")
    net, complete = workloads._stage_supernet(
        cfg, *load_checkpoint(tmp_path / "run" / "stage_1.ckpt"))
    assert complete
    assert net.num_layers == cfg.search.first_layers
