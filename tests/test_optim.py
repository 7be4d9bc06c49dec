import math
import resource

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dasvit import AdamW, LrSchedule, Tensor, backward, desk_config, dtype_scope
from dasvit import autodiff as ad
from dasvit.config import paper_defaults, schedule_preview
from dasvit.data import load_parameters
from dasvit.errors import ConfigError, DataError, NonFiniteError, OptimizerError
from dasvit.optim import CHUNK
from oracles import adamw_step_oracle


def _param(value):
    return Tensor(np.array(value, dtype=np.float64), requires_grad=True)


def test_single_step_on_quadratic_matches_hand_recurrence():
    # f(w) = w^2 / 2 at w=1: g=1, m_hat=1, v_hat=1, so the step is ~lr exactly.
    w = _param([1.0])
    w.grad = np.array([1.0])
    opt = AdamW({"w": w}, lr=0.1, weight_decay=0.0)
    opt.step()
    assert abs(float(w.data[0]) - 0.9) < 1e-7


def test_decay_only_step_with_zero_gradient():
    w = _param([2.0])
    w.grad = np.zeros(1)
    opt = AdamW({"w": w}, lr=0.1, weight_decay=0.05)
    opt.step()
    np.testing.assert_allclose(w.data, 2.0 * (1.0 - 0.1 * 0.05), atol=1e-12)


def test_identical_seeds_give_bitwise_identical_parameters():
    def run():
        rng = np.random.default_rng(7)
        w = Tensor(rng.standard_normal(5), requires_grad=True)
        opt = AdamW({"w": w}, lr=1e-2, weight_decay=1e-2)
        for _ in range(5):
            w.grad = rng.standard_normal(5)
            opt.step()
        return w.data.copy()

    np.testing.assert_array_equal(run(), run())


def test_missing_gradient_names_the_parameter():
    w = _param([1.0])
    opt = AdamW({"encoder.w1": w}, lr=0.1)
    with pytest.raises(OptimizerError, match="encoder.w1"):
        opt.step()


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_gradient_behind_a_finite_loss_is_refused_before_any_update():
    """(a*b)*c at a=1e30, b=1e-30, c=1e10 has the finite float32 loss 1e10,
    but d/db = a*c overflows; the step names b and changes nothing. b sits
    among small tensors after a tensor larger than CHUNK, so the refusal
    comes from the second window, which holds the big tensor's last 5
    elements ahead of a, b, c and tail, after a clean first window."""
    values = {"big": 0.0, "a": 1e30, "b": 1e-30, "c": 1e10, "tail": 0.0}
    sizes = {"big": CHUNK + 5, "tail": 7}
    params = {name: Tensor(np.zeros(sizes.get(name, 1), dtype=np.float32),
                           requires_grad=True)
              for name in values}
    opt = AdamW(params, lr=0.1, weight_decay=0.1)
    for p in params.values():
        p.grad = np.ones_like(p.data)
    opt.step()  # leaves nonzero moments and a step count behind
    for name, p in params.items():
        p.data[...] = values[name]
    before = ({n: p.data.copy() for n, p in params.items()},
              {n: m.copy() for n, m in opt.m.items()},
              {n: v.copy() for n, v in opt.v.items()}, opt.step_count)

    opt.zero_grad()
    a, b, c = params["a"], params["b"], params["c"]
    loss = ((a * b) * c).sum()
    backward(loss)
    for name in ("big", "tail"):
        params[name].grad = np.ones_like(params[name].data)
    assert np.isfinite(loss.data) and np.isinf(b.grad).all()
    with pytest.raises(NonFiniteError, match="'b'"):
        opt.step()
    after = ({n: p.data for n, p in params.items()}, opt.m, opt.v, opt.step_count)
    for was, now in zip(before[:3], after[:3]):
        assert all(np.array_equal(was[n], now[n]) for n in params)
    assert after[3] == before[3]


def test_nonfinite_gradient_in_a_later_slice_of_a_large_tensor_is_named():
    params = {"small": _param(np.zeros(3)), "big": _param(np.zeros(2 * CHUNK + 3))}
    for p in params.values():
        p.grad = np.ones_like(p.data)
    params["big"].grad[-2] = np.nan
    opt = AdamW(params, lr=0.1)
    with pytest.raises(NonFiniteError, match="'big'"):
        opt.step()
    assert opt.step_count == 0
    assert all(not p.data.any() for p in params.values())


def test_parameters_of_mixed_dtypes_are_refused_by_name():
    params = {"w": _param([1.0]),
              "b": Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)}
    with pytest.raises(OptimizerError, match="'b' is float32"):
        AdamW(params, lr=0.1)


@pytest.mark.parametrize("key, value, match", [
    ("opt.v.b", None, "no array 'opt.v.b'"),
    ("opt.m.w", np.zeros(1), r"'opt.m.w' has shape \(1,\), expected \(2, 3\)"),
    ("opt.step", None, "no array 'opt.step'"),
])
def test_load_state_arrays_refuses_a_missing_or_misshapen_moment(key, value, match):
    """Optimizer state loads through `load_parameters`, which refuses a
    missing or misshapen moment or step count by name before it copies
    anything, weights included."""
    params = {"w": _param(np.zeros((2, 3))), "b": _param(np.zeros(3))}
    saved = AdamW(params, lr=0.1)
    for p in params.values():
        p.grad = np.ones_like(p.data)
    saved.step()
    arrays = {k: v.copy() for k, v in saved.state_arrays().items()}
    arrays.update((n, p.data.copy()) for n, p in params.items())
    if value is None:
        del arrays[key]
    else:
        arrays[key] = value
    fresh_params = {"w": _param(np.zeros((2, 3))), "b": _param(np.zeros(3))}
    fresh = AdamW(fresh_params, lr=0.1)
    with pytest.raises(DataError, match=f"saved.ckpt: .*{match}"):
        load_parameters(fresh_params, arrays, "saved.ckpt", opt_state=fresh.state_arrays())
    assert fresh.step_count == 0
    assert not fresh.m["b"].any() and not fresh.v["w"].any()
    assert not any(p.data.any() for p in fresh_params.values())


_SIZES = st.lists(st.integers(1, 40) | st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1]),
                  min_size=1, max_size=12)


@settings(max_examples=30, deadline=None)
@example(sizes=[3] * 30 + [2 * CHUNK + 5, 7, CHUNK - 20, 30], decay=True,
         dtype="float32", seed=0)
@given(sizes=_SIZES, decay=st.booleans(), dtype=st.sampled_from(["float32", "float64"]),
       seed=st.integers(0, 2**16))
def test_flat_step_matches_the_per_tensor_oracle_bitwise(sizes, decay, dtype, seed):
    """Parameters, moments and step count after 3 steps equal a per-tensor
    update's, bit for bit, however the sizes fall around CHUNK."""
    rng = np.random.default_rng(seed)
    shapes = [(2, n // 2) if n % 2 == 0 else (n,) for n in sizes]
    init = [rng.standard_normal(shape).astype(dtype) for shape in shapes]
    flat = {f"p{i}": Tensor(x.copy(), requires_grad=True) for i, x in enumerate(init)}
    ref = {f"p{i}": Tensor(x.copy(), requires_grad=True) for i, x in enumerate(init)}
    wd = 0.05 if decay else 0.0
    opt = AdamW(flat, lr=1e-2, weight_decay=wd)
    m = {n: np.zeros_like(p.data) for n, p in ref.items()}
    v = {n: np.zeros_like(p.data) for n, p in ref.items()}
    for step in (1, 2, 3):
        for name, p in flat.items():
            g = rng.standard_normal(p.data.shape).astype(dtype)
            p.grad, ref[name].grad = g, g.copy()
        opt.step()
        adamw_step_oracle(ref, m, v, step, lr=1e-2, weight_decay=wd)
    assert opt.step_count == 3
    for name in flat:
        np.testing.assert_array_equal(flat[name].data, ref[name].data)
        np.testing.assert_array_equal(opt.m[name], m[name])
        np.testing.assert_array_equal(opt.v[name], v[name])


def test_blocks_are_the_chunk_windows_of_the_flat_order():
    sizes = [3] * 30 + [2 * CHUNK + 5, 7, CHUNK - 20, 30]
    params = {f"p{i}": Tensor(np.zeros(n, np.float32), requires_grad=True)
              for i, n in enumerate(sizes)}
    blocks = AdamW(params, lr=0.1)._blocks
    assert len(blocks) == math.ceil(sum(sizes) / CHUNK)
    assert [sum(hi - lo for _, _, lo, hi, _ in segments) for segments, _, _ in blocks] \
        == [m.size for _, m, _ in blocks]


@pytest.mark.parametrize("shape, split", [((40, 30), False), ((300, 250), True)],
                         ids=["whole", "split"])
def test_a_non_contiguous_parameter_steps_like_the_oracle(shape, split):
    """A transposed view steps bit for bit like the per-tensor oracle, and
    the update lands in its tensor's data: in place when one window holds
    it, in a C-contiguous copy when it is split across windows."""
    rng = np.random.default_rng(5)
    init = rng.standard_normal(shape).astype(np.float32)
    assert (init.size > CHUNK) == split
    flat = {"lead": Tensor(np.zeros(11, np.float32), requires_grad=True),
            "w": Tensor(init.copy().T, requires_grad=True)}
    ref = {"lead": Tensor(np.zeros(11, np.float32)), "w": Tensor(init.copy().T)}
    view = flat["w"].data
    assert not view.flags.c_contiguous
    opt = AdamW(flat, lr=1e-2, weight_decay=0.05)
    m = {n: np.zeros_like(p.data) for n, p in ref.items()}
    v = {n: np.zeros_like(p.data) for n, p in ref.items()}
    for step in (1, 2, 3):
        for name, p in flat.items():
            g = rng.standard_normal(p.data.shape).astype(np.float32)
            p.grad, ref[name].grad = g, g.copy()
        opt.step()
        adamw_step_oracle(ref, m, v, step, lr=1e-2, weight_decay=0.05)
    for name in flat:
        np.testing.assert_array_equal(flat[name].data, ref[name].data)
        np.testing.assert_array_equal(opt.m[name], m[name])
        np.testing.assert_array_equal(opt.v[name], v[name])
    assert (flat["w"].data is view) != split
    assert not np.array_equal(flat["w"].data, init.T)


def test_step_count_and_moment_shapes():
    w = _param([[1.0, 2.0], [3.0, 4.0]])
    opt = AdamW({"w": w}, lr=0.1)
    assert opt.m["w"].shape == w.data.shape
    for expected in (1, 2, 3):
        w.grad = np.ones_like(w.data)
        opt.step()
        assert opt.step_count == expected


def test_state_arrays_roundtrip_resumes_identically():
    with dtype_scope("float64"):
        rng = np.random.default_rng(3)
        grads = [rng.standard_normal(4) for _ in range(6)]

        w_full = Tensor(np.ones(4), requires_grad=True)
        full = AdamW({"w": w_full}, lr=0.05, weight_decay=0.01)
        for g in grads:
            w_full.grad = g.copy()
            full.step()

        w_a = Tensor(np.ones(4), requires_grad=True)
        part = AdamW({"w": w_a}, lr=0.05, weight_decay=0.01)
        for g in grads[:3]:
            w_a.grad = g.copy()
            part.step()
        snapshot = {k: v.copy() for k, v in part.state_arrays().items()}
        snapshot["w"] = w_a.data.copy()

        w_b = Tensor(np.ones(4), requires_grad=True)
        resumed = AdamW({"w": w_b}, lr=0.05, weight_decay=0.01)
        load_parameters({"w": w_b}, snapshot, "snapshot", opt_state=resumed.state_arrays())
        assert resumed.step_count == 3
        for g in grads[3:]:
            w_b.grad = g.copy()
            resumed.step()
        np.testing.assert_array_equal(w_b.data, w_full.data)


@pytest.mark.skipif(getattr(ad._process_libc(), "mallopt", None) is None,
                    reason="the C library has no mallopt")
def test_a_rebuilt_optimizer_reuses_the_pages_of_the_one_before_it():
    # a search stage drops both optimizers and builds new ones of the same size
    params = {"w": Tensor(np.ones((2048, 2048), np.float32), requires_grad=True),
              "b": Tensor(np.ones(2048, np.float32), requires_grad=True)}
    for p in params.values():
        p.grad = np.full_like(p.data, 0.5)
    AdamW(params, lr=1e-3).step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    AdamW(params, lr=1e-3).step()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= 300, f"{faults} minor page faults building and stepping a second optimizer"


# -- learning-rate schedule -------------------------------------------------------


def test_lr_starts_at_warmup_start():
    sched = LrSchedule(base_lr=1e-3, warmup_epochs=20, total_epochs=500)
    assert sched.lr_at(0) == 1e-6


def test_lr_reaches_base_at_warmup_junction():
    sched = LrSchedule(base_lr=1e-3, warmup_epochs=20, total_epochs=500)
    assert sched.lr_at(20) == pytest.approx(1e-3, rel=1e-12)


def test_lr_final_epoch_matches_cosine_formula():
    sched = LrSchedule(base_lr=1e-3, warmup_epochs=20, total_epochs=500)
    progress = (499 - 20) / (500 - 20)
    expected = 0.5 * 1e-3 * (1.0 + math.cos(math.pi * progress))
    assert sched.lr_at(499) == pytest.approx(expected, rel=1e-12)
    assert 0.0 < sched.lr_at(499) < 1e-5


def test_lr_epoch_out_of_range():
    sched = LrSchedule(base_lr=1e-3, total_epochs=10)
    with pytest.raises(ConfigError):
        sched.lr_at(10)
    with pytest.raises(ConfigError):
        sched.lr_at(-1)


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=59))
def test_lr_bounds_invariant(total, warmup):
    warmup = min(warmup, total)
    sched = LrSchedule(base_lr=1e-3, warmup_epochs=warmup, total_epochs=total)
    for epoch in range(total):
        lr = sched.lr_at(epoch)
        assert 0.0 <= lr <= 1e-3 + 1e-15


@pytest.mark.parametrize("preset", [paper_defaults, desk_config])
def test_lr_of_each_preset_is_the_general_formula_at_its_former_defaults(preset):
    """The schedules the search and retrain build equal, bit for bit, the
    warmup+cosine formula with a warmup start lr and a cosine floor, at the
    values every run used: start 1e-6, floor 0."""

    def general(base_lr, warmup, total, epoch, start_lr=1e-6, min_lr=0.0):
        if epoch < warmup:
            return start_lr + (base_lr - start_lr) * (epoch / warmup)
        progress = (epoch - warmup) / (total - warmup)
        return min_lr + (base_lr - min_lr) * (0.5 * (1.0 + math.cos(math.pi * progress)))

    cfg = preset()
    s, r = cfg.search, cfg.retrain
    search_epochs = len(schedule_preview(cfg)) * s.epochs_per_stage
    for base_lr, warmup, total in ((s.lr, 0, search_epochs),
                                   (r.lr, r.warmup_epochs, r.epochs)):
        sched = LrSchedule(base_lr, warmup, total)
        for epoch in range(total):
            assert sched.lr_at(epoch) == general(base_lr, warmup, total, epoch), epoch


def test_lr_continuous_at_junction():
    sched = LrSchedule(base_lr=1.0, warmup_epochs=10, total_epochs=1000)
    assert sched.lr_at(10) - sched.lr_at(9) == pytest.approx(0.1, abs=1e-3)
