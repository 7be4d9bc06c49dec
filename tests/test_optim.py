import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dasvit import AdamW, LrSchedule, Tensor, backward, dtype_scope
from dasvit.errors import ConfigError, NonFiniteError, OptimizerError


def _param(value):
    return Tensor(np.array(value, dtype=np.float64), requires_grad=True)


def test_single_step_on_quadratic_matches_hand_recurrence():
    # f(w) = w^2 / 2 at w=1: g=1, m_hat=1, v_hat=1, so the step is ~lr exactly.
    w = _param([1.0])
    w.grad = np.array([1.0])
    opt = AdamW({"w": w}, lr=0.1, betas=(0.9, 0.999), weight_decay=0.0)
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
    but d/db = a*c overflows; the step names b and changes nothing."""
    values = {"a": 1e30, "b": 1e-30, "c": 1e10}
    params = {name: Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
              for name in values}
    opt = AdamW(params, lr=0.1, weight_decay=0.1)
    for p in params.values():
        p.grad = np.ones(1, dtype=np.float32)
    opt.step()  # leaves nonzero moments and a step count behind
    for name, p in params.items():
        p.data[...] = values[name]
    before = ({n: p.data.copy() for n, p in params.items()},
              {n: m.copy() for n, m in opt.m.items()},
              {n: v.copy() for n, v in opt.v.items()}, opt.step_count)

    opt.zero_grad()
    a, b, c = params.values()
    loss = ((a * b) * c).sum()
    backward(loss)
    assert np.isfinite(loss.data) and np.isinf(b.grad).all()
    with pytest.raises(NonFiniteError, match="'b'"):
        opt.step()
    after = ({n: p.data for n, p in params.items()}, opt.m, opt.v, opt.step_count)
    for was, now in zip(before[:3], after[:3]):
        assert all(np.array_equal(was[n], now[n]) for n in params)
    assert after[3] == before[3]


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

        w_b = Tensor(w_a.data.copy(), requires_grad=True)
        resumed = AdamW({"w": w_b}, lr=0.05, weight_decay=0.01)
        resumed.load_state_arrays(snapshot)
        for g in grads[3:]:
            w_b.grad = g.copy()
            resumed.step()
        np.testing.assert_array_equal(w_b.data, w_full.data)


# -- learning-rate schedule -------------------------------------------------------


def test_lr_starts_at_warmup_start():
    sched = LrSchedule(base_lr=1e-3, warmup_epochs=20, warmup_start_lr=1e-6,
                       total_epochs=500)
    assert sched.lr_at(0) == 1e-6


def test_lr_reaches_base_at_warmup_junction():
    sched = LrSchedule(base_lr=1e-3, warmup_epochs=20, warmup_start_lr=1e-6,
                       total_epochs=500)
    assert sched.lr_at(20) == pytest.approx(1e-3, rel=1e-12)


def test_lr_final_epoch_matches_cosine_formula():
    sched = LrSchedule(base_lr=1e-3, warmup_epochs=20, warmup_start_lr=1e-6,
                       total_epochs=500, min_lr=0.0)
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
    sched = LrSchedule(base_lr=1e-3, warmup_epochs=warmup, warmup_start_lr=1e-6,
                       total_epochs=total, min_lr=1e-5)
    lo = min(1e-6, 1e-5)
    for epoch in range(total):
        lr = sched.lr_at(epoch)
        assert lo - 1e-15 <= lr <= 1e-3 + 1e-15


def test_lr_continuous_at_junction():
    sched = LrSchedule(base_lr=1.0, warmup_epochs=10, warmup_start_lr=0.0,
                       total_epochs=1000)
    assert sched.lr_at(10) - sched.lr_at(9) == pytest.approx(0.1, abs=1e-3)
