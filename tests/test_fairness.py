import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dasvit import AdamW, AlphaTable, FairnessConfig, OpSpec, Tensor, backward, \
    dtype_scope, skip_fairness, type_fairness
from dasvit import autodiff as ad
from dasvit.data import Batch
from dasvit.search import SearchState, _grad_pass
from dasvit.errors import ConfigError
from oracles import check_grads, softmax_np

DESK8 = [
    OpSpec("zero"), OpSpec("identity"),
    OpSpec("msa", heads=2), OpSpec("msa", heads=4), OpSpec("msa", heads=8),
    OpSpec("mlp", ratio=0.5), OpSpec("mlp", ratio=3.0), OpSpec("mlp", ratio=4.0),
]


def _alpha(candidates, seed=0, scale=None):
    table = AlphaTable(candidates, np.random.default_rng(seed))
    if scale is not None:
        table.logits.data = scale
    return table


def test_uniform_eight_ops_skip_weight_is_one_eighth():
    with dtype_scope("float64"):
        alpha = _alpha(DESK8, scale=np.zeros((1, 5, 8)))
        assert float(skip_fairness(alpha).data) == pytest.approx(0.125, abs=1e-12)


def test_skip_fairness_without_identity_is_zero():
    alpha = _alpha([OpSpec("zero"), OpSpec("mlp", ratio=0.5)])
    assert float(skip_fairness(alpha).data) == 0.0
    # a float64 zero would promote the float32 search loss it is added to
    assert skip_fairness(alpha).dtype == np.float32
    with dtype_scope("float64"):
        assert skip_fairness(alpha).dtype == np.float64


def test_skip_fairness_matches_loop_oracle(rng):
    with dtype_scope("float64"):
        alpha = _alpha(DESK8)
        alpha.logits.data = rng.standard_normal((1, 5, 8))
        got = float(skip_fairness(alpha).data)
        acc = []
        for edge in range(5):
            w = softmax_np(alpha.logits.data[0, edge])
            acc.append(w[1])  # identity sits at registry index 1
        expected = float(np.mean(acc))
        assert abs(got - expected) / abs(expected) < 1e-9


def test_type_fairness_uniform_default_bounds_is_zero():
    # per-edge type sums are (0.125, 0.125, 0.375, 0.375), all inside [0.05, 0.5]
    with dtype_scope("float64"):
        alpha = _alpha(DESK8, scale=np.zeros((1, 5, 8)))
        cfg = FairnessConfig()
        assert float(type_fairness(alpha, cfg).data) == 0.0


def test_type_fairness_saturated_closed_form():
    with dtype_scope("float64"):
        logits = np.zeros((1, 5, 8))
        logits[:, :, 3] = 40.0  # everything on one MSA candidate
        alpha = _alpha(DESK8, scale=logits)
        cfg = FairnessConfig()
        per_edge = cfg.zeta1 * (1.0 - cfg.gamma_max) + cfg.zeta2 * cfg.gamma_min * 3
        expected = per_edge * 5  # five edges in the shared table
        assert float(type_fairness(alpha, cfg).data) == pytest.approx(expected, rel=1e-9)


def test_type_fairness_inactive_bounds_is_always_zero(rng):
    alpha = _alpha(DESK8)
    alpha.logits.data = rng.standard_normal((1, 5, 8)).astype(np.float32) * 5
    cfg = FairnessConfig(gamma_min=0.0, gamma_max=1.0)
    assert float(type_fairness(alpha, cfg).data) == 0.0


def test_type_fairness_zero_iff_sums_in_range(rng):
    with dtype_scope("float64"):
        cfg = FairnessConfig()
        inside = _alpha(DESK8, scale=np.zeros((1, 5, 8)))
        assert float(type_fairness(inside, cfg).data) == 0.0
        outside = _alpha(DESK8)
        logits = np.zeros((1, 5, 8))
        logits[:, :, 1] = 10.0  # identity type sum ~1 > gamma_max
        outside.logits.data = logits
        assert float(type_fairness(outside, cfg).data) > 0.0


def _fairness_loss(alpha, cfg):
    return skip_fairness(alpha) * cfg.a + type_fairness(alpha, cfg) * cfg.b


class _AlphaFreeModel:
    """Logits that do not depend on alpha: the search's alpha gradient is then
    the gradient of its fairness term alone."""

    def __init__(self):
        self.w = ad.parameter(np.zeros((4 * 4 * 3, 2)), "w")

    def forward(self, images):
        return ad.matmul(Tensor(images.reshape(len(images), -1)), self.w)


def test_fairness_loss_combines_terms(rng):
    """The alpha pass adds a * skip term + b * type term to the cross-entropy."""
    batch = Batch(images=rng.random((2, 4, 4, 3)), labels=np.array([0, 1]),
                  indices=np.arange(2), split="val")
    logits = rng.standard_normal((1, 5, 8))
    for cfg in (FairnessConfig(a=0.0, b=0.0), FairnessConfig(a=1.0, b=0.0),
                FairnessConfig(a=0.3, b=0.7)):
        with dtype_scope("float64"):
            alpha = _alpha(DESK8, scale=logits.copy())
            model = _AlphaFreeModel()
            state = SearchState(model=model, alpha=alpha,
                                w_opt=AdamW({"w": model.w}, lr=0.1),
                                a_opt=AdamW({"alpha.logits": alpha.logits}, lr=0.1),
                                fairness=cfg)
            _, l1, l2 = _grad_pass(state, batch, freeze=state.w_opt, fair=True)
            got = alpha.logits.grad
            expected = _alpha(DESK8, scale=logits.copy())
            backward(_fairness_loss(expected, cfg))
        assert l1 == float(skip_fairness(expected).data)
        assert l2 == float(type_fairness(expected, cfg).data)
        np.testing.assert_allclose(got, expected.logits.grad, rtol=1e-12, atol=1e-15)


def test_fairness_gradients_match_finite_differences(rng):
    with dtype_scope("float64"):
        alpha = _alpha(DESK8)
        alpha.logits.data = 0.05 * rng.standard_normal((1, 5, 8))
        alpha.logits.requires_grad = True
        cfg = FairnessConfig()
        # stay away from hinge kinks: with near-uniform weights the type sums
        # sit at ~(0.125, 0.125, 0.375, 0.375), far from 0.05 / 0.5
        check_grads(lambda: _fairness_loss(alpha, cfg), [alpha.logits])


@given(st.floats(min_value=-5, max_value=5))
def test_skip_fairness_shift_invariance(shift):
    with dtype_scope("float64"):
        alpha = _alpha(DESK8)
        base = np.random.default_rng(2).standard_normal((1, 5, 8))
        alpha.logits.data = base.copy()
        before = float(skip_fairness(alpha).data)
        alpha.logits.data = base + shift  # common constant on every edge
        after = float(skip_fairness(alpha).data)
        assert after == pytest.approx(before, rel=1e-9, abs=1e-12)


def test_skip_fairness_bounded_and_descends_under_gradient(rng):
    with dtype_scope("float64"):
        alpha = _alpha(DESK8)
        alpha.logits.data = rng.standard_normal((1, 5, 8))
        value = skip_fairness(alpha)
        assert 0.0 <= float(value.data) <= 1.0
        backward(value)
        before = float(value.data)
        alpha.logits.data = alpha.logits.data - 0.5 * alpha.logits.grad
        after = float(skip_fairness(alpha).data)
        assert after < before


def test_fairness_value_independent_of_edge_order(rng):
    with dtype_scope("float64"):
        alpha = _alpha(DESK8)
        alpha.logits.data = rng.standard_normal((1, 5, 8))
        cfg = FairnessConfig()
        base = (float(skip_fairness(alpha).data), float(type_fairness(alpha, cfg).data))
        alpha.logits.data = alpha.logits.data[:, ::-1].copy()
        permuted = (float(skip_fairness(alpha).data), float(type_fairness(alpha, cfg).data))
        assert base == pytest.approx(permuted, rel=1e-12)


def test_fairness_config_validation():
    with pytest.raises(ConfigError):
        FairnessConfig(gamma_min=0.6, gamma_max=0.5)
    with pytest.raises(ConfigError):
        FairnessConfig(a=-1.0)
