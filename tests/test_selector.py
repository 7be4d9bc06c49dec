import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dasvit import Selector, Tensor, backward, dtype_scope
from dasvit.errors import ConfigError
from dasvit.ops import CellValue, ModelDims, MsaOp, OpSpec
from oracles import check_grads, token_scores_nn, token_scores_oracle, topk_oracle


def _selector(dim, lam=0.5, seed=0):
    return Selector(dim, lam, np.random.default_rng(seed))


def test_scores_with_identity_weights_and_equal_tokens(rng):
    with dtype_scope("float64"):
        sel = _selector(3, lam=1.0)
        sel.wq.data = np.eye(3)
        sel.wk.data = np.eye(3)
        v = rng.standard_normal(3)
        x = np.tile(v, (1, 4, 1))
        scores = sel.scores(Tensor(x)).data
        expected = float(v @ v) / math.sqrt(3)
        np.testing.assert_allclose(scores, expected, rtol=1e-12)


def test_scores_zero_query_projection():
    sel = _selector(3)
    sel.wq.data[...] = 0.0
    scores = sel.scores(Tensor(np.random.default_rng(1).standard_normal((2, 4, 3))))
    np.testing.assert_allclose(scores.data, 0.0, atol=1e-12)


def test_scores_match_double_loop_oracle(rng):
    with dtype_scope("float64"):
        sel = _selector(3, lam=1.0)
        x = rng.standard_normal((1, 4, 3))
        expected = token_scores_oracle(x, sel.wq.data, sel.wk.data)
        np.testing.assert_allclose(sel.scores(Tensor(x)).data, expected,
                                   rtol=1e-10, atol=1e-12)


def test_scores_equal_the_n_by_n_product_without_forming_it(rng, monkeypatch):
    """Against the averaged (B, N, N) query-key product to 1e-12 in float64;
    no node of the score graph is (B, N, N)."""
    shapes = []
    from_op = Tensor._from_op

    def spy(data, parents, backward_fn, op):
        shapes.append(data.shape)
        return from_op(data, parents, backward_fn, op)

    monkeypatch.setattr(Tensor, "_from_op", staticmethod(spy))
    with dtype_scope("float64"):
        sel = _selector(5, seed=3)
        x = Tensor(rng.standard_normal((2, 7, 5)), requires_grad=True)
        scores = sel.scores(x)
        expected = token_scores_nn(x.data, sel.wq.data, sel.wk.data)
        np.testing.assert_allclose(scores.data, expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())
        backward(scores.sum())
    assert shapes and (2, 7, 7) not in shapes


def test_full_lambda_returns_its_input_in_place_unscored(rng, monkeypatch):
    """At lambda = 1 every token stays where it is, and no node is recorded."""
    recorded = []
    from_op = Tensor._from_op

    def spy(data, parents, backward_fn, op):
        recorded.append(op)
        return from_op(data, parents, backward_fn, op)

    monkeypatch.setattr(Tensor, "_from_op", staticmethod(spy))
    with dtype_scope("float64"):
        sel = _selector(4, lam=1.0)
        x = Tensor(rng.standard_normal((2, 6, 4)), requires_grad=True)  # 5 patches
        out, idx = sel.select(x)
    assert out is x and recorded == []
    np.testing.assert_array_equal(idx, [[0, 1, 2, 3, 4]] * 2)
    assert sel.named_parameters() == {}


def test_half_lambda_keeps_floor_half():
    sel = _selector(4, lam=0.5)
    x = np.random.default_rng(0).standard_normal((1, 5, 4))  # N=4 patches
    out, idx = sel.select(Tensor(x))
    assert idx.shape == (1, 2)        # k = floor(0.5 * 4) = 2
    assert out.shape == (1, 3, 4)


def test_selected_set_matches_sort_oracle_with_ties(rng):
    sel = _selector(4, lam=0.6)
    for trial in range(50):
        x = rng.standard_normal((1, 8, 4))
        if trial % 3 == 0:
            x[0, 3] = x[0, 5]  # force duplicate scores
        scores = sel.scores(Tensor(x[:, 1:])).data[0]
        _, idx = sel.select(Tensor(x))
        expected = topk_oracle(scores.tolist(), k=4)
        assert idx[0].tolist() == expected


def test_degenerate_k_raises_with_guidance():
    sel = _selector(4, lam=0.1)
    x = np.zeros((1, 5, 4), dtype=np.float32)
    with pytest.raises(ConfigError, match="lambda"):
        sel.select(Tensor(x))


@given(st.integers(min_value=2, max_value=24),
       st.floats(min_value=0.05, max_value=1.0))
def test_output_token_count_invariant(n_patches, lam):
    k = int(math.floor(lam * n_patches))
    sel = _selector(4, lam=lam)
    x = np.random.default_rng(1).standard_normal((1, n_patches + 1, 4)).astype(np.float32)
    if k < 1:
        with pytest.raises(ConfigError):
            sel.select(Tensor(x))
        return
    out, idx = sel.select(Tensor(x))
    assert out.shape[1] == k + 1
    assert idx.shape[1] == k


def test_score_scaling_gives_selector_gradients(rng):
    with dtype_scope("float64"):
        sel = _selector(4, lam=0.5)
        x = Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True)
        out, _ = sel.select(x)
        backward(out.sum())
        assert sel.wq.grad is not None and np.abs(sel.wq.grad).max() > 0
        assert sel.wk.grad is not None and np.abs(sel.wk.grad).max() > 0


def test_score_scaling_gradients_match_finite_differences():
    with dtype_scope("float64"):
        rng = np.random.default_rng(5)
        sel = _selector(4, lam=0.5, seed=5)
        sel.wq.data *= 25.0
        sel.wk.data *= 25.0
        x = Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True)
        # finite differences are only valid away from selection boundaries
        scores = sel.scores(x[:, 1:]).data
        margins = -np.diff(np.sort(scores, axis=1)[:, ::-1], axis=1)
        assert margins.min() > 1e-3, "re-seed: selection boundary too close for FD"
        proj = Tensor(rng.standard_normal((2, 3, 4)))

        def loss():
            out, _ = sel.select(x)
            return (out * proj).sum()

        check_grads(loss, [x, sel.wq, sel.wk])


def test_attention_score_memory_shrinks_quadratically(rng):
    with dtype_scope("float64"):
        dims = ModelDims(dim=16, patch=4, image=32, classes=2)
        assert dims.n_patches == 64
        msa = MsaOp(OpSpec("msa", heads=2), dim=16, rng=np.random.default_rng(0))
        x = Tensor(rng.standard_normal((1, 65, 16)))

        # attention over (B, N, D) tokens forms B * heads * N * N scores
        full_elements = x.shape[0] * msa.heads * x.shape[1] ** 2
        msa.forward(CellValue(x))

        sel = _selector(16, lam=0.5)
        reduced, _ = sel.select(x)
        msa.forward(CellValue(reduced))
        ratio = reduced.shape[0] * msa.heads * reduced.shape[1] ** 2 / full_elements
        assert reduced.shape[1] == 33
        assert ratio <= 0.27
