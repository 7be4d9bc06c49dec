import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dasvit import DEFAULT_CANDIDATES, OpSpec, Tensor, backward, dtype_scope
from dasvit.errors import ConfigError, ShapeError
from dasvit.ops import (CellValue, EmbedParams, IdentityOp, MlpOp, ModelDims, MsaOp,
                        ZeroOp, build_op, mlp_hidden_dim)
from oracles import attention_oracle, check_grads, layernorm_np, mlp_oracle


def test_default_registry_is_the_eight_op_set():
    assert len(DEFAULT_CANDIDATES) == 8
    kinds = [s.kind for s in DEFAULT_CANDIDATES]
    assert kinds.count("zero") == 1 and kinds.count("identity") == 1
    assert sorted(s.heads for s in DEFAULT_CANDIDATES if s.kind == "msa") == [8, 12, 16]
    assert sorted(s.ratio for s in DEFAULT_CANDIDATES if s.kind == "mlp") == [0.5, 3.0, 4.0]


def test_opspec_json_roundtrip():
    for spec in DEFAULT_CANDIDATES:
        assert OpSpec.from_json(spec.to_json()) == spec
    assert OpSpec.from_json({"kind": "msa", "heads": 12}) == OpSpec("msa", heads=12)


def test_opspec_validation_errors():
    with pytest.raises(ConfigError):
        OpSpec("msa")
    with pytest.raises(ConfigError):
        OpSpec("mlp", ratio=-1.0)
    with pytest.raises(ConfigError):
        OpSpec("identity", heads=2)
    with pytest.raises(ConfigError, match="unknown key"):
        OpSpec.from_json({"kind": "zero", "extra": 1})


def test_heads_must_divide_dim_at_construction():
    with pytest.raises(ConfigError, match="not divisible"):
        MsaOp(OpSpec("msa", heads=12), dim=32, rng=np.random.default_rng(0))


def test_mlp_hidden_rounding_is_half_up_with_floor_one():
    assert mlp_hidden_dim(0.5, 4) == 2
    assert mlp_hidden_dim(0.5, 5) == 3   # 2.5 rounds up
    assert mlp_hidden_dim(0.05, 4) == 1  # floored at 1
    assert mlp_hidden_dim(4.0, 8) == 32


def test_msa_single_token_attention_is_identity_weight(rng):
    with dtype_scope("float64"):
        op = MsaOp(OpSpec("msa", heads=2), dim=4, rng=rng)
        x = rng.standard_normal((1, 1, 4))
        out = op.forward(CellValue(Tensor(x)))
        z = layernorm_np(x, op.norm_g.data, op.norm_b.data)
        expected = z @ op.wv.data @ op.wo.data + op.bo.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_msa_identical_tokens_give_identical_rows(rng):
    with dtype_scope("float64"):
        op = MsaOp(OpSpec("msa", heads=2), dim=6, rng=rng)
        row = rng.standard_normal(6)
        x = np.tile(row, (2, 5, 1))
        out = op.forward(CellValue(Tensor(x))).data
        for b in range(2):
            for i in range(1, 5):
                np.testing.assert_allclose(out[b, i], out[b, 0], atol=1e-12)


def test_msa_matches_per_head_loop_oracle(rng):
    with dtype_scope("float64"):
        op = MsaOp(OpSpec("msa", heads=2), dim=4, rng=rng)
        x = rng.standard_normal((1, 3, 4))
        out = op.forward(CellValue(Tensor(x))).data
        expected = attention_oracle(x, op.wq.data, op.wk.data, op.wv.data,
                                    op.wo.data, op.bo.data, heads=2,
                                    gamma=op.norm_g.data, beta=op.norm_b.data)
        np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-12)


@given(st.permutations(list(range(4))))
def test_msa_is_permutation_equivariant(perm):
    with dtype_scope("float64"):
        rng = np.random.default_rng(11)
        op = MsaOp(OpSpec("msa", heads=2), dim=4, rng=rng)
        x = rng.standard_normal((1, 4, 4))
        out = op.forward(CellValue(Tensor(x))).data
        out_perm = op.forward(CellValue(Tensor(x[:, perm]))).data
        np.testing.assert_allclose(out_perm, out[:, perm], rtol=1e-9, atol=1e-11)


def test_msa_graph_holds_no_attention_matrix(rng):
    """After a recorded forward the graph keeps no (B, H, N, N) array, neither
    the softmax output nor the raw scores: only the softmax's (B, H, N, 1)
    row max and row sum, from which the backward rebuilds the output."""
    bsz, n, dim, heads = 2, 64, 16, 8
    op = MsaOp(OpSpec("msa", heads=heads), dim=dim, rng=rng)
    x = Tensor(rng.standard_normal((bsz, n, dim)).astype(np.float32), requires_grad=True)
    op.forward(CellValue(x))  # warm-up: one-time allocations stay out of the measure
    tracemalloc.start()
    try:
        out = op.forward(CellValue(x))
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    ratio = live / (bsz * heads * n * n * np.dtype(np.float32).itemsize)
    assert ratio < 0.25, f"live bytes after the forward are {ratio:.2f} attention matrices"


def test_mlp_is_position_wise(rng):
    with dtype_scope("float64"):
        op = MlpOp(OpSpec("mlp", ratio=2.0), dim=4, rng=rng)
        x = rng.standard_normal((1, 5, 4))
        perm = np.array([3, 0, 4, 1, 2])
        out = op.forward(CellValue(Tensor(x))).data
        out_perm = op.forward(CellValue(Tensor(x[:, perm]))).data
        np.testing.assert_allclose(out_perm, out[:, perm], atol=1e-12)


def test_mlp_zero_weights_give_zero_output(rng):
    op = MlpOp(OpSpec("mlp", ratio=0.5), dim=4, rng=np.random.default_rng(0))
    for p in (op.w1, op.b1, op.w2, op.b2):
        p.data[...] = 0.0
    out = op.forward(CellValue(Tensor(rng.standard_normal((2, 3, 4)))))
    np.testing.assert_array_equal(out.data, 0.0)


def test_mlp_matches_two_matrix_oracle(rng):
    with dtype_scope("float64"):
        op = MlpOp(OpSpec("mlp", ratio=0.5), dim=4, rng=rng)
        assert op.hidden == 2
        x = rng.standard_normal((2, 3, 4))
        expected = mlp_oracle(x, op.w1.data, op.b1.data, op.w2.data, op.b2.data,
                              gamma=op.norm_g.data, beta=op.norm_b.data)
        np.testing.assert_allclose(op.forward(CellValue(Tensor(x))).data, expected,
                                   rtol=1e-10, atol=1e-12)


def test_zero_op_output_shape_and_gradient(rng):
    op = ZeroOp(OpSpec("zero"), dim=8)
    x = Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True)
    out = op.forward(CellValue(x))
    assert out.shape == (2, 5, 8)
    np.testing.assert_array_equal(out.data, 0.0)
    backward((out * 1.0).sum() + x.sum() * 0.0)
    np.testing.assert_array_equal(x.grad, 0.0)


def test_identity_op_is_bitwise_and_composes(rng):
    op = IdentityOp(OpSpec("identity"), dim=4)
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    out = op.forward(CellValue(op.forward(CellValue(x))))
    assert out.data is x.data
    backward(out.sum())
    np.testing.assert_array_equal(x.grad, np.ones_like(x.data))


def test_embed_token_count_small():
    dims = ModelDims(dim=8, patch=4, image=8, classes=2)
    embed = EmbedParams(dims, np.random.default_rng(0))
    z = embed.embed(np.zeros((3, 8, 8, 3), dtype=np.float32))
    assert z.shape == (3, 5, 8)  # 4 patches + class token


def test_embed_zero_projection_leaves_position_table(rng):
    with dtype_scope("float64"):
        dims = ModelDims(dim=8, patch=4, image=8, classes=2)
        embed = EmbedParams(dims, np.random.default_rng(0))
        embed.proj_w.data[...] = 0.0
        embed.proj_b.data[...] = 0.0
        z = embed.embed(rng.random((2, 8, 8, 3))).data
        np.testing.assert_allclose(z[:, 1:], np.broadcast_to(embed.pos.data[1:], (2, 4, 8)),
                                   atol=1e-12)
        cls_row = np.broadcast_to(embed.cls.data[0, 0] + embed.pos.data[0], (2, 8))
        np.testing.assert_allclose(z[:, 0], cls_row, atol=1e-12)


def test_patch_count_at_full_scale_geometry():
    dims = ModelDims(dim=8, patch=16, image=224, classes=100)
    assert dims.n_patches == 196
    embed = EmbedParams(dims, np.random.default_rng(0))
    z = embed.embed(np.zeros((1, 224, 224, 3), dtype=np.float32))
    assert z.shape == (1, 197, 8)


def test_embed_rejects_indivisible_images():
    dims = ModelDims(dim=8, patch=4, image=8, classes=2)
    embed = EmbedParams(dims, np.random.default_rng(0))
    with pytest.raises(ShapeError, match="divisible"):
        embed.embed(np.zeros((1, 9, 8, 3), dtype=np.float32))
    with pytest.raises(ConfigError, match="divisible"):
        ModelDims(dim=8, patch=5, image=8, classes=2)


def test_head_reads_class_row_only(rng):
    with dtype_scope("float64"):
        dims = ModelDims(dim=8, patch=4, image=8, classes=3)
        embed = EmbedParams(dims, np.random.default_rng(0))
        z = rng.standard_normal((2, 5, 8))
        base = embed.classify(Tensor(z)).data
        z2 = z.copy()
        z2[:, 1:] = rng.standard_normal((2, 4, 8))
        np.testing.assert_array_equal(embed.classify(Tensor(z2)).data, base)


def test_head_zero_weights_zero_logits(rng):
    dims = ModelDims(dim=8, patch=4, image=8, classes=3)
    embed = EmbedParams(dims, np.random.default_rng(0))
    embed.head_w.data[...] = 0.0
    embed.head_b.data[...] = 0.0
    out = embed.classify(Tensor(rng.standard_normal((2, 5, 8))))
    np.testing.assert_array_equal(out.data, 0.0)


def test_head_batches_are_independent(rng):
    with dtype_scope("float64"):
        dims = ModelDims(dim=8, patch=4, image=8, classes=3)
        embed = EmbedParams(dims, np.random.default_rng(0))
        z = rng.standard_normal((2, 5, 8))
        out = embed.classify(Tensor(z)).data
        swapped = embed.classify(Tensor(z[::-1].copy())).data
        np.testing.assert_array_equal(swapped, out[::-1])


def test_candidate_parameter_counts_match_closed_form():
    d = 16
    rng = np.random.default_rng(0)
    msa = MsaOp(OpSpec("msa", heads=4), dim=d, rng=rng)
    assert sum(p.size for p in msa.named_parameters().values()) == 4 * d * d + d + 2 * d
    for ratio in (0.5, 3.0, 4.0):
        mlp = MlpOp(OpSpec("mlp", ratio=ratio), dim=d, rng=rng)
        dh = mlp_hidden_dim(ratio, d)
        assert sum(p.size for p in mlp.named_parameters().values()) == \
            2 * d * dh + dh + d + 2 * d


def test_msa_param_count_independent_of_heads():
    rng = np.random.default_rng(0)
    sizes = {
        h: sum(p.size for p in
               MsaOp(OpSpec("msa", heads=h), dim=16, rng=rng).named_parameters().values())
        for h in (2, 4, 8)
    }
    assert len(set(sizes.values())) == 1


@pytest.mark.parametrize("spec", [OpSpec("msa", heads=2), OpSpec("mlp", ratio=0.5)])
def test_candidate_op_gradients(spec, rng):
    with dtype_scope("float64"):
        op = build_op(spec, dim=4, rng=rng)
        x = Tensor(rng.standard_normal((1, 3, 4)), requires_grad=True)
        proj = Tensor(rng.standard_normal((1, 3, 4)))
        wrt = [x] + list(op.named_parameters().values())
        check_grads(lambda: (op.forward(CellValue(x)) * proj).sum(), wrt)
