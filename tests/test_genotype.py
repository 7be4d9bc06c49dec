import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dasvit import (DerivedModel, OpSpec, Tensor, classic_encoder_genotype,
                    cost_report, dtype_scope, load_genotype, make_genotype, save_genotype,
                    searched_encoder_genotype)
from dasvit import autodiff as ad
from dasvit import genotype as genotype_mod
from dasvit.errors import GenotypeError
from dasvit.genotype import genotype_from_json, genotype_to_json
from dasvit.ops import CellValue, ModelDims
from dasvit.data import make_synthetic
from oracles import (JSON_VALUES, attention_oracle, json_paths, layernorm_np, mlp_oracle,
                     set_json_path)

DESK = ModelDims(dim=8, patch=4, image=8, classes=2)
FULL = ModelDims(dim=768, patch=16, image=224, classes=100)


def _identity_only(dims, depth):
    ident = OpSpec("identity")
    return make_genotype(dims, depth, node0=[(0, ident), (1, ident)],
                         node1=[(0, ident), (1, ident)])


def test_identity_only_genotype_has_closed_form_cells(rng):
    with dtype_scope("float64"):
        model = DerivedModel(_identity_only(DESK, 2), np.random.default_rng(0))
        a = Tensor(rng.standard_normal((1, 3, 8)))
        b = Tensor(rng.standard_normal((1, 3, 8)))
        out = model.cell(0, CellValue(a), CellValue(b))
        np.testing.assert_allclose(out.data, 2.0 * (a.data + b.data), atol=1e-12)


def test_derived_forward_matches_straight_line_oracle(rng):
    """The searched dataflow, written out long-hand in plain numpy."""
    with dtype_scope("float64"):
        g = searched_encoder_genotype(DESK, depth=2, heads=2, ratio=0.5)
        model = DerivedModel(g, np.random.default_rng(3))
        params = {n: p.data for n, p in model.named_parameters().items()}
        images = make_synthetic(2, 2, 8, seed=7).images.astype(np.float64)

        def embed_np(imgs):
            bsz = imgs.shape[0]
            p = DESK.patch
            patches = (imgs.reshape(bsz, 2, p, 2, p, 3)
                       .transpose(0, 1, 3, 2, 4, 5)
                       .reshape(bsz, 4, p * p * 3))
            tok = patches @ params["embed.proj_w"] + params["embed.proj_b"]
            cls = np.broadcast_to(params["embed.cls"][0], (bsz, 1, 8))
            return np.concatenate([cls, tok], axis=1) + params["embed.pos"]

        def mlp(prefix, x):
            return mlp_oracle(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"],
                              params[f"{prefix}.w2"], params[f"{prefix}.b2"],
                              gamma=params[f"{prefix}.norm_g"],
                              beta=params[f"{prefix}.norm_b"])

        def msa(prefix, x, heads):
            return attention_oracle(x, params[f"{prefix}.wq"], params[f"{prefix}.wk"],
                                    params[f"{prefix}.wv"], params[f"{prefix}.wo"],
                                    params[f"{prefix}.bo"], heads,
                                    gamma=params[f"{prefix}.norm_g"],
                                    beta=params[f"{prefix}.norm_b"])

        z_prev2 = z_prev1 = embed_np(images)
        for layer in range(2):
            # canonical node order sorts pairs by (source, op name):
            # node0 = [mlp(in0), mlp(in1)], node1 = [mlp(in0), msa(n0)]
            n0 = (mlp(f"layers.{layer}.n0.0.mlp_r0.5", z_prev2)
                  + mlp(f"layers.{layer}.n0.1.mlp_r0.5", z_prev1))
            n1 = (mlp(f"layers.{layer}.n1.0.mlp_r0.5", z_prev2)
                  + msa(f"layers.{layer}.n1.1.msa_h2", n0, heads=2))
            z_prev2, z_prev1 = z_prev1, n0 + n1
        cls_row = layernorm_np(z_prev1[:, 0], params["embed.final_g"],
                               params["embed.final_b"])
        expected = cls_row @ params["embed.head_w"] + params["embed.head_b"]

        got = model.forward(images).data
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-11)


def test_derived_forward_shape_and_determinism():
    g = searched_encoder_genotype(DESK, depth=3, heads=4, ratio=0.5)
    model = DerivedModel(g, np.random.default_rng(0))
    images = make_synthetic(2, 3, 8, seed=0).images
    a = model.forward(images).data
    b = model.forward(images).data
    assert a.shape == (6, 2)
    np.testing.assert_array_equal(a, b)


# -- cost counters -------------------------------------------------------------------


def test_param_count_hits_searched_reference():
    g = searched_encoder_genotype(FULL, depth=12, heads=12, ratio=0.5)
    params = cost_report(g).params
    assert abs(params - 50.4e6) / 50.4e6 < 0.03


def test_param_count_hits_classic_reference():
    g = classic_encoder_genotype(FULL, depth=12, heads=12, ratio=4.0)
    params = cost_report(g).params
    assert abs(params - 85.8e6) / 85.8e6 < 0.03


def test_param_count_equals_instantiated_manifest():
    for depth, heads, ratio in [(1, 2, 1.0), (2, 4, 0.5), (2, 2, 3.0)]:
        g = searched_encoder_genotype(DESK, depth=depth, heads=heads, ratio=ratio)
        model = DerivedModel(g, np.random.default_rng(0))
        manifest = sum(p.size for p in model.named_parameters().values())
        assert cost_report(g).params == manifest


def test_param_count_independent_of_head_count():
    a = cost_report(searched_encoder_genotype(DESK, depth=2, heads=2)).params
    b = cost_report(searched_encoder_genotype(DESK, depth=2, heads=4)).params
    assert a == b


def test_flops_quadratic_token_scaling():
    def rederived(dims, depth, heads, ratio):
        # independent evaluation of the counting convention: 1 FLOP per MAC,
        # 5 ops per layer-norm/GELU/softmax element
        t = dims.n_patches + 1
        d = dims.dim
        dh = max(1, int(np.floor(ratio * d + 0.5)))
        msa = 4 * t * d * d + 2 * t * t * d + 5 * (t * d + heads * t * t)
        mlp = 2 * t * d * dh + 5 * (t * d + t * dh)
        patch_in = dims.patch * dims.patch * dims.channels
        overhead = dims.n_patches * patch_in * d + d * dims.classes + 5 * d
        return (msa + 3 * mlp) * depth + overhead

    small_dims = ModelDims(dim=16, patch=4, image=16, classes=2)
    big_dims = ModelDims(dim=16, patch=4, image=32, classes=2)
    assert big_dims.n_patches == 4 * small_dims.n_patches
    f_small = cost_report(searched_encoder_genotype(small_dims, depth=1, heads=2)).flops
    f_big = cost_report(searched_encoder_genotype(big_dims, depth=1, heads=2)).flops
    assert f_small == rederived(small_dims, 1, 2, 0.5)
    assert f_big == rederived(big_dims, 1, 2, 0.5)
    # the token-squared attention terms push growth past the 4x patch growth
    assert f_big > 4 * f_small


def test_cost_report_decomposes_per_layer():
    g = searched_encoder_genotype(DESK, depth=3, heads=2, ratio=0.5)
    r = cost_report(g)
    one = cost_report(searched_encoder_genotype(DESK, depth=1, heads=2, ratio=0.5))
    assert (r.params_overhead, r.flops_overhead) == (one.params_overhead,
                                                     one.flops_overhead)
    assert r.params - r.params_overhead == 3 * (one.params - one.params_overhead)
    assert r.flops - r.flops_overhead == 3 * (one.flops - one.flops_overhead)
    assert all(isinstance(v, (int, np.integer)) and v >= 0
               for v in [r.params, r.flops, r.peak_activation])
    assert "parameters" in r.table()


def test_cost_report_flops_are_the_forward_matmul_macs(monkeypatch):
    """With activation elements weighted 0, ``cost_report`` flops are exactly
    the multiply-accumulates of a DerivedModel forward, per image: those of
    its matmuls, of each ``self_attention`` node's four projections and its
    core (q·kᵀ and attn·v, N·D each per token), and of each ``feed_forward``
    node's two projections."""
    monkeypatch.setattr(genotype_mod, "OPS_PER_ACT_ELEMENT", 0)
    macs = []
    matmul, self_attention, feed_forward = ad.matmul, ad.self_attention, ad.feed_forward

    def counting(a, b, bias=None):
        out = matmul(a, b, bias=bias)
        macs.append(out.data.size * a.shape[-1])
        return out

    def counting_attention(normed, gamma, beta, wq, wk, wv, wo, bo, heads):
        out = self_attention(normed, gamma, beta, wq, wk, wv, wo, bo, heads)
        bsz, n, dim = normed.shape
        macs.append(4 * bsz * n * dim * dim + 2 * bsz * n * n * dim)
        return out

    def counting_feed_forward(normed, gamma, beta, w1, b1, w2, b2):
        out = feed_forward(normed, gamma, beta, w1, b1, w2, b2)
        macs.append(2 * (normed.data.size // normed.shape[-1]) * w1.shape[0] * w1.shape[1])
        return out

    monkeypatch.setattr(ad, "matmul", counting)
    monkeypatch.setattr(ad, "self_attention", counting_attention)
    monkeypatch.setattr(ad, "feed_forward", counting_feed_forward)
    dims = ModelDims(dim=16, patch=4, image=8, classes=2)
    batch = 3
    images = np.zeros((batch, dims.image, dims.image, dims.channels), dtype=np.float32)
    for g in (searched_encoder_genotype(dims, depth=2, heads=2),
              classic_encoder_genotype(dims, depth=2, heads=2)):
        model = DerivedModel(g, np.random.default_rng(0))
        macs.clear()
        with ad.frozen(model.named_parameters().values()):
            model.forward(images)
        assert sum(macs) == batch * cost_report(g).flops


# -- json io ---------------------------------------------------------------------------


def test_genotype_roundtrip(tmp_path):
    g = searched_encoder_genotype(DESK, depth=4, heads=4, ratio=0.5)
    path = tmp_path / "geno.json"
    save_genotype(g, path)
    assert load_genotype(path) == g


def test_a_failed_genotype_write_keeps_the_previous_file(tmp_path, monkeypatch):
    from dasvit import data as data_mod

    path = tmp_path / "genotype.json"
    save_genotype(searched_encoder_genotype(DESK, depth=1, heads=4), path)
    before = path.read_bytes()

    def disk_full(fd):
        raise OSError("no space left on device")

    monkeypatch.setattr(data_mod.os, "fsync", disk_full)
    with pytest.raises(OSError, match="no space"):
        save_genotype(searched_encoder_genotype(DESK, depth=3, heads=2), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["genotype.json"]


@given(st.integers(min_value=1, max_value=6), st.sampled_from([2, 4]),
       st.sampled_from([0.5, 3.0, 4.0]))
def test_genotype_roundtrip_property(depth, heads, ratio):
    g = searched_encoder_genotype(DESK, depth=depth, heads=heads, ratio=ratio)
    assert genotype_from_json(genotype_to_json(g)) == g


def test_missing_nodes_key_names_the_path():
    doc = genotype_to_json(searched_encoder_genotype(DESK, depth=1, heads=2))
    del doc["nodes"]
    with pytest.raises(GenotypeError, match="genotype.nodes"):
        genotype_from_json(doc)


def test_unknown_field_rejected_with_path():
    doc = genotype_to_json(searched_encoder_genotype(DESK, depth=1, heads=2))
    doc["surprise"] = 1
    with pytest.raises(GenotypeError, match="genotype.surprise"):
        genotype_from_json(doc)
    doc = genotype_to_json(searched_encoder_genotype(DESK, depth=1, heads=2))
    doc["nodes"][0][0]["extra"] = True
    with pytest.raises(GenotypeError, match=r"nodes\[0\]\[0\].extra"):
        genotype_from_json(doc)


@pytest.mark.parametrize("path, value, message", [
    (("dims", "channels"), None, r"genotype\.dims\.channels: expected an integer, got None"),
    (("dims", "classes"), True, r"genotype\.dims\.classes: expected an integer, got True"),
    (("nodes", 1, 0, "src"), True, r"genotype\.nodes\[1\]\[0\]\.src: expected an integer"),
    (("version",), True, r"genotype\.version: expected an integer, got True"),
    (("dims",), {"patch": 4, "image": 8, "depth": 1, "classes": 2},
     r"genotype\.dims\.embed: missing required key"),
    (("nodes", 1, 1, "op"), {"kind": "msa"},
     r"genotype\.nodes\[1\]\[1\]\.op: OpSpec: msa requires a positive integer head count"),
    (("nodes", 1, 1, "op"), {"kind": "msa", "heads": 5},
     r"genotype: Genotype: node 3 keeps msa_h5, but embedding dim 8 is not divisible "
     r"by 5 heads"),
], ids=["channels-null", "classes-true", "src-true", "version-true", "embed-missing",
        "msa-without-heads", "msa-heads-not-dividing-embed"])
def test_genotype_type_errors_name_their_path(path, value, message):
    doc = genotype_to_json(searched_encoder_genotype(DESK, depth=1, heads=2))
    set_json_path(doc, path, value)
    with pytest.raises(GenotypeError, match=message):
        genotype_from_json(doc)


GENOTYPE_PATHS = list(json_paths(genotype_to_json(
    searched_encoder_genotype(DESK, depth=2, heads=2))))


@settings(max_examples=400)
@given(st.sampled_from(GENOTYPE_PATHS), JSON_VALUES)
def test_any_json_value_at_a_genotype_path_loads_or_raises_genotype_error(path, value):
    doc = genotype_to_json(searched_encoder_genotype(DESK, depth=2, heads=2))
    set_json_path(doc, path, value)
    try:
        genotype_from_json(doc)
    except GenotypeError:
        pass


def test_version_and_structure_validation():
    doc = genotype_to_json(searched_encoder_genotype(DESK, depth=1, heads=2))
    doc["version"] = 99
    with pytest.raises(GenotypeError, match="version"):
        genotype_from_json(doc)
    with pytest.raises(GenotypeError, match="zero"):
        make_genotype(DESK, 1, node0=[(0, OpSpec("zero")), (1, OpSpec("identity"))],
                      node1=[(0, OpSpec("identity")), (1, OpSpec("identity"))])
    with pytest.raises(GenotypeError, match="source"):
        make_genotype(DESK, 1, node0=[(2, OpSpec("identity")), (0, OpSpec("identity"))],
                      node1=[(0, OpSpec("identity")), (1, OpSpec("identity"))])


def test_reference_fixture_structure():
    g = searched_encoder_genotype(FULL, depth=12, heads=12, ratio=0.5)
    doc = genotype_to_json(g)
    assert doc["dims"] == {"embed": 768, "patch": 16, "image": 224, "depth": 12,
                           "classes": 100, "channels": 3}
    node0, node1 = doc["nodes"]
    assert node0 == [{"src": 0, "op": {"kind": "mlp", "ratio": 0.5}},
                     {"src": 1, "op": {"kind": "mlp", "ratio": 0.5}}]
    assert node1 == [{"src": 0, "op": {"kind": "mlp", "ratio": 0.5}},
                     {"src": 2, "op": {"kind": "msa", "heads": 12}}]


def test_load_genotype_missing_file(tmp_path):
    with pytest.raises(GenotypeError, match="not found"):
        load_genotype(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(GenotypeError, match="invalid JSON"):
        load_genotype(bad)
