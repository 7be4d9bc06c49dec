import collections
import gc
import re
import weakref

import numpy as np
import pytest

from dasvit import (DerivedModel, OpSpec, Supernet, Tensor, backward,
                    dtype_scope, mixed_edge_forward)
from dasvit import autodiff as ad
from dasvit.config import desk_config
from dasvit.errors import ConfigError, DataError, ShapeError
from dasvit.genotype import make_genotype, searched_encoder_genotype
from dasvit.ops import DEFAULT_CANDIDATES, CellValue, ModelDims, build_op
from dasvit.supernet import CELL_EDGES, MixedEdge
from dasvit.data import Batch, make_synthetic
from dasvit.fairness import skip_fairness
from dasvit.optim import AdamW
from dasvit.search import SearchState, _grad_pass
from oracles import (_base, check_grads, closure_buffers, graph_bytes, graph_nodes, softmax_np,
                     walk_dag)

DESK8 = [
    OpSpec("zero"), OpSpec("identity"),
    OpSpec("msa", heads=2), OpSpec("msa", heads=4), OpSpec("msa", heads=8),
    OpSpec("mlp", ratio=0.5), OpSpec("mlp", ratio=3.0), OpSpec("mlp", ratio=4.0),
]
DIMS = ModelDims(dim=8, patch=4, image=8, classes=2)


def _supernet(layers=1, candidates=None, seed=0, **kw):
    cands = DESK8 if candidates is None else candidates
    return Supernet(DIMS, cands, layers, np.random.default_rng(seed), **kw)


def _cell(sup, a, b):
    """Layer 0 of `sup` over the tensors `a` and `b`."""
    return sup.cell(0, CellValue(a), CellValue(b), sup.alpha.edge_rows())


def test_mixed_edge_uniform_over_zero_identity_halves_input(rng):
    with dtype_scope("float64"):
        ops = [build_op(OpSpec("zero"), 8, rng), build_op(OpSpec("identity"), 8, rng)]
        x = Tensor(rng.standard_normal((2, 3, 8)))
        w = ad.softmax(Tensor(np.zeros(2)))
        out = mixed_edge_forward(CellValue(x), ops, w)
        np.testing.assert_allclose(out.data, 0.5 * x.data, atol=1e-12)
        # an edge of Zero candidates alone still yields zeros of the input's shape
        only_zero = mixed_edge_forward(CellValue(x), ops[:1],
                                       ad.softmax(Tensor(np.zeros(1))))
        np.testing.assert_array_equal(only_zero.data, np.zeros_like(x.data))


def test_mixed_edge_saturated_identity_passes_input(rng):
    with dtype_scope("float64"):
        ops = [build_op(s, 8, rng) for s in DESK8]
        logits = np.zeros(8)
        logits[1] = 30.0
        x = Tensor(rng.standard_normal((1, 3, 8)))
        out = mixed_edge_forward(CellValue(x), ops, ad.softmax(Tensor(logits)))
        np.testing.assert_allclose(out.data, x.data, atol=1e-9)


def test_mixed_edge_matches_external_loop_oracle(rng):
    with dtype_scope("float64"):
        ops = [build_op(s, 8, rng) for s in DESK8]
        logits = rng.standard_normal(8)
        x = rng.standard_normal((1, 3, 8))
        out = mixed_edge_forward(CellValue(Tensor(x)), ops,
                                 ad.softmax(Tensor(logits))).data
        w = softmax_np(logits)
        expected = np.zeros_like(x)
        for k, op in enumerate(ops):
            expected += w[k] * op.forward(CellValue(Tensor(x))).data
        rel = np.abs(out - expected).max() / np.abs(expected).max()
        assert rel < 1e-6


def test_mixed_edge_empty_candidates_is_an_error(rng):
    with pytest.raises(ConfigError, match="candidate"):
        mixed_edge_forward(CellValue(Tensor(np.zeros((1, 2, 4)))), [], Tensor(np.zeros(0)))


def _harden(sup, assignment):
    """Set shared logits so each edge saturates on the named candidate."""
    logits = np.zeros_like(sup.alpha.logits.data)
    for edge, name in enumerate(assignment):
        k = [s.name for s in sup.candidates].index(name)
        logits[edge, k] = 40.0
    sup.alpha.logits.data = logits


def test_cell_all_zero_edges_outputs_zero(rng):
    with dtype_scope("float64"):
        sup = _supernet()
        _harden(sup, ["zero"] * 5)
        x = Tensor(rng.standard_normal((2, 3, 8)))
        out = _cell(sup, x, x)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_cell_identity_into_n0_zero_into_n1_adds_inputs(rng):
    with dtype_scope("float64"):
        sup = _supernet()
        _harden(sup, ["identity", "identity", "zero", "zero", "zero"])
        a = Tensor(rng.standard_normal((2, 3, 8)))
        b = Tensor(rng.standard_normal((2, 3, 8)))
        out = _cell(sup, a, b)
        np.testing.assert_allclose(out.data, a.data + b.data, atol=1e-9)


def test_cell_matches_dag_walker_oracle(rng):
    with dtype_scope("float64"):
        sup = _supernet(candidates=DESK8[:6])
        sup.alpha.logits.data = rng.standard_normal(sup.alpha.logits.shape)
        a = rng.standard_normal((1, 3, 8))
        b = rng.standard_normal((1, 3, 8))

        def edge_fn(edge):
            w = softmax_np(sup.alpha.logits.data[edge].astype(np.float64))

            def fn(value):
                total = np.zeros_like(value)
                for k, op in enumerate(sup.cells[0][edge].ops):
                    total += w[k] * op.forward(CellValue(Tensor(value))).data
                return total

            return fn

        edges = {pair: edge_fn(i) for i, pair in enumerate(CELL_EDGES)}
        values = walk_dag([a, b], num_nodes=2, edges=edges)
        expected = values[2] + values[3]
        got = _cell(sup, Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-11)


def test_chain_dataflow_oracle_stands_alone(rng):
    # the single-input four-node chain: x1 = f01(x0); x2 = f02(x0) + f12(x1);
    # x3 = f03(x0) + f13(x1) + f23(x2)
    x0 = rng.standard_normal((2, 2))
    fns = {(i, j): (lambda s: (lambda v: v * s))(0.1 * (i + 1) + j)
           for j in (1, 2, 3) for i in range(j)}
    values = walk_dag([x0], num_nodes=3, edges=fns)
    x1 = fns[(0, 1)](x0)
    x2 = fns[(0, 2)](x0) + fns[(1, 2)](x1)
    x3 = fns[(0, 3)](x0) + fns[(1, 3)](x1) + fns[(2, 3)](x2)
    np.testing.assert_allclose(values[1], x1)
    np.testing.assert_allclose(values[2], x2)
    np.testing.assert_allclose(values[3], x3)


def test_cell_rejects_mismatched_inputs(rng):
    sup = _supernet()
    with pytest.raises(ShapeError, match="cell"):
        _cell(sup, Tensor(np.zeros((1, 3, 8))), Tensor(np.zeros((1, 4, 8))))


def test_first_layer_receives_embedding_twice(rng):
    with dtype_scope("float64"):
        sup = _supernet(layers=1, seed=3)
        images = make_synthetic(2, 2, 8, seed=1).images.astype(np.float64)
        logits = sup.forward(images).data
        z0, _ = sup.selector.select(sup.embed.embed(images))
        v = CellValue(z0)
        expected = sup.embed.classify(sup.cell(0, v, v, sup.alpha.edge_rows())).data
        np.testing.assert_array_equal(logits, expected)


def test_forward_deterministic_for_fixed_seed():
    images = make_synthetic(2, 2, 8, seed=1).images
    a = _supernet(layers=2, seed=9).forward(images).data
    b = _supernet(layers=2, seed=9).forward(images).data
    np.testing.assert_array_equal(a, b)


def test_edge_softmax_weights_sum_to_one(rng):
    with dtype_scope("float64"):
        sup = _supernet(layers=2)
        sup.alpha.logits.data = rng.standard_normal(sup.alpha.logits.shape) * 3
        w = sup.alpha.weights()
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)


def test_cell_is_linear_in_one_edge_output(rng):
    with dtype_scope("float64"):
        sup = _supernet(candidates=[OpSpec("zero"), OpSpec("identity"),
                                    OpSpec("mlp", ratio=0.5)])
        sup.alpha.logits.data = rng.standard_normal(sup.alpha.logits.shape)
        a = Tensor(rng.standard_normal((1, 3, 8)))
        b = Tensor(rng.standard_normal((1, 3, 8)))
        base = _cell(sup, a, b).data.copy()

        class Doubler:
            spec = OpSpec("identity")

            def forward(self, v):
                return v.x * 2.0

            def named_parameters(self):
                return {}

        # doubling the identity output on edge 1 (in1 -> n0) must reproduce a
        # manual cell walk with that edge's contribution counted twice
        original_ops = {e: list(sup.cells[0][e].ops) for e in range(5)}
        sup.cells[0][1].ops[1] = Doubler()
        boosted = _cell(sup, a, b).data

        def cell_manual(scale):
            def mix(edge, value):
                w = softmax_np(sup.alpha.logits.data[edge].astype(np.float64))
                total = np.zeros_like(value)
                for k, op in enumerate(original_ops[edge]):
                    out = op.forward(CellValue(Tensor(value))).data
                    if edge == 1 and k == 1:
                        out = out * scale
                    total += w[k] * out
                return total

            n0 = mix(0, a.data) + mix(1, b.data)
            n1 = mix(2, a.data) + mix(3, b.data) + mix(4, n0)
            return n0 + n1

        np.testing.assert_allclose(boosted, cell_manual(2.0), rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(base, cell_manual(1.0), rtol=1e-9, atol=1e-11)


def test_alpha_gradients_nonzero_when_all_candidates_parameterized(rng):
    with dtype_scope("float64"):
        sup = _supernet(layers=1, candidates=[OpSpec("msa", heads=2),
                                              OpSpec("mlp", ratio=0.5)])
        images = make_synthetic(2, 3, 8, seed=2).images.astype(np.float64)
        labels = make_synthetic(2, 3, 8, seed=2).labels
        loss = ad.cross_entropy(sup.forward(images), labels)
        backward(loss)
        grad = sup.alpha.logits.grad
        assert grad is not None
        assert (np.abs(grad) > 0).all()


def test_float32_backward_leaves_every_gradient_float32(monkeypatch):
    handed = set()
    accumulate = ad._accumulate
    monkeypatch.setattr(ad, "_accumulate",
                        lambda t, g: handed.add(np.asarray(g).dtype) or accumulate(t, g))
    sup = _supernet(layers=1,
                    candidates=[OpSpec("zero"), OpSpec("msa", heads=2),
                                OpSpec("mlp", ratio=0.5)])
    ds = make_synthetic(2, 3, 8, seed=2)
    loss = ad.cross_entropy(sup.forward(ds.images), ds.labels) + skip_fairness(sup.alpha)
    assert loss.dtype == np.float32
    backward(loss)
    assert handed == {np.dtype(np.float32)}
    grads = {n: p.grad for n, p in sup.weight_parameters().items()}
    grads["alpha.logits"] = sup.alpha.logits.grad
    assert {n: g.dtype for n, g in grads.items()} == dict.fromkeys(grads, np.float32)


def test_full_lambda_supernet_lists_only_weights_it_reads():
    """At lambda = 1 the selector scores nothing, so its projections are not
    weights to step, and every listed weight gets a gradient."""
    sup = _supernet(layers=1, lam=1.0)
    ds = make_synthetic(2, 3, 8, seed=2)
    backward(ad.cross_entropy(sup.forward(ds.images), ds.labels))
    assert not [n for n in sup.named_parameters() if n.startswith("selector.")]
    AdamW(sup.weight_parameters(), lr=1e-3).step()


def test_hardened_supernet_matches_derived_model(rng):
    with dtype_scope("float64"):
        sup = _supernet(layers=2, seed=4, lam=1.0)
        _harden(sup, ["mlp_r0.5", "mlp_r0.5", "mlp_r0.5", "zero", "msa_h4"])
        genotype = make_genotype(
            DIMS, 2,
            node0=[(0, OpSpec("mlp", ratio=0.5)), (1, OpSpec("mlp", ratio=0.5))],
            node1=[(2, OpSpec("msa", heads=4)), (0, OpSpec("mlp", ratio=0.5))])
        derived = DerivedModel.from_supernet(sup, genotype)
        images = make_synthetic(2, 4, 8, seed=5).images.astype(np.float64)
        a = sup.forward(images).data
        b = derived.forward(images).data
        assert np.abs(a - b).max() < 1e-5


def test_from_supernet_refuses_a_pruned_candidate():
    sup = _supernet(layers=1, candidates=[OpSpec("zero"), OpSpec("identity"),
                                          OpSpec("mlp", ratio=0.5)])
    genotype = make_genotype(
        DIMS, 1, node0=[(0, OpSpec("msa", heads=4)), (1, OpSpec("identity"))],
        node1=[(2, OpSpec("mlp", ratio=0.5)), (0, OpSpec("identity"))])
    with pytest.raises(DataError, match="no array 'layers.0.n0.0.msa_h4.wq'"):
        DerivedModel.from_supernet(sup, genotype)


def test_supernet_refuses_duplicate_candidate_names():
    with pytest.raises(ConfigError, match="unique"):
        _supernet(candidates=[OpSpec("mlp", ratio=0.5), OpSpec("identity"),
                              OpSpec("mlp", ratio=0.5)])


@pytest.mark.parametrize("key, built, refused", [
    ("shared_alpha", True, (False, None, 1)), ("pre_norm", True, (False, None, 1)),
    ("final_norm", True, (False, None, 1)), ("grad_mode", "score_scaling", ("gather_only", None)),
], ids=["shared_alpha", "pre_norm", "final_norm", "grad_mode"])
def test_supernet_builds_only_the_one_model_shape(key, built, refused):
    """Each keyword the benchmark still passes accepts only the one model's value."""
    cfg = desk_config()
    for value in refused:
        with pytest.raises(ConfigError,
                           match=re.escape(f"Supernet: {key}={value!r}; only {built!r}")):
            Supernet(cfg.model.dims(), list(cfg.candidates), 1,
                     np.random.default_rng(0), **{key: value})
    assert Supernet(cfg.model.dims(), list(cfg.candidates), 1,
                    np.random.default_rng(0), **{key: built}).alpha.logits.shape == (5, 8)


def test_mixed_edge_and_cell_gradients(rng):
    with dtype_scope("float64"):
        cands = [OpSpec("zero"), OpSpec("identity"), OpSpec("msa", heads=2),
                 OpSpec("mlp", ratio=0.5)]
        edge = MixedEdge(cands, dim=4, rng=rng)
        alpha = Tensor(rng.standard_normal(4), requires_grad=True)
        x = Tensor(rng.standard_normal((1, 2, 4)), requires_grad=True)
        proj = Tensor(rng.standard_normal((1, 2, 4)))
        wrt = [alpha, x] + list(edge.named_parameters().values())

        def loss():
            return (edge.forward(CellValue(x), ad.softmax(alpha)) * proj).sum()

        check_grads(loss, wrt)


def _desk_weight_pass():
    """A 2-layer desk supernet and a batch of 16 desk images."""
    cfg = desk_config()
    net = Supernet.from_config(cfg, list(cfg.candidates), 2, np.random.default_rng(0))
    images = np.random.default_rng(1).standard_normal((16, 8, 8, 3)).astype(np.float32)
    return net, images


def test_desk_weight_pass_records_a_pinned_node_count(monkeypatch):
    """One weight pass of the 2-layer desk supernet. A biased projection, an
    MSA or MLP candidate with its norm's scale and shift, and a mixed edge
    are one node each; each value a pre-norm op reads is normalized once, the
    α table takes one softmax, and only the final norm records an
    ``affine``. The count is pinned: it may move only with a change that
    means to move it."""
    net, images = _desk_weight_pass()
    recorded = collections.Counter()
    from_op = Tensor._from_op

    def spy(data, parents, backward_fn, op):
        recorded[op] += 1
        return from_op(data, parents, backward_fn, op)

    monkeypatch.setattr(Tensor, "_from_op", staticmethod(spy))
    with ad.frozen(net.alpha_parameters().values()):
        backward(ad.cross_entropy(net.forward(images), np.arange(16) % 2))
    assert recorded == {
        "matmul": 5, "normalize": 5, "affine": 1, "self_attention": 30,
        "feed_forward": 30, "index": 10, "softmax": 1, "weighted_sum": 10, "add": 9,
        "reshape": 4, "transpose": 2, "concat": 2, "mul": 2, "broadcast_to": 1,
        "mean": 1, "sigmoid": 1, "cross_entropy": 1}
    assert sum(recorded.values()) == 115


def test_desk_weight_pass_holds_a_pinned_graph_size():
    """The bytes the graph of the weight pass above holds until its
    backward: what its closures keep (`oracles.graph_bytes`), as no node
    holds its own output. Pinned like the node count, so that a node that
    starts holding one more array fails here and not only in the benchmark:
    q, k and v kept by each of the 30 MSA candidates would add 90
    (16, 3, 32) float32 arrays, 552,960 bytes."""
    net, images = _desk_weight_pass()
    with ad.frozen(net.alpha_parameters().values()):
        loss = ad.cross_entropy(net.forward(images), np.arange(16) % 2)
        assert graph_bytes(loss) == 136_032
        backward(loss)


def _mid_pass_graph_bytes(phase):
    """`graph_bytes` of one pass of a 2-layer supernet of the eight-op
    registry at the benchmark's mid geometry, D=192 over 16 images of 32x32
    (64 patches), with `phase`'s other side frozen; then its backward."""
    dims = ModelDims(dim=192, patch=4, image=32, classes=10)
    net = Supernet(dims, list(DEFAULT_CANDIDATES), 2, np.random.default_rng(0))
    images = np.random.default_rng(1).standard_normal((16, 32, 32, 3)).astype(np.float32)
    other = net.alpha_parameters() if phase == "weight" else net.weight_parameters()
    with ad.frozen(other.values()):
        loss = ad.cross_entropy(net.forward(images), np.arange(16) % 10)
        held = graph_bytes(loss)
        backward(loss)
    return held


def test_mid_weight_pass_holds_a_pinned_graph_size():
    """The same pin at the benchmark's mid geometry."""
    assert _mid_pass_graph_bytes("weight") == 28_751_584


def test_mid_alpha_pass_holds_a_pinned_graph_size():
    """The α pass at the mid geometry, every weight frozen: each mixed edge
    also keeps its candidates' outputs, for α's gradient."""
    assert _mid_pass_graph_bytes("alpha") == 22_233_408


def _recorded_outputs(monkeypatch):
    """(op, weak reference to the output's buffer) of every node recorded
    from here on."""
    recorded = []
    from_op = Tensor._from_op

    def spy(data, parents, backward_fn, op):
        out = from_op(data, parents, backward_fn, op)
        if out.requires_grad:
            recorded.append((op, weakref.ref(_base(data))))
        return out

    monkeypatch.setattr(Tensor, "_from_op", staticmethod(spy))
    return recorded


def _read_buffers(loss):
    """Ids of the buffers the closures of the graph behind `loss` read."""
    return {id(b) for node, interior in graph_nodes(loss) if interior
            for b in closure_buffers(node)}


def test_weight_pass_outputs_live_only_while_a_closure_reads_them(monkeypatch):
    """Holding only the loss of a desk weight pass, an op output is alive
    exactly when some backward closure reads it: every candidate output,
    edge, node and cell sum has been freed."""
    net, images = _desk_weight_pass()
    recorded = _recorded_outputs(monkeypatch)
    with ad.frozen(net.alpha_parameters().values()):
        loss = ad.cross_entropy(net.forward(images), np.arange(16) % 2)
        read = _read_buffers(loss) | {id(loss.data)}
        alive = [(op, ref()) for op, ref in recorded if ref() is not None]
        assert all(id(buf) in read for _, buf in alive), \
            sorted({op for op, buf in alive if id(buf) not in read})
        freed = collections.Counter(op for op, ref in recorded if ref() is None)
        assert [freed[op] for op in ("self_attention", "feed_forward", "weighted_sum", "add")] \
            == [30, 30, 10, 9]
        backward(loss)


def test_alpha_pass_keeps_every_weighted_sum_term(monkeypatch):
    """With α taking a gradient, each mixed edge's backward reads its terms,
    so every term outlives the forward while only the loss is held."""
    net, images = _desk_weight_pass()
    terms = []
    weighted_sum = ad.weighted_sum

    def spy(weights, parts, slots):
        terms.extend(weakref.ref(_base(t.data)) for t in parts)
        return weighted_sum(weights, parts, slots)

    monkeypatch.setattr(ad, "weighted_sum", spy)
    with ad.frozen(net.weight_parameters().values()):
        loss = ad.cross_entropy(net.forward(images), np.arange(16) % 2)
    assert len(terms) == 10 * 7  # every edge's candidates but Zero
    assert all(ref() is not None for ref in terms)
    backward(loss)


def test_derived_training_pass_frees_candidate_outputs_and_sums(monkeypatch):
    """Holding only the loss of a derived model's training forward, no
    candidate output and no node or cell sum is alive."""
    model = _desk_models()["derived"]
    images = np.random.default_rng(2).standard_normal((4, 8, 8, 3)).astype(np.float32)
    recorded = _recorded_outputs(monkeypatch)
    loss = ad.cross_entropy(model.forward(images), np.arange(4) % 2)
    outputs = [ref for op, ref in recorded if op in ("self_attention", "feed_forward", "add")]
    assert len(outputs) == 2 + 6 + 7  # the embedding's add and two cells' node and cell sums
    assert all(ref() is None for ref in outputs)
    backward(loss)


def _desk_search_state():
    """The desk supernet above in a search state, and its batch as a
    validation batch."""
    net, images = _desk_weight_pass()
    batch = Batch(images=images, labels=np.arange(16) % 2, indices=np.arange(16),
                  split="val")
    state = SearchState(model=net, alpha=net.alpha,
                        w_opt=AdamW(net.weight_parameters(), lr=0.01),
                        a_opt=AdamW(net.alpha_parameters(), lr=0.01),
                        fairness=desk_config().fairness)
    return state, batch


def test_desk_alpha_pass_records_a_pinned_node_count(monkeypatch):
    """One fairness-regularized α pass of the 2-layer desk supernet, weights
    frozen: the 115 nodes of the weight pass above, 14 for the two fairness
    terms and 4 that weight and add them to the cross-entropy. Each term
    reads one (edge, kind) mass table, a softmax times a constant membership
    matrix: then a mean for the skip term, and a two-sided hinge and two sums
    for the type term."""
    state, batch = _desk_search_state()
    recorded = collections.Counter()
    from_op = Tensor._from_op

    def spy(data, parents, backward_fn, op):
        recorded[op] += 1
        return from_op(data, parents, backward_fn, op)

    monkeypatch.setattr(Tensor, "_from_op", staticmethod(spy))
    _grad_pass(state, batch, freeze=state.w_opt, fair=True)
    assert recorded == {
        "matmul": 7, "normalize": 5, "affine": 1, "self_attention": 30,
        "feed_forward": 30, "index": 10, "softmax": 3, "weighted_sum": 10, "add": 12,
        "reshape": 4, "transpose": 2, "concat": 2, "mul": 6, "broadcast_to": 1,
        "mean": 2, "sigmoid": 1, "cross_entropy": 1, "sub": 2, "relu": 2, "sum": 2}
    assert sum(recorded.values()) == 133


def test_desk_passes_leave_no_cycle_for_the_collector():
    """One desk weight pass and one fairness-regularized α pass, each with
    its backward, under a disabled cyclic collector: a full collection
    afterwards finds nothing, so every graph they built was freed by
    reference counting alone."""
    state, batch = _desk_search_state()
    gc.collect()
    gc.disable()
    try:
        _grad_pass(state, batch, freeze=state.a_opt)
        _grad_pass(state, batch, freeze=state.w_opt, fair=True)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _desk_models():
    """A 2-layer desk supernet and a depth-2 searched encoder."""
    cfg = desk_config()
    sup = Supernet(cfg.model.dims(), list(cfg.candidates), 2, np.random.default_rng(0))
    derived = DerivedModel(searched_encoder_genotype(cfg.model.dims(), 2, heads=4),
                           np.random.default_rng(1))
    return {"supernet": sup, "derived": derived}


def _recorded_pass(monkeypatch, model, images, labels):
    """(nodes recorded by op, logits, parameter gradients) of one pass."""
    recorded = collections.Counter()
    from_op = Tensor._from_op

    def spy(data, parents, backward_fn, op):
        recorded[op] += 1
        return from_op(data, parents, backward_fn, op)

    params = model.named_parameters()
    for p in params.values():
        p.grad = None
    with monkeypatch.context() as m:
        m.setattr(Tensor, "_from_op", staticmethod(spy))
        logits = model.forward(images)
        backward(ad.cross_entropy(logits, labels))
    return recorded, logits.data, {n: p.grad for n, p in params.items()}


@pytest.mark.parametrize("kind", ["supernet", "derived"])
def test_each_distinct_cell_input_is_normalized_once(kind, monkeypatch):
    """A 2-layer forward records one `normalize` node for each value a
    pre-norm op reads (the embedding, both first-node sums and the first
    cell's output) plus the class row's, and the supernet one α softmax.
    Against the pass where each op normalizes alone, the logits agree bit for
    bit and the float64 gradients to 1e-9: only the normalization backward's
    summation order differs."""
    with dtype_scope("float64"):
        model = _desk_models()[kind]
        images = np.random.default_rng(2).standard_normal((4, 8, 8, 3))
        labels = np.arange(4) % 2
        recorded, logits, grads = _recorded_pass(monkeypatch, model, images, labels)
        assert recorded["normalize"] == 5
        assert recorded["softmax"] == (1 if kind == "supernet" else 0)
        monkeypatch.setattr(CellValue, "normed", property(lambda v: ad.normalize(v.x)))
        alone, logits_alone, grads_alone = _recorded_pass(monkeypatch, model, images,
                                                          labels)
    ops_per_layer = 6 * 5 if kind == "supernet" else 4
    assert alone["normalize"] == 2 * ops_per_layer + 1
    np.testing.assert_array_equal(logits, logits_alone)
    assert grads.keys() == grads_alone.keys()
    for name, g in grads.items():
        np.testing.assert_allclose(g, grads_alone[name], rtol=1e-9,
                                   atol=1e-9 * np.abs(grads_alone[name]).max(), err_msg=name)
