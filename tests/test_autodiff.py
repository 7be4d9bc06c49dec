import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dasvit import Tensor, backward, dtype_scope
from dasvit import autodiff as ad
from dasvit.errors import DasvitError, NonFiniteError, ShapeError
from dasvit.ops import MlpOp, OpSpec
from oracles import (check_grads, gelu_expression, gelu_grad_expression,
                     layer_norm_expression)


def t64(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def test_softmax_uniform_logits():
    out = ad.softmax(Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), atol=1e-12)


@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8))
def test_softmax_simplex_property(logits):
    out = ad.softmax(Tensor(np.array(logits, dtype=np.float64))).data
    assert (out >= 0).all()
    assert abs(out.sum() - 1.0) < 1e-12


def test_matmul_identity(rng):
    a = rng.standard_normal((3, 3))
    out = ad.matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_allclose(out.data, a, atol=1e-12)


def test_layernorm_constant_row_is_zero():
    out = ad.layer_norm(Tensor(np.full((2, 4), 3.7)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-9)


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    backward(x.sum())
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_square_analytic():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    backward((x * x).sum())
    np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-12)


def test_backward_rejects_nonscalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError, match="scalar"):
        backward(x + x)


def test_repeated_backward_accumulates():
    x = Tensor(np.array([3.0]), requires_grad=True)
    for _ in range(2):  # one graph per pass
        loss = (x * x).sum()
        backward(loss)
    np.testing.assert_allclose(x.grad, [12.0], atol=1e-12)
    # a graph is consumed by its backward
    with pytest.raises(DasvitError, match="consumed by an earlier backward"):
        backward(loss)
    # also through a fresh graph, before any gradient moves
    with pytest.raises(DasvitError, match="consumed by an earlier backward"):
        backward((x * x).sum() + loss)
    np.testing.assert_allclose(x.grad, [12.0], atol=1e-12)


def test_backward_frees_an_intermediate_before_the_loss_is_dropped():
    x = Tensor(np.arange(4.0), requires_grad=True)
    h = x * 2.0
    loss = (h * h).sum()
    held = weakref.ref(h.data)
    del h
    gc.collect()
    assert held() is not None  # the graph still holds it
    backward(loss)
    assert held() is None
    np.testing.assert_array_equal(x.grad, 8.0 * np.arange(4.0))


def test_fanout_accumulation_matches_per_path_sum(rng):
    with dtype_scope("float64"):
        x0 = rng.standard_normal(4)

        x = Tensor(x0.copy(), requires_grad=True)
        backward((x * x).sum() + (x * 3.0).sum())
        combined = x.grad.copy()

        xa = Tensor(x0.copy(), requires_grad=True)
        backward((xa * xa).sum())
        xb = Tensor(x0.copy(), requires_grad=True)
        backward((xb * 3.0).sum())
        np.testing.assert_allclose(combined, xa.grad + xb.grad, atol=1e-12)


def test_shape_error_names_primitive_and_shapes():
    with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError, match="add"):
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones(4)))


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_result_is_an_error():
    with dtype_scope("float64"):
        big = Tensor(np.array([1e300]))
        with pytest.raises(NonFiniteError, match="mul"):
            big * big


@pytest.mark.filterwarnings("ignore:overflow")
def test_primitive_checks_come_back_after_a_block_that_raises():
    big = Tensor(np.array([1e30], dtype=np.float32))
    with pytest.raises(KeyError):
        with ad.primitive_checks(False):
            assert np.isinf((big * big).data).all()
            with ad.primitive_checks(True), pytest.raises(NonFiniteError, match="mul"):
                big * big
            big * big  # the inner block restored "off"
            raise KeyError("the block fails")
    with pytest.raises(NonFiniteError, match="mul"):
        big * big


@pytest.mark.filterwarnings("ignore:overflow")
def test_finite_pass_replays_a_nonfinite_pass_with_checks_on():
    x = Tensor(np.array([1e20], dtype=np.float32), requires_grad=True)
    checked = []

    def forward():
        checked.append(ad._CHECK_PRIMITIVES)
        h = ad.relu(x)
        return (ad.gelu(h * h).sum(),)

    with pytest.raises(NonFiniteError, match="^mul produced non-finite values$"):
        ad.finite_pass(forward)
    assert checked == [False, True] and ad._CHECK_PRIMITIVES

    x.data[...] = 2.0
    (loss,) = ad.finite_pass(forward)
    assert checked[2:] == [False] and np.isfinite(loss.data)


def test_mean_backward_builds_no_float64_gradient(monkeypatch):
    handed = []
    accumulate = ad._accumulate
    monkeypatch.setattr(ad, "_accumulate",
                        lambda t, g: handed.append(g.dtype) or accumulate(t, g))
    x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    backward(x.mean(axis=1).sum() + x.mean(axis=(0, 1)))
    assert set(handed) == {np.dtype(np.float32)}
    assert x.grad.dtype == np.float32
    np.testing.assert_allclose(x.grad, np.full((2, 3), 1 / 3 + 1 / 6), rtol=1e-6)


def test_index_accumulates_duplicate_array_indices():
    with dtype_scope("float64"):
        x = Tensor(np.arange(6.0).reshape(1, 3, 2), requires_grad=True)
        out = x[np.arange(1)[:, None], np.array([[1, 1]])]
        backward(out.sum())
        np.testing.assert_array_equal(x.grad[0], [[0, 0], [2, 2], [0, 0]])


def test_forward_backward_deterministic_for_fixed_seed():
    def run():
        rng = np.random.default_rng(123)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        loss = ad.gelu(x @ w).sum()
        backward(loss)
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    first, second = run(), run()
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


# -- finite-difference checks for every primitive -------------------------------------


def _proj(rng, shape):
    return Tensor(rng.standard_normal(shape))


PRIMITIVE_CASES = [
    "add", "add_broadcast", "sub", "mul", "mul_broadcast",
    "matmul_2d", "matmul_batched", "matmul_batched_2d", "matmul_4d_2d",
    "matmul_transposed_view_2d", "matmul_bias_3d", "matmul_bias_2d",
    "scalar_fanout", "transpose", "reshape", "broadcast_to", "concat", "index",
    "index_array_2d", "index_array_3d", "sum_axis", "mean_axis", "softmax",
    "self_attention", "layer_norm", "layer_norm_affine", "weighted_sum_frozen_term",
    "gelu", "feed_forward", "relu", "sigmoid", "cross_entropy",
]


@pytest.mark.parametrize("case", PRIMITIVE_CASES)
def test_primitive_gradients_match_finite_differences(case, rng):
    with dtype_scope("float64"):
        if case in ("add", "sub", "mul"):
            a, b = t64(rng, 2, 3), t64(rng, 2, 3)
            op = {"add": ad.add, "sub": ad.sub, "mul": ad.mul}[case]
            p = _proj(rng, (2, 3))
            check_grads(lambda: (op(a, b) * p).sum(), [a, b])
        elif case in ("add_broadcast", "mul_broadcast"):
            a, b = t64(rng, 2, 3, 4), t64(rng, 4)
            op = ad.add if case == "add_broadcast" else ad.mul
            p = _proj(rng, (2, 3, 4))
            check_grads(lambda: (op(a, b) * p).sum(), [a, b])
        elif case == "matmul_2d":
            a, b = t64(rng, 3, 4), t64(rng, 4, 2)
            p = _proj(rng, (3, 2))
            check_grads(lambda: ((a @ b) * p).sum(), [a, b])
        elif case == "matmul_batched":
            a, b = t64(rng, 2, 3, 4), t64(rng, 2, 4, 2)
            p = _proj(rng, (2, 3, 2))
            check_grads(lambda: ((a @ b) * p).sum(), [a, b])
        elif case == "matmul_batched_2d":
            a, b = t64(rng, 2, 3, 4), t64(rng, 4, 2)
            p = _proj(rng, (2, 3, 2))
            check_grads(lambda: ((a @ b) * p).sum(), [a, b])
        elif case == "matmul_4d_2d":
            a, b = t64(rng, 2, 3, 2, 4), t64(rng, 4, 5)
            p = _proj(rng, (2, 3, 2, 5))
            check_grads(lambda: ((a @ b) * p).sum(), [a, b])
        elif case == "matmul_transposed_view_2d":
            a, b = t64(rng, 2, 4, 3), t64(rng, 4, 2)
            p = _proj(rng, (2, 3, 2))
            check_grads(lambda: ((a.transpose((0, 2, 1)) @ b) * p).sum(), [a, b])
        elif case in ("matmul_bias_3d", "matmul_bias_2d"):
            lead = (2, 3) if case == "matmul_bias_3d" else (3,)
            a, w, c = t64(rng, *lead, 4), t64(rng, 4, 2), t64(rng, 2)
            p = _proj(rng, lead + (2,))
            check_grads(lambda: (ad.matmul(a, w, bias=c) * p).sum(), [a, w, c])
        elif case == "scalar_fanout":
            a = Tensor(np.array(0.7), requires_grad=True)
            check_grads(lambda: a * a + a, [a])
        elif case == "transpose":
            a = t64(rng, 2, 3, 4)
            p = _proj(rng, (4, 2, 3))
            check_grads(lambda: (a.transpose((2, 0, 1)) * p).sum(), [a])
        elif case == "reshape":
            a = t64(rng, 2, 6)
            p = _proj(rng, (3, 4))
            check_grads(lambda: (a.reshape((3, 4)) * p).sum(), [a])
        elif case == "broadcast_to":
            a = t64(rng, 1, 3)
            p = _proj(rng, (4, 3))
            check_grads(lambda: (ad.broadcast_to(a, (4, 3)) * p).sum(), [a])
        elif case == "concat":
            a, b = t64(rng, 2, 2, 3), t64(rng, 2, 4, 3)
            p = _proj(rng, (2, 6, 3))
            check_grads(lambda: (ad.concat([a, b], axis=1) * p).sum(), [a, b])
        elif case == "index":
            a = t64(rng, 3, 4, 2)
            p = _proj(rng, (2, 2))
            check_grads(lambda: (a[1:, 2] * p).sum(), [a])
        elif case == "index_array_2d":
            a = t64(rng, 2, 5)
            rows, idx = np.arange(2)[:, None], np.array([[4, 0, 0], [2, 3, 1]])
            p = _proj(rng, (2, 3))
            check_grads(lambda: (a[rows, idx] * p).sum(), [a])
        elif case == "index_array_3d":
            a = t64(rng, 2, 5, 3)
            rows, idx = np.arange(2)[:, None], np.array([[4, 0], [2, 2]])
            p = _proj(rng, (2, 2, 3))
            check_grads(lambda: (a[rows, idx] * p).sum(), [a])
        elif case == "sum_axis":
            a = t64(rng, 2, 3, 4)
            p = _proj(rng, (2, 4))
            check_grads(lambda: (a.sum(axis=1) * p).sum(), [a])
        elif case == "mean_axis":
            a = t64(rng, 2, 3, 4)
            p = _proj(rng, (3, 4))
            check_grads(lambda: (a.mean(axis=0) * p).sum(), [a])
        elif case == "softmax":
            a = t64(rng, 2, 5)
            p = _proj(rng, (2, 5))
            check_grads(lambda: (ad.softmax(a) * p).sum(), [a])
        elif case == "self_attention":
            z, wq, wk, wv, wo = (t64(rng, *shape) for shape in ((2, 3, 6),) + ((6, 6),) * 4)
            bo = t64(rng, 6)
            p = _proj(rng, (2, 3, 6))
            check_grads(lambda: (ad.self_attention(z, wq, wk, wv, wo, bo, 2) * p).sum(),
                        [z, wq, wk, wv, wo, bo])
        elif case == "feed_forward":
            z, w1, b1, w2, b2 = (t64(rng, *shape)
                                 for shape in ((2, 3, 4), (4, 5), (5,), (5, 4), (4,)))
            p = _proj(rng, (2, 3, 4))
            check_grads(lambda: (ad.feed_forward(z, w1, b1, w2, b2) * p).sum(),
                        [z, w1, b1, w2, b2])
        elif case == "layer_norm":
            a = t64(rng, 2, 6)
            p = _proj(rng, (2, 6))
            check_grads(lambda: (ad.layer_norm(a) * p).sum(), [a])
        elif case == "layer_norm_affine":
            a, gamma, beta = t64(rng, 2, 3, 6), t64(rng, 6), t64(rng, 6)
            p = _proj(rng, (2, 3, 6))
            check_grads(lambda: (ad.layer_norm(a, gamma, beta) * p).sum(), [a, gamma, beta])
        elif case == "weighted_sum_frozen_term":
            w = t64(rng, 4)
            terms = [t64(rng, 2, 3) for _ in range(3)]
            p = _proj(rng, (2, 3))
            with ad.frozen([terms[1]]):
                check_grads(lambda: (ad.weighted_sum(w, terms, [0, 2, 3]) * p).sum(),
                            [w, terms[0], terms[2]])
            assert terms[1].grad is None
        elif case == "gelu":
            a = t64(rng, 3, 4)
            p = _proj(rng, (3, 4))
            check_grads(lambda: (ad.gelu(a) * p).sum(), [a])
        elif case == "relu":
            a = Tensor(rng.standard_normal((3, 4)) + np.sign(rng.standard_normal((3, 4))),
                       requires_grad=True)
            a.data[np.abs(a.data) < 1e-2] = 0.5  # keep clear of the kink
            p = _proj(rng, (3, 4))
            check_grads(lambda: (ad.relu(a) * p).sum(), [a])
        elif case == "sigmoid":
            a = t64(rng, 3, 4)
            p = _proj(rng, (3, 4))
            check_grads(lambda: (ad.sigmoid(a) * p).sum(), [a])
        elif case == "cross_entropy":
            a = t64(rng, 4, 5)
            labels = np.array([0, 3, 2, 4])
            check_grads(lambda: ad.cross_entropy(a, labels), [a])
        else:  # pragma: no cover
            raise AssertionError(case)


@pytest.mark.parametrize("frozen_side", ["a", "b"])
def test_matmul_rows_frozen_operand_gets_no_gradient(frozen_side, rng):
    with dtype_scope("float64"):
        a, b = t64(rng, 2, 3, 4), t64(rng, 4, 2)
        p = _proj(rng, (2, 3, 2))
        dead, live = (a, b) if frozen_side == "a" else (b, a)
        with ad.frozen([dead]):
            check_grads(lambda: ((a @ b) * p).sum(), [live])
        assert dead.grad is None


def test_matmul_rows_forward_and_input_gradient_match_numpy_bitwise(rng):
    a = rng.standard_normal((16, 33, 192)).astype(np.float32)
    b = rng.standard_normal((192, 768)).astype(np.float32)
    g = rng.standard_normal((16, 33, 768)).astype(np.float32)
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    out = ta @ tb
    np.testing.assert_array_equal(out.data, np.matmul(a, b))
    backward((out * Tensor(g)).sum())
    np.testing.assert_array_equal(ta.grad, np.matmul(g, b.T))
    assert ta.grad.dtype == tb.grad.dtype == np.float32
    # the weight gradient sums all rows in one GEMM: same value, new rounding
    np.testing.assert_allclose(tb.grad, (np.swapaxes(a, 1, 2) @ g).sum(axis=0),
                               rtol=1e-4, atol=1e-4 * np.abs(tb.grad).max())


def test_matmul_rows_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"matmul.*\(2, 3, 4\).*\(5, 6\)"):
        ad.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((5, 6))))


def test_fused_nodes_refuse_mismatched_operands():
    with pytest.raises(ShapeError, match=r"matmul: bias shape \(5,\)"):
        ad.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 6))),
                  bias=Tensor(np.ones(5)))
    with pytest.raises(ShapeError, match="gamma and beta"):
        ad.layer_norm(Tensor(np.ones((2, 4))), gamma=Tensor(np.ones(4)))
    with pytest.raises(ShapeError, match=r"weighted_sum: term shapes \(2, 3\) and \(3, 2\)"):
        ad.weighted_sum(Tensor(np.ones(2)), [Tensor(np.ones((2, 3))),
                                             Tensor(np.ones((3, 2)))], [0, 1])
    z, w, b = Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 4))), Tensor(np.ones(4))
    with pytest.raises(ShapeError, match=r"self_attention: input \(3, 4\) is not \(B, N, D\)"):
        ad.self_attention(Tensor(np.ones((3, 4))), w, w, w, w, b, 2)
    with pytest.raises(ShapeError, match=r"self_attention: weight \(4, 5\) does not fit "
                                         r"input \(2, 3, 4\)"):
        ad.self_attention(z, w, w, Tensor(np.ones((4, 5))), w, b, 2)
    with pytest.raises(ShapeError, match=r"self_attention: bias \(5,\) does not fit"):
        ad.self_attention(z, w, w, w, w, Tensor(np.ones(5)), 2)
    with pytest.raises(ShapeError, match=r"self_attention: width of \(2, 3, 4\) is not "
                                         r"divisible by 3 heads"):
        ad.self_attention(z, w, w, w, w, b, 3)
    with pytest.raises(ShapeError, match=r"feed_forward: input \(2, 3, 4\), w1 \(4, 6\), "
                                         r"b1 \(6,\), w2 \(5, 4\) and b2 \(4,\) do not chain"):
        ad.feed_forward(z, Tensor(np.ones((4, 6))), Tensor(np.ones(6)),
                        Tensor(np.ones((5, 4))), b)
    with pytest.raises(ShapeError, match=r"feed_forward: input \(4,\)"):
        ad.feed_forward(b, w, b, w, b)


def test_first_gradient_write_takes_the_tensor_layout():
    # numpy's reduction order follows memory layout, so a gradient laid out
    # unlike its tensor would round differently downstream
    data = np.arange(6.0).reshape(2, 3).T
    x = Tensor(data, requires_grad=True)
    backward((x * 2.0).sum())
    assert x.grad.strides == data.strides
    np.testing.assert_array_equal(x.grad, np.full((3, 2), 2.0))


def test_add_of_two_leaves_gives_unaliased_gradients():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    backward((a + b).sum())
    assert not np.shares_memory(a.grad, b.grad)
    backward((a + b).sum())
    np.testing.assert_array_equal(a.grad, np.full((2, 3), 2.0))
    np.testing.assert_array_equal(b.grad, np.full((2, 3), 2.0))


def test_backward_visits_every_node_exactly_once():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    shared = x * 2.0
    left = shared + 1.0
    right = shared * 3.0
    loss = (left + right).sum()

    counts = {}
    for i, node in enumerate((shared, left, right, loss)):
        original = node._backward

        def wrapped(g, key=i, fn=original):
            counts[key] = counts.get(key, 0) + 1
            fn(g)

        node._backward = wrapped
    backward(loss)
    assert counts == {0: 1, 1: 1, 2: 1, 3: 1}
    # fan-out through `shared` still accumulates both paths: d/dx = 2 + 6
    np.testing.assert_allclose(x.grad, [8.0, 8.0], atol=1e-12)
    # non-leaf gradients are freed once consumed
    assert [node.grad for node in (shared, left, right, loss)] == [None] * 4


def test_keeping_freed_pages_sets_both_thresholds_or_leaves_a_libc_alone():
    # no loadable libc, or one without mallopt (macOS, other libcs)
    assert ad._keep_freed_pages(None) is False
    assert ad._keep_freed_pages(SimpleNamespace()) is False

    class Mallopt:
        def __init__(self, *results):
            self.calls, self.results = [], list(results)

        def __call__(self, param, value):
            self.calls.append((param, value))
            return self.results.pop(0)

    both = [(ad._M_MMAP_THRESHOLD, 2**31 - 1), (ad._M_TRIM_THRESHOLD, 2**31 - 1)]
    libc = SimpleNamespace(mallopt=Mallopt(1, 1))
    assert ad._keep_freed_pages(libc) is True and libc.mallopt.calls == both
    # a refused mmap threshold leaves the trim threshold alone
    libc = SimpleNamespace(mallopt=Mallopt(0))
    assert ad._keep_freed_pages(libc) is False and libc.mallopt.calls == both[:1]


def test_frozen_records_nothing_and_restores_flags_when_body_raises():
    w = Tensor(np.ones(3), requires_grad=True)
    c = Tensor(np.ones(3), requires_grad=False)
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(RuntimeError, match="boom"):
        with ad.frozen([w, c, w]):
            assert not (w.requires_grad or c.requires_grad)
            out = w * c
            assert not out.requires_grad and out._parents == ()
            backward((w * x).sum())
            raise RuntimeError("boom")
    assert (w.requires_grad, c.requires_grad, x.requires_grad) == (True, False, True)
    assert w.grad is None
    np.testing.assert_array_equal(x.grad, np.ones(3))


# -- fused nodes against the primitives they replace --------------------------------


def _matmul_bias(rng, lead):
    a, w, c = (rng.standard_normal(shape).astype(np.float32)
               for shape in (lead + (24,), (24, 40), (40,)))
    return ((a, w, c), lambda a, w, c: ad.matmul(a, w, bias=c),
            lambda a, w, c: a @ w + c)


def _attention_chain(q, k, v, heads):
    bsz, n, dim = q.shape
    split = (bsz, n, heads, dim // heads)
    qh = q.reshape(split).transpose((0, 2, 1, 3))
    kt = k.reshape(split).transpose((0, 2, 3, 1))
    vh = v.reshape(split).transpose((0, 2, 1, 3))
    attn = ad.softmax((qh @ kt) * (1.0 / np.sqrt(dim // heads)))
    return (attn @ vh).transpose((0, 2, 1, 3)).reshape((bsz, n, dim))


def _candidate_arrays(rng, node):
    """float32 operands of a candidate node: z (4, 9, 32), then its weights."""
    shapes = {"self_attention": ((32, 32),) * 4 + ((32,),),
              "feed_forward": ((32, 48), (48,), (48, 32), (32,))}[node]
    z = rng.standard_normal((4, 9, 32)).astype(np.float32)
    return (z,) + tuple((0.2 * rng.standard_normal(s)).astype(np.float32) for s in shapes)


def _self_attention_chain(z, wq, wk, wv, wo, bo):
    return ad.matmul(_attention_chain(z @ wq, z @ wk, z @ wv, 4), wo, bias=bo)


def _feed_forward_chain(z, w1, b1, w2, b2):
    return ad.matmul(ad.gelu(ad.matmul(z, w1, bias=b1)), w2, bias=b2)


CANDIDATE_NODES = {
    "self_attention": lambda *ops: ad.self_attention(*ops, 4),
    "feed_forward": ad.feed_forward,
}

FUSED_CASES = {
    "matmul_bias_3d": lambda rng: _matmul_bias(rng, (4, 9)),
    "matmul_bias_2d": lambda rng: _matmul_bias(rng, (9,)),
    "layer_norm_affine": lambda rng: (
        tuple(rng.standard_normal(shape).astype(np.float32)
              for shape in ((4, 9, 32), (32,), (32,))),
        lambda x, g, b: ad.layer_norm(x, g, b),
        lambda x, g, b: ad.layer_norm(x) * g + b),
    "weighted_sum": lambda rng: (
        (rng.standard_normal(5).astype(np.float32),)
        + tuple(rng.standard_normal((4, 9, 16)).astype(np.float32) for _ in range(3)),
        lambda w, *ts: ad.weighted_sum(w, ts, [1, 3, 4]),
        lambda w, *ts: w[1] * ts[0] + w[3] * ts[1] + w[4] * ts[2]),
    "self_attention": lambda rng: (_candidate_arrays(rng, "self_attention"),
                                   CANDIDATE_NODES["self_attention"], _self_attention_chain),
    "feed_forward": lambda rng: (_candidate_arrays(rng, "feed_forward"),
                                 CANDIDATE_NODES["feed_forward"], _feed_forward_chain),
}


@pytest.mark.parametrize("case", sorted(FUSED_CASES))
def test_fused_node_matches_its_unfused_composition_bitwise(case, rng):
    """float32 output and every input gradient equal the primitive chain's."""
    arrays, fused, chain = FUSED_CASES[case](rng)

    def run(build):
        leaves = [Tensor(x.copy(), requires_grad=True) for x in arrays]
        out = build(*leaves)
        upstream = Tensor(np.random.default_rng(7).standard_normal(out.shape)
                          .astype(np.float32))
        backward((out * upstream).sum())
        assert out.dtype == np.float32
        return [out.data] + [t.grad for t in leaves]

    for got, want in zip(run(fused), run(chain)):
        np.testing.assert_array_equal(got, want)


def _grads_with_frozen(node, arrays, frozen, upstream):
    leaves = [Tensor(x.copy(), requires_grad=True) for x in arrays]
    with ad.frozen([leaves[i] for i in frozen]):
        backward((CANDIDATE_NODES[node](*leaves) * upstream).sum())
    return [t.grad for t in leaves]


#: Operand groups of the two candidate nodes: the input, then the weights
#: that read the input, then the output projection.
FROZEN_GROUPS = {"self_attention": ((0,), (1, 2, 3), (4, 5)),
                 "feed_forward": ((0,), (1, 2), (3, 4))}


def _check_frozen_group(node, group, rng):
    """Freezing one operand group skips its products: it gets no gradient,
    and every other operand's gradient is bitwise what it is with nothing
    frozen."""
    arrays = _candidate_arrays(rng, node)
    upstream = Tensor(rng.standard_normal((4, 9, 32)).astype(np.float32))
    frozen = FROZEN_GROUPS[node][group]
    want = _grads_with_frozen(node, arrays, (), upstream)
    got = _grads_with_frozen(node, arrays, frozen, upstream)
    for i, (g, w) in enumerate(zip(got, want)):
        if i in frozen:
            assert g is None
        else:
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("frozen_input", [0, 1, 2])
def test_attention_frozen_input_gets_no_gradient(frozen_input, rng):
    """``self_attention`` with z, then wq/wk/wv, then wo/bo frozen."""
    _check_frozen_group("self_attention", frozen_input, rng)


@pytest.mark.parametrize("frozen_input", [0, 1, 2])
def test_feed_forward_frozen_input_gets_no_gradient(frozen_input, rng):
    """``feed_forward`` with z, then w1/b1, then w2/b2 frozen."""
    _check_frozen_group("feed_forward", frozen_input, rng)


def _kept_buffers(node):
    """The buffers of the arrays a node's backward closure reads, nested
    closures included, other than its parents' data; 0-d scalars aside."""
    def root(a):
        while a.base is not None:
            a = a.base
        return a

    parents = {id(root(p.data)) for p in node._parents}
    kept, todo, seen = {}, [node._backward], set()
    while todo:
        fn = todo.pop()
        for cell in fn.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray) and value.ndim:
                base = root(value)
                if id(base) not in parents:
                    kept[id(base)] = base
            elif callable(value) and getattr(value, "__closure__", None) \
                    and id(value) not in seen:
                seen.add(id(value))
                todo.append(value)
    return list(kept.values())


def test_candidate_nodes_keep_only_what_their_backward_cannot_rebuild(rng):
    """``feed_forward`` keeps the hidden pre-activation alone;
    ``self_attention`` keeps q, k, v and the softmax output."""
    arrays = _candidate_arrays(rng, "feed_forward")
    z, w1, b1, w2, b2 = (Tensor(x, requires_grad=True) for x in arrays)
    (kept,) = _kept_buffers(ad.feed_forward(z, w1, b1, w2, b2))
    np.testing.assert_array_equal(kept.ravel(), ad.matmul(z, w1, bias=b1).data.ravel())

    arrays = _candidate_arrays(rng, "self_attention")
    z, wq, wk, wv, wo, bo = (Tensor(x, requires_grad=True) for x in arrays)
    kept = _kept_buffers(ad.self_attention(z, wq, wk, wv, wo, bo, 4))
    split = (4, 9, 4, 8)
    qh = ad.transpose(ad.reshape(z @ wq, split), (0, 2, 1, 3))
    kt = ad.transpose(ad.reshape(z @ wk, split), (0, 2, 3, 1))
    want = [(z @ w).data for w in (wq, wk, wv)]
    want.append(ad.softmax((qh @ kt) * (1.0 / np.sqrt(8))).data)
    assert len(kept) == len(want)
    for w in want:
        assert sum(np.array_equal(k.ravel(), w.ravel()) for k in kept) == 1


@pytest.mark.filterwarnings("ignore:invalid value")
def test_a_nonfinite_mlp_weight_is_named_by_its_replay(rng):
    op = MlpOp(OpSpec("mlp", ratio=2.0), dim=8, rng=rng)
    op.w1.data[3, 5] = np.inf
    x = Tensor(rng.standard_normal((2, 5, 8)).astype(np.float32), requires_grad=True)
    with pytest.raises(NonFiniteError, match="^feed_forward produced non-finite values$"):
        ad.finite_pass(lambda: (op.forward(x).sum(),))


# -- in-place primitives against their plain expressions ------------------------------


def _edge_values(rng, dtype, shape):
    """Normal draws with 0, ±1e-30 and ±30 planted in every row."""
    x = rng.standard_normal(shape)
    x[..., :5] = [0.0, 1e-30, -1e-30, 30.0, -30.0]
    return x.astype(dtype)


def _leaf_grads(out, leaves, upstream):
    """Every leaf's gradient under `upstream`, which reaches `out` bit for bit."""
    backward((out * Tensor(upstream)).sum())
    return [t.grad for t in leaves]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_forward_and_backward_equal_the_plain_expression(dtype, rng):
    x = _edge_values(rng, dtype, (3, 7, 16))
    g = rng.standard_normal(x.shape).astype(dtype)
    a = Tensor(x.copy(), requires_grad=True)
    out = ad.gelu(a)
    (grad,) = _leaf_grads(out, [a], g)
    want, t = gelu_expression(x)
    assert out.dtype == grad.dtype == dtype
    np.testing.assert_array_equal(out.data, want)
    np.testing.assert_array_equal(grad, gelu_grad_expression(x, t, g))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_backward_equals_the_plain_expression(dtype, rng):
    x = _edge_values(rng, dtype, (3, 7, 16))
    x[0, 0] = 0.0  # a zero-variance row: eps alone keeps it finite
    gamma, beta, g = (rng.standard_normal(shape).astype(dtype)
                      for shape in ((16,), (16,), x.shape))
    leaves = [Tensor(v.copy(), requires_grad=True) for v in (x, gamma, beta)]
    out = ad.layer_norm(*leaves)
    got = [out.data] + _leaf_grads(out, leaves, g)
    for have, want in zip(got, layer_norm_expression(x, gamma, beta, g)):
        assert have.dtype == dtype
        np.testing.assert_array_equal(have, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_over_shared_statistics_is_bitwise_unshared(dtype, rng):
    """Two affine norms of one op output, the second reading the
    normalization the first stored, give the outputs and all gradients of
    the same norms of a leaf, which normalizes afresh on each call."""
    x = _edge_values(rng, dtype, (2, 5, 8))
    affines = [tuple(rng.standard_normal(8).astype(dtype) for _ in range(2))
               for _ in range(2)]
    gs = [rng.standard_normal(x.shape).astype(dtype) for _ in affines]

    def run(op_output):
        a = Tensor(x.copy(), requires_grad=True)
        src = a.reshape(x.shape) if op_output else a
        leaves, loss = [a], None
        outs = []
        for (gamma, beta), g in zip(affines, gs):
            gb = [Tensor(v.copy(), requires_grad=True) for v in (gamma, beta)]
            leaves += gb
            out = ad.layer_norm(src, *gb)
            outs.append(out.data)
            term = (out * Tensor(g)).sum()
            loss = term if loss is None else loss + term
        assert bool(src._norm) is op_output
        backward(loss)
        return outs + [t.grad for t in leaves]

    for have, want in zip(run(True), run(False), strict=True):
        assert have.dtype == dtype
        np.testing.assert_array_equal(have, want)


def _counting_normalize(monkeypatch):
    seen = []
    original = ad._normalize

    def counting(x):
        seen.append(x)
        return original(x)

    monkeypatch.setattr(ad, "_normalize", counting)
    return seen


def test_a_second_layer_norm_of_an_op_output_runs_no_normalize(rng, monkeypatch):
    h = Tensor(rng.standard_normal((3, 8))) * 2.0
    seen = _counting_normalize(monkeypatch)
    first = ad.layer_norm(h)
    second = ad.layer_norm(h, Tensor(np.ones(8)), Tensor(np.zeros(8)))
    assert len(seen) == 1
    np.testing.assert_array_equal(first.data, second.data)


def test_a_leaf_changed_in_place_is_normalized_afresh(rng, monkeypatch):
    a = Tensor(rng.standard_normal((3, 8)))
    seen = _counting_normalize(monkeypatch)
    before = ad.layer_norm(a).data.copy()
    a.data[...] = rng.standard_normal((3, 8))
    after = ad.layer_norm(a).data
    assert len(seen) == 2
    np.testing.assert_array_equal(after, ad.layer_norm(Tensor(a.data.copy())).data)
    assert not np.array_equal(after, before)
