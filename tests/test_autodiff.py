import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dasvit import Tensor, backward, dtype_scope
from dasvit import autodiff as ad
from dasvit.errors import NonFiniteError, ShapeError
from oracles import check_grads


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
    loss = (x * x).sum()
    backward(loss)
    backward(loss)
    np.testing.assert_allclose(x.grad, [12.0], atol=1e-12)


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
    "matmul_transposed_view_2d", "scalar_fanout", "transpose", "reshape",
    "broadcast_to", "concat", "index", "index_array_2d", "index_array_3d",
    "sum_axis", "mean_axis", "softmax", "layer_norm", "gelu", "relu",
    "sigmoid", "cross_entropy",
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
        elif case == "layer_norm":
            a = t64(rng, 2, 6)
            p = _proj(rng, (2, 6))
            check_grads(lambda: (ad.layer_norm(a) * p).sum(), [a])
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
    loss = (a + b).sum()
    backward(loss)
    assert not np.shares_memory(a.grad, b.grad)
    backward(loss)
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
