"""Reverse-mode automatic differentiation over dense numpy arrays.

Define-by-run: every primitive computes its numpy result eagerly and, when
any input requires a gradient, records its parents plus a backward closure.
``backward(loss)`` replays the recorded graph once in reverse topological
order; gradients accumulate additively at fan-out points. Only leaves keep a
``.grad`` afterwards: each non-leaf gradient is dropped as soon as its
closure has consumed it, and closures skip the products an operand that
requires no gradient would discard.

Gradient arrays are never written in place. The first write to a tensor's
``.grad`` assigns the incoming array instead of adding it to zeros (copying
it only when its dtype or memory layout differs from the tensor's); every
later write builds a new array. Closures may hand one array to several
operands (``add``/``sub``) or pass views of it (``reshape``/``transpose``),
so this rule is what keeps shared arrays correct. At the end of a pass any
leaf ``.grad`` that overlaps another leaf's is copied, so no two leaves
share gradient memory.

A product of an (..., K) tensor with a 2-D (K, H) weight runs as one GEMM
over the flattened leading dimensions, forward and backward; the weight
gradient is ``a2ᵀ @ g2`` over all rows at once, with no per-batch
temporary to sum away.

``frozen(tensors)`` clears ``requires_grad`` on leaves for the length of a
block, so nothing computed only from them is recorded at all. A phase that
updates one set of parameters freezes the rest; a forward-only pass freezes
every parameter and records no graph.

By default every primitive checks its output for NaN/Inf and raises
``NonFiniteError`` naming itself. A training or evaluation loop instead runs
each pass through ``finite_pass``: the pass runs with those checks off
(``primitive_checks(False)``), then only the tensors it returns are checked.
If one holds NaN/Inf, the pass runs again from the same inputs with the
checks on; passes are deterministic, so the replay raises at the primitive
that first produced the value. A non-finite gradient behind a finite loss is
the optimizer's to refuse (``AdamW.step``).

The default array dtype is float32; gradient-check tests switch to float64
via ``dtype_scope`` because central finite differences need the headroom.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NonFiniteError, ShapeError

_DEFAULT_DTYPE = np.dtype(np.float32)
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def default_dtype() -> np.dtype:
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> None:
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in _FLOAT_DTYPES:
        raise ShapeError(f"default dtype must be float32 or float64, got {dt}")
    _DEFAULT_DTYPE = dt


@contextmanager
def dtype_scope(dtype):
    old = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(old)


_CHECK_PRIMITIVES = True


@contextmanager
def primitive_checks(on: bool):
    """Turn the per-primitive NaN/Inf check on or off for the block; the
    previous setting comes back on exit, also when the block raises."""
    global _CHECK_PRIMITIVES
    old = _CHECK_PRIMITIVES
    _CHECK_PRIMITIVES = on
    try:
        yield
    finally:
        _CHECK_PRIMITIVES = old


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.isfinite(data).all():
        raise NonFiniteError(f"{op} produced non-finite values")


def finite_pass(forward: Callable[[], tuple["Tensor", ...]]) -> tuple["Tensor", ...]:
    """Run `forward` without per-primitive checks and check what it returns.

    `forward` must compute its tensors from inputs it leaves unchanged, so
    that running it twice gives the same values bit for bit. If a returned
    tensor holds NaN/Inf, `forward` runs again with the checks on, which
    raises the ``NonFiniteError`` of the first primitive that produced one.
    """
    with primitive_checks(False):
        outs = forward()
    if all(np.isfinite(t.data).all() for t in outs):
        return outs
    with primitive_checks(True):
        forward()
    raise NonFiniteError("a pass returned non-finite values, but its replay with "
                         "per-primitive checks found no primitive that produced one")


class Tensor:
    """Dense n-dimensional array with optional gradient accumulation."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: Sequence["Tensor"],
                 backward: Callable[[np.ndarray], None], op: str) -> "Tensor":
        if _CHECK_PRIMITIVES:
            _check_finite(data, op)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.name = ""
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    # -- basic properties ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{tag})"

    # -- operators ---------------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(_lift(other, self), self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_lift(other, self), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(_lift(other, self), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return index(self, key)

    def sum(self, axis=None, keepdims: bool = False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data, name: str = "") -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


def _lift(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add `g` to ``t.grad``; never writes into an existing array (see module doc).

    ``t.grad`` always has ``t.data``'s dtype and memory layout: a first `g`
    laid out otherwise is copied. Closures reduce and multiply their incoming
    gradient, and numpy's summation order follows the layout, so this keeps
    every gradient bitwise what adding into ``zeros_like(t.data)`` gave
    (except that a lone -0.0 stays -0.0).
    """
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad = np.add(t.grad, g, out=np.empty_like(t.grad))
    elif (type(g) is np.ndarray and g.dtype == t.data.dtype
          and g.strides == t.data.strides and g.shape == t.data.shape):
        t.grad = g
    else:
        t.grad = np.empty_like(t.data)
        t.grad[...] = g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape`, inverting numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


@contextmanager
def frozen(tensors: Iterable[Tensor]):
    """Treat `tensors` as constants inside the block.

    Their ``requires_grad`` flags are cleared on entry and restored on exit,
    also when the block raises. A primitive none of whose inputs requires a
    gradient records no parents and no closure, so freezing leaves prunes
    every subgraph that depends only on them.
    """
    saved = [(t, t.requires_grad) for t in tensors]
    try:
        for t, _ in saved:
            t.requires_grad = False
        yield
    finally:
        for t, flag in reversed(saved):
            t.requires_grad = flag


def backward(loss: Tensor) -> None:
    """Populate gradients of every reachable tensor that requires one.

    The graph is traversed exactly once in reverse topological order;
    repeated calls without zeroing accumulate into existing leaf gradients.
    Non-leaf gradients are per-pass scratch: each is freed as soon as its
    backward closure has consumed it, so after the pass only leaves hold a
    ``.grad``.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    # non-leaf grads are per-pass scratch; only leaves accumulate across calls
    for node in topo:
        if node._backward is not None:
            node.grad = None
    loss.grad = np.ones_like(loss.data)
    leaves: list[Tensor] = []
    for node in reversed(topo):
        if node._backward is None:
            leaves.append(node)
        elif node.grad is not None:
            g, node.grad = node.grad, None
            node._backward(g)
    _unalias_grads(leaves)


def _unalias_grads(leaves: list[Tensor]) -> None:
    """Copy any leaf ``.grad`` that overlaps an earlier leaf's.

    First writes assign arrays that closures may have handed to several
    tensors, so two leaves can end a pass holding one buffer (``a + b`` on
    same-shape leaves, or a reshaped leaf beside its sibling).
    """
    by_base: dict[int, list[np.ndarray]] = {}
    for leaf in leaves:
        g = leaf.grad
        if g is None:
            continue
        owner = g if g.base is None else g.base
        held = by_base.setdefault(id(owner), [])
        if held and any(np.shares_memory(g, h) for h in held):
            leaf.grad = g.copy()
        else:
            held.append(g)


# -- elementwise arithmetic ------------------------------------------------------


def add(a, b) -> Tensor:
    a = as_tensor(a)
    b = _lift(b, a)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return Tensor._from_op(out, (a, b), bw, "add")


def sub(a, b) -> Tensor:
    a = as_tensor(a)
    b = _lift(b, a)
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} do not broadcast") from None

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.shape))

    return Tensor._from_op(out, (a, b), bw, "sub")


def mul(a, b) -> Tensor:
    a = as_tensor(a)
    b = _lift(b, a)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return Tensor._from_op(out, (a, b), bw, "mul")


# -- linear algebra ----------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be >= 2-d, got {a.shape} @ {b.shape}")
    if b.ndim == 2 and a.ndim > 2:
        return _matmul_rows(a, b)
    try:
        out = a.data @ b.data
    except ValueError:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} are incompatible") from None

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return Tensor._from_op(out, (a, b), bw, "matmul")


def _matmul_rows(a: Tensor, b: Tensor) -> Tensor:
    """(..., K) @ (K, H) as one (rows, K) @ (K, H) GEMM, forward and backward."""
    k = a.shape[-1]
    if b.shape[0] != k:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} are incompatible")
    out = (a.data.reshape(-1, k) @ b.data).reshape(a.shape[:-1] + b.shape[1:])

    def bw(g):
        g2 = g.reshape(-1, g.shape[-1])
        if a.requires_grad:
            _accumulate(a, (g2 @ b.data.T).reshape(a.shape))
        if b.requires_grad:
            _accumulate(b, a.data.reshape(-1, k).T @ g2)

    return Tensor._from_op(out, (a, b), bw, "matmul")


def transpose(a: Tensor, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose: axes {axes} invalid for shape {a.shape}")
    inverse = tuple(np.argsort(axes))

    def bw(g):
        _accumulate(a, np.transpose(g, inverse))

    return Tensor._from_op(np.transpose(a.data, axes), (a,), bw, "transpose")


def reshape(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view shape {a.shape} as {shape}") from None

    def bw(g):
        _accumulate(a, g.reshape(a.shape))

    return Tensor._from_op(out, (a,), bw, "reshape")


def broadcast_to(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    try:
        out = np.broadcast_to(a.data, shape).copy()
    except ValueError:
        raise ShapeError(f"broadcast_to: cannot broadcast {a.shape} to {shape}") from None

    def bw(g):
        _accumulate(a, _unbroadcast(g, a.shape))

    return Tensor._from_op(out, (a,), bw, "broadcast_to")


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    parts = [as_tensor(t) for t in tensors]
    if not parts:
        raise ShapeError("concat: need at least one tensor")
    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        shapes = [p.shape for p in parts]
        raise ShapeError(f"concat: shapes {shapes} do not align on axis {axis}") from None
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        for p, piece in zip(parts, np.split(g, splits, axis=axis)):
            _accumulate(p, piece)

    return Tensor._from_op(out, tuple(parts), bw, "concat")


def index(a: Tensor, key) -> Tensor:
    """Indexing by ints, slices and integer arrays; gradients scatter back
    into place, and repeated array indices accumulate."""
    a = as_tensor(a)
    parts = key if isinstance(key, tuple) else (key,)
    gather = any(isinstance(k, (np.ndarray, list)) for k in parts)
    try:
        out = a.data[key]
    except IndexError:
        raise ShapeError(f"index: key {key!r} invalid for shape {a.shape}") from None
    if not gather:
        out = np.array(out)  # detach the view from the base buffer

    def bw(g):
        full = np.zeros_like(a.data)
        if gather:
            np.add.at(full, key, g)
        else:
            full[key] += g  # basic keys address each element once
        _accumulate(a, full)

    return Tensor._from_op(out, (a,), bw, "index")


# -- reductions ---------------------------------------------------------------------


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            g = np.expand_dims(g, axes)
        _accumulate(a, np.broadcast_to(g, a.shape).copy())

    return Tensor._from_op(np.asarray(out), (a,), bw, "sum")


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    # a Python int: an np.int64 divisor would promote a float32 gradient to float64
    count = a.data.size if axis is None else math.prod(
        a.shape[ax] for ax in ((axis,) if isinstance(axis, int) else tuple(axis)))

    def bw(g):
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            g = np.expand_dims(g, axes)
        _accumulate(a, np.broadcast_to(g, a.shape).copy() / count)

    return Tensor._from_op(np.asarray(out), (a,), bw, "mean")


# -- nonlinearities ---------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0)

    def bw(g):
        _accumulate(a, g * (a.data > 0))

    return Tensor._from_op(out, (a,), bw, "relu")


def sigmoid(a: Tensor) -> Tensor:
    a = as_tensor(a)
    x = a.data
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    out = out.astype(x.dtype)

    def bw(g):
        _accumulate(a, g * out * (1.0 - out))

    return Tensor._from_op(out, (a,), bw, "sigmoid")


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


def gelu(a: Tensor) -> Tensor:
    """tanh-approximated GELU; erf-free and deterministic."""
    a = as_tensor(a)
    x = a.data
    # products, not x**3 or x**2: numpy's float32 pow is far slower than multiplies
    inner = _GELU_C * (x + _GELU_K * (x * x * x))
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def bw(g):
        d_inner = _GELU_C * (1.0 + 3.0 * _GELU_K * (x * x))
        local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
        _accumulate(a, g * local)

    return Tensor._from_op(out, (a,), bw, "gelu")


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, max-shifted for stability."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        _accumulate(a, out * (g - dot))

    return Tensor._from_op(out, (a,), bw, "softmax")


def layer_norm(a: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize over the last axis (no affine); eps stabilizes zero variance."""
    a = as_tensor(a)
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    out = centered * inv

    def bw(g):
        gm = g.mean(axis=-1, keepdims=True)
        gy = (g * out).mean(axis=-1, keepdims=True)
        _accumulate(a, inv * (g - gm - out * gy))

    return Tensor._from_op(out, (a,), bw, "layer_norm")


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer labels against raw logits (B, K)."""
    logits = as_tensor(logits)
    y = np.asarray(labels)
    if logits.ndim != 2 or y.ndim != 1 or y.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"cross_entropy: logits {logits.shape} incompatible with labels {y.shape}")
    if y.min() < 0 or y.max() >= logits.shape[1]:
        raise ShapeError("cross_entropy: label out of range")
    bsz = logits.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    nll = lse - shifted[np.arange(bsz), y]
    out = np.asarray(nll.mean(), dtype=logits.dtype)
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)

    def bw(g):
        grad = probs.copy()
        grad[np.arange(bsz), y] -= 1.0
        _accumulate(logits, g * grad / bsz)

    return Tensor._from_op(out, (logits,), bw, "cross_entropy")
