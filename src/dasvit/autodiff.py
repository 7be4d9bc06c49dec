"""Reverse-mode automatic differentiation over dense numpy arrays.

Define-by-run: every primitive computes its numpy result eagerly and, when
any input requires a gradient, records its parents plus a backward closure.
``backward(loss)`` replays the recorded graph once in reverse topological
order; gradients accumulate additively at fan-out points. Only leaves keep a
``.grad`` afterwards: each non-leaf gradient is dropped as soon as its
closure has consumed it, and closures skip the products an operand that
requires no gradient would discard.

A graph is consumed by its backward. Once a node's closure has run, the
node lets go of its parents and its closure, so the arrays the closure
saved, and interior outputs nothing else holds, are freed while the pass
goes on, not when the caller drops the loss. A second ``backward`` through a
consumed node raises ``DasvitError``. Leaf gradients still accumulate
across separate graphs: a forward and backward per micro-batch, without
zeroing in between, sums their gradients.

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

A node's output array lives as long as its graph, whether or not a backward
closure reads it. So the hot compositions are single nodes: ``matmul`` takes
a ``bias``, ``affine`` is a norm's scale and shift, ``weighted_sum`` is a
mixed edge's whole weighted sum, and each MSA and MLP candidate after its
norm is one node. Each computes the same floats in the same order as the
chain of primitives it replaces, forward and backward, without holding that
chain's intermediate arrays, and keeps only what its backward cannot cheaply
rebuild:

* ``self_attention`` (the q/k/v projections, multi-head scaled-softmax
  attention, the head merge and the biased output projection) keeps q, k, v
  and the (B, H, N, N) softmax output. Its backward rebuilds the merged
  ``attn @ v`` product only when the output weight takes a gradient, so a
  pass with frozen weights rebuilds nothing.
* ``feed_forward`` (biased projection, GELU, biased projection) keeps the
  hidden pre-activation ``h``. Its backward rebuilds the GELU's tanh term
  from ``h``, and the GELU output only when the second weight takes a
  gradient.

A rebuilt array comes from the same operations, in the same order, as the
forward's, so it holds the forward's bits.

``gelu`` keeps its input and ``t = tanh(c·(x + k·x³))``, the ``normalize``
backward its output and the (..., 1) reciprocal deviation; each does the
plain expression's operations in its order, so the floats are the
expression's. A layer norm is ``affine(normalize(x), gamma, beta)``: the
pre-norm ops that read one value share its one ``normalize`` node
(``ops.CellValue``), whose backward runs once over their summed gradient.

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

Importing the module has glibc's malloc serve every array, however large,
from the heap and keep the heap pages it frees in the process
(``_keep_freed_pages``): a step frees and reallocates the same arrays, and
handing their pages back to the kernel in between would fault every one of
them in again on the next step. The optimizer's moments and a loaded
checkpoint's data come from the same heap, so those that a search stage
rebuilds reuse the pages of the ones it dropped. The resident set therefore
does not shrink between steps.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DasvitError, NonFiniteError, ShapeError

_DEFAULT_DTYPE = np.dtype(np.float32)
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# glibc's mallopt parameter numbers, and the largest threshold an int holds
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_INT_MAX = 2**31 - 1


def _keep_freed_pages(libc) -> bool:
    """Have `libc`'s malloc serve every array from the heap and never trim
    the heap's top back to the kernel; True when both settings took.

    Both thresholds or neither: setting either one turns off glibc's dynamic
    mmap threshold, and with only the trim threshold raised every array
    above 128 KiB would be mmapped and faulted in afresh on each allocation.
    A libc without ``mallopt`` is left as it is.
    """
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _INT_MAX) and mallopt(_M_TRIM_THRESHOLD, _INT_MAX))


def _process_libc():
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):  # no C library loadable by name here
        return None


_keep_freed_pages(_process_libc())


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
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = tuple(parents)
                out._backward = backward
                break
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
    if g.shape == shape:
        return g
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


def _consumed(g: np.ndarray) -> None:
    raise DasvitError("backward: this graph was consumed by an earlier backward; "
                      "run the forward again")


def backward(loss: Tensor) -> None:
    """Populate gradients of every reachable tensor that requires one.

    The graph is traversed exactly once in reverse topological order, and a
    graph is consumed by its backward: each non-leaf node drops its parents
    and its closure once the pass reaches it, so what the closure saved is
    freed as the pass goes on, and a second call through the same graph
    raises ``DasvitError``. Leaf gradients accumulate across graphs until
    zeroed. Non-leaf gradients are per-pass scratch: each is freed as soon as
    its backward closure has consumed it, so after the pass only leaves hold
    a ``.grad``.
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
        if node._backward is _consumed:
            _consumed(node.grad)  # refused before any gradient moves
        if node._backward is not None:
            node.grad = None
    loss.grad = np.ones_like(loss.data)
    leaves: list[Tensor] = []
    # popping, not iterating, so the list drops each node as the pass leaves it
    while topo:
        node = topo.pop()
        if node._backward is None:
            leaves.append(node)
            continue
        if node.grad is not None:
            g, node.grad = node.grad, None
            node._backward(g)
        node._parents, node._backward = (), _consumed
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


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """``a @ b``, plus `bias` along the last axis when given (``b`` 2-D only)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be >= 2-d, got {a.shape} @ {b.shape}")
    if b.ndim == 2:
        return _matmul_rows(a, b, bias)
    if bias is not None:
        raise ShapeError(f"matmul: a bias needs a 2-d weight, got {b.shape}")
    try:
        out = a.data @ b.data
    except ValueError:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} are incompatible") from None

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))

    return Tensor._from_op(out, (a, b), bw, "matmul")


def _matmul_rows(a: Tensor, b: Tensor, bias: Tensor | None) -> Tensor:
    """(..., K) @ (K, H) [+ bias (H,)] as one (rows, K) @ (K, H) GEMM,
    forward and backward; the bias is added in place and its gradient is
    the incoming one summed over every row."""
    k = a.shape[-1]
    if b.shape[0] != k:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} are incompatible")
    if bias is not None and bias.shape != b.shape[1:]:
        raise ShapeError(f"matmul: bias shape {bias.shape} does not match {b.shape}")
    a2 = a.data.reshape(-1, k)
    out = a2 @ b.data
    if bias is not None:
        out += bias.data
    out = out.reshape(a.shape[:-1] + b.shape[1:])

    def bw(g):
        g2 = g.reshape(-1, g.shape[-1])
        if a.requires_grad:
            _accumulate(a, (g2 @ b.data.T).reshape(a.shape))
        if b.requires_grad:
            _accumulate(b, a2.T @ g2)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, _unbroadcast(g, bias.shape))

    parents = (a, b) if bias is None else (a, b, bias)
    return Tensor._from_op(out, parents, bw, "matmul")


def transpose(a: Tensor, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose: axes {axes} invalid for shape {a.shape}")
    inverse = [0] * len(axes)
    for i, ax in enumerate(axes):
        inverse[ax] = i

    def bw(g):
        _accumulate(a, g.transpose(inverse))

    return Tensor._from_op(a.data.transpose(axes), (a,), bw, "transpose")


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
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = out.astype(x.dtype)

    def bw(g):
        _accumulate(a, g * out * (1.0 - out))

    return Tensor._from_op(out, (a,), bw, "sigmoid")


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


# The tanh-GELU ``0.5·x·(1 + tanh(c·(x + k·x³)))`` in steps written in place.
# Each step is the operation the plain expression performs at that point, with
# at most its operands swapped, so the floats are the expression's
# (``tests/oracles.py`` keeps it). ``gelu`` and ``feed_forward`` both run these.


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """``t = tanh(c·(x + k·x³))`` in one fresh x-sized buffer."""
    # products, not x**3 or x**2: numpy's float32 pow is far slower than multiplies
    t = x * x
    t *= x
    t *= _GELU_K
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def _gelu_from_tanh(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The GELU output ``0.5·x·(1 + t)`` of `x` and its tanh term."""
    out = np.multiply(x, 0.5)
    out *= np.add(t, 1.0)
    return out


def _gelu_grad(x: np.ndarray, t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``g·(0.5·(1 + t) + 0.5·x·(1 - t²)·c·(1 + 3k·x²))``, the gradient at
    `x` under `g`, in three x-sized buffers; `g` is only read."""
    # d_inner = c·(1 + 3k·x²)
    d_inner = x * x
    d_inner *= 3.0 * _GELU_K
    d_inner += 1.0
    d_inner *= _GELU_C
    # 0.5·x·(1 - t²)·d_inner
    slope = t * t
    np.subtract(1.0, slope, out=slope)
    np.multiply(np.multiply(x, 0.5), slope, out=slope)
    slope *= d_inner
    # g·(0.5·(1 + t) + slope), in d_inner's buffer
    local = np.add(t, 1.0, out=d_inner)
    local *= 0.5
    local += slope
    local *= g
    return local


def gelu(a: Tensor) -> Tensor:
    """tanh-approximated GELU; erf-free and deterministic.

    Forward and backward each run in three (x-sized) buffers; the backward
    keeps only ``t = tanh(...)`` beside the input.
    """
    a = as_tensor(a)
    x = a.data
    t = _gelu_tanh(x)
    out = _gelu_from_tanh(x, t)

    def bw(g):
        _accumulate(a, _gelu_grad(x, t, g))

    return Tensor._from_op(out, (a,), bw, "gelu")


def feed_forward(z: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``gelu(z @ w1 + b1) @ w2 + b2`` over the last axis of `z`, as one node.

    It computes the floats of the biased ``matmul``, ``gelu``, biased
    ``matmul`` chain in its order, forward and backward, and keeps only the
    hidden pre-activation ``h``. The backward rebuilds the tanh term from
    ``h``, and the GELU output only when `w2` takes a gradient.
    """
    z, w1, b1, w2, b2 = (as_tensor(p) for p in (z, w1, b1, w2, b2))
    if (z.ndim < 2 or w1.ndim != 2 or w2.ndim != 2 or w1.shape[0] != z.shape[-1]
            or b1.shape != w1.shape[1:] or w2.shape[0] != w1.shape[1]
            or b2.shape != w2.shape[1:]):
        raise ShapeError(f"feed_forward: input {z.shape}, w1 {w1.shape}, b1 {b1.shape}, "
                         f"w2 {w2.shape} and b2 {b2.shape} do not chain")
    dim, width = w1.shape
    z2 = z.data.reshape(-1, dim)
    h = z2 @ w1.data
    h += b1.data
    h = h.reshape(z.shape[:-1] + (width,))
    out = _gelu_from_tanh(h, _gelu_tanh(h)).reshape(-1, width) @ w2.data
    out += b2.data
    out = out.reshape(z.shape[:-1] + w2.shape[1:])

    def bw(g):
        g2 = g.reshape(-1, g.shape[-1])
        hidden_grad = z.requires_grad or w1.requires_grad or b1.requires_grad
        t = _gelu_tanh(h) if hidden_grad or w2.requires_grad else None
        if w2.requires_grad:
            _accumulate(w2, _gelu_from_tanh(h, t).reshape(-1, width).T @ g2)
        if b2.requires_grad:
            _accumulate(b2, _unbroadcast(g, b2.shape))
        if hidden_grad:
            gh = _gelu_grad(h, t, (g2 @ w2.data.T).reshape(h.shape))
            del t
            gh2 = gh.reshape(-1, width)
            if z.requires_grad:
                _accumulate(z, (gh2 @ w1.data.T).reshape(z.shape))
            if w1.requires_grad:
                _accumulate(w1, z2.T @ gh2)
            if b1.requires_grad:
                _accumulate(b1, _unbroadcast(gh, b1.shape))

    return Tensor._from_op(out, (z, w1, b1, w2, b2), bw, "feed_forward")


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, max-shifted for stability."""
    a = as_tensor(a)
    x = a.data
    # shift, exp and normalize in one fresh buffer
    out = x - x.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        _accumulate(a, out * (g - dot))

    return Tensor._from_op(out, (a,), bw, "softmax")


def self_attention(z: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
                   bo: Tensor, heads: int) -> Tensor:
    """Multi-head self-attention of (B, N, D) tokens `z` as one node: the
    projections ``q, k, v = z @ wq, z @ wk, z @ wv``, per head
    ``softmax(q_h k_hᵀ / √d) v_h`` with d = D / heads, the heads merged back
    to (B, N, D), then ``@ wo + bo``.

    It computes the floats of the chain it replaces (three ``matmul``s, the
    reshape/transpose/matmul/scaled-softmax/matmul/transpose/reshape core and
    a biased ``matmul``) in its order, forward and backward, and each product
    gets the operand layouts that chain gave it. It keeps q, k, v and the
    (B, H, N, N) softmax output; the pre-softmax scores, the per-head
    ``attn @ v`` product and its head merge are temporaries. The backward
    rebuilds the merged product only when `wo` takes a gradient, and adds
    the three projections' parts to the gradient of `z` one by one, in the
    q, k, v order in which the chain's backward reached them.
    """
    z, wq, wk, wv, wo, bo = (as_tensor(p) for p in (z, wq, wk, wv, wo, bo))
    if z.ndim != 3:
        raise ShapeError(f"self_attention: input {z.shape} is not (B, N, D)")
    bsz, n, dim = z.shape
    for w in (wq, wk, wv, wo):
        if w.shape != (dim, dim):
            raise ShapeError(f"self_attention: weight {w.shape} does not fit input {z.shape}")
    if bo.shape != (dim,):
        raise ShapeError(f"self_attention: bias {bo.shape} does not fit input {z.shape}")
    if heads < 1 or dim % heads:
        raise ShapeError(f"self_attention: width of {z.shape} is not divisible by "
                         f"{heads} heads")
    z2 = z.data.reshape(-1, dim)
    q, k, v = ((z2 @ w.data).reshape(z.shape) for w in (wq, wk, wv))
    split = (bsz, n, heads, dim // heads)
    qh = q.reshape(split).transpose(0, 2, 1, 3)  # (B, H, N, d)
    kt = k.reshape(split).transpose(0, 2, 3, 1)  # (B, H, d, N)
    vh = v.reshape(split).transpose(0, 2, 1, 3)
    s = np.asarray(1.0 / math.sqrt(dim // heads), dtype=z.dtype)
    # the scores become the softmax output in place: one (B, H, N, N) buffer
    attn = qh @ kt
    attn *= s
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)

    def merged():
        return (attn @ vh).transpose(0, 2, 1, 3).reshape(-1, dim)

    out = merged() @ wo.data
    out += bo.data
    out = out.reshape(z.shape)

    def bw(g):
        g2 = g.reshape(-1, dim)
        if wo.requires_grad:
            _accumulate(wo, merged().T @ g2)
        if bo.requires_grad:
            _accumulate(bo, _unbroadcast(g, bo.shape))
        need = [z.requires_grad or w.requires_grad for w in (wq, wk, wv)]
        if not any(need):
            return
        # the chain copied the merged-head gradient into (B, H, N, d) order
        gh = (g2 @ wo.data.T).reshape(split).transpose(0, 2, 1, 3).copy()
        parts = [None, None, None]  # the gradients reaching q, k and v
        if need[2]:
            gv = attn.swapaxes(-1, -2) @ gh
            parts[2] = gv.transpose(0, 2, 1, 3).reshape(-1, dim)
        if need[0] or need[1]:
            gs = gh @ vh.swapaxes(-1, -2)
            dot = (gs * attn).sum(axis=-1, keepdims=True)
            gs -= dot
            gs *= attn
            gs *= s
            if need[0]:
                gq = gs @ kt.swapaxes(-1, -2)
                parts[0] = gq.transpose(0, 2, 1, 3).reshape(-1, dim)
            if need[1]:
                gk = qh.swapaxes(-1, -2) @ gs  # (B, H, d, N)
                parts[1] = gk.transpose(0, 3, 1, 2).reshape(-1, dim)
            del gs
        del gh
        for w, gp in zip((wq, wk, wv), parts):
            if w.requires_grad:
                _accumulate(w, z2.T @ gp)
            if z.requires_grad:
                _accumulate(z, (gp @ w.data.T).reshape(z.shape))

    return Tensor._from_op(out, (z, wq, wk, wv, wo, bo), bw, "self_attention")


_LN_EPS = 1e-6  # added to the variance


def _normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(normed, inv)`` of `x` over its last axis: `x` centered and scaled
    to unit variance, and the (..., 1) reciprocal deviation that scaled it."""
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / n
    centered = x - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    return np.multiply(centered, inv, out=centered), inv


def normalize(a: Tensor) -> Tensor:
    """`a` centered and scaled to unit variance over its last axis (eps keeps
    zero variance finite); one backward over what every reader summed in."""
    a = as_tensor(a)
    n = a.shape[-1]
    normed, inv = _normalize(a.data)

    def bw(g):
        # inv·(g - mean(g) - normed·mean(g·normed)), never written into `g`
        gm = np.add.reduce(g, axis=-1, keepdims=True) / n
        tmp = g * normed
        gy = np.add.reduce(tmp, axis=-1, keepdims=True) / n
        ga = g - gm
        ga -= np.multiply(normed, gy, out=tmp)
        ga *= inv
        _accumulate(a, ga)

    return Tensor._from_op(normed, (a,), bw, "normalize")


def affine(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """``a * gamma + beta`` over the last axis of `a`, as one node that keeps
    nothing beyond its operands."""
    a, gamma, beta = as_tensor(a), as_tensor(gamma), as_tensor(beta)
    if gamma.shape != a.shape[-1:] or beta.shape != gamma.shape:
        raise ShapeError(f"affine: gamma {gamma.shape} and beta {beta.shape} do not fit "
                         f"input {a.shape}")
    out = a.data * gamma.data
    out += beta.data

    def bw(g):
        if beta.requires_grad:
            _accumulate(beta, _unbroadcast(g, beta.shape))
        if gamma.requires_grad:
            _accumulate(gamma, _unbroadcast(g * a.data, gamma.shape))
        if a.requires_grad:
            _accumulate(a, g * gamma.data)

    return Tensor._from_op(out, (a, gamma, beta), bw, "affine")


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Layer norm over the last axis: ``affine(normalize(a), gamma, beta)``."""
    return affine(normalize(a), gamma, beta)


def weighted_sum(weights: Tensor, terms: Sequence[Tensor], slots: Sequence[int]) -> Tensor:
    """``weights[slots[0]] * terms[0] + weights[slots[1]] * terms[1] + ...``
    added left to right, as one node: a mixed edge's output.

    `weights` is 1-D and every term has one shape. Weight ``k`` gets the
    gradient ``sum(g * term)`` of its term; slots no term uses get 0.
    """
    weights = as_tensor(weights)
    terms = [as_tensor(t) for t in terms]
    if not terms or len(terms) != len(slots) or weights.ndim != 1:
        raise ShapeError(f"weighted_sum: {len(terms)} terms for slots {list(slots)} "
                         f"of weights {weights.shape}")
    shape = terms[0].shape
    for t in terms:
        if t.shape != shape:
            raise ShapeError(f"weighted_sum: term shapes {shape} and {t.shape} differ")
    w = weights.data
    out = w[slots[0]] * terms[0].data
    scratch = None  # one term buffer, reused
    for k, t in zip(slots[1:], terms[1:]):
        scratch = np.multiply(w[k], t.data, out=scratch)
        out += scratch

    def bw(g):
        if weights.requires_grad:
            gw = np.zeros_like(w)
            for k, t in zip(slots, terms):
                gw[k] = _unbroadcast(g * t.data, ())
            _accumulate(weights, gw)
        for k, t in zip(slots, terms):
            if t.requires_grad:
                _accumulate(t, g * w[k])

    return Tensor._from_op(out, (weights, *terms), bw, "weighted_sum")


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
    e = np.exp(shifted)
    lse = np.log(e.sum(axis=1))
    nll = lse - shifted[np.arange(bsz), y]
    out = np.asarray(nll.mean(), dtype=logits.dtype)
    probs = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        grad = probs.copy()
        grad[np.arange(bsz), y] -= 1.0
        _accumulate(logits, g * grad / bsz)

    return Tensor._from_op(out, (logits,), bw, "cross_entropy")
