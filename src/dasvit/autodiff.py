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
saved are freed while the pass goes on, not when the caller drops the
loss. A second ``backward`` through a consumed node raises ``DasvitError``.
Leaf gradients still accumulate across separate graphs: a forward and
backward per micro-batch, without zeroing in between, sums their gradients.

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

A graph node does not hold its op's output. A leaf (a parameter or an
input), and an op output no gradient flows through, is its own node. An op
output that takes a gradient is a ``Tensor`` whose node is a separate
``Node``: its parents' nodes, its backward closure, its gradient, and its
output's shape, dtype and strides, by which ``_accumulate`` lays out a first
gradient. A closure captures its parents' nodes and only the arrays it
reads: ``mul`` both operands, ``matmul`` its rows and its weight, ``affine``
and the candidate nodes the normalized input, ``weighted_sum`` its terms
only when its weights take a gradient (the α phase). An op's output so
lives only while Python code, or a closure that reads it, holds it: in the
weight phase and in retraining every candidate output, edge, node and cell
sum is freed once the op that consumes it has run. This is the rule of Chen
et al. (arXiv 1604.06174), free what the backward will not read; the
candidate nodes below also apply its recomputation.

The hot compositions are single nodes: ``matmul`` takes a ``bias``,
``weighted_sum`` is a mixed edge's whole weighted sum, and each MSA and MLP
candidate, with its norm's scale and shift, is one node. As a chain of
primitives, each link's closure would keep what it reads: the scaled and
shifted input ``z`` for every projection, the GELU output for the second
one. A single node computes the same floats in the same order as the chain
it replaces, forward and backward. A candidate node keeps at most its
softmax output: every other array its backward reads is one GEMM or less
away from ``z = normed * gamma + beta``, and ``normed`` is shared with its
``normalize`` node, which keeps it anyway. What each keeps:

* ``self_attention`` (the q/k/v projections of ``z``, multi-head
  scaled-softmax attention, the head merge and the biased output
  projection): the (B, H, N, N) softmax output alone. Its backward rebuilds
  v for the output weight's gradient or the scores', q and k for the
  scores' gradient, each with the forward's ``z @ w`` product and views.
* ``feed_forward`` (biased projection of ``z``, GELU, biased projection):
  nothing beyond its operands. Its backward rebuilds the hidden
  pre-activation ``h = z @ w1 + b1`` and its tanh term, and the GELU output
  only when the second weight takes a gradient. Both directions run the
  GELU chain over row blocks of about ``GELU_BLOCK`` elements in place, so
  no tanh term or GELU temporary is ever hidden-sized.

Either backward rebuilds ``z`` once, unless only its output bias takes a
gradient, when it rebuilds nothing; the α phase, whose gradient reaches the
normalized input through the scores and the hidden layer, rebuilds ``z``,
q, k, v and ``h``. A rebuilt array comes from the same operations, in the
same order, as the forward's, so it holds the forward's bits. The cost is
one GEMM per rebuilt projection: a weight-phase step runs three more D×D
products per MSA and one more D×hidden product per MLP candidate.

``gelu`` keeps its input and ``t = tanh(c·(x + k·x³))``, the ``normalize``
backward its output and the (..., 1) reciprocal deviation; each does the
plain expression's operations in its order, so the floats are the
expression's. The pre-norm ops that read one value share its one
``normalize`` node (``ops.CellValue``), whose backward runs once over their
summed gradient. ``affine`` is a norm's scale and shift as a node of its
own; only the final ``layer_norm``, ``affine(normalize(x), gamma, beta)``,
records one.

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


@contextmanager
def dtype_scope(dtype):
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in _FLOAT_DTYPES:
        raise ShapeError(f"default dtype must be float32 or float64, got {dt}")
    old, _DEFAULT_DTYPE = _DEFAULT_DTYPE, dt
    try:
        yield
    finally:
        _DEFAULT_DTYPE = old


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


class Node:
    """A recorded op's place in the graph, without its output: the parents'
    nodes, the backward closure, the gradient, and the output's shape, dtype
    and strides, which `_accumulate` lays a first gradient out by."""

    __slots__ = ("grad", "_parents", "_backward", "shape", "dtype", "strides")
    requires_grad = True

    def empty(self) -> np.ndarray:
        """An uninitialised array laid out as ``np.empty_like`` lays out one
        of the output's: in C, else Fortran order when the output is
        contiguous in it, else with its axes in decreasing stride order."""
        shape, strides, n = self.shape, self.strides, len(self.shape)
        for order, axes in (("C", range(n - 1, -1, -1)), ("F", range(n))):
            step = self.dtype.itemsize
            for ax in axes:
                if shape[ax] != 1:
                    if strides[ax] != step:
                        break
                    step *= shape[ax]
            else:
                return np.empty(shape, self.dtype, order=order)
        axes = sorted(range(n), key=lambda ax: -abs(strides[ax]))  # stable: ties keep axis order
        return np.empty([shape[ax] for ax in axes], self.dtype).transpose(np.argsort(axes))


class Tensor:
    """Dense n-dimensional array with optional gradient accumulation.

    A leaf, and an op output no gradient flows through, is its own graph
    node. An op output that takes a gradient is an ``_Output``, whose
    ``_node`` is a separate `Node` that does not hold the output; either
    way ``t._node or t`` is the node of ``t``.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: Sequence, backward: Callable[[np.ndarray], None],
                 op: str) -> "Tensor":
        """The output `data` of the primitive `op`, recorded over `parents`,
        its operands' nodes, when one of them takes a gradient."""
        if _CHECK_PRIMITIVES:
            _check_finite(data, op)
        for p in parents:
            if p.requires_grad:
                break
        else:
            out = Tensor.__new__(Tensor)
            out.data = data
            out.grad = None
            out.name = ""
            out.requires_grad = False
            out._parents = ()
            out._backward = None
            return out
        node = Node.__new__(Node)
        node.grad = None
        node._parents = tuple(parents)
        node._backward = backward
        node.shape, node.dtype, node.strides = data.shape, data.dtype, data.strides
        out = _Output.__new__(_Output)
        out.data = data
        out.name = ""
        out.requires_grad = True
        out._node = node
        return out

    _node = None  # its own node

    def empty(self) -> np.ndarray:
        return np.empty_like(self.data)

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

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_lift(other, self), self)

    def __mul__(self, other):
        return mul(self, other)

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


def _on_node(attr: str) -> property:
    return property(lambda t: getattr(t._node, attr),
                    lambda t, value: setattr(t._node, attr, value))


class _Output(Tensor):
    """An op output that takes a gradient: the value, and its `Node`, which
    holds the gradient, the parents and the closure this tensor shows."""

    __slots__ = ("_node",)

    grad = _on_node("grad")
    _parents = _on_node("_parents")
    _backward = _on_node("_backward")


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data, name: str = "") -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


def _lift(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def _accumulate(t, g: np.ndarray) -> None:
    """Add `g` to the gradient of the node `t`; never writes into an
    existing array (see module doc).

    ``t.grad`` always has the dtype and memory layout of `t`'s value: a
    first `g` laid out otherwise is copied. Closures reduce and multiply
    their incoming gradient, and numpy's summation order follows the layout,
    so this keeps every gradient bitwise what adding into ``zeros_like`` of
    the value gave (except that a lone -0.0 stays -0.0).
    """
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad = np.add(t.grad, g, out=np.empty_like(t.grad))
        return
    like = t if type(t) is Node else t.data  # a node keeps its value's layout
    if (type(g) is np.ndarray and g.dtype == like.dtype and g.strides == like.strides
            and g.shape == like.shape):
        t.grad = g
    else:
        t.grad = t.empty()
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
    root = loss._node or loss
    topo: list = []
    visited: set = set()  # nodes hash by identity
    stack: list[tuple] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for parent in node._parents:
            if parent not in visited:
                stack.append((parent, False))
    # non-leaf grads are per-pass scratch; only leaves accumulate across calls
    for node in topo:
        if node._backward is _consumed:
            _consumed(node.grad)  # refused before any gradient moves
        if node._backward is not None:
            node.grad = None
    root.grad = np.ones_like(loss.data)
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
    an, bn = a._node or a, b._node or b

    def bw(g):
        if an.requires_grad:
            _accumulate(an, _unbroadcast(g, an.shape))
        if bn.requires_grad:
            _accumulate(bn, _unbroadcast(g, bn.shape))

    return Tensor._from_op(out, (an, bn), bw, "add")


def sub(a, b) -> Tensor:
    a = as_tensor(a)
    b = _lift(b, a)
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} do not broadcast") from None
    an, bn = a._node or a, b._node or b

    def bw(g):
        if an.requires_grad:
            _accumulate(an, _unbroadcast(g, an.shape))
        if bn.requires_grad:
            _accumulate(bn, _unbroadcast(-g, bn.shape))

    return Tensor._from_op(out, (an, bn), bw, "sub")


def mul(a, b) -> Tensor:
    a = as_tensor(a)
    b = _lift(b, a)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None
    an, bn, x, y = a._node or a, b._node or b, a.data, b.data

    def bw(g):
        if an.requires_grad:
            _accumulate(an, _unbroadcast(g * y, an.shape))
        if bn.requires_grad:
            _accumulate(bn, _unbroadcast(g * x, bn.shape))

    return Tensor._from_op(out, (an, bn), bw, "mul")


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
    an, bn, x, y = a._node or a, b._node or b, a.data, b.data

    def bw(g):
        if an.requires_grad:
            _accumulate(an, _unbroadcast(g @ y.swapaxes(-1, -2), an.shape))
        if bn.requires_grad:
            _accumulate(bn, _unbroadcast(x.swapaxes(-1, -2) @ g, bn.shape))

    return Tensor._from_op(out, (an, bn), bw, "matmul")


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
    an, bn, w = a._node or a, b._node or b, b.data
    cn = None if bias is None else bias._node or bias

    def bw(g):
        g2 = g.reshape(-1, g.shape[-1])
        if an.requires_grad:
            _accumulate(an, (g2 @ w.T).reshape(an.shape))
        if bn.requires_grad:
            _accumulate(bn, a2.T @ g2)
        if cn is not None and cn.requires_grad:
            _accumulate(cn, _unbroadcast(g, cn.shape))

    return Tensor._from_op(out, (an, bn) if cn is None else (an, bn, cn), bw, "matmul")


def transpose(a: Tensor, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose: axes {axes} invalid for shape {a.shape}")
    inverse = [0] * len(axes)
    for i, ax in enumerate(axes):
        inverse[ax] = i
    an = a._node or a

    def bw(g):
        _accumulate(an, g.transpose(inverse))

    return Tensor._from_op(a.data.transpose(axes), (an,), bw, "transpose")


def reshape(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view shape {a.shape} as {shape}") from None
    an = a._node or a

    def bw(g):
        _accumulate(an, g.reshape(an.shape))

    return Tensor._from_op(out, (an,), bw, "reshape")


def broadcast_to(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    try:
        out = np.broadcast_to(a.data, shape).copy()
    except ValueError:
        raise ShapeError(f"broadcast_to: cannot broadcast {a.shape} to {shape}") from None
    an = a._node or a

    def bw(g):
        _accumulate(an, _unbroadcast(g, an.shape))

    return Tensor._from_op(out, (an,), bw, "broadcast_to")


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
    nodes = [p._node or p for p in parts]

    def bw(g):
        for p, piece in zip(nodes, np.split(g, splits, axis=axis)):
            _accumulate(p, piece)

    return Tensor._from_op(out, nodes, bw, "concat")


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
    an = a._node or a

    def bw(g):
        full = np.zeros(an.shape, an.dtype)
        if gather:
            np.add.at(full, key, g)
        else:
            full[key] += g  # basic keys address each element once
        _accumulate(an, full)

    return Tensor._from_op(out, (an,), bw, "index")


# -- reductions ---------------------------------------------------------------------


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    an = a._node or a

    def bw(g):
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            g = np.expand_dims(g, axes)
        _accumulate(an, np.broadcast_to(g, an.shape).copy())

    return Tensor._from_op(np.asarray(out), (an,), bw, "sum")


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    # a Python int: an np.int64 divisor would promote a float32 gradient to float64
    count = a.data.size if axis is None else math.prod(
        a.shape[ax] for ax in ((axis,) if isinstance(axis, int) else tuple(axis)))
    an = a._node or a

    def bw(g):
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            g = np.expand_dims(g, axes)
        _accumulate(an, np.broadcast_to(g, an.shape).copy() / count)

    return Tensor._from_op(np.asarray(out), (an,), bw, "mean")


# -- nonlinearities ---------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    a = as_tensor(a)
    an, x = a._node or a, a.data
    out = np.maximum(x, 0)

    def bw(g):
        _accumulate(an, g * (x > 0))

    return Tensor._from_op(out, (an,), bw, "relu")


def sigmoid(a: Tensor) -> Tensor:
    a = as_tensor(a)
    x = a.data
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = out.astype(x.dtype)
    an = a._node or a

    def bw(g):
        _accumulate(an, g * out * (1.0 - out))

    return Tensor._from_op(out, (an,), bw, "sigmoid")


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


def _gelu_from_tanh(x: np.ndarray, t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The GELU output ``0.5·x·(1 + t)`` of `x` and its tanh term, in `out`
    (which may be `x`) or a fresh buffer."""
    out = np.multiply(x, 0.5, out=out)
    out *= np.add(t, 1.0)
    return out


def _gelu_grad(x: np.ndarray, t: np.ndarray, g: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """``g·(0.5·(1 + t) + 0.5·x·(1 - t²)·c·(1 + 3k·x²))``, the gradient at
    `x` under `g`, in `out` (which may be `g`) or the third of three
    x-sized buffers."""
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
    return np.multiply(local, g, out=local if out is None else out)


#: Most elements one step of the GELU chain touches in `feed_forward`.
GELU_BLOCK = 1 << 15


def _gelu_rows(h: np.ndarray, g: np.ndarray | None = None, output: bool = True) -> None:
    """The GELU chain over the rows of the 2-D `h`, a block of about
    `GELU_BLOCK` elements at a time, in place: `g`, when given, becomes the
    gradient at `h` under it, then `h` becomes the GELU output when
    `output`. Each element sees the operations of the whole-array chain, so
    the bits are its; the tanh term and the temporaries are block-sized."""
    step = max(1, GELU_BLOCK // max(1, h.shape[1]))
    for lo in range(0, h.shape[0], step):
        hb = h[lo:lo + step]
        t = _gelu_tanh(hb)
        if g is not None:
            gb = g[lo:lo + step]
            _gelu_grad(hb, t, gb, out=gb)
        if output:
            _gelu_from_tanh(hb, t, out=hb)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximated GELU; erf-free and deterministic.

    Forward and backward each run in three (x-sized) buffers; the backward
    keeps only ``t = tanh(...)`` beside the input.
    """
    a = as_tensor(a)
    x = a.data
    t = _gelu_tanh(x)
    out = _gelu_from_tanh(x, t)
    an = a._node or a

    def bw(g):
        _accumulate(an, _gelu_grad(x, t, g))

    return Tensor._from_op(out, (an,), bw, "gelu")


def feed_forward(normed: Tensor, gamma: Tensor, beta: Tensor, w1: Tensor, b1: Tensor,
                 w2: Tensor, b2: Tensor) -> Tensor:
    """``gelu(z @ w1 + b1) @ w2 + b2`` with ``z = normed * gamma + beta``, over
    the last axis of `normed`, as one node.

    It computes the floats of the ``affine``, biased ``matmul``, ``gelu``,
    biased ``matmul`` chain in its order, forward and backward, and keeps no
    array beyond its operands'. The backward rebuilds ``z`` and the hidden
    pre-activation ``h = z @ w1 + b1`` with the forward's operations unless
    only `b2` takes a gradient, and the GELU output only when `w2` takes
    one. Both directions run the GELU chain over row blocks (`_gelu_rows`).
    """
    normed, gamma, beta, w1, b1, w2, b2 = map(as_tensor, (normed, gamma, beta, w1, b1, w2, b2))
    x, scale, shift, w1d, b1d, w2d, b2d = (
        normed.data, gamma.data, beta.data, w1.data, b1.data, w2.data, b2.data)
    if (x.ndim < 2 or w1d.ndim != 2 or w2d.ndim != 2 or w1d.shape[0] != x.shape[-1]
            or b1d.shape != w1d.shape[1:] or w2d.shape[0] != w1d.shape[1]
            or b2d.shape != w2d.shape[1:]):
        raise ShapeError(f"feed_forward: input {x.shape}, w1 {w1d.shape}, b1 {b1d.shape}, "
                         f"w2 {w2d.shape} and b2 {b2d.shape} do not chain")
    _check_scale_shift("feed_forward", x, scale, shift)
    dim, width = w1d.shape
    parents = xn, gn, bn, w1n, b1n, w2n, b2n = (
        normed._node or normed, gamma._node or gamma, beta._node or beta, w1._node or w1,
        b1._node or b1, w2._node or w2, b2._node or b2)

    def hidden(rows):
        h = rows @ w1d
        h += b1d
        return h

    act = hidden(_scale_shift(x, scale, shift).reshape(-1, dim))
    _gelu_rows(act)
    out = act @ w2d
    out += b2d
    out = out.reshape(x.shape[:-1] + w2d.shape[1:])

    def bw(g):
        g2 = g.reshape(-1, g.shape[-1])
        if b2n.requires_grad:
            _accumulate(b2n, _unbroadcast(g, b2n.shape))
        z_grad = xn.requires_grad or gn.requires_grad or bn.requires_grad
        hidden_grad = z_grad or w1n.requires_grad or b1n.requires_grad
        if not (hidden_grad or w2n.requires_grad):
            return
        rows = _scale_shift(x, scale, shift).reshape(-1, dim)
        act = hidden(rows)
        gh2 = g2 @ w2d.T if hidden_grad else None
        _gelu_rows(act, gh2, output=w2n.requires_grad)
        if w2n.requires_grad:
            _accumulate(w2n, act.T @ g2)
        del act
        if hidden_grad:
            if z_grad:
                _scale_shift_backward(xn, gn, bn, x, scale, (gh2 @ w1d.T).reshape(x.shape))
            if w1n.requires_grad:
                _accumulate(w1n, rows.T @ gh2)
            if b1n.requires_grad:
                _accumulate(b1n, _unbroadcast(gh2.reshape(x.shape[:-1] + (width,)),
                                              b1n.shape))

    return Tensor._from_op(out, parents, bw, "feed_forward")


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, max-shifted for stability."""
    a = as_tensor(a)
    x = a.data
    # shift, exp and normalize in one fresh buffer
    out = x - x.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    an = a._node or a

    def bw(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        _accumulate(an, out * (g - dot))

    return Tensor._from_op(out, (an,), bw, "softmax")


# (B, N, H, d) to (B, H, N, d), and to (B, H, d, N) for the keys
_HEADS = (0, 2, 1, 3)
_HEADS_T = (0, 2, 3, 1)


def self_attention(normed: Tensor, gamma: Tensor, beta: Tensor, wq: Tensor, wk: Tensor,
                   wv: Tensor, wo: Tensor, bo: Tensor, heads: int) -> Tensor:
    """Multi-head self-attention of the (B, N, D) tokens
    ``z = normed * gamma + beta`` as one node: the projections
    ``q, k, v = z @ wq, z @ wk, z @ wv``, per head
    ``softmax(q_h k_hᵀ / √d) v_h`` with d = D / heads, the heads merged back
    to (B, N, D), then ``@ wo + bo``.

    It computes the floats of the chain it replaces (an ``affine``, three
    ``matmul``s, the reshape/transpose/matmul/scaled-softmax/matmul/
    transpose/reshape core and a biased ``matmul``) in its order, forward and
    backward, and each product gets the operand layouts that chain gave it.
    It keeps only the (B, H, N, N) softmax output; ``z``, q, k, v, the
    pre-softmax scores, the per-head ``attn @ v`` product and its head merge
    are temporaries. Unless only `bo` takes a gradient, the backward rebuilds
    ``z`` once and, with the forward's products and views, the projections
    the products it runs read: v for `wo`'s gradient or the scores', q and
    k for the scores' gradient. It sums the three projections' parts of the
    gradient of ``z`` one by one, in the q, k, v order in which the chain's
    backward reached them, then hands the sum to the scale and shift as
    ``affine``'s backward does.
    """
    normed, gamma, beta, wq, wk, wv, wo, bo = map(
        as_tensor, (normed, gamma, beta, wq, wk, wv, wo, bo))
    x, scale, shift, wq_d, wk_d, wv_d, wo_d, bo_d = (
        normed.data, gamma.data, beta.data, wq.data, wk.data, wv.data, wo.data, bo.data)
    if x.ndim != 3:
        raise ShapeError(f"self_attention: input {x.shape} is not (B, N, D)")
    bsz, n, dim = shape = x.shape
    _check_scale_shift("self_attention", x, scale, shift)
    for w in (wq_d, wk_d, wv_d, wo_d):
        if w.shape != (dim, dim):
            raise ShapeError(f"self_attention: weight {w.shape} does not fit input {shape}")
    if bo_d.shape != (dim,):
        raise ShapeError(f"self_attention: bias {bo_d.shape} does not fit input {shape}")
    if heads < 1 or dim % heads:
        raise ShapeError(f"self_attention: width of {shape} is not divisible by "
                         f"{heads} heads")
    parents = xn, gn, bn, wqn, wkn, wvn, won, bon = (
        normed._node or normed, gamma._node or gamma, beta._node or beta, wq._node or wq,
        wk._node or wk, wv._node or wv, wo._node or wo, bo._node or bo)
    projections = [(wqn, wq_d), (wkn, wk_d), (wvn, wv_d)]
    split = (bsz, n, heads, dim // heads)

    def project(rows, w, axes):
        """``rows @ w`` split into heads: (B, H, N, d), or (B, H, d, N) for k."""
        return (rows @ w).reshape(split).transpose(axes)

    rows = _scale_shift(x, scale, shift).reshape(-1, dim)
    qh = project(rows, wq_d, _HEADS)
    kt = project(rows, wk_d, _HEADS_T)
    vh = project(rows, wv_d, _HEADS)
    del rows
    s = np.asarray(1.0 / math.sqrt(dim // heads), dtype=x.dtype)
    # the scores become the softmax output in place: one (B, H, N, N) buffer
    attn = qh @ kt
    del qh, kt
    attn *= s
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    out = (attn @ vh).transpose(_HEADS).reshape(-1, dim) @ wo_d
    out += bo_d
    out = out.reshape(shape)

    def bw(g):
        g2 = g.reshape(-1, dim)
        if bon.requires_grad:
            _accumulate(bon, _unbroadcast(g, bon.shape))
        z_grad = xn.requires_grad or gn.requires_grad or bn.requires_grad
        need = [z_grad or wn.requires_grad for wn, _ in projections]
        scores = need[0] or need[1]  # the gradient passes through the scores
        if not (won.requires_grad or any(need)):
            return
        rows = _scale_shift(x, scale, shift).reshape(-1, dim)
        vh = project(rows, wv_d, _HEADS) if won.requires_grad or scores else None
        if won.requires_grad:
            _accumulate(won, (attn @ vh).transpose(_HEADS).reshape(-1, dim).T @ g2)
        if not any(need):
            return
        # the chain copied the merged-head gradient into (B, H, N, d) order
        gh = (g2 @ wo_d.T).reshape(split).transpose(_HEADS).copy()
        parts = [None, None, None]  # the gradients reaching q, k and v
        if need[2]:
            gv = attn.swapaxes(-1, -2) @ gh
            parts[2] = gv.transpose(_HEADS).reshape(-1, dim)
        if scores:
            gs = gh @ vh.swapaxes(-1, -2)
            del vh
            dot = (gs * attn).sum(axis=-1, keepdims=True)
            gs -= dot
            gs *= attn
            gs *= s
            if need[0]:
                gq = gs @ project(rows, wk_d, _HEADS_T).swapaxes(-1, -2)
                parts[0] = gq.transpose(_HEADS).reshape(-1, dim)
            if need[1]:
                gk = project(rows, wq_d, _HEADS).swapaxes(-1, -2) @ gs  # (B, H, d, N)
                parts[1] = gk.transpose(0, 3, 1, 2).reshape(-1, dim)
            del gs
        del gh
        gz = None  # the gradient reaching z
        for (wn, w), gp in zip(projections, parts):
            if wn.requires_grad:
                _accumulate(wn, rows.T @ gp)
            if z_grad:
                gp = gp @ w.T
                gz = gp if gz is None else np.add(gz, gp, out=gz)
        del rows
        if z_grad:
            _scale_shift_backward(xn, gn, bn, x, scale, gz.reshape(shape))

    return Tensor._from_op(out, parents, bw, "self_attention")


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
    n, an = a.shape[-1], a._node or a
    normed, inv = _normalize(a.data)

    def bw(g):
        # inv·(g - mean(g) - normed·mean(g·normed)), never written into `g`
        gm = np.add.reduce(g, axis=-1, keepdims=True) / n
        tmp = g * normed
        gy = np.add.reduce(tmp, axis=-1, keepdims=True) / n
        ga = g - gm
        ga -= np.multiply(normed, gy, out=tmp)
        ga *= inv
        _accumulate(an, ga)

    return Tensor._from_op(normed, (an,), bw, "normalize")


def _check_scale_shift(op: str, x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> None:
    if gamma.shape != x.shape[-1:] or beta.shape != gamma.shape:
        raise ShapeError(f"{op}: gamma {gamma.shape} and beta {beta.shape} do not fit "
                         f"input {x.shape}")


def _scale_shift(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``x * gamma + beta`` in one fresh buffer."""
    out = x * gamma
    out += beta
    return out


def _scale_shift_backward(an, gn, bn, x: np.ndarray, scale: np.ndarray,
                          g: np.ndarray) -> None:
    """Hand the gradient `g` of ``x * scale + shift`` to the nodes of the
    shift `bn`, the scale `gn` and `x` (`an`)."""
    if bn.requires_grad:
        _accumulate(bn, _unbroadcast(g, bn.shape))
    if gn.requires_grad:
        _accumulate(gn, _unbroadcast(g * x, gn.shape))
    if an.requires_grad:
        _accumulate(an, g * scale)


def affine(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """``a * gamma + beta`` over the last axis of `a`, as one node that keeps
    only `a` and `gamma`, the arrays its backward reads."""
    a, gamma, beta = as_tensor(a), as_tensor(gamma), as_tensor(beta)
    x, scale, shift = a.data, gamma.data, beta.data
    _check_scale_shift("affine", x, scale, shift)
    nodes = (a._node or a, gamma._node or gamma, beta._node or beta)

    def bw(g):
        _scale_shift_backward(*nodes, x, scale, g)

    return Tensor._from_op(_scale_shift(x, scale, shift), nodes, bw, "affine")


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Layer norm over the last axis: ``affine(normalize(a), gamma, beta)``."""
    return affine(normalize(a), gamma, beta)


def weighted_sum(weights: Tensor, terms: Sequence[Tensor], slots: Sequence[int]) -> Tensor:
    """``weights[slots[0]] * terms[0] + weights[slots[1]] * terms[1] + ...``
    added left to right, as one node: a mixed edge's output.

    `weights` is 1-D and every term has one shape. Weight ``k`` gets the
    gradient ``sum(g * term)`` of its term; slots no term uses get 0. The
    node keeps the terms only when `weights` takes a gradient, as in the α
    phase; otherwise its backward reads only the weights.
    """
    weights = as_tensor(weights)
    terms = [as_tensor(t) for t in terms]
    if not terms or len(terms) != len(slots) or weights.ndim != 1:
        raise ShapeError(f"weighted_sum: {len(terms)} terms for slots {list(slots)} "
                         f"of weights {weights.shape}")
    shape = terms[0].data.shape
    for t in terms:
        if t.data.shape != shape:
            raise ShapeError(f"weighted_sum: term shapes {shape} and {t.shape} differ")
    w = weights.data
    out = w[slots[0]] * terms[0].data
    scratch = None  # one term buffer, reused
    for k, t in zip(slots[1:], terms[1:]):
        scratch = np.multiply(w[k], t.data, out=scratch)
        out += scratch

    wn, nodes = weights._node or weights, [t._node or t for t in terms]
    values = [t.data for t in terms] if weights.requires_grad else None

    def bw(g):
        if values is not None:
            gw = np.zeros_like(w)
            for k, x in zip(slots, values):
                gw[k] = _unbroadcast(g * x, ())
            _accumulate(wn, gw)
        for k, t in zip(slots, nodes):
            if t.requires_grad:
                _accumulate(t, g * w[k])

    return Tensor._from_op(out, (wn, *nodes), bw, "weighted_sum")


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
    total = e.sum(axis=1, keepdims=True)
    nll = np.log(total[:, 0]) - shifted[np.arange(bsz), y]
    out = np.asarray(nll.mean(), dtype=logits.dtype)
    probs = e / total
    ln = logits._node or logits

    def bw(g):
        grad = probs.copy()
        grad[np.arange(bsz), y] -= 1.0
        _accumulate(ln, g * grad / bsz)

    return Tensor._from_op(out, (ln,), bw, "cross_entropy")
