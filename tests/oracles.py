"""Independent oracles the test suite checks the package against.

Everything here is implemented with plain numpy loops and stays independent
of the code paths it verifies: central finite differences for gradients,
explicit per-head attention, double-loop token scores, a full-sort top-k, a
generic DAG walker, direct layer math, the whole-expression forms of the
primitives that run in place, a per-tensor AdamW step, the per-kind
gather-and-hinge chain of the fairness terms, and a walk of the arrays the
closures of a recorded graph hold. It also holds the Hypothesis strategy
for arbitrary JSON values that fuzzes the input documents, and a
checkpoint-manifest editor for damaging checkpoints.
"""

import json
import math
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from dasvit import autodiff as ad
from dasvit.autodiff import backward
from dasvit.ops import OP_KINDS


# -- finite-difference gradient oracle ----------------------------------------------


def analytic_grads(f, wrt):
    for t in wrt:
        t.grad = None
    loss = f()
    nodes = graph_nodes(loss)
    backward(loss)
    assert_grad_contract(nodes)
    return [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in wrt]


def graph_nodes(loss):
    """Every node of the graph recorded behind `loss`, its own included, and
    whether each is interior (recorded by a primitive) rather than a leaf.
    A leaf, or an op output no gradient flows through, is its own node and
    holds its value; an interior node holds none. Taken before the backward
    pass, which consumes the graph."""
    seen, stack, nodes = set(), [loss._node or loss], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append((node, bool(node._parents)))
        stack.extend(node._parents)
    return nodes


def assert_grad_contract(nodes):
    """After a backward pass every interior node of `nodes` (`graph_nodes`
    before the pass) has let go of its parents and holds no gradient; each
    leaf gradient has the leaf's shape, dtype and memory layout, and no two
    gradient arrays share memory."""
    grads = []
    for node, interior in nodes:
        if interior:
            assert node.grad is None, f"non-leaf {node!r} kept its gradient"
            assert node._parents == (), f"non-leaf {node!r} kept its parents"
        elif node.grad is not None:
            assert isinstance(node.grad, np.ndarray), f"{node!r} grad is not an array"
            assert node.grad.shape == node.shape, f"{node!r} grad shape {node.grad.shape}"
            assert node.grad.dtype == node.dtype, f"{node!r} grad dtype {node.grad.dtype}"
            assert node.grad.strides == node.data.strides, f"{node!r} grad layout"
            grads.append((node, node.grad))
    for i, (a, ga) in enumerate(grads):
        for b, gb in grads[i + 1:]:
            assert not np.shares_memory(ga, gb), f"{a!r} and {b!r} share a gradient buffer"


def numerical_grads(f, wrt, h=1e-5):
    grads = []
    for t in wrt:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(f().data)
            flat[i] = orig - h
            fm = float(f().data)
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_err(analytic, numeric):
    """Max-norm relative error over the concatenated gradient vector.

    A single denominator across the surface keeps finite-difference roundoff
    on negligible-gradient parameters from masquerading as a mismatch, while
    any error large against the dominant gradient scale still registers.
    """
    abs_err = 0.0
    scale = 0.0
    for a, n in zip(analytic, numeric):
        abs_err = max(abs_err, float(np.abs(a - n).max(initial=0.0)))
        scale = max(scale, float(np.abs(n).max(initial=0.0)))
    return abs_err / max(scale, 1e-6)


def check_grads(f, wrt, tol=1e-5, h=1e-5):
    err = max_rel_err(analytic_grads(f, wrt), numerical_grads(f, wrt, h=h))
    assert err < tol, f"gradient mismatch: max rel err {err:.3e} >= {tol}"
    return err


# -- graph memory ------------------------------------------------------------------


def _base(a):
    while a.base is not None:
        a = a.base
    return a


def _held_arrays(value):
    """The arrays a closure's cell value holds: itself, the items of a list
    or tuple, or a tensor's value."""
    if isinstance(value, ad.Tensor):
        value = value.data
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _held_arrays(item)


def closure_buffers(node):
    """The buffers of the arrays a node's backward closure holds, nested
    closures included; 0-d scalars aside."""
    kept, todo, seen = {}, [node._backward], set()
    while todo:
        fn = todo.pop()
        for cell in fn.__closure__ or ():
            value = cell.cell_contents
            for array in _held_arrays(value):
                if array.ndim:
                    kept[id(_base(array))] = _base(array)
            if callable(value) and getattr(value, "__closure__", None) \
                    and id(value) not in seen:
                seen.add(id(value))
                todo.append(value)
    return list(kept.values())


def kept_buffers(node):
    """`closure_buffers` of a node other than its leaf parents' values."""
    parents = {id(_base(p.data)) for p in node._parents if not p._parents}
    return [b for b in closure_buffers(node) if id(b) not in parents]


def graph_bytes(loss):
    """Bytes of the distinct buffers the closures of the graph recorded
    behind `loss` hold until its backward: no node holds its own output,
    so these are all the graph keeps. Buffers of leaves (parameters, inputs,
    constants) are not the graph's and are left out. Taken before the
    backward, which consumes the graph."""
    nodes = graph_nodes(loss)
    leaves = {id(_base(node.data)) for node, interior in nodes if not interior}
    held = {}
    for node, interior in nodes:
        if interior:
            for base in closure_buffers(node):
                if id(base) not in leaves:
                    held[id(base)] = base
    return sum(b.nbytes for b in held.values())


# -- plain-numpy layer math ------------------------------------------------------------


def softmax_np(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def layernorm_np(x, gamma=None, beta=None, eps=1e-6):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    y = (x - mu) / np.sqrt(var + eps)
    if gamma is not None:
        y = y * gamma + beta
    return y


def gelu_np(x):
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


# -- the plain expressions of the in-place primitives ---------------------------------
# ``autodiff.gelu`` and the ``autodiff.normalize`` backward run these in reused
# buffers; written out whole, with the same association, they give the same bits.

GELU_C = math.sqrt(2.0 / math.pi)
GELU_K = 0.044715


def gelu_expression(x):
    """(output, tanh term) of the tanh-GELU."""
    t = np.tanh(GELU_C * (x + GELU_K * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def gelu_grad_expression(x, t, g):
    d_inner = GELU_C * (1.0 + 3.0 * GELU_K * (x * x))
    local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
    return g * local


def _normalized(x, eps):
    """(normed, inv) of `x` over its last axis."""
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / n
    centered = x - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    return centered * inv, inv


def normalize_grad_expression(x, gs, eps=1e-6):
    """The gradient at `x` of its normalization under the upstream `gs`."""
    n = x.shape[-1]
    normed, inv = _normalized(x, eps)
    gm = np.add.reduce(gs, axis=-1, keepdims=True) / n
    gy = np.add.reduce(gs * normed, axis=-1, keepdims=True) / n
    return inv * (gs - gm - normed * gy)


def layer_norm_expression(x, gamma, beta, g, eps=1e-6):
    """(output, grad x, grad gamma, grad beta) of the affine layer norm of
    `x` under the upstream gradient `g`."""
    normed, _ = _normalized(x, eps)
    lead = tuple(range(x.ndim - 1))
    return (normed * gamma + beta, normalize_grad_expression(x, g * gamma, eps),
            (g * normed).sum(axis=lead), g.sum(axis=lead))


def attention_oracle(x, wq, wk, wv, wo, bo, heads, gamma=None, beta=None):
    """Per-head attention with explicit (i, j) loops over token pairs."""
    bsz, n, dim = x.shape
    dk = dim // heads
    z = layernorm_np(x, gamma, beta) if gamma is not None else x
    out = np.zeros_like(x)
    for b in range(bsz):
        head_outs = []
        for h in range(heads):
            cols = slice(h * dk, (h + 1) * dk)
            q = z[b] @ wq[:, cols]
            k = z[b] @ wk[:, cols]
            v = z[b] @ wv[:, cols]
            scores = np.zeros((n, n), dtype=x.dtype)
            for i in range(n):
                for j in range(n):
                    scores[i, j] = float(q[i] @ k[j]) / math.sqrt(dk)
            head_outs.append(softmax_np(scores) @ v)
        out[b] = np.concatenate(head_outs, axis=-1) @ wo + bo
    return out


def mlp_oracle(x, w1, b1, w2, b2, gamma=None, beta=None):
    z = layernorm_np(x, gamma, beta) if gamma is not None else x
    return gelu_np(z @ w1 + b1) @ w2 + b2


def token_scores_oracle(x, wq, wk):
    """Double loop over (i, j) token pairs, averaged over j."""
    bsz, n, c = x.shape
    out = np.zeros((bsz, n), dtype=x.dtype)
    for b in range(bsz):
        q = x[b] @ wq
        k = x[b] @ wk
        for i in range(n):
            total = 0.0
            for j in range(n):
                total += float(q[i] @ k[j])
            out[b, i] = total / n / math.sqrt(c)
    return out


def token_scores_nn(x, wq, wk):
    """The (B, N, N) query-key product of every token pair, averaged over the
    keys: the score as written before the mean key replaced the product."""
    q = x @ wq
    k = x @ wk
    return (q @ k.swapaxes(1, 2)).mean(axis=2) / math.sqrt(x.shape[-1])


def topk_oracle(scores, k):
    """Full-sort top-k indices, descending score, ties to the lower index."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]


def walk_dag(inputs, num_nodes, edges):
    """Evaluate a DAG of single-argument edge functions.

    `inputs` seeds node values; each new node sums its incoming edges'
    outputs. Returns the full node-value list.
    """
    values = list(inputs)
    first = len(inputs)
    for node in range(first, first + num_nodes):
        total = None
        for (src, dst), fn in edges.items():
            if dst == node:
                term = fn(values[src])
                total = term if total is None else total + term
        if total is None:
            raise AssertionError(f"dag oracle: node {node} has no incoming edges")
        values.append(total)
    return values


# -- per-tensor AdamW step ----------------------------------------------------------


def adamw_step_oracle(params, m, v, step_count, lr, betas=(0.9, 0.999), eps=1e-8,
                      weight_decay=0.0):
    """One AdamW update of each tensor in `params` in turn, with its own
    moment arrays ``m[name]``/``v[name]`` updated in place; `step_count`
    counts this step."""
    b1, b2 = betas
    bc1 = 1.0 - b1**step_count
    bc2 = 1.0 - b2**step_count
    for name, p in params.items():
        g = p.grad
        if weight_decay:
            p.data *= 1.0 - lr * weight_decay
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
        p.data -= lr * update


# -- per-kind fairness chain ---------------------------------------------------------


def fairness_per_kind(alpha, cfg):
    """(skip term, type term) of `alpha` as autodiff tensors, one gather,
    sum and hinge per operation kind, accumulated kind by kind in
    ``OP_KINDS`` order; a term with no kind to read is a 0 in the default
    dtype."""
    zero = ad.Tensor(np.zeros((), dtype=ad.default_dtype()))

    def columns(kind):
        return [i for i, spec in enumerate(alpha.candidates) if spec.kind == kind]

    cols = columns("identity")
    skip = ad.softmax(alpha.logits)[:, cols].sum(axis=1).mean() if cols else zero
    w = ad.softmax(alpha.logits)
    total = None
    for kind in OP_KINDS:
        cols = columns(kind)
        if not cols:
            continue
        sums = w[:, cols].sum(axis=1)
        over = ad.relu(sums - cfg.gamma_max) * cfg.zeta1
        under = ad.relu(cfg.gamma_min - sums) * cfg.zeta2
        term = (over + under).sum()
        total = term if total is None else total + term
    return skip, (zero if total is None else total)


# -- arbitrary JSON input ----------------------------------------------------------


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def json_paths(doc, prefix=()):
    """Every key path of a JSON document, objects and lists included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from json_paths(value, prefix + (key,))


def set_json_path(doc, path, value):
    """Replace the value at `path` of `doc` in place."""
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def edit_manifest(path, edit):
    """Apply `edit` to the JSON manifest on line 1 of the checkpoint at `path`
    and write it back in front of the unchanged data section."""
    head, _, data = Path(path).read_bytes().partition(b"\n")
    manifest = json.loads(head)
    edit(manifest)
    Path(path).write_bytes(json.dumps(manifest).encode() + b"\n" + data)
