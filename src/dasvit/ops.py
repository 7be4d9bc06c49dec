"""Candidate operations of the search space plus patch embedding and head.

All candidate ops are shape-preserving maps (B, N, D) -> (B, N, D) of a
`CellValue`; Zero and Identity read its tensor, MSA and MLP its one shared
normalization, to which each applies its own norm's scale and shift inside
its one autodiff node:

* Zero       -- all-zero output, no parameters
* Identity   -- passes the input through, no parameters
* MSA        -- pre-norm multi-head self-attention (Q/K/V unbiased, output
                projection biased), configurable head count
* MLP        -- pre-norm two-layer feed-forward with GELU, configurable
                hidden ratio

Ops are residual-free; the additive aggregation of the surrounding cell DAG
supplies the residual role. That DAG is fixed and shared by the supernet and
every derived model; `CELL_EDGES` holds its topology and `walk_cell` runs it:

    inputs:        in0 (two layers back), in1 (previous layer)
    intermediates: n0 = e0(in0) + e1(in1)
                   n1 = e2(in0) + e3(in1) + e4(n0)
    output:        n0 + n1
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import types
import typing
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DasvitError, ShapeError

OP_KINDS = ("zero", "identity", "msa", "mlp")
INIT_STD = 0.02


def is_finite_number(value) -> bool:
    """Whether a JSON value is an int or float (not a bool) a float holds finitely."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


# -- the JSON reader -----------------------------------------------------------------

def json_key(f: dataclasses.Field) -> str:
    return f.metadata.get("json", f.name)


#: What a JSON leaf must be to fill a field of each scalar type.
_SCALARS = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number", is_finite_number),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _read_value(hint, value, path: str, error: type[DasvitError]):
    """`value` checked against the field type `hint`; nested dataclasses are
    built from their JSON objects and a float field holds a Python float."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        if value is None:
            return None
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    if dataclasses.is_dataclass(hint):
        return read_json(hint, value, path, error)
    if typing.get_origin(hint) is list:
        if not isinstance(value, list):
            raise error(f"{path}: expected a list, got {value!r}")
        (item,) = typing.get_args(hint)
        return [_read_value(item, v, f"{path}[{i}]", error) for i, v in enumerate(value)]
    expected, accepts = _SCALARS[hint]
    if not accepts(value):
        raise error(f"{path}: expected {expected}, got {value!r}")
    return float(value) if hint is float else value


def read_json(cls, doc, path: str, error: type[DasvitError] = ConfigError):
    """The dataclass `cls` built from the JSON object `doc` at `path`, each
    field read by its type annotation under its JSON key. An unknown key, a
    missing key of a field without a default, a value of the wrong type and
    a `DasvitError` of the dataclass's own checks raise `error` naming the
    JSON path."""
    if not isinstance(doc, dict):
        raise error(f"{path}: expected an object")
    hints = typing.get_type_hints(cls)
    by_key = {json_key(f): f for f in dataclasses.fields(cls)}
    for key in doc:
        if key not in by_key:
            raise error(f"{path}.{key}: unknown key")
    kwargs = {}
    for key, f in by_key.items():
        if key in doc:
            kwargs[f.name] = _read_value(hints[f.name], doc[key], f"{path}.{key}", error)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise error(f"{path}.{key}: missing required key")
    try:
        return cls(**kwargs)
    except DasvitError as exc:
        raise error(f"{path}: {exc}") from None


def as_json(obj):
    """The JSON value `read_json` reads back as `obj`: a dataclass becomes an
    object of its fields under their JSON keys, an `OpSpec` only the fields
    it sets, and a tuple a list."""
    if isinstance(obj, OpSpec):
        return obj.to_json()
    if dataclasses.is_dataclass(obj):
        return {json_key(f): as_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [as_json(v) for v in obj]
    return obj


@dataclass(frozen=True)
class OpSpec:
    """One candidate operation: its kind plus the kind-specific knob."""

    kind: str
    heads: int | None = None
    ratio: float | None = None

    def __post_init__(self):
        if self.kind not in OP_KINDS:
            raise ConfigError(f"OpSpec: unknown kind {self.kind!r}")
        if self.kind == "msa":
            if type(self.heads) is not int or self.heads < 1:
                raise ConfigError("OpSpec: msa requires a positive integer head count")
            if self.ratio is not None:
                raise ConfigError("OpSpec: msa takes no ratio")
        elif self.kind == "mlp":
            if self.ratio is None or self.ratio <= 0:
                raise ConfigError("OpSpec: mlp requires ratio > 0")
            if self.heads is not None:
                raise ConfigError("OpSpec: mlp takes no heads")
        elif self.heads is not None or self.ratio is not None:
            raise ConfigError(f"OpSpec: {self.kind} takes no arguments")

    @property
    def name(self) -> str:
        if self.kind == "msa":
            return f"msa_h{self.heads}"
        if self.kind == "mlp":
            return f"mlp_r{self.ratio:g}"
        return self.kind

    def to_json(self) -> dict:
        return {key: value for key, value in vars(self).items() if value is not None}

    @staticmethod
    def from_json(doc, path: str = "op") -> "OpSpec":
        return read_json(OpSpec, doc, path)


#: The full eight-operation registry used when the embedding width permits it.
DEFAULT_CANDIDATES: tuple[OpSpec, ...] = (
    OpSpec("zero"),
    OpSpec("identity"),
    OpSpec("msa", heads=8),
    OpSpec("msa", heads=12),
    OpSpec("msa", heads=16),
    OpSpec("mlp", ratio=0.5),
    OpSpec("mlp", ratio=3.0),
    OpSpec("mlp", ratio=4.0),
)


def mlp_hidden_dim(ratio: float, dim: int) -> int:
    """Round-half-up of ratio*dim, floored at 1 so tiny widths stay valid."""
    return max(1, int(math.floor(ratio * dim + 0.5)))


@dataclass(frozen=True)
class ModelDims:
    """Geometry shared by the supernet and every derived model."""

    dim: int
    patch: int
    image: int
    classes: int
    channels: int = 3

    def __post_init__(self):
        if min(self.dim, self.patch, self.image, self.classes, self.channels) < 1:
            raise ConfigError(f"ModelDims: all dimensions must be positive, got {self}")
        if self.image % self.patch != 0:
            raise ConfigError(
                f"ModelDims: image size {self.image} not divisible by patch {self.patch}")

    @property
    def n_patches(self) -> int:
        return (self.image // self.patch) ** 2


class Module:
    """A holder of parameters, each stored as a Tensor attribute.

    A parameter's name is its attribute name, and parameters are listed in
    the order they were assigned. These names are the checkpoint format.
    """

    def named_parameters(self) -> dict[str, Tensor]:
        return {name: v for name, v in vars(self).items() if isinstance(v, Tensor)}

    def named_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self.named_parameters().items()}


class CellValue:
    """A cell value and, once a pre-norm op reads it, its one ``normalize``
    node, which every later reader shares."""

    def __init__(self, x: Tensor):
        self.x = x

    @functools.cached_property
    def normed(self) -> Tensor:
        return ad.normalize(self.x)


class ZeroOp(Module):
    """Outputs a zero tensor; removes the connection it sits on."""

    def __init__(self, spec: OpSpec, dim: int, rng=None):
        self.spec = spec

    def forward(self, v: CellValue) -> Tensor:
        return Tensor(np.zeros_like(v.x.data))


class IdentityOp(Module):
    """Passes the input through unchanged (skip connection)."""

    def __init__(self, spec: OpSpec, dim: int, rng=None):
        self.spec = spec

    def forward(self, v: CellValue) -> Tensor:
        return v.x


class MsaOp(Module):
    """Pre-norm multi-head self-attention.

    Q/K/V are stored as one fused D x D matrix per role and sliced per head,
    which is equivalent to per-head D x d_k projections. Q/K/V carry no bias;
    the output projection does.
    """

    def __init__(self, spec: OpSpec, dim: int, rng: np.random.Generator):
        if dim % spec.heads != 0:
            raise ConfigError(
                f"MsaOp: embedding dim {dim} not divisible by {spec.heads} heads")
        self.spec = spec
        self.dim = dim
        self.heads = spec.heads
        dt = ad.default_dtype()

        def w(name):
            return ad.parameter((INIT_STD * rng.standard_normal((dim, dim))).astype(dt), name)

        self.wq = w("wq")
        self.wk = w("wk")
        self.wv = w("wv")
        self.wo = w("wo")
        self.bo = ad.parameter(np.zeros(dim, dtype=dt), "bo")
        self.norm_g = ad.parameter(np.ones(dim, dtype=dt), "norm_g")
        self.norm_b = ad.parameter(np.zeros(dim, dtype=dt), "norm_b")

    def forward(self, v: CellValue) -> Tensor:
        if v.x.shape[-1] != self.dim:
            raise ShapeError(f"MsaOp: expected last dim {self.dim}, got {v.x.shape}")
        return ad.self_attention(v.normed, self.norm_g, self.norm_b, self.wq, self.wk,
                                 self.wv, self.wo, self.bo, self.heads)


class MlpOp(Module):
    """Pre-norm position-wise feed-forward block: linear, GELU, linear."""

    def __init__(self, spec: OpSpec, dim: int, rng: np.random.Generator):
        self.spec = spec
        self.hidden = mlp_hidden_dim(spec.ratio, dim)
        dt = ad.default_dtype()
        self.w1 = ad.parameter(
            (INIT_STD * rng.standard_normal((dim, self.hidden))).astype(dt), "w1")
        self.b1 = ad.parameter(np.zeros(self.hidden, dtype=dt), "b1")
        self.w2 = ad.parameter(
            (INIT_STD * rng.standard_normal((self.hidden, dim))).astype(dt), "w2")
        self.b2 = ad.parameter(np.zeros(dim, dtype=dt), "b2")
        self.norm_g = ad.parameter(np.ones(dim, dtype=dt), "norm_g")
        self.norm_b = ad.parameter(np.zeros(dim, dtype=dt), "norm_b")

    def forward(self, v: CellValue) -> Tensor:
        return ad.feed_forward(v.normed, self.norm_g, self.norm_b, self.w1, self.b1,
                               self.w2, self.b2)


_OP_CLASSES = {"zero": ZeroOp, "identity": IdentityOp, "msa": MsaOp, "mlp": MlpOp}


def build_op(spec: OpSpec, dim: int, rng: np.random.Generator):
    return _OP_CLASSES[spec.kind](spec, dim, rng)


class EmbedParams(Module):
    """Patch embedding, position table, class token, and classification head.

    `embed` turns (B, H, W, C) images into (B, N+1, D) token sequences with
    the class token at row 0; `classify` reads logits from row 0 only.
    """

    def __init__(self, dims: ModelDims, rng: np.random.Generator):
        self.dims = dims
        dt = ad.default_dtype()
        patch_in = dims.patch * dims.patch * dims.channels
        n = dims.n_patches
        self.proj_w = ad.parameter(
            (INIT_STD * rng.standard_normal((patch_in, dims.dim))).astype(dt), "proj_w")
        self.proj_b = ad.parameter(np.zeros(dims.dim, dtype=dt), "proj_b")
        self.pos = ad.parameter(
            (INIT_STD * rng.standard_normal((n + 1, dims.dim))).astype(dt), "pos")
        self.cls = ad.parameter(
            (INIT_STD * rng.standard_normal((1, 1, dims.dim))).astype(dt), "cls")
        self.head_w = ad.parameter(
            (INIT_STD * rng.standard_normal((dims.dim, dims.classes))).astype(dt), "head_w")
        self.head_b = ad.parameter(np.zeros(dims.classes, dtype=dt), "head_b")
        self.final_g = ad.parameter(np.ones(dims.dim, dtype=dt), "final_g")
        self.final_b = ad.parameter(np.zeros(dims.dim, dtype=dt), "final_b")

    def embed(self, images) -> Tensor:
        x = ad.as_tensor(images)
        if x.ndim != 4:
            raise ShapeError(f"embed: expected (B, H, W, C) images, got {x.shape}")
        bsz, h, w, c = x.shape
        p = self.dims.patch
        if h % p or w % p:
            raise ShapeError(f"embed: image {h}x{w} not divisible by patch {p}")
        if c != self.dims.channels:
            raise ShapeError(f"embed: expected {self.dims.channels} channels, got {c}")
        gh, gw = h // p, w // p
        patches = (x.reshape((bsz, gh, p, gw, p, c))
                   .transpose((0, 1, 3, 2, 4, 5))
                   .reshape((bsz, gh * gw, p * p * c)))
        tokens = ad.matmul(patches, self.proj_w, bias=self.proj_b)
        cls = ad.broadcast_to(self.cls, (bsz, 1, self.dims.dim))
        return ad.concat([cls, tokens], axis=1) + self.pos

    def classify(self, z: Tensor) -> Tensor:
        cls_row = ad.layer_norm(z[:, 0], self.final_g, self.final_b)
        return ad.matmul(cls_row, self.head_w, bias=self.head_b)


# -- the cell DAG ------------------------------------------------------------------

#: (source, target) pairs; nodes 0/1 are the cell inputs, 2/3 intermediates.
CELL_EDGES: tuple[tuple[int, int], ...] = ((0, 2), (1, 2), (0, 3), (1, 3), (2, 3))
NUM_EDGES = len(CELL_EDGES)
INTERMEDIATE_NODES = (2, 3)


def walk_cell(in0: CellValue, in1: CellValue, edges) -> Tensor:
    """Run the cell DAG over `edges`, its ``(source, target, forward)``
    triples: each intermediate node sums, in edge order, ``forward`` of the
    `CellValue` of each incoming edge's source, and the cell returns the sum
    of both intermediates."""
    if in0.x.shape != in1.x.shape:
        raise ShapeError(f"cell: input shapes {in0.x.shape} and {in1.x.shape} differ")
    values = [in0, in1]
    for target in INTERMEDIATE_NODES:
        terms = (forward(values[src]) for src, dst, forward in edges if dst == target)
        values.append(CellValue(functools.reduce(operator.add, terms)))
    return values[2].x + values[3].x


def stack_cells(z: Tensor, depth: int, cell) -> Tensor:
    """The output of the last of `depth` cells ``cell(layer, in0, in1)``,
    each over the `CellValue`s of the two layers before it; the embedding `z`
    is both inputs of the first."""
    prev = (CellValue(z),) * 2
    for layer in range(depth):
        prev = (prev[1], CellValue(cell(layer, *prev)))
    return prev[1].x
