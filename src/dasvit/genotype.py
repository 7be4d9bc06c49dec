"""Discrete architectures: schema, JSON (de)serialization, the derived
encoder model, and analytic parameter/FLOP/activation counters.

A genotype fixes, per intermediate node of the repeated cell, exactly two
(source, operation) pairs. Node numbering matches the supernet DAG: 0 and 1
are the cell inputs (two layers back / previous layer), 2 is the first
intermediate node. The cell output is the sum of both intermediates, and
layer 1 receives the initial embedding on both inputs.

FLOP counting convention: one fused multiply-accumulate counts as one FLOP
(matching how the comparison models' figures are commonly reported), the
quadratic attention score/apply products are included, and layer norm, GELU
and softmax are charged 5 ops per element.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .data import load_parameters, write_json
from .errors import DasvitError, GenotypeError
from .ops import (CELL_EDGES, CellValue, EmbedParams, ModelDims, Module, OpSpec,
                  as_json, build_op, mlp_hidden_dim, read_json, stack_cells, walk_cell)

SCHEMA_VERSION = 1
OPS_PER_ACT_ELEMENT = 5

NodePairs = tuple[tuple[int, OpSpec], ...]


@dataclass(frozen=True)
class Genotype:
    """A discretized architecture plus the dimensions it was searched at."""

    dims: ModelDims
    depth: int
    nodes: tuple[NodePairs, NodePairs]

    def __post_init__(self):
        if self.depth < 1:
            raise GenotypeError("Genotype: depth must be >= 1")
        if len(self.nodes) != 2:
            raise GenotypeError("Genotype: exactly two intermediate nodes required")
        for j, pairs in enumerate(self.nodes):
            node_id = 2 + j
            if len(pairs) != 2:
                raise GenotypeError(
                    f"Genotype: node {node_id} must keep exactly 2 edges, got {len(pairs)}")
            for src, spec in pairs:
                if not 0 <= src < node_id:
                    raise GenotypeError(
                        f"Genotype: node {node_id} has invalid source {src}")
                if spec.kind == "zero":
                    raise GenotypeError("Genotype: zero op cannot be retained")

    def ops(self) -> list[OpSpec]:
        return [spec for pairs in self.nodes for _, spec in pairs]


def _canonical_pairs(pairs) -> NodePairs:
    return tuple(sorted(pairs, key=lambda p: (p[0], p[1].name)))


def make_genotype(dims: ModelDims, depth: int, node0, node1) -> Genotype:
    """Build a genotype with node pairs in canonical (source, op-name) order."""
    return Genotype(dims, depth, (_canonical_pairs(node0), _canonical_pairs(node1)))


def searched_encoder_genotype(dims: ModelDims, depth: int, heads: int = 12,
                              ratio: float = 0.5) -> Genotype:
    """The discovered encoder: n0 sums an MLP of each input; n1 sums
    attention over n0 with another MLP of the older input."""
    mlp = OpSpec("mlp", ratio=ratio)
    msa = OpSpec("msa", heads=heads)
    return make_genotype(dims, depth,
                         node0=[(0, mlp), (1, mlp)],
                         node1=[(2, msa), (0, mlp)])


def classic_encoder_genotype(dims: ModelDims, depth: int, heads: int = 12,
                             ratio: float = 4.0) -> Genotype:
    """The conventional attention-then-MLP encoder block expressed as a
    genotype (residuals become Identity edges); used for cost baselines."""
    msa = OpSpec("msa", heads=heads)
    mlp = OpSpec("mlp", ratio=ratio)
    ident = OpSpec("identity")
    return make_genotype(dims, depth,
                         node0=[(1, msa), (1, ident)],
                         node1=[(2, mlp), (2, ident)])


# -- JSON schema --------------------------------------------------------------


@dataclass
class _DimsDoc:
    embed: int
    patch: int
    image: int
    depth: int
    classes: int
    channels: int = 3


@dataclass
class _PairDoc:
    src: int
    op: OpSpec


@dataclass
class _GenotypeDoc:
    """The genotype JSON document, field for field, in the order it is written."""

    version: int
    dims: _DimsDoc
    nodes: list[list[_PairDoc]]


def genotype_to_json(g: Genotype) -> dict:
    d = g.dims
    return as_json(_GenotypeDoc(
        version=SCHEMA_VERSION,
        dims=_DimsDoc(embed=d.dim, patch=d.patch, image=d.image, depth=g.depth,
                      classes=d.classes, channels=d.channels),
        nodes=[[_PairDoc(src, spec) for src, spec in pairs] for pairs in g.nodes]))


def genotype_from_json(doc: dict, path: str = "genotype") -> Genotype:
    g = read_json(_GenotypeDoc, doc, path, GenotypeError)
    if g.version != SCHEMA_VERSION:
        raise GenotypeError(f"{path}.version: unsupported version {g.version!r}")
    for key, value in vars(g.dims).items():
        if value < 1:
            raise GenotypeError(f"{path}.dims.{key}: expected a positive integer")
    if len(g.nodes) != 2 or any(len(pairs) != 2 for pairs in g.nodes):
        raise GenotypeError(f"{path}.nodes: expected 2 nodes of 2 (src, op) pairs each")
    d = g.dims
    try:
        dims = ModelDims(dim=d.embed, patch=d.patch, image=d.image, classes=d.classes,
                         channels=d.channels)
        return Genotype(dims, d.depth, tuple(
            _canonical_pairs((pair.src, pair.op) for pair in pairs) for pairs in g.nodes))
    except DasvitError as exc:
        raise GenotypeError(f"{path}: {exc}") from None


def save_genotype(g: Genotype, path) -> None:
    write_json(path, genotype_to_json(g))


def load_genotype(path) -> Genotype:
    p = Path(path)
    if not p.exists():
        raise GenotypeError(f"genotype: file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise GenotypeError(f"genotype: invalid JSON in {p}: {exc}") from None
    return genotype_from_json(doc)


# -- the derived model ----------------------------------------------------------


class DerivedModel(Module):
    """Discrete encoder built from a genotype; trains without token selection."""

    def __init__(self, genotype: Genotype, rng: np.random.Generator):
        self.genotype = genotype
        self.dims = genotype.dims
        self.embed = EmbedParams(self.dims, rng)
        # per layer, every kept edge as (source, target, op), node by node
        self.layers: list[list[tuple]] = [
            [(src, 2 + j, build_op(spec, self.dims.dim, rng))
             for j, pairs in enumerate(genotype.nodes) for src, spec in pairs]
            for _ in range(genotype.depth)]

    def cell(self, layer: int, in0: CellValue, in1: CellValue) -> Tensor:
        """One derived cell."""
        return walk_cell(in0, in1, [(src, dst, op.forward)
                                    for src, dst, op in self.layers[layer]])

    def forward(self, images) -> Tensor:
        z = self.embed.embed(images)
        return self.embed.classify(stack_cells(z, self.genotype.depth, self.cell))

    def _ops(self):
        """(parameter prefix, supernet bank prefix, op) for every op."""
        for layer, edges in enumerate(self.layers):
            for k, (src, dst, op) in enumerate(edges):
                j, i = divmod(k, 2)  # a genotype keeps two edges per node
                yield (f"layers.{layer}.n{j}.{i}.{op.spec.name}",
                       f"cells.{layer}.e{CELL_EDGES.index((src, dst))}.{op.spec.name}", op)

    def named_parameters(self) -> dict[str, Tensor]:
        out = {f"embed.{n}": p for n, p in self.embed.named_parameters().items()}
        for prefix, _, op in self._ops():
            for pname, p in op.named_parameters().items():
                out[f"{prefix}.{pname}"] = p
        return out

    @classmethod
    def from_supernet(cls, sup, genotype: Genotype) -> "DerivedModel":
        """Instantiate the genotype reusing the supernet's trained banks.

        Embedding/head parameters are copied verbatim; each kept (source, op)
        pair copies the same candidate's bank on the matching supernet edge.
        A bank the supernet lacks (a pruned candidate) raises DataError.
        """
        if sup.num_layers != genotype.depth:
            raise GenotypeError(
                f"from_supernet: supernet depth {sup.num_layers} != genotype depth "
                f"{genotype.depth}")
        model = cls(genotype, np.random.default_rng(0))
        banks = sup.named_arrays()
        arrays = {f"embed.{n}": banks[f"embed.{n}"]
                  for n in model.embed.named_parameters()}
        for prefix, bank, op in model._ops():
            for pname in op.named_parameters():
                if f"{bank}.{pname}" in banks:
                    arrays[f"{prefix}.{pname}"] = banks[f"{bank}.{pname}"]
        load_parameters(model.named_parameters(), arrays,
                        f"supernet over {[s.name for s in sup.candidates]}")
        return model


# -- analytic cost counters ---------------------------------------------------------


@dataclass
class CostReport:
    """Closed-form cost summary; counts are exact integers."""

    params: int
    flops: int
    peak_activation: int
    params_overhead: int
    flops_overhead: int

    def table(self) -> str:
        lines = [
            f"{'parameters':<18}{self.params:>16,}",
            f"{'flops/image':<18}{self.flops:>16,}",
            f"{'peak activation':<18}{self.peak_activation:>16,}",
            f"{'embed+head params':<18}{self.params_overhead:>16,}",
        ]
        return "\n".join(lines)


def _op_param_count(spec: OpSpec, dim: int) -> int:
    norm = 2 * dim
    if spec.kind == "msa":
        return 4 * dim * dim + dim + norm
    if spec.kind == "mlp":
        hidden = mlp_hidden_dim(spec.ratio, dim)
        return 2 * dim * hidden + hidden + dim + norm
    return 0


def _op_flop_count(spec: OpSpec, dim: int, tokens: int) -> int:
    """MACs (x1) plus activation elements (x5) for one op application."""
    norm_elems = tokens * dim
    if spec.kind == "msa":
        macs = 4 * tokens * dim * dim + 2 * tokens * tokens * dim
        softmax_elems = spec.heads * tokens * tokens
        return macs + OPS_PER_ACT_ELEMENT * (norm_elems + softmax_elems)
    if spec.kind == "mlp":
        hidden = mlp_hidden_dim(spec.ratio, dim)
        macs = 2 * tokens * dim * hidden
        return macs + OPS_PER_ACT_ELEMENT * (norm_elems + tokens * hidden)
    return 0


def _op_peak_activation(spec: OpSpec, dim: int, tokens: int) -> int:
    if spec.kind == "msa":
        return max(spec.heads * tokens * tokens, tokens * dim)
    if spec.kind == "mlp":
        return tokens * max(dim, mlp_hidden_dim(spec.ratio, dim))
    return tokens * dim


def cost_report(g: Genotype) -> CostReport:
    d = g.dims.dim
    n = g.dims.n_patches
    tokens = n + 1
    patch_in = g.dims.patch * g.dims.patch * g.dims.channels

    layer_params = sum(_op_param_count(spec, d) for spec in g.ops())
    params_overhead = (patch_in * d + d          # patch projection + bias
                       + tokens * d              # position table
                       + d                       # class token
                       + d * g.dims.classes + g.dims.classes  # head + bias
                       + 2 * d)                  # final norm

    layer_flops = sum(_op_flop_count(spec, d, tokens) for spec in g.ops())
    flops_overhead = (n * patch_in * d + d * g.dims.classes
                      + OPS_PER_ACT_ELEMENT * d)  # final norm, class row only

    peak = max([tokens * d, n * patch_in]
               + [_op_peak_activation(spec, d, tokens) for spec in g.ops()])

    return CostReport(
        params=layer_params * g.depth + params_overhead,
        flops=layer_flops * g.depth + flops_overhead,
        peak_activation=peak,
        params_overhead=params_overhead,
        flops_overhead=flops_overhead,
    )
