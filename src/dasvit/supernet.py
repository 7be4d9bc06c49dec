"""The continuous-relaxation search network.

Each encoder layer is one cell over the fixed five-edge DAG of `ops.CELL_EDGES`.
Every edge is a mixed edge: the softmax-weighted sum of all candidate
operations, each with its own parameter bank (no sharing between edges).
Every layer reads the same (edge, candidate) architecture logits, as DARTS
shares them across cells, through one softmax per forward. Candidates are
pre-norm and the class row is normalized before the head.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .ops import (CELL_EDGES, NUM_EDGES, CellValue, EmbedParams, ModelDims, Module,
                  OpSpec, ZeroOp, build_op, stack_cells, walk_cell)
from .selector import Selector


class AlphaTable:
    """Architecture logits of shape (edge, candidate), which every supernet
    layer reads. Softmax over the candidate axis yields mixture weights.
    """

    def __init__(self, candidates: list[OpSpec], rng: np.random.Generator,
                 init_std: float = 1e-3):
        if not candidates:
            raise ConfigError("AlphaTable: empty candidate list")
        self.candidates = list(candidates)
        logits = init_std * rng.standard_normal((NUM_EDGES, len(candidates)))
        self.logits = ad.parameter(logits.astype(ad.default_dtype()), "alpha.logits")

    def weights(self) -> np.ndarray:
        """Softmax weights as float64, shape (edges, candidates)."""
        logits = self.logits.data.astype(np.float64)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=-1, keepdims=True)

    def edge_rows(self) -> list[Tensor]:
        """Every edge's mixture weights: one softmax of the table, one row each."""
        w = ad.softmax(self.logits)
        return [w[e] for e in range(NUM_EDGES)]


def mixed_edge_forward(x: CellValue, ops: list, weights: Tensor) -> Tensor:
    """Softmax-weighted sum of every candidate's output; no sampling.

    The sum is one ``weighted_sum`` node over the candidates in registry
    order. Zero candidates are skipped: their term and its direct gradient
    are exactly 0, and their logits still receive gradient through the
    softmax. The pre-norm candidates read the one normalization of `x`.
    """
    if not ops:
        raise ConfigError("mixed edge: empty candidate list")
    if weights.shape != (len(ops),):
        raise ShapeError(
            f"mixed edge: {len(ops)} candidates but weight shape {weights.shape}")
    live = [k for k, op in enumerate(ops) if not isinstance(op, ZeroOp)]
    if not live:  # every candidate is Zero
        return ops[0].forward(x)
    return ad.weighted_sum(weights, [ops[k].forward(x) for k in live], live)


class MixedEdge:
    """One DAG edge holding a private parameter bank per candidate."""

    def __init__(self, candidates: list[OpSpec], dim: int, rng: np.random.Generator):
        self.ops = [build_op(spec, dim, rng) for spec in candidates]

    def forward(self, x: CellValue, weights: Tensor) -> Tensor:
        return mixed_edge_forward(x, self.ops, weights)

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for op in self.ops:
            for pname, p in op.named_parameters().items():
                out[f"{op.spec.name}.{pname}"] = p
        return out


class Supernet(Module):
    """Embedding, token selector, stacked mixed cells, and class head."""

    # `grad_mode`, `shared_alpha`, `pre_norm` and `final_norm` are kept only
    # because the benchmark's `_stage_supernet` passes them (ROADMAP direction
    # 2); every value but the one model's is refused.
    def __init__(self, dims: ModelDims, candidates: list[OpSpec], num_layers: int,
                 rng: np.random.Generator, lam: float = 0.5,
                 grad_mode: str = "score_scaling", shared_alpha: bool = True,
                 pre_norm: bool = True, final_norm: bool = True,
                 alpha_init_std: float = 1e-3):
        for key, value, built in (  # direction 2 shim
                ("grad_mode", grad_mode, "score_scaling"), ("shared_alpha", shared_alpha, True),
                ("pre_norm", pre_norm, True), ("final_norm", final_norm, True)):
            if type(value) is not type(built) or value != built:
                raise ConfigError(f"Supernet: {key}={value!r}; only {built!r} is built")
        if num_layers < 1:
            raise ConfigError("Supernet: need at least one layer")
        names = [spec.name for spec in candidates]
        if len(set(names)) != len(names):
            raise ConfigError(f"Supernet: candidate names must be unique, got {names}")
        self.dims = dims
        self.candidates = list(candidates)
        self.num_layers = num_layers
        self.embed = EmbedParams(dims, rng)
        self.selector = Selector(dims.dim, lam, rng)
        self.alpha = AlphaTable(self.candidates, rng, init_std=alpha_init_std)
        self.cells: list[list[MixedEdge]] = [
            [MixedEdge(self.candidates, dims.dim, rng) for _ in range(NUM_EDGES)]
            for _ in range(num_layers)
        ]

    @classmethod
    def from_config(cls, cfg, candidates: list[OpSpec], num_layers: int,
                    rng: np.random.Generator) -> "Supernet":
        """The supernet a `RunConfig` describes over `candidates`."""
        return cls(cfg.model.dims(), candidates, num_layers, rng,
                   lam=cfg.selector.lam, alpha_init_std=cfg.search.alpha_init_std)

    # -- forward ---------------------------------------------------------------

    def cell(self, layer: int, in0: CellValue, in1: CellValue,
             rows: list[Tensor]) -> Tensor:
        """One mixed cell, edge `e` weighted by ``rows[e]``."""
        return walk_cell(in0, in1, [
            (src, dst, functools.partial(edge.forward, weights=w))
            for (src, dst), edge, w in zip(CELL_EDGES, self.cells[layer], rows)])

    def forward(self, images) -> Tensor:
        z, _ = self.selector.select(self.embed.embed(images))
        rows = self.alpha.edge_rows()
        return self.embed.classify(stack_cells(
            z, self.num_layers, lambda layer, in0, in1: self.cell(layer, in0, in1, rows)))

    # -- parameter access --------------------------------------------------------

    def weight_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, p in self.embed.named_parameters().items():
            out[f"embed.{name}"] = p
        for name, p in self.selector.named_parameters().items():
            out[f"selector.{name}"] = p
        for layer, edges in enumerate(self.cells):
            for e, edge in enumerate(edges):
                for name, p in edge.named_parameters().items():
                    out[f"cells.{layer}.e{e}.{name}"] = p
        return out

    def alpha_parameters(self) -> dict[str, Tensor]:
        return {"alpha.logits": self.alpha.logits}

    def named_parameters(self) -> dict[str, Tensor]:
        """Every parameter: the weights, then the architecture logits."""
        return {**self.weight_parameters(), **self.alpha_parameters()}
