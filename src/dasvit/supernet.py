"""The continuous-relaxation search network.

Each encoder layer is one cell over the fixed five-edge DAG of `ops.CELL_EDGES`.
Every edge is a mixed edge: the softmax-weighted sum of all candidate
operations, each with its own parameter bank (no sharing between edges).
Architecture logits default to one table shared by all layers; a per-layer
table is available behind `shared_alpha=False`.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .ops import (CELL_EDGES, NUM_EDGES, EmbedParams, ModelDims, Module, OpSpec,
                  ZeroOp, build_op, stack_cells, walk_cell)
from .selector import Selector


class AlphaTable:
    """Architecture logits indexed by (layer, edge, candidate).

    With `shared=True` a single layer row is stored and reused by every
    supernet layer. Softmax over the candidate axis yields mixture weights.
    """

    def __init__(self, candidates: list[OpSpec], layers: int,
                 rng: np.random.Generator, init_std: float = 1e-3,
                 shared: bool = True):
        if not candidates:
            raise ConfigError("AlphaTable: empty candidate list")
        rows = 1 if shared else layers
        self.candidates = list(candidates)
        self.shared = shared
        logits = init_std * rng.standard_normal((rows, NUM_EDGES, len(candidates)))
        self.logits = ad.parameter(logits.astype(ad.default_dtype()), "alpha.logits")

    def row_for_layer(self, layer: int) -> int:
        return 0 if self.shared else layer

    def weights(self) -> np.ndarray:
        """Softmax weights as float64, shape (rows, edges, candidates)."""
        logits = self.logits.data.astype(np.float64)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=-1, keepdims=True)

    def edge_weights(self, layer: int, edge: int) -> Tensor:
        """Differentiable softmax weights for one (layer, edge) slot."""
        return ad.softmax(self.logits[self.row_for_layer(layer), edge])


def mixed_edge_forward(x: Tensor, ops: list, weights: Tensor) -> Tensor:
    """Softmax-weighted sum of every candidate's output; no sampling.

    The sum is one ``weighted_sum`` node over the candidates in registry
    order. Zero candidates are skipped: their term and its direct gradient
    are exactly 0, and their logits still receive gradient through the
    softmax. The pre-norm candidates normalize `x` once between them (see
    ``autodiff.layer_norm``).
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

    def __init__(self, candidates: list[OpSpec], dim: int,
                 rng: np.random.Generator, pre_norm: bool = True):
        self.ops = [build_op(spec, dim, rng, pre_norm) for spec in candidates]

    def forward(self, x: Tensor, weights: Tensor) -> Tensor:
        return mixed_edge_forward(x, self.ops, weights)

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for op in self.ops:
            for pname, p in op.named_parameters().items():
                out[f"{op.spec.name}.{pname}"] = p
        return out


class Supernet(Module):
    """Embedding, token selector, stacked mixed cells, and class head."""

    def __init__(self, dims: ModelDims, candidates: list[OpSpec], num_layers: int,
                 rng: np.random.Generator, lam: float = 0.5,
                 grad_mode: str = "score_scaling", shared_alpha: bool = True,
                 pre_norm: bool = True, final_norm: bool = True,
                 alpha_init_std: float = 1e-3):
        if num_layers < 1:
            raise ConfigError("Supernet: need at least one layer")
        names = [spec.name for spec in candidates]
        if len(set(names)) != len(names):
            raise ConfigError(f"Supernet: candidate names must be unique, got {names}")
        self.dims = dims
        self.candidates = list(candidates)
        self.num_layers = num_layers
        self.pre_norm = pre_norm
        self.embed = EmbedParams(dims, rng, final_norm=final_norm)
        self.selector = Selector(dims.dim, lam, grad_mode, rng)
        self.alpha = AlphaTable(self.candidates, num_layers, rng,
                                init_std=alpha_init_std, shared=shared_alpha)
        self.cells: list[list[MixedEdge]] = [
            [MixedEdge(self.candidates, dims.dim, rng, pre_norm)
             for _ in range(NUM_EDGES)]
            for _ in range(num_layers)
        ]

    @classmethod
    def from_config(cls, cfg, candidates: list[OpSpec], num_layers: int,
                    rng: np.random.Generator) -> "Supernet":
        """The supernet a `RunConfig` describes over `candidates`."""
        return cls(cfg.model.dims(), candidates, num_layers, rng,
                   lam=cfg.selector.lam, grad_mode=cfg.selector.grad_mode,
                   shared_alpha=cfg.search.shared_alpha, pre_norm=cfg.model.pre_norm,
                   final_norm=cfg.model.final_norm,
                   alpha_init_std=cfg.search.alpha_init_std)

    # -- forward ---------------------------------------------------------------

    def cell(self, layer: int, in0: Tensor, in1: Tensor) -> Tensor:
        """One mixed cell."""
        edges = self.cells[layer]
        w = [self.alpha.edge_weights(layer, e) for e in range(NUM_EDGES)]

        def node_terms(target, values):
            for e, (src, dst) in enumerate(CELL_EDGES):
                if dst == target:
                    yield edges[e].forward(values[src], w[e])

        return walk_cell(in0, in1, node_terms)

    def forward(self, images) -> Tensor:
        z, _ = self.selector.select(self.embed.embed(images))
        return self.embed.classify(stack_cells(z, self.num_layers, self.cell))

    # -- parameter access --------------------------------------------------------

    def weight_parameters(self, include_selector: bool = True) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, p in self.embed.named_parameters().items():
            out[f"embed.{name}"] = p
        if include_selector:
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
