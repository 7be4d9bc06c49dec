"""Attention-based partial token selection.

During the search phase only the top-floor(lambda*N) patch tokens (ranked by
averaged scaled dot-product scores) are kept, shrinking every downstream
attention matrix by roughly lambda^2. The class token is exempt and always
survives at row 0. A token's score averages its query against every key,
and mean_j(q_i·k_j) = q_i·mean_j(k_j), so scoring builds no N x N product.
Each kept patch token is multiplied by the logistic of its score, so the
projections receive gradients. At lambda = 1 every token is kept in place
and nothing is scored, so the projections are not read.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .ops import Module


class Selector(Module):
    """Scores tokens with a single-head Q/K product and keeps the best k."""

    def __init__(self, dim: int, lam: float, rng: np.random.Generator):
        if not 0 < lam <= 1:
            raise ConfigError(f"selector: lambda must lie in (0, 1], got {lam}")
        self.dim = dim
        self.lam = float(lam)
        dt = ad.default_dtype()
        self.wq = ad.parameter((0.02 * rng.standard_normal((dim, dim))).astype(dt), "wq")
        self.wk = ad.parameter((0.02 * rng.standard_normal((dim, dim))).astype(dt), "wk")

    def named_parameters(self) -> dict[str, Tensor]:
        """The score projections, unless lambda = 1 leaves them unread."""
        return super().named_parameters() if self.lam < 1 else {}

    def scores(self, x: Tensor) -> Tensor:
        """Per-token mean scaled dot-product score, shape (B, N)."""
        q = x @ self.wq
        k_mean = x.mean(axis=1, keepdims=True) @ self.wk  # (B, 1, D)
        s = q @ k_mean.transpose((0, 2, 1))  # (B, N, 1)
        return s.reshape(x.shape[:2]) * (1.0 / math.sqrt(self.dim))

    def select(self, x: Tensor) -> tuple[Tensor, np.ndarray]:
        """Keep the class token plus the k best-scoring patch tokens.

        `x` is (B, N+1, C) with the class token at row 0. Returns the reduced
        (B, k+1, C) sequence (kept patches in descending-score order, ties to
        the lower index) and the selected patch indices, shape (B, k). When
        k = N it returns `x` itself and the identity order.
        """
        n = x.shape[1] - 1
        k = int(math.floor(self.lam * n))
        if k < 1:
            raise ConfigError(
                f"selector: lambda={self.lam} with {n} patch tokens keeps none; "
                "increase lambda or the token count")
        if k == n:
            return x, np.tile(np.arange(n), (x.shape[0], 1))
        patches = x[:, 1:]
        s = self.scores(patches)
        order = np.argsort(-s.data, axis=1, kind="stable")[:, :k]
        rows = np.arange(x.shape[0])[:, None]
        kept = patches[rows, order]
        gains = ad.sigmoid(s[rows, order])
        kept = kept * gains.reshape((x.shape[0], k, 1))
        return ad.concat([x[:, 0:1], kept], axis=1), order
