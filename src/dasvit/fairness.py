"""Operation-fairness regularization added to the validation loss.

Two terms over the softmax-normalized architecture weights:

* skip term: the mean weight assigned to the Identity (skip) candidate
  across all edges, discouraging skip dominance;
* type term: per edge, the total weight of each operation type present in
  the candidate set is hinged into the band [gamma_min, gamma_max], with
  separate coefficients for overshoot and undershoot.

Both are computed on normalized weights (raw logits are softmax
shift-invariant, so penalizing them directly would be ill-posed) and only
over types that still have candidates in the current stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .ops import OP_KINDS


@dataclass
class FairnessConfig:
    a: float = 0.5
    b: float = 0.5
    zeta1: float = 1.0
    zeta2: float = 1.0
    gamma_min: float = 0.05
    gamma_max: float = 0.5

    def __post_init__(self):
        if not 0 <= self.gamma_min <= self.gamma_max <= 1:
            raise ConfigError(
                f"FairnessConfig: need 0 <= gamma_min <= gamma_max <= 1, "
                f"got ({self.gamma_min}, {self.gamma_max})")
        if min(self.a, self.b, self.zeta1, self.zeta2) < 0:
            raise ConfigError("FairnessConfig: a, b, zeta1, zeta2 must be nonnegative")


def _scalar_zero() -> Tensor:
    # in the default dtype, so adding it to a float32 loss keeps float32
    return ad.Tensor(np.zeros((), dtype=ad.default_dtype()))


def skip_fairness(alpha) -> Tensor:
    """Mean softmax weight of the Identity candidate over all edges."""
    cols = [i for i, spec in enumerate(alpha.candidates) if spec.kind == "identity"]
    if not cols:
        return _scalar_zero()
    return ad.softmax(alpha.logits)[:, cols].sum(axis=1).mean()


def type_fairness(alpha, cfg: FairnessConfig) -> Tensor:
    """Hinge penalty on per-edge type weight sums outside [gamma_min, gamma_max].

    Summed over types and edges. The hinge subgradient at the kink
    is 0, so the loss stays piecewise-smooth.
    """
    w = ad.softmax(alpha.logits)
    total = None
    for kind in OP_KINDS:
        cols = [i for i, spec in enumerate(alpha.candidates) if spec.kind == kind]
        if not cols:
            continue
        sums = w[:, cols].sum(axis=1)
        over = ad.relu(sums - cfg.gamma_max) * cfg.zeta1
        under = ad.relu(cfg.gamma_min - sums) * cfg.zeta2
        term = (over + under).sum()
        total = term if total is None else total + term
    return total if total is not None else _scalar_zero()
