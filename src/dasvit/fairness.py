"""Operation-fairness regularization added to the validation loss.

Both terms read one (edge, kind) table of softmax-normalized architecture
weights: the softmax of the logits times the constant 0/1 (candidate, kind)
membership matrix, so each entry is an edge's total weight on one kind.

* skip term: the mean Identity (skip) column of the table over all edges,
  discouraging skip dominance; a registry without Identity reads an
  all-zero column, so the term and its gradient are exactly 0;
* type term: every entry of the table for the types present in the
  candidate set is hinged into the band [gamma_min, gamma_max], with
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


def _kind_mass(alpha, kinds) -> Tensor:
    """(edge, kind) softmax weight summed over each kind's candidates."""
    member = np.array([[spec.kind == kind for kind in kinds] for spec in alpha.candidates],
                      dtype=ad.default_dtype())
    return ad.softmax(alpha.logits) @ Tensor(member)


def skip_fairness(alpha) -> Tensor:
    """Mean softmax weight of the Identity candidate over all edges."""
    return _kind_mass(alpha, ("identity",)).mean()


def type_fairness(alpha, cfg: FairnessConfig) -> Tensor:
    """Hinge penalty on per-edge type weight sums outside [gamma_min, gamma_max].

    Summed over edges, then over types in ``OP_KINDS`` order. The hinge
    subgradient at the kink is 0, so the loss stays piecewise-smooth.
    """
    present = {spec.kind for spec in alpha.candidates}
    mass = _kind_mass(alpha, [kind for kind in OP_KINDS if kind in present])
    over = ad.relu(mass - cfg.gamma_max) * cfg.zeta1
    under = ad.relu(cfg.gamma_min - mass) * cfg.zeta2
    return (over + under).sum(axis=0).sum()
