"""Differentiable architecture search over transformer-encoder cells.

A self-contained numpy implementation: reverse-mode autodiff, the candidate
operation set, attention-based token selection, fairness-regularized
bi-level search with progressive prune-and-deepen staging, genotype
derivation and retraining, and closed-form cost counters.

The names below are re-exported lazily (PEP 562): importing the package, or
``dasvit.cli``, loads no numpy, so the CLI can set the BLAS thread count
before numpy starts.
"""

import importlib

__version__ = "0.1.0"

_SOURCES = {
    "autodiff": ("Tensor", "backward", "dtype_scope"),
    "config": ("RunConfig", "desk_config", "load_config", "paper_defaults",
               "save_config"),
    "errors": ("DasvitError",),
    "fairness": ("FairnessConfig", "skip_fairness", "type_fairness"),
    "genotype": ("CostReport", "DerivedModel", "Genotype", "classic_encoder_genotype",
                 "cost_report", "load_genotype", "make_genotype", "save_genotype",
                 "searched_encoder_genotype"),
    "ops": ("DEFAULT_CANDIDATES", "ModelDims", "OpSpec"),
    "optim": ("AdamW", "LrSchedule"),
    "search": ("SearchResult", "bilevel_epoch", "derive_genotype", "evaluate",
               "retrain", "run_search", "schedule_preview", "score_candidates"),
    "selector": ("Selector",),
    "supernet": ("AlphaTable", "MixedEdge", "Supernet", "mixed_edge_forward"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
