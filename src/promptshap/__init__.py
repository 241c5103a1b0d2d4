"""Shapley-value prompt valuation.

Prompts in a few-shot ensemble or augmentation set are players in a
cooperative game whose utility is validation accuracy. This package computes
their exact, Monte Carlo, and leave-one-out values, learns to predict values
from prompt embeddings, verifies the supporting theory numerically, and turns
rankings into rank-and-add selection curves.

Importing the package loads none of its modules: each name in ``__all__``
is read from its module on use (PEP 562), so a program loads only the
modules whose names it uses.
"""

import importlib

__version__ = "0.1.0"

# module: the names it exports
_MODULES = {
    "cache": ("ResponseCache", "UtilityCache", "cached_utility"),
    "coalition": ("Coalition",),
    "config": ("ApiConfig", "GameConfig", "PathsConfig", "RegressorKind", "RegressorSpec",
               "RunConfig", "Task", "UtilityMode", "load_config"),
    "ensemble": ("Mode", "PredictionMatrix", "Rule", "TieRule", "ValidationSet",
                 "matrix_utility"),
    "errors": ("CapacityError", "ConditioningError", "ConfigError", "ConsistencyError",
               "CredentialError", "PreconditionError", "PromptShapError", "ProtocolError",
               "ShapeError", "TransportError", "UndefinedCorrelationError",
               "UtilityOracleError"),
    "game": ("GameSpec", "Method", "ShapleyResult", "loo_values", "shapley_exact",
             "shapley_montecarlo", "shapley_weight"),
    "learning": ("EmbeddingMatrix", "TrainedRegressor", "fit_regressor", "holdout_eval",
                 "pearson", "predict_sv"),
    "rng": ("SplitMix64", "derive_seed"),
    "selection": ("BestPrefix", "Curve", "CurvePoint", "best_prefix", "rank_add_curve",
                  "rank_order"),
    "theory": ("BetaSpec", "LipschitzGame", "ensemble_perturbation", "lemma1_identity",
               "mean_field_shapley", "theorem1_experiment"),
}
_HOMES = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    # not cached: each read sees what the module holds now
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
