"""Shapley-value prompt valuation.

Prompts in a few-shot ensemble or augmentation set are players in a
cooperative game whose utility is validation accuracy. This package computes
their exact, Monte Carlo, and leave-one-out values, learns to predict values
from prompt embeddings, verifies the supporting theory numerically, and turns
rankings into rank-and-add selection curves.
"""

from .cache import ResponseCache, UtilityCache, cached_utility
from .coalition import Coalition
from .config import ApiConfig, GameConfig, PathsConfig, RunConfig, Task, UtilityMode, load_config
from .ensemble import (
    Mode,
    PredictionMatrix,
    Rule,
    TieRule,
    ValidationSet,
    matrix_utility,
)
from .errors import (
    CapacityError,
    ConditioningError,
    ConfigError,
    ConsistencyError,
    CredentialError,
    PreconditionError,
    PromptShapError,
    ProtocolError,
    ShapeError,
    TransportError,
    UndefinedCorrelationError,
    UtilityOracleError,
)
from .game import (
    GameSpec,
    Method,
    ShapleyResult,
    loo_values,
    shapley_exact,
    shapley_montecarlo,
    shapley_weight,
)
from .learning import (
    EmbeddingMatrix,
    RegressorKind,
    RegressorSpec,
    TrainedRegressor,
    fit_regressor,
    holdout_eval,
    pearson,
    predict_sv,
)
from .rng import SplitMix64, derive_seed
from .selection import BestPrefix, Curve, CurvePoint, best_prefix, rank_add_curve, rank_order
from .theory import (
    BetaSpec,
    LipschitzGame,
    ensemble_perturbation,
    lemma1_identity,
    mean_field_shapley,
    theorem1_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "ApiConfig",
    "BestPrefix",
    "BetaSpec",
    "CapacityError",
    "Coalition",
    "ConditioningError",
    "ConfigError",
    "ConsistencyError",
    "CredentialError",
    "Curve",
    "CurvePoint",
    "EmbeddingMatrix",
    "GameConfig",
    "GameSpec",
    "LipschitzGame",
    "Method",
    "Mode",
    "PathsConfig",
    "PreconditionError",
    "PredictionMatrix",
    "PromptShapError",
    "ProtocolError",
    "RegressorKind",
    "RegressorSpec",
    "ResponseCache",
    "Rule",
    "RunConfig",
    "ShapeError",
    "ShapleyResult",
    "SplitMix64",
    "Task",
    "TieRule",
    "TrainedRegressor",
    "TransportError",
    "UndefinedCorrelationError",
    "UtilityCache",
    "UtilityMode",
    "UtilityOracleError",
    "ValidationSet",
    "best_prefix",
    "cached_utility",
    "derive_seed",
    "ensemble_perturbation",
    "fit_regressor",
    "holdout_eval",
    "lemma1_identity",
    "load_config",
    "loo_values",
    "matrix_utility",
    "mean_field_shapley",
    "pearson",
    "predict_sv",
    "rank_add_curve",
    "rank_order",
    "shapley_exact",
    "shapley_montecarlo",
    "shapley_weight",
    "theorem1_experiment",
]
