"""Regression from prompt embeddings to Shapley values.

Three regressors share the ``TrainedRegressor`` container: ordinary least
squares (minimum-norm via a rank-revealing solve), ridge with an unpenalized
intercept handled by centering, and Gaussian-process regression with an RBF
kernel, median-heuristic length scale, and Cholesky fitting under escalating
jitter. Predictions are deterministic; holdout evaluation reports Pearson
correlation and RMSE under a seeded shuffle split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConditioningError,
    ConsistencyError,
    PreconditionError,
    ShapeError,
    UndefinedCorrelationError,
)
from .jsonio import dumps, read_json, read_jsonl, write_jsonl
from .rng import SplitMix64

MODEL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class EmbeddingMatrix:
    prompt_ids: tuple[str, ...]
    vectors: np.ndarray

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=np.float64)
        object.__setattr__(self, "vectors", vectors)
        if vectors.ndim != 2:
            raise ConsistencyError(f"embedding vectors must be 2-D, got shape {vectors.shape}")
        if len(self.prompt_ids) != vectors.shape[0]:
            raise ConsistencyError(
                f"{len(self.prompt_ids)} ids for {vectors.shape[0]} vector rows"
            )
        if len(set(self.prompt_ids)) != len(self.prompt_ids):
            raise ConsistencyError("embedding prompt ids are not unique")
        if vectors.size and not np.isfinite(vectors).all():
            raise ConsistencyError("embedding vectors contain non-finite entries")

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    def select(self, ids: Sequence[str]) -> "EmbeddingMatrix":
        index = {pid: i for i, pid in enumerate(self.prompt_ids)}
        missing = [pid for pid in ids if pid not in index]
        if missing:
            raise ConsistencyError(f"embeddings missing for ids: {missing}")
        rows = [index[pid] for pid in ids]
        return EmbeddingMatrix(prompt_ids=tuple(ids), vectors=self.vectors[rows])


def _embedding_row(row: dict) -> tuple[str, list[float]]:
    vector = row["vector"]
    if not isinstance(vector, list):
        raise TypeError("'vector' must be an array of numbers")
    return str(row["id"]), [float(x) for x in vector]


def load_embeddings(path) -> EmbeddingMatrix:
    rows = read_jsonl(path, _embedding_row)
    ids = [pid for pid, _ in rows]
    vectors = [vector for _, vector in rows]
    lengths = {len(v) for v in vectors}
    if len(lengths) > 1:
        raise ConsistencyError(f"{path}: embedding dimensions differ: {sorted(lengths)}")
    return EmbeddingMatrix(prompt_ids=tuple(ids), vectors=np.array(vectors, dtype=np.float64))


def save_embeddings(embeddings: EmbeddingMatrix, path) -> None:
    write_jsonl(path, [
        {"id": pid, "vector": [float(x) for x in vec]}
        for pid, vec in zip(embeddings.prompt_ids, embeddings.vectors)
    ])


class RegressorKind(str, Enum):
    LINEAR = "linear"
    RIDGE = "ridge"
    GAUSSIAN_PROCESS = "gp"


@dataclass(frozen=True)
class RegressorSpec:
    kind: RegressorKind = RegressorKind.RIDGE
    ridge_lambda: float = 1.0
    standardize: Optional[bool] = None   # None = kind default (off for linear)
    gp_length_scale: Optional[float] = None   # None = median pairwise distance
    gp_signal_var: Optional[float] = None     # None = var(y)
    gp_noise_var: float = 1e-4
    gp_jitter: float = 1e-10

    def resolve_standardize(self) -> bool:
        if self.standardize is not None:
            return self.standardize
        return self.kind is not RegressorKind.LINEAR


@dataclass(frozen=True)
class TrainedRegressor:
    kind: RegressorKind
    d: int
    # linear / ridge
    weights: Optional[np.ndarray] = None
    intercept: Optional[float] = None
    # gaussian process
    x_mean: Optional[np.ndarray] = None
    x_scale: Optional[np.ndarray] = None
    x_train: Optional[np.ndarray] = None
    y_mean: Optional[float] = None
    alpha: Optional[np.ndarray] = None
    length_scale: Optional[float] = None
    signal_var: Optional[float] = None
    noise_var: Optional[float] = None
    jitter_used: Optional[float] = None
    metadata: dict = field(default_factory=dict)


def _as_array(X) -> np.ndarray:
    vectors = X.vectors if isinstance(X, EmbeddingMatrix) else np.asarray(X, dtype=np.float64)
    if vectors.ndim != 2:
        raise ShapeError(f"expected a 2-D feature matrix, got shape {vectors.shape}")
    return vectors


def _check_training(X: np.ndarray, y: np.ndarray, min_rows: int = 2) -> None:
    if X.shape[0] != y.shape[0]:
        raise ShapeError(f"{X.shape[0]} feature rows for {y.shape[0]} targets")
    if X.shape[0] < min_rows:
        raise PreconditionError(
            f"training needs at least {min_rows} sample(s), got {X.shape[0]}"
        )


def train_linear(X, y) -> TrainedRegressor:
    """Ordinary least squares with intercept; minimum-norm when rank-deficient."""
    X = _as_array(X)
    y = np.asarray(y, dtype=np.float64)
    _check_training(X, y)
    augmented = np.column_stack([X, np.ones(X.shape[0])])
    coef, *_ = np.linalg.lstsq(augmented, y, rcond=None)
    return TrainedRegressor(
        kind=RegressorKind.LINEAR,
        d=X.shape[1],
        weights=coef[:-1],
        intercept=float(coef[-1]),
        metadata={"n_train": int(X.shape[0])},
    )


def train_ridge(X, y, ridge_lambda: float = 1.0, standardize: bool = True) -> TrainedRegressor:
    """Minimize ||y - Xw - b||^2 + lambda ||w||^2 with the intercept unpenalized.

    Centering removes the intercept from the penalized solve; optional
    z-scoring makes lambda comparable across feature scales. Weights are
    folded back into original units so prediction is always X @ w + b.
    """
    if ridge_lambda < 0:
        raise PreconditionError(f"ridge lambda must be >= 0, got {ridge_lambda}")
    X = _as_array(X)
    y = np.asarray(y, dtype=np.float64)
    _check_training(X, y, min_rows=1)
    x_mean = X.mean(axis=0)
    y_mean = float(y.mean())
    scale = X.std(axis=0) if standardize else np.ones(X.shape[1])
    scale = np.where(scale == 0.0, 1.0, scale)
    Xc = (X - x_mean) / scale
    w_scaled = np.linalg.solve(
        Xc.T @ Xc + ridge_lambda * np.eye(X.shape[1]), Xc.T @ (y - y_mean)
    )
    weights = w_scaled / scale
    return TrainedRegressor(
        kind=RegressorKind.RIDGE,
        d=X.shape[1],
        weights=weights,
        intercept=y_mean - float(np.dot(weights, x_mean)),
        metadata={
            "n_train": int(X.shape[0]),
            "ridge_lambda": ridge_lambda,
            "standardize": standardize,
        },
    )


def _rbf(sq_dists: np.ndarray, signal_var: float, length_scale: float) -> np.ndarray:
    return signal_var * np.exp(-sq_dists / (2.0 * length_scale * length_scale))


def _pairwise_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    diff = A[:, None, :] - B[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def train_gp(X, y, length_scale: Optional[float] = None, signal_var: Optional[float] = None,
             noise_var: float = 1e-4, jitter: float = 1e-10,
             standardize: bool = True, max_jitter: float = 1e-4) -> TrainedRegressor:
    """RBF-kernel Gaussian process regression around the training mean.

    Stores alpha = (K + (noise_var + jitter) I)^{-1} (y - mean(y)) from a
    Cholesky factorization, escalating jitter tenfold on failure up to
    ``max_jitter``. The default length scale is the median pairwise distance
    of the (standardized) inputs; the default signal variance is var(y).
    """
    if noise_var < 0:
        raise PreconditionError(f"noise variance must be >= 0, got {noise_var}")
    if jitter <= 0:
        raise PreconditionError(f"jitter must be positive, got {jitter}")
    X = _as_array(X)
    y = np.asarray(y, dtype=np.float64)
    _check_training(X, y, min_rows=1)
    x_mean = X.mean(axis=0)
    scale = X.std(axis=0) if standardize else np.ones(X.shape[1])
    scale = np.where(scale == 0.0, 1.0, scale)
    Z = (X - x_mean) / scale
    if length_scale is None:
        sq = _pairwise_sq_dists(Z, Z)
        upper = np.sqrt(sq[np.triu_indices(Z.shape[0], k=1)])
        median = float(np.median(upper)) if upper.size else 0.0
        length_scale = median if median > 0 else 1.0
    elif length_scale <= 0:
        raise PreconditionError(f"length scale must be positive, got {length_scale}")
    if signal_var is None:
        var = float(y.var())
        signal_var = var if var > 0 else 1.0
    y_mean = float(y.mean())
    K = _rbf(_pairwise_sq_dists(Z, Z), signal_var, length_scale)
    current = jitter
    chol = None
    while True:
        try:
            chol = np.linalg.cholesky(K + (noise_var + current) * np.eye(K.shape[0]))
            break
        except np.linalg.LinAlgError:
            current *= 10.0
            if current > max_jitter:
                raise ConditioningError(
                    f"kernel factorization failed up to jitter {current / 10.0:g}",
                    final_jitter=current / 10.0,
                ) from None
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, y - y_mean))
    return TrainedRegressor(
        kind=RegressorKind.GAUSSIAN_PROCESS,
        d=X.shape[1],
        x_mean=x_mean,
        x_scale=scale,
        x_train=Z,
        y_mean=y_mean,
        alpha=alpha,
        length_scale=float(length_scale),
        signal_var=float(signal_var),
        noise_var=float(noise_var),
        jitter_used=float(current),
        metadata={"n_train": int(X.shape[0]), "standardize": standardize},
    )


def fit_regressor(X, y, spec: RegressorSpec) -> TrainedRegressor:
    if spec.kind is RegressorKind.LINEAR:
        return train_linear(X, y)
    if spec.kind is RegressorKind.RIDGE:
        return train_ridge(X, y, spec.ridge_lambda, spec.resolve_standardize())
    return train_gp(
        X, y,
        length_scale=spec.gp_length_scale,
        signal_var=spec.gp_signal_var,
        noise_var=spec.gp_noise_var,
        jitter=spec.gp_jitter,
        standardize=spec.resolve_standardize(),
    )


def predict_sv(model: TrainedRegressor, X_new) -> np.ndarray:
    X = _as_array(X_new)
    if X.shape[0] == 0:
        return np.empty(0, dtype=np.float64)
    if X.shape[1] != model.d:
        raise ShapeError(f"model expects d={model.d}, got d={X.shape[1]}")
    if model.kind in (RegressorKind.LINEAR, RegressorKind.RIDGE):
        return X @ model.weights + model.intercept
    Z = (X - model.x_mean) / model.x_scale
    K_star = _rbf(_pairwise_sq_dists(Z, model.x_train), model.signal_var, model.length_scale)
    return model.y_mean + K_star @ model.alpha


def pearson(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise PreconditionError(f"pearson needs equal-length 1-D inputs, got {a.shape}, {b.shape}")
    if a.shape[0] < 2:
        raise PreconditionError("pearson needs at least 2 samples")
    ac = a - a.mean()
    bc = b - b.mean()
    denom_sq = float(ac @ ac) * float(bc @ bc)
    if denom_sq == 0.0:
        raise UndefinedCorrelationError("pearson is undefined for zero-variance input")
    r = float(ac @ bc) / math.sqrt(denom_sq)
    return max(-1.0, min(1.0, r))


def holdout_eval(X, y, spec: RegressorSpec, split_seed: int = 0, fraction: float = 0.2,
                 ids: Optional[Sequence[str]] = None) -> dict:
    """Seeded shuffle split: hold out ``fraction`` of the rows, train on the rest.

    Reports Pearson correlation and RMSE on the held-out rows plus per-id
    residuals; deterministic given the seed.
    """
    X = _as_array(X)
    y = np.asarray(y, dtype=np.float64)
    _check_training(X, y)
    if not 0.0 < fraction < 1.0:
        raise PreconditionError(f"holdout fraction must lie in (0, 1), got {fraction}")
    n = X.shape[0]
    if ids is None:
        ids = [f"p{i}" for i in range(n)]
    ids = list(ids)
    if len(ids) != n:
        raise ConsistencyError(f"{len(ids)} ids for {n} rows")
    order = list(range(n))
    SplitMix64(split_seed).shuffle(order)
    n_test = int(round(fraction * n))
    test_idx, train_idx = order[:n_test], order[n_test:]
    if len(train_idx) < 2 or len(test_idx) < 2:
        raise PreconditionError(
            f"degenerate split: {len(train_idx)} train / {len(test_idx)} test samples"
        )
    model = fit_regressor(X[train_idx], y[train_idx], spec)
    predictions = predict_sv(model, X[test_idx])
    truth = y[test_idx]
    rmse = float(np.sqrt(np.mean((predictions - truth) ** 2)))
    return {
        "kind": spec.kind.value,
        "pearson": pearson(predictions, truth),
        "rmse": rmse,
        "n_train": len(train_idx),
        "n_test": len(test_idx),
        "seed": split_seed,
        "fraction": fraction,
        "residuals": [
            {"id": ids[i], "true": float(truth[pos]), "pred": float(predictions[pos])}
            for pos, i in enumerate(test_idx)
        ],
    }


# ---------------------------------------------------------------------------
# model files


# the stored parameters of each model kind: (name, whether it is an array)
_LINEAR_PARAMETERS = (("weights", True), ("intercept", False))
_PARAMETERS = {
    RegressorKind.LINEAR: _LINEAR_PARAMETERS,
    RegressorKind.RIDGE: _LINEAR_PARAMETERS,
    RegressorKind.GAUSSIAN_PROCESS: (
        ("x_mean", True),
        ("x_scale", True),
        ("x_train", True),
        ("y_mean", False),
        ("alpha", True),
        ("length_scale", False),
        ("signal_var", False),
        ("noise_var", False),
        ("jitter_used", False),
    ),
}


def save_model(model: TrainedRegressor, path) -> None:
    parameters = {}
    for name, is_array in _PARAMETERS[model.kind]:
        value = getattr(model, name)
        if is_array and value is not None:
            value = np.asarray(value, dtype=np.float64).tolist()
        parameters[name] = value
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": model.kind.value,
        "d": model.d,
        "metadata": model.metadata,
        "parameters": parameters,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def load_model(path) -> TrainedRegressor:
    return read_json(path, _model_from_doc)


def _model_from_doc(doc: dict) -> TrainedRegressor:
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema {doc.get('schema_version')!r}")
    kind = RegressorKind(doc["kind"])
    params = doc["parameters"]
    return TrainedRegressor(
        kind=kind,
        d=int(doc["d"]),
        metadata=doc.get("metadata", {}),
        **{
            name: np.array(params[name], dtype=np.float64) if is_array else float(params[name])
            for name, is_array in _PARAMETERS[kind]
        },
    )
