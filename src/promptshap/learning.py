"""Regression from prompt embeddings to Shapley values.

``fit_regressor(X, y, spec)`` is the one trainer. A ``RegressorSpec`` (from
``config``, where it is the run config's ``regressor`` section) names
the model and holds every parameter and its default; its kind may be given
by its value ("gp"), and an unknown kind is a ``PreconditionError``. The fit
returns a ``TrainedRegressor`` for any of the three kinds: ordinary least
squares (minimum-norm via a rank-revealing solve), ridge with an unpenalized
intercept handled by centering, and Gaussian-process regression with an RBF
kernel, median-heuristic length scale, and Cholesky fitting under escalating
jitter. The spec's parameters for its kind are checked before any arithmetic
on the rows: a non-finite parameter (ridge lambda, a GP variance, length
scale or jitter) is a ``PreconditionError``, and so is ``standardize: true``
for the linear kind, whose least-squares fit does not depend on feature
scale. Predictions are deterministic; holdout evaluation reports Pearson
correlation and RMSE under a seeded shuffle split, and a non-finite
``pearson`` input is a ``PreconditionError``.

Cost model: a GP fit builds one O(N^2) squared-distance matrix, shared by the
median-heuristic length scale and the kernel, and a prediction one O(N*M)
matrix against the training rows. Each matrix is filled one row at a time
through one reused O(M*d) difference, never the O(N*M*d) broadcast; the fit's
symmetric matrix fills only its upper triangle, N(N+1)/2 distances, and
mirrors it. The model file is streamed to disk by ``jsonio.write_json`` one
row of floats at a time, each row one join of float reprs; for a 200 x 768
GP those reprs cost more than the fit itself. Loading a model checks every
array's shape and that every entry is a JSON number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .config import RegressorKind, RegressorSpec
from .errors import (
    ConditioningError,
    ConsistencyError,
    PreconditionError,
    ShapeError,
    UndefinedCorrelationError,
)
from .game import _finite_real
from .jsonio import all_numbers, read_json, read_jsonl, reading, write_json
from .rng import SplitMix64

MODEL_SCHEMA_VERSION = 1
_MAX_JITTER = 1e-4   # a GP fit gives up on the kernel above this jitter


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

    def select(self, ids: Sequence[str]) -> "EmbeddingMatrix":
        index = {pid: i for i, pid in enumerate(self.prompt_ids)}
        missing = [pid for pid in ids if pid not in index]
        if missing:
            raise ConsistencyError(f"embeddings missing for ids: {missing}")
        rows = [index[pid] for pid in ids]
        return EmbeddingMatrix(prompt_ids=tuple(ids), vectors=self.vectors[rows])


def _embedding_row(row: dict) -> tuple[str, list]:
    vector = row["vector"]
    if not isinstance(vector, list) or not all_numbers(vector):
        raise TypeError("'vector' must be an array of numbers")
    return str(row["id"]), vector


def load_embeddings(path) -> EmbeddingMatrix:
    rows = read_jsonl(path, _embedding_row)
    with reading(path):
        lengths = {len(vector) for _, vector in rows}
        if len(lengths) > 1:
            raise ValueError(f"embedding dimensions differ: {sorted(lengths)}")
        return EmbeddingMatrix(prompt_ids=tuple(pid for pid, _ in rows),
                               vectors=np.array([vector for _, vector in rows], dtype=np.float64))


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


def _rbf(sq_dists: np.ndarray, signal_var: float, length_scale: float) -> np.ndarray:
    return signal_var * np.exp(-sq_dists / (2.0 * length_scale * length_scale))


def _pairwise_sq_dists(A: np.ndarray, B: Optional[np.ndarray] = None) -> np.ndarray:
    """``out[i, j] = |A[i] - B[j]|^2``, one row of ``A`` at a time; without
    ``B``, the self-distances of ``A``.

    Each row sums the same differences in the same order as the broadcast
    ``A[:, None, :] - B[None, :, :]`` form, so the result is bit-identical
    while the only temporary is one reused (M, d) difference instead of the
    (N, M, d) one. ``a - b`` is exactly ``-(b - a)`` in IEEE arithmetic, so
    the self-distances fill row i for the columns j >= i only and mirror them
    into column i, half the work with the same bits.
    """
    same = B is None
    if same:
        B = A
    out = np.empty((A.shape[0], B.shape[0]))
    diff = np.empty(B.shape)
    for i, a in enumerate(A):
        first = i if same else 0
        row_diff = diff[first:]
        np.subtract(a, B[first:], out=row_diff)
        np.einsum("jk,jk->j", row_diff, row_diff, out=out[i, first:])
        if same:
            out[first:, i] = out[i, first:]
    return out


def _check_parameters(spec: RegressorSpec) -> None:
    """Refuse a parameter that ``spec.kind`` would use and could not fit with."""
    if spec.kind is RegressorKind.LINEAR:
        if spec.standardize:    # least squares gives the same fit on any feature scale
            raise PreconditionError("regressor.standardize cannot be true for kind 'linear'")
    elif spec.kind is RegressorKind.RIDGE:
        ridge_lambda = spec.ridge_lambda
        if not (_finite_real(ridge_lambda) and ridge_lambda >= 0):
            raise PreconditionError(f"ridge lambda must be a finite real >= 0, got {ridge_lambda}")
    else:
        noise_var, jitter = spec.gp_noise_var, spec.gp_jitter
        length_scale, signal_var = spec.gp_length_scale, spec.gp_signal_var
        if not (_finite_real(noise_var) and noise_var >= 0):
            raise PreconditionError(f"noise variance must be a finite real >= 0, got {noise_var}")
        if not (_finite_real(jitter) and jitter > 0):
            raise PreconditionError(f"jitter must be finite and positive, got {jitter}")
        if length_scale is not None and not (_finite_real(length_scale) and length_scale > 0):
            raise PreconditionError(f"length scale must be finite and positive, got {length_scale}")
        if signal_var is not None and not _finite_real(signal_var):
            raise PreconditionError(f"signal variance must be a finite real, got {signal_var}")


def fit_regressor(X, y, spec: RegressorSpec) -> TrainedRegressor:
    """Fit the regressor that ``spec`` describes to rows ``X`` and targets ``y``.

    Linear is ordinary least squares with an intercept, minimum-norm when
    rank-deficient, and needs two rows. Ridge and GP need one; both center
    the rows and, unless ``spec.standardize`` is false, z-score them. Ridge
    minimizes ||y - Xw - b||^2 + lambda ||w||^2 with the intercept
    unpenalized and folds its weights back into original units, so that
    prediction is always X @ w + b. The GP stores
    alpha = (K + (noise_var + jitter) I)^{-1} (y - mean(y)) from a Cholesky
    factorization, escalating the jitter tenfold on failure up to
    ``_MAX_JITTER``; its default length scale is the median pairwise distance
    of the scaled rows and its default signal variance var(y).
    """
    _check_parameters(spec)
    X = _as_array(X)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    if spec.kind is RegressorKind.LINEAR:
        _check_training(X, y, min_rows=2)
        coef, *_ = np.linalg.lstsq(np.column_stack([X, np.ones(n)]), y, rcond=None)
        return TrainedRegressor(kind=RegressorKind.LINEAR, d=d, weights=coef[:-1],
                                intercept=float(coef[-1]), metadata={"n_train": n})
    _check_training(X, y, min_rows=1)
    standardize = True if spec.standardize is None else spec.standardize
    x_mean = X.mean(axis=0)
    scale = X.std(axis=0) if standardize else np.ones(d)
    scale = np.where(scale == 0.0, 1.0, scale)
    Z = (X - x_mean) / scale
    y_mean = float(y.mean())
    if spec.kind is RegressorKind.RIDGE:
        ridge_lambda = spec.ridge_lambda
        weights = np.linalg.solve(Z.T @ Z + ridge_lambda * np.eye(d), Z.T @ (y - y_mean)) / scale
        return TrainedRegressor(
            kind=RegressorKind.RIDGE,
            d=d,
            weights=weights,
            intercept=y_mean - float(np.dot(weights, x_mean)),
            metadata={"n_train": n, "ridge_lambda": ridge_lambda, "standardize": standardize},
        )
    sq = _pairwise_sq_dists(Z)
    length_scale = spec.gp_length_scale
    if length_scale is None:
        upper = np.sqrt(sq[np.triu_indices(n, k=1)])
        median = float(np.median(upper)) if upper.size else 0.0
        length_scale = median if median > 0 else 1.0
    signal_var = spec.gp_signal_var
    if signal_var is None:
        var = float(y.var())
        signal_var = var if var > 0 else 1.0
    noise_var = spec.gp_noise_var
    K = _rbf(sq, signal_var, length_scale)
    jitter = spec.gp_jitter
    while True:
        try:
            chol = np.linalg.cholesky(K + (noise_var + jitter) * np.eye(n))
            break
        except np.linalg.LinAlgError:
            jitter *= 10.0
            if jitter > _MAX_JITTER:
                raise ConditioningError(
                    f"kernel factorization failed up to jitter {jitter / 10.0:g}",
                    final_jitter=jitter / 10.0,
                ) from None
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, y - y_mean))
    return TrainedRegressor(
        kind=RegressorKind.GAUSSIAN_PROCESS,
        d=d,
        x_mean=x_mean,
        x_scale=scale,
        x_train=Z,
        y_mean=y_mean,
        alpha=alpha,
        length_scale=float(length_scale),
        signal_var=float(signal_var),
        noise_var=float(noise_var),
        jitter_used=float(jitter),
        metadata={"n_train": n, "standardize": standardize},
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
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise PreconditionError("pearson needs finite inputs")
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


# the stored parameters of each model kind: (name, shape), where the shape
# () is a number, "d" the input dimension and "n" the number of training rows
_LINEAR_PARAMETERS = (("weights", ("d",)), ("intercept", ()))
_PARAMETERS = {
    RegressorKind.LINEAR: _LINEAR_PARAMETERS,
    RegressorKind.RIDGE: _LINEAR_PARAMETERS,
    RegressorKind.GAUSSIAN_PROCESS: (
        ("x_mean", ("d",)),
        ("x_scale", ("d",)),
        ("x_train", ("n", "d")),
        ("y_mean", ()),
        ("alpha", ("n",)),
        ("length_scale", ()),
        ("signal_var", ()),
        ("noise_var", ()),
        ("jitter_used", ()),
    ),
}


def save_model(model: TrainedRegressor, path) -> None:
    parameters = {}
    for name, shape in _PARAMETERS[model.kind]:
        value = getattr(model, name)
        if shape and value is not None:
            value = np.asarray(value, dtype=np.float64).tolist()
        parameters[name] = value
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": model.kind.value,
        "d": model.d,
        "metadata": model.metadata,
        "parameters": parameters,
    }
    write_json(path, doc)


def load_model(path) -> TrainedRegressor:
    return read_json(path, _model_from_doc)


def _parameter(value, name: str, shape: tuple[int, ...]):
    """A stored parameter as a float for the shape (), else as a float64 array
    of ``shape``; every entry must be a JSON number."""
    what = f"parameter {name!r}"
    if not shape:
        if not all_numbers([value]):
            raise TypeError(f"{what} must be a number, got {value!r}")
        return float(value)
    rows = value if len(shape) == 2 else [value]
    # x_train sets "n", so only the widths of the rows are left to check
    if not (isinstance(value, list) and all(
            isinstance(row, list) and len(row) == shape[-1] and all_numbers(row)
            for row in rows)):
        size = " x ".join(map(str, shape))
        raise ValueError(f"{what} must be an array of {size} numbers")
    return np.array(value, dtype=np.float64).reshape(shape)


def _model_from_doc(doc: dict) -> TrainedRegressor:
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema {doc.get('schema_version')!r}")
    kind = RegressorKind(doc["kind"])
    d = doc["d"]
    if type(d) is not int or d < 0:
        raise ValueError(f"'d' must be a non-negative integer, got {d!r}")
    params = doc["parameters"]
    if not isinstance(params, dict):
        raise TypeError("'parameters' must be an object")
    x_train = params.get("x_train")
    sizes = {"d": d, "n": len(x_train) if isinstance(x_train, list) else 0}
    return TrainedRegressor(
        kind=kind,
        d=d,
        metadata=doc.get("metadata", {}),
        **{
            name: _parameter(params[name], name, tuple(sizes[dim] for dim in shape))
            for name, shape in _PARAMETERS[kind]
        },
    )
